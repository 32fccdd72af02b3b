"""Workload inputs: the CLI configurations each workload runs, made from a seed.

Every workload is a list of ``Command`` objects.  A command is one
``lics`` configuration file; running all of a workload's commands once
is one round.  The seed only chooses parameter values, never sizes, so
every seed does the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# strong drive of configs/bright_evolution.conf and configs/detuning_scan.conf
STRONG = dict(gamma_g=5.5, gamma_e=12.74, stark_g=0.5, stark_e=0.6, q_gg=2.3, q_eg=3.4, q_ee=5.0)
# weak drive of configs/splitting_comparison.conf
WEAK = dict(gamma_g=1.08, gamma_e=2.09, stark_g=0.33, stark_e=0.26, q_gg=2.3, q_eg=2.4, q_ee=2.5)

# A point on the bright pair's exceptional-point manifold
# gamma_e - gamma_g = 2 q_eg sqrt(gamma_g gamma_e), reached at
# delta = stark_g - stark_e + (q_ee gamma_e - q_gg gamma_g) / 2 + 2 sqrt(gamma_g gamma_e).
# Every value is a short binary fraction, so the matrix is exactly defective
# in floating point and the scan grid can hold EP_DELTA exactly.
EXCEPTIONAL = dict(gamma_g=1.0, gamma_e=4.0, stark_g=0.5, stark_e=0.25, q_gg=1.0, q_eg=0.75, q_ee=0.5)
EP_DELTA = 4.75
# window centred on EP_DELTA with a binary-fraction step for an even number
# of intervals, so np.linspace puts EP_DELTA on its middle point exactly
EP_HALF_WIDTH = 7.8125

WORKLOADS = ("scan", "trajectory", "splitting")


@dataclass(frozen=True)
class Sizes:
    scan_points: int
    trajectory_samples: int
    splitting_samples: int
    splitting_points: int


FULL = Sizes(scan_points=2001, trajectory_samples=20001, splitting_samples=401, splitting_points=201)
# for the self-test: same commands and checks, a small fraction of the work
TINY = Sizes(scan_points=41, trajectory_samples=401, splitting_samples=41, splitting_points=11)


@dataclass
class Command:
    """One CLI run: physics parameters plus the other configuration keys."""

    name: str
    params: dict
    keys: dict
    # propagated amplitude vectors the command reports
    states: int

    def config_text(self, out: str) -> str:
        lines = [f"# benchmark command {self.name}"]
        lines += [f"{k} = {_fmt(v)}" for k, v in self.params.items()]
        lines += [f"{k} = {_fmt(v)}" for k, v in self.keys.items()]
        lines.append(f"out = {out}")
        lines.append("plot = true")
        return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    # four decimals keep the generated configurations readable
    return round(rng.uniform(lo, hi), 4)


def _random_params(rng: random.Random, gamma_g, gamma_e) -> dict:
    return dict(
        gamma_g=_uniform(rng, *gamma_g),
        gamma_e=_uniform(rng, *gamma_e),
        stark_g=_uniform(rng, -1.0, 1.0),
        stark_e=_uniform(rng, -1.0, 1.0),
        q_gg=_uniform(rng, -5.0, 5.0),
        q_eg=_uniform(rng, -5.0, 5.0),
        q_ee=_uniform(rng, -5.0, 5.0),
    )


def scan(seed: int, sizes: Sizes = FULL) -> list[Command]:
    """Six ``fano`` scans: the reference models, a seeded parameter set and
    an exceptional point."""
    rng = random.Random(seed)
    n = sizes.scan_points
    window = dict(t_obs=6.0, delta_min=-10.0, delta_max=10.0, delta_steps=n)
    rand = _random_params(rng, (1.0, 8.0), (2.0, 16.0))
    rand_init = rng.choice(("bright", "g1", "g2"))

    def fano(name, params, model, init, **over):
        keys = dict(command="fano", model=model, init=init, **{**window, **over})
        return Command(name, params, keys, states=n)

    return [
        fano("four_state-bright", STRONG, "four_state", "bright"),
        fano("four_state-g1", STRONG, "four_state", "g1"),
        fano("bright2-bright", STRONG, "bright2", "bright"),
        fano("twolevel2-g1", STRONG, "twolevel2", "g1"),
        fano(f"four_state-random-{rand_init}", rand, "four_state", rand_init),
        fano(
            "four_state-exceptional",
            EXCEPTIONAL,
            "four_state",
            "bright",
            delta_min=EP_DELTA - EP_HALF_WIDTH,
            delta_max=EP_DELTA + EP_HALF_WIDTH,
        ),
    ]


def trajectory(seed: int, sizes: Sizes = FULL) -> list[Command]:
    """Five long ``evolve`` runs at the trapping detuning of a seeded
    parameter set.

    Two-state runs get twice the samples of four-state runs, which makes
    all five cost about the same, so the median command time falls inside
    one group of similar commands rather than on the edge between two.
    """
    rng = random.Random(seed)
    n = sizes.trajectory_samples
    # gamma_g + gamma_e >= 8 decays the bright pair by exp(-48) within t = 6,
    # so the final ionization has reached its asymptote far below 1e-6
    params = {**_random_params(rng, (2.0, 8.0), (6.0, 16.0)), "delta": "trap"}
    shifted = {**params, "shift_g": _uniform(rng, 0.05, 0.3), "shift_e": _uniform(rng, 0.05, 0.3)}

    def evolve(name, p, model, init, samples):
        keys = dict(command="evolve", model=model, init=init, t_start=0.0, t_end=6.0, n_samples=samples)
        return Command(name, p, keys, states=samples)

    return [
        evolve("four_state-bright", params, "four_state", "bright", n),
        evolve("four_state-g1", params, "four_state", "g1", n),
        evolve("bright2-bright", params, "bright2", "bright", 2 * n - 1),
        evolve("twolevel2-g1", params, "twolevel2", "g1", 2 * n - 1),
        evolve("nondegenerate4-g1", shifted, "nondegenerate4", "g1", n),
    ]


def splitting(seed: int, sizes: Sizes = FULL) -> list[Command]:
    """Four ``nondeg`` comparisons at the weak drive, splittings 1e-6 to 0.2."""
    rng = random.Random(seed)
    n, m = sizes.splitting_samples, sizes.splitting_points
    shifts = [
        1e-6,
        float(f"{10 ** rng.uniform(-5.0, -3.0):.3g}"),
        float(f"{10 ** rng.uniform(-3.0, -1.0):.3g}"),
        0.2,
    ]
    commands = []
    for shift in shifts:
        params = {**WEAK, "delta": "trap", "shift_g": shift, "shift_e": shift}
        keys = dict(
            command="nondeg",
            t_start=0.0,
            t_end=40.0,
            n_samples=n,
            delta_min=-10.0,
            delta_max=10.0,
            delta_steps=m,
            tol=1e-12,
        )
        # two trajectories (degenerate, split) and two detuning profiles
        commands.append(Command(f"shift-{shift:g}", params, keys, states=2 * n + 2 * m))
    return commands


_BY_NAME = {"scan": scan, "trajectory": trajectory, "splitting": splitting}


def commands(workload: str, seed: int, sizes: Sizes = FULL) -> list[Command]:
    return _BY_NAME[workload](seed, sizes)
