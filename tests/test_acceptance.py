"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one printed
PASS/FAIL line per criterion.
"""

import time

import numpy as np
import pytest

from conftest import STRONG, WEAK, make_random_params
from lics import (
    Basis,
    Params,
    State,
    TimeGrid,
    analytic_bright,
    block_diagonalize,
    degeneracy_validity,
    effective_hamiltonian,
    evolve,
    fano_scan,
    from_bright_dark,
    integrate,
    to_bright_dark,
    trapping_delta,
    trapping_residual,
)
from lics.cli import main


class _Criterion:
    """Prints one `acceptance <name>: PASS|FAIL` line per criterion."""

    def __init__(self, name: str):
        self.name = name
        self.start = time.perf_counter()

    def __enter__(self):
        return self

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\nacceptance {self.name}: {status}", flush=True)
        return False


def test_criterion_1_block_diagonalization():
    with _Criterion("1 block-diagonalization residual") as c:
        rng = np.random.default_rng(101)
        for _ in range(1000):
            p = make_random_params(rng)
            h = effective_hamiltonian(p)
            _, _, residual = block_diagonalize(h)
            assert residual < 1e-12 * np.abs(h).max()
        assert c.elapsed < 1.0


def _bright_min_abs_imag(p: Params, deltas: np.ndarray) -> np.ndarray:
    """Independent oracle: closed-form 2x2 eigenvalues, vectorized."""
    a = p.stark_g - 0.5 * (p.q_gg + 2j) * p.gamma_g
    b = deltas + p.stark_e - 0.5 * (p.q_ee + 2j) * p.gamma_e
    c = -(p.q_eg + 1j) * np.sqrt(p.gamma_e * p.gamma_g)
    mid = 0.5 * (a + b)
    root = np.sqrt(0.25 * (a - b) ** 2 + c * c)
    return np.minimum(np.abs((mid + root).imag), np.abs((mid - root).imag))


def test_criterion_2_trapping_condition():
    with _Criterion("2 trapping condition") as c:
        rng = np.random.default_rng(202)
        for _ in range(1000):
            p = make_random_params(rng)
            residual = trapping_residual(p, trapping_delta(p))
            assert residual < 1e-10 * (p.gamma_e + p.gamma_g)
        for k in range(10):
            p = Params(**STRONG) if k == 0 else make_random_params(rng)
            trap = trapping_delta(p)
            deltas = trap + np.arange(-10000, 10001) * 1e-4
            best = deltas[int(np.argmin(_bright_min_abs_imag(p, deltas)))]
            assert abs(best - trap) <= 1e-4 + 1e-12
        assert c.elapsed < 5.0


def test_criterion_3_bright_start_reproduction():
    with _Criterion("3 bright-start trajectory") as c:
        p = Params(**STRONG, delta=0.809)
        grid = TimeGrid(0.0, 6.0, 601)
        traj = evolve(p, "four_state", "bright", grid)
        assert traj.ionization[-1] == pytest.approx(0.3015351, abs=1e-6)

        bg, be = analytic_bright(p, grid.times())
        closed = np.stack([bg, be], axis=1)
        via_expm = traj.amps[:, :2]
        s0 = State(Basis.ORIGINAL4, [2**-0.5, 2**-0.5, 0.0, 0.0])
        rk = integrate(effective_hamiltonian(p), s0, grid, 1e-11)
        via_rk = np.array([to_bright_dark(State(rk.basis, a)).amps[:2] for a in rk.amps])

        assert np.abs(closed - via_expm).max() < 1e-8
        assert np.abs(closed - via_rk).max() < 1e-8
        assert np.abs(via_expm - via_rk).max() < 1e-8
        assert c.elapsed < 1.0


def test_criterion_4_single_ground_start_reproduction():
    with _Criterion("4 single-ground-start trajectory"):
        p = Params(**STRONG, delta=0.809)
        traj = evolve(p, "four_state", "g1", TimeGrid(0.0, 6.0, 601))
        dark_population = np.abs(traj.amps[:, 2]) ** 2
        assert np.abs(dark_population - 0.5).max() < 1e-10
        assert traj.ionization[-1] == pytest.approx(0.1507675, abs=1e-6)


@pytest.fixture(scope="module")
def detuning_scans():
    p = Params(**STRONG)
    grid = np.linspace(-10.0, 10.0, 2001)
    start = time.perf_counter()
    bright = fano_scan(p, grid, 6.0, "bright", "four_state")
    single = fano_scan(p, grid, 6.0, "g1", "four_state")
    two_level = fano_scan(p, grid, 6.0, "g1", "twolevel2")
    elapsed = time.perf_counter() - start
    return bright, single, two_level, elapsed


def test_criterion_5a_bright_profile_minimum_location(detuning_scans):
    with _Criterion("5a bright-profile argmin at the trapping detuning"):
        bright, _, _, elapsed = detuning_scans
        step = bright.deltas[1] - bright.deltas[0]
        assert abs(bright.min_delta - 0.809) <= step + 1e-12
        assert elapsed < 10.0


def test_criterion_5b_single_ground_profile_bounded(detuning_scans):
    with _Criterion("5b single-ground profile bounded by 1/2"):
        _, single, _, elapsed = detuning_scans
        assert np.all(single.ionization <= 0.5 + 1e-9)
        assert elapsed < 10.0


def test_criterion_5c_two_level_minimum_mismatch(detuning_scans):
    with _Criterion("5c two-level minimum mismatch"):
        _, single, two_level, elapsed = detuning_scans
        idx = int(np.argmin(two_level.ionization))
        assert single.ionization[idx] - single.ionization.min() >= 0.05
        assert elapsed < 10.0


def test_criterion_6_level_splitting_study():
    with _Criterion("6 level-splitting comparison") as c:
        delta = trapping_delta(Params(**WEAK))
        grid = TimeGrid(0.0, 10.0, 201)
        # 801 detuning points resolve the profile minima to 0.025/T,
        # twenty times finer than the 0.5/T comparison tolerance
        deltas = np.linspace(-10.0, 10.0, 801)
        tiny, split = (
            degeneracy_validity(Params(**WEAK, delta=delta, shift_g=shift, shift_e=shift), grid, deltas, tol=1e-10)
            for shift in (1e-6, 0.2)
        )
        tail = split.times >= 5.0
        assert np.all(split.ionization_shifted[tail] > split.ionization_degenerate[tail])
        assert tiny.sup_state_diff < 1e-4
        assert abs(split.profile_min_shifted - split.profile_min_degenerate) <= 0.5
        assert c.elapsed < 10.0


def test_criterion_7_physics_invariants():
    with _Criterion("7 physics invariants") as c:
        rng = np.random.default_rng(707)
        models = ("four_state", "bright2", "twolevel2", "nondegenerate4")
        inits = ("bright", "g1", "g2")
        for _ in range(200):
            p = make_random_params(rng)
            model = models[rng.integers(len(models))]
            if model == "nondegenerate4":
                import dataclasses

                p = dataclasses.replace(
                    p,
                    shift_g=float(rng.uniform(0.0, 1.0)),
                    shift_e=float(rng.uniform(0.0, 1.0)),
                )
            traj = evolve(p, model, inits[rng.integers(len(inits))], TimeGrid(0.0, 4.0, 61))
            assert np.all(np.diff(traj.ionization) >= -1e-9)
            assert traj.ionization.min() >= -1e-9
            assert traj.ionization.max() <= 1.0 + 1e-9

        hermitian = Params(gamma_g=0.0, gamma_e=0.0, stark_g=1.3, stark_e=-0.8, delta=2.0)
        s0 = State(Basis.ORIGINAL4, [0.5, 0.5, 0.5, 0.5])
        traj = integrate(effective_hamiltonian(hermitian), s0, TimeGrid(0.0, 10.0, 101), 1e-12)
        norms = np.array([State(traj.basis, a).norm_sq for a in traj.amps])
        assert np.abs(norms - 1.0).max() < 1e-10

        for _ in range(100):
            raw = rng.normal(size=4) + 1j * rng.normal(size=4)
            s = State(Basis.ORIGINAL4, raw / np.linalg.norm(raw))
            mapped = to_bright_dark(s)
            assert abs(mapped.norm_sq - s.norm_sq) < 1e-15
            assert np.abs(from_bright_dark(mapped).amps - s.amps).max() < 1e-15
        assert c.elapsed < 5.0


def test_criterion_8_deterministic_output(tmp_path):
    with _Criterion("8 deterministic CSV output"):
        strong_lines = "".join(f"{k} = {v}\n" for k, v in STRONG.items())
        weak_lines = "".join(f"{k} = {v}\n" for k, v in WEAK.items())
        configs = {
            "evolve": strong_lines + "command = evolve\ndelta = trap\ninit = g1\nn_samples = 201\n",
            "fano": strong_lines
            + "command = fano\ninit = g1\ndelta_min = -5\ndelta_max = 5\ndelta_steps = 101\n",
            "trap": strong_lines + "command = trap\n",
            "eigen": strong_lines + "command = eigen\nmodel = bright2\ndelta = trap\n",
            "nondeg": weak_lines
            + "command = nondeg\ndelta = trap\nshift_g = 0.2\nshift_e = 0.2\n"
            + "t_end = 10\nn_samples = 51\ndelta_min = -3\ndelta_max = 1\ndelta_steps = 41\n",
        }
        for name, text in configs.items():
            config = tmp_path / f"{name}.conf"
            config.write_text(text)
            first = tmp_path / f"{name}_first.csv"
            second = tmp_path / f"{name}_second.csv"
            assert main([str(config), "--out", str(first)]) == 0
            assert main([str(config), "--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes()
