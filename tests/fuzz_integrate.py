"""Fuzz the runs of cut steps of lics.dynamics.integrate against the
step-by-step DOP853 loop they replace.

Run from the root of a source checkout:

    PYTHONPATH=src python tests/fuzz_integrate.py [-n N] [--seed S]

Each of N draws (default 10**4) is a random dissipative 2x2 or 4x4
Hamiltonian h = A - iB (A Hermitian, B positive semidefinite) with
largest entry in [0.1, 10], a random unit initial state, a grid of 2 to
401 samples over [0, T] with T in [0.1, 20], and a tolerance in [1e-12,
1e-4], all log-uniform where they span decades.  Each draw runs through
``_scalar_integrate`` of tests/test_dynamics.py and through
``integrate``; the amplitudes must agree bit for bit and the controller
must make the same accept/reject decisions, and a draw that raises
IntegrationError must raise it in both.  The script prints every
mismatch, the share of draws and decisions that ran in runs, how runs
ended, and the share of computed steps that were computed in runs and
then dropped; it exits with status 1 on any mismatch.  The file name does
not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

import lics.dynamics
from lics import Basis, State, TimeGrid
from test_dynamics import _both_integrators, _dissipative_hamiltonian, _scalar_integrate


class _Counts:
    """Wraps ``_error_norm`` and ``_control`` to count the steps computed
    and decided alone and in runs; a run is a stacked ``_error_norm`` call,
    and the decisions after it, up to the next call, are the run's."""

    def __init__(self):
        self.alone = self.run_steps = self.run_decided = self.runs = 0
        self.run_rejected = 0
        self.in_run = False
        self._error_norm = lics.dynamics._error_norm
        self._control = lics.dynamics._control

    def error_norm(self, diff, scale):
        self.in_run = diff.ndim == 3
        if self.in_run:
            self.runs += 1
            self.run_steps += diff.shape[0]
        else:
            self.alone += 1
        return self._error_norm(diff, scale)

    def control(self, e5, e3, step, used, cut):
        accepted, proposed = self._control(e5, e3, step, used, cut)
        if self.in_run:
            self.run_decided += 1
            self.run_rejected += not accepted
        return accepted, proposed


def _draw(rng: np.random.Generator):
    dim = int(rng.choice([2, 4]))
    h = _dissipative_hamiltonian(rng, dim)
    h *= 10.0 ** rng.uniform(-1.0, 1.0) / np.abs(h).max()
    s0v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    s0 = State(Basis.ORIGINAL4 if dim == 4 else Basis.BRIGHT2, s0v / np.linalg.norm(s0v))
    t_end = float(10.0 ** rng.uniform(-1.0, np.log10(20.0)))
    tol = float(10.0 ** rng.uniform(-12.0, -4.0))
    n_samples = int(rng.integers(2, 402))
    if rng.random() < 0.5:
        # intervals near the steps the tolerance allows, where runs end in
        # rejections and uncut steps: the median accepted step of an
        # unsampled run, times a factor in [0.7, 1.5]
        steps = []
        _scalar_integrate(h, s0, TimeGrid(0.0, t_end, 2), tol, steps)
        typical = float(np.median([used for used, accepted in steps if accepted]))
        n_samples = int(np.clip(round(t_end / (typical * rng.uniform(0.7, 1.5))) + 1, 2, 401))
    return h, s0, TimeGrid(0.0, t_end, n_samples), tol


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", type=int, default=10**4, help="draws (default 10**4)")
    parser.add_argument("--seed", type=int, default=1617)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    counts = _Counts()
    lics.dynamics._error_norm = counts.error_norm
    lics.dynamics._control = counts.control
    start = time.perf_counter()
    mismatches = underflows = draws_with_runs = decided = 0
    for i in range(args.n):
        h, s0, grid, tol = _draw(rng)
        runs_before = counts.runs
        (ref, ref_decisions), (amps, decisions) = _both_integrators(h, s0, grid, tol)
        decided += len(decisions)
        draws_with_runs += counts.runs > runs_before
        underflows += ref is None
        same = (ref is None and amps is None) or (
            ref is not None and amps is not None and np.array_equal(ref, amps, equal_nan=True)
        )
        if not same or decisions != ref_decisions:
            mismatches += 1
            print(
                f"draw {i}: dim {s0.basis.dim}, {grid.n_samples} samples over [0, {grid.t_end!r}], "
                f"tol {tol!r}: amplitudes {'equal' if same else 'differ'}, "
                f"{len(decisions)} decisions against {len(ref_decisions)}"
            )
    computed = counts.alone + counts.run_steps
    dropped = counts.run_steps - counts.run_decided
    print(
        f"{args.n} draws, {mismatches} mismatches, {underflows} step underflows; "
        f"{draws_with_runs} draws took runs; {decided} decisions, "
        f"{counts.run_decided / max(decided, 1):.3f} of them in {counts.runs} runs, "
        f"{counts.run_rejected} runs ended by a rejection; "
        f"{dropped / max(computed, 1):.2e} of the {computed} computed steps were computed in runs and dropped; "
        f"{time.perf_counter() - start:.1f} s"
    )
    return int(mismatches > 0)


if __name__ == "__main__":
    sys.exit(main())
