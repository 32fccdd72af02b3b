"""Trapping condition, ionization functionals, detuning scans, degeneracy study.

The central result wrapped here: for the right two-photon detuning the
bright pair acquires one real eigenvalue, so part of the population
never reaches the continuum.  ``trapping_delta`` gives that detuning in
closed form, ``trapping_residual`` measures how far a given detuning is
from it spectrally, ``analytic_bright`` and ``analytic_g1`` give the
amplitudes on it in closed form, and ``fano_scan`` traces the ionization
profile whose asymmetric dip sits near it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    _MAX_GRID_POINTS,
    INITS,
    TimeGrid,
    _ionization_values,
    _scan_ionization,
    evolve,
    integrate,
    model_eigenvalues,
)
from .model import Params, nondegenerate_hamiltonian
from .transforms import Basis, State

__all__ = [
    "FanoProfile",
    "DegeneracyReport",
    "trapping_delta",
    "trapping_residual",
    "ionization",
    "fano_scan",
    "default_delta_grid",
    "asymptotic_survival",
    "analytic_bright",
    "analytic_g1",
    "degeneracy_validity",
]

# default detuning window of a scan, in 1/T
_DELTA_WINDOW = (-10.0, 10.0)


def trapping_delta(p: Params) -> float:
    """Detuning that makes one bright eigenvalue real (closed form).

    The value is (gamma_e q_ee - gamma_g q_gg) / 2
    + q_eg (gamma_g - gamma_e) + stark_g - stark_e; the ``delta`` field
    of ``p`` is ignored.
    """
    return (
        0.5 * (p.gamma_e * p.q_ee - p.gamma_g * p.q_gg)
        + p.q_eg * (p.gamma_g - p.gamma_e)
        + p.stark_g
        - p.stark_e
    )


def _require_trapping(p: Params, what: str) -> None:
    """Reject ``p`` unless its detuning sits at ``trapping_delta(p)``."""
    target = trapping_delta(p)
    if abs(p.delta - target) > 1e-9:
        raise ValueError(
            f"{what} requires delta at the trapping value {target:.12g}, got {p.delta:.12g}"
        )


def trapping_residual(p: Params, delta: float) -> float:
    """Smallest |Im eigenvalue| of the bright pair at the given detuning.

    Zero (to roundoff) exactly on the trapping manifold; grows with the
    distance from it, making this a scannable figure of merit.  The
    eigenvalues are ``model_eigenvalues``' of ``bright2``, whose decay
    rates stay exact to roundoff of the rates, also where the detuning's
    roundoff exceeds them.
    """
    values = model_eigenvalues(replace(p, delta=float(delta)), "bright2")
    return float(np.abs(values.imag).min())


def ionization(s: State) -> float:
    """Population lost to the continuum: 1 - |amps|^2.

    Values in [-1e-9, 0) are reported as 0; they are roundoff, not
    physics.
    """
    return float(_ionization_values(s.amps))


@dataclass
class FanoProfile:
    """Ionization versus two-photon detuning at a fixed observation time."""

    deltas: np.ndarray
    ionization: np.ndarray

    @property
    def min_delta(self) -> float:
        """Detuning of the profile minimum (on the grid)."""
        return float(self.deltas[int(np.argmin(self.ionization))])


def fano_scan(p: Params, delta_grid, t_obs: float, init="bright", model: str = "four_state") -> FanoProfile:
    """Ionization at time ``t_obs`` for every detuning in ``delta_grid``.

    Every value equals ``evolve(...).ionization[-1]`` at that detuning
    bit for bit: the scan runs the one amplitude kernel of ``evolve`` over
    2048 detunings per call.  ``four_state``, ``bright2`` and
    ``twolevel2`` take the closed-form 2x2 block kernel, exact also at an
    exceptional point and at detunings far beyond the decay rates.
    ``nondegenerate4`` takes one stacked ``eigensystem`` call and the
    kernel of ``propagate_expm``, where a matrix whose eigenpairs are not
    trusted (a defective root, as at an exceptional point, or
    ill-conditioned eigenvectors) gets its Pade exponential in place.  A
    point whose result is not finite or gains norm, or that lies in a
    call that raised, is rerun by ``evolve`` and its checks.  Results are
    reported in grid order; a point whose propagation fails raises
    RuntimeError naming its detuning.
    """
    deltas = np.asarray(delta_grid, dtype=float)
    if deltas.size == 0:
        raise ValueError("delta grid must not be empty")
    if deltas.size > _MAX_GRID_POINTS:
        raise ValueError(f"delta grid must hold at most {_MAX_GRID_POINTS} points, got {deltas.size}")
    if not np.all(deltas[1:] > deltas[:-1]):
        raise ValueError("delta grid must be strictly increasing")
    if not sys.float_info.min <= t_obs < np.inf:  # the bounds of a TimeGrid's step
        raise ValueError(f"t_obs must be a finite double of at least {sys.float_info.min}, got {t_obs}")

    return FanoProfile(deltas, _scan_ionization(p, model, init, deltas, float(t_obs)))


def default_delta_grid(p: Params, n: int = 2001) -> np.ndarray:
    """Scan window ``_DELTA_WINDOW``, widened if needed to bracket the
    trapping value."""
    if n > _MAX_GRID_POINTS:
        raise ValueError(f"n must be at most {_MAX_GRID_POINTS}, got {n}")
    trap = trapping_delta(p)
    lo, hi = _DELTA_WINDOW
    return np.linspace(min(lo, trap - 1.0), max(hi, trap + 1.0), n)


def asymptotic_survival(p: Params, init) -> float:
    """Bound population left after long times, on the trapping manifold.

    A bright start retains gamma_e / (gamma_e + gamma_g); starting from
    a single ground state additionally keeps the dark half, so it
    retains 1/2 + (1/2) gamma_e / (gamma_e + gamma_g).
    """
    if init not in INITS:
        raise ValueError(f"unknown init {init!r}, expected one of {INITS}")
    _require_trapping(p, "asymptotic survival")
    total = p.gamma_e + p.gamma_g
    bright_part = p.gamma_e / total if total > 0 else 1.0
    if init == "bright":
        return bright_part
    return 0.5 + 0.5 * bright_part


def analytic_bright(p: Params, t):
    """Closed-form (b_g, b_e) for b_g(0) = 1; needs delta at trapping.

    ``t`` may be a scalar or an array of times in T.
    """
    _require_trapping(p, "closed form")
    gg, ge = p.gamma_g, p.gamma_e
    t = np.asarray(t, dtype=float)
    decay = np.exp(1j * t * (p.q_eg + 1j) * (ge + gg))
    phase = np.exp(-0.5j * t * (gg * (2.0 * p.q_eg - p.q_gg) + 2.0 * p.stark_g))
    b_g = (ge + gg * decay) * phase / (ge + gg)
    b_e = math.sqrt(ge * gg) * (decay - 1.0) * phase / (ge + gg)
    if t.ndim == 0:
        return complex(b_g), complex(b_e)
    return b_g, b_e


def analytic_g1(p: Params, t):
    """Closed-form (b_g, b_e, d_g) for c_g1(0) = 1; needs delta at trapping.

    The bright pair is the b_g(0) = 1 solution scaled by 1/sqrt(2); the
    dark amplitude keeps modulus 1/sqrt(2) and only rotates its phase.
    """
    b_g, b_e = analytic_bright(p, t)
    t = np.asarray(t, dtype=float)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    d_g = -np.exp(-0.5j * t * (2.0 * p.stark_g + p.gamma_g * p.q_gg)) * inv_sqrt2
    if t.ndim == 0:
        return b_g * inv_sqrt2, b_e * inv_sqrt2, complex(d_g)
    return b_g * inv_sqrt2, b_e * inv_sqrt2, d_g


@dataclass
class DegeneracyReport:
    """Degenerate versus split-level comparison at the splittings of a Params.

    The non-degenerate model is integrated from g1 and compared against
    the degenerate one: the trajectory sup-difference, the ionization
    histories, and the location of the detuning-profile minimum (observed
    at the time the trajectories have elapsed at the end of the grid).
    """

    times: np.ndarray
    ionization_degenerate: np.ndarray
    ionization_shifted: np.ndarray
    sup_state_diff: float
    profile_min_degenerate: float
    profile_min_shifted: float


def degeneracy_validity(p: Params, grid: TimeGrid, delta_grid, tol: float = 1e-10) -> DegeneracyReport:
    """Quantify how the intra-level splittings of ``p`` degrade the
    degenerate picture, against ``p`` with both splittings set to zero.

    Splittings slowly break the bright/dark decoupling, so trapped
    population leaks out; the report captures the leak rate and the
    (small) displacement of the profile minima.  ``p.shift_g`` and
    ``p.shift_e`` are taken as they are and may differ.  The comparison
    is meaningful at any fixed detuning of ``p``; the trapping value is
    the interesting choice.
    """
    if p.shift_g < 0 or p.shift_e < 0:
        raise ValueError(f"shifts must be >= 0, got shift_g = {p.shift_g}, shift_e = {p.shift_e}")
    deltas = np.asarray(delta_grid, dtype=float)
    t_obs = grid.t_end - grid.t_start  # the time every trajectory has elapsed at its last sample

    p_deg = replace(p, shift_g=0.0, shift_e=0.0)
    deg_traj = evolve(p_deg, "four_state", "g1", grid)
    traj = integrate(nondegenerate_hamiltonian(p), State(Basis.ORIGINAL4, [1.0, 0.0, 0.0, 0.0]), grid, tol)
    return DegeneracyReport(
        times=grid.times(),
        ionization_degenerate=deg_traj.ionization,
        ionization_shifted=traj.ionization,
        sup_state_diff=float(np.abs(traj.amps - deg_traj.amps_original).max()),
        profile_min_degenerate=fano_scan(p_deg, deltas, t_obs, "g1", "four_state").min_delta,
        profile_min_shifted=fano_scan(p, deltas, t_obs, "g1", "nondegenerate4").min_delta,
    )
