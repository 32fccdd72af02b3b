"""Trapping condition, ionization functionals, detuning scans, degeneracy study.

The central result wrapped here: for the right two-photon detuning the
bright pair acquires one real eigenvalue, so part of the population
never reaches the continuum.  ``trapping_delta`` gives that detuning in
closed form, ``trapping_residual`` measures how far a given detuning is
from it spectrally, and ``fano_scan`` traces the ionization profile
whose asymmetric dip sits near it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    _MAX_GRID_POINTS,
    INITS,
    TimeGrid,
    _ionization_values,
    _scan_ionization,
    eigenvalues,
    evolve,
    integrate,
)
from .model import Params, bright_hamiltonian, nondegenerate_hamiltonian
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
    "degeneracy_validity",
]


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
    distance from it, making this a scannable figure of merit.
    """
    values = eigenvalues(bright_hamiltonian(replace(p, delta=float(delta))))
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
    observation_time: float
    model: str
    init: str

    @property
    def min_delta(self) -> float:
        """Detuning of the profile minimum (on the grid)."""
        return float(self.deltas[int(np.argmin(self.ionization))])


def fano_scan(p: Params, delta_grid, t_obs: float, init="bright", model: str = "four_state") -> FanoProfile:
    """Ionization at time ``t_obs`` for every detuning in ``delta_grid``.

    The detunings are propagated in blocks, each through one stacked
    ``eigensystem`` call and the kernel of ``propagate_expm``, so every
    value equals ``evolve(...).ionization[-1]`` at that detuning bit for
    bit.  Points where those eigenpairs are not trusted (a defective
    root, as at an exceptional point, or ill-conditioned eigenvectors)
    or whose result is not finite are propagated one by one by
    ``propagate_expm``, with its Pade fallback.  Results are reported in
    grid order; a point whose propagation fails raises RuntimeError
    naming its detuning.
    """
    deltas = np.asarray(delta_grid, dtype=float)
    if deltas.size == 0:
        raise ValueError("delta grid must not be empty")
    if deltas.size > _MAX_GRID_POINTS:
        raise ValueError(f"delta grid must hold at most {_MAX_GRID_POINTS} points, got {deltas.size}")
    if not np.all(deltas[1:] > deltas[:-1]):
        raise ValueError("delta grid must be strictly increasing")
    if not t_obs > 0:
        raise ValueError(f"t_obs must be positive, got {t_obs}")

    values = _scan_ionization(p, model, init, deltas, float(t_obs))
    init_tag = init if isinstance(init, str) else "custom"
    return FanoProfile(deltas, values, float(t_obs), model, init_tag)


def default_delta_grid(p: Params, lo: float = -10.0, hi: float = 10.0, n: int = 2001) -> np.ndarray:
    """Scan window [lo, hi], widened if needed to bracket the trapping value."""
    if n > _MAX_GRID_POINTS:
        raise ValueError(f"n must be at most {_MAX_GRID_POINTS}, got {n}")
    trap = trapping_delta(p)
    lo = min(lo, trap - 1.0)
    hi = max(hi, trap + 1.0)
    return np.linspace(lo, hi, n)


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


@dataclass
class DegeneracyReport:
    """Degenerate versus split-level comparison for a set of splittings.

    For each entry of ``shifts`` the non-degenerate model is integrated
    from g1 and compared against the degenerate model: trajectory
    sup-differences, ionization histories, and the location of the
    detuning-profile minimum (observed at the end of the time grid).
    """

    shifts: list[float]
    times: np.ndarray
    ionization_degenerate: np.ndarray
    ionization_shifted: list[np.ndarray]
    sup_state_diff: list[float]
    deltas: np.ndarray
    profile_degenerate: np.ndarray
    profiles_shifted: list[np.ndarray]
    profile_min_degenerate: float
    profile_min_shifted: list[float]


def degeneracy_validity(p: Params, shifts, grid: TimeGrid, delta_grid, tol: float = 1e-10) -> DegeneracyReport:
    """Quantify how intra-level splittings degrade the degenerate picture.

    Splittings slowly break the bright/dark decoupling, so trapped
    population leaks out; the report captures the leak rate and the
    (small) displacement of the profile minima.  The comparison is
    meaningful at any fixed detuning of ``p``; the trapping value is the
    interesting choice.
    """
    shifts = [float(s) for s in shifts]
    if any(s < 0 for s in shifts):
        raise ValueError("shifts must be >= 0")
    deltas = np.asarray(delta_grid, dtype=float)

    p_deg = replace(p, shift_g=0.0, shift_e=0.0)
    deg_traj = evolve(p_deg, "four_state", "g1", grid)
    deg_profile = fano_scan(p_deg, deltas, grid.t_end, "g1", "four_state")

    g1_state = State(Basis.ORIGINAL4, [1.0, 0.0, 0.0, 0.0])
    ion_shifted: list[np.ndarray] = []
    sup_diffs: list[float] = []
    profiles: list[np.ndarray] = []
    minima: list[float] = []
    for shift in shifts:
        p_nd = replace(p, shift_g=shift, shift_e=shift)
        traj = integrate(nondegenerate_hamiltonian(p_nd), g1_state, grid, tol)
        sup_diffs.append(float(np.abs(traj.amps - deg_traj.amps_original).max()))
        ion_shifted.append(traj.ionization)
        profile = fano_scan(p_nd, deltas, grid.t_end, "g1", "nondegenerate4")
        profiles.append(profile.ionization)
        minima.append(profile.min_delta)

    return DegeneracyReport(
        shifts=shifts,
        times=grid.times(),
        ionization_degenerate=deg_traj.ionization,
        ionization_shifted=ion_shifted,
        sup_state_diff=sup_diffs,
        deltas=deltas,
        profile_degenerate=deg_profile.ionization,
        profiles_shifted=profiles,
        profile_min_degenerate=deg_profile.min_delta,
        profile_min_shifted=minima,
    )
