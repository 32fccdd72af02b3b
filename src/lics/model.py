"""Input parameters and effective Hamiltonians of the multilevel LICS system.

Two degenerate ground states (g1, g2) and two degenerate excited states
(e1, e2) interact only through photoionization into a shared flat
continuum.  Eliminating the continuum leaves an effective non-Hermitian
Hamiltonian over the four bound amplitudes, built here from laser-induced
ionization rates, Stark shifts and Fano asymmetry parameters.

Conventions used throughout the package:

* Units: the excitation window T is the unit of time, so every rate,
  shift and detuning carries units of 1/T and all times are in T.
* Basis ordering is fixed as (g1, g2, e1, e2) for 4x4 matrices and
  (g-like, e-like) for 2x2 matrices.
* Every builder returns a complex-symmetric matrix (M equals its plain
  transpose).  The anti-Hermitian part is negative semidefinite, so the
  norm of a propagated state can only decrease; the loss is the
  ionization probability.
* The detuning ``delta`` enters only the real parts of the excited
  diagonal entries, each as one final rounded addition: short of
  overflow, such an entry is bit for bit its value at delta = -0.0
  (which adds nothing) plus delta.  A detuning scan builds its stack of
  matrices that way.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import isfinite, sqrt

import numpy as np
from numpy.typing import NDArray

# Small dense complex matrix; 1/T units for Hamiltonians, dimensionless
# for basis transforms.
CMatrix = NDArray[np.complex128]

__all__ = [
    "CMatrix",
    "Params",
    "effective_hamiltonian",
    "bright_hamiltonian",
    "dark_hamiltonian",
    "two_level_hamiltonian",
    "nondegenerate_hamiltonian",
]


@dataclass(frozen=True)
class Params:
    """Physical input parameters, rates and shifts in units of 1/T.

    gamma_g, gamma_e: one-laser ionization rates of the ground and
        excited level (must be nonnegative).
    stark_g, stark_e: laser-induced Stark shifts of the two levels.
    q_gg, q_ee, q_eg: dimensionless Fano parameters of the
        ground-ground, excited-excited and cross continuum couplings.
    delta: reduced two-photon detuning between the levels.
    shift_g, shift_e: energy splittings inside each level; zero for the
        degenerate model, nonzero only for the non-degenerate variant.

    The cross ionization coupling is always the geometric mean
    sqrt(gamma_g * gamma_e); it is derived on demand (``gamma_eg``) and
    never stored, which keeps the loss matrix exactly rank one.
    """

    gamma_g: float
    gamma_e: float
    stark_g: float = 0.0
    stark_e: float = 0.0
    q_gg: float = 0.0
    q_ee: float = 0.0
    q_eg: float = 0.0
    delta: float = 0.0
    shift_g: float = 0.0
    shift_e: float = 0.0

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{field.name} must be a real number, got {value!r}")
            if not isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
        if self.gamma_g < 0:
            raise ValueError(f"gamma_g must be >= 0, got {self.gamma_g}")
        if self.gamma_e < 0:
            raise ValueError(f"gamma_e must be >= 0, got {self.gamma_e}")

    @property
    def gamma_eg(self) -> float:
        """Cross coupling sqrt(gamma_g * gamma_e), recomputed on demand."""
        return sqrt(self.gamma_g * self.gamma_e)


def effective_hamiltonian(p: Params) -> CMatrix:
    """4x4 Hamiltonian of the degenerate model over (g1, g2, e1, e2).

    Returns -(h0 + i*h1)/2 where h0 holds the dispersive couplings
    (Fano parameter times rate) together with the Stark shifts and the
    detuning, and h1 = v v^T with v = (sqrt(gamma_g), sqrt(gamma_g),
    sqrt(gamma_e), sqrt(gamma_e)) is the rank-one loss matrix of the
    shared continuum.  shift_g and shift_e are ignored here; see
    ``nondegenerate_hamiltonian``.
    """
    gg, ge, geg = p.gamma_g, p.gamma_e, p.gamma_eg
    de = p.delta + p.stark_e
    h0 = np.array(
        [
            [-2.0 * p.stark_g, p.q_gg * gg, p.q_eg * geg, p.q_eg * geg],
            [p.q_gg * gg, -2.0 * p.stark_g, p.q_eg * geg, p.q_eg * geg],
            [p.q_eg * geg, p.q_eg * geg, -2.0 * de, p.q_ee * ge],
            [p.q_eg * geg, p.q_eg * geg, p.q_ee * ge, -2.0 * de],
        ]
    )
    h1 = np.array(
        [
            [gg, gg, geg, geg],
            [gg, gg, geg, geg],
            [geg, geg, ge, ge],
            [geg, geg, ge, ge],
        ]
    )
    # real h0 and h1 keep the real part free of h1 and the imaginary part
    # free of h0, signed zeros included
    return -0.5 * h0 - 0.5j * h1


def bright_hamiltonian(p: Params) -> CMatrix:
    """2x2 Hamiltonian of the decaying (bright) pair.

    This is the upper-left block produced by ``transforms.block_diagonalize``
    applied to ``effective_hamiltonian``; building it directly provides an
    independent check of that reduction.
    """
    coupling = -(p.q_eg + 1j) * p.gamma_eg
    return np.array(
        [
            [p.stark_g - 0.5 * (p.q_gg + 2j) * p.gamma_g, coupling],
            [coupling, p.stark_e - 0.5 * (p.q_ee + 2j) * p.gamma_e + p.delta],
        ],
        dtype=np.complex128,
    )


def dark_hamiltonian(p: Params) -> CMatrix:
    """2x2 Hamiltonian of the lossless (dark) pair; real and diagonal.

    Dark amplitudes only acquire phases, so their populations are
    constants of motion in the degenerate model.
    """
    return np.array(
        [
            [0.5 * p.q_gg * p.gamma_g + p.stark_g, 0.0],
            [0.0, p.delta + 0.5 * p.q_ee * p.gamma_e + p.stark_e],
        ],
        dtype=np.complex128,
    )


def two_level_hamiltonian(p: Params) -> CMatrix:
    """2x2 Hamiltonian of the standard single-state-per-level model.

    Reference model for comparing detuning profiles.  Its off-diagonal
    coupling is exactly half the bright-pair coupling, and the diagonal
    lacks the dispersive self-coupling terms.
    """
    coupling = -0.5 * (p.q_eg + 1j) * p.gamma_eg
    return np.array(
        [
            [p.stark_g - 0.5j * p.gamma_g, coupling],
            [coupling, p.delta + p.stark_e - 0.5j * p.gamma_e],
        ],
        dtype=np.complex128,
    )


def nondegenerate_hamiltonian(p: Params) -> CMatrix:
    """4x4 Hamiltonian with intra-level splittings shift_g and shift_e.

    The diagonal 2x2 blocks pick up the splitting on their second state
    (entries (2,2) and (4,4) of the full matrix, 1-based); the
    off-diagonal coupling blocks are those of the degenerate model.
    With both shifts zero this equals ``effective_hamiltonian`` exactly.
    """
    gg, ge, geg = p.gamma_g, p.gamma_e, p.gamma_eg
    g_diag = p.stark_g - 0.5j * gg
    e_diag = p.stark_e - 0.5j * ge
    g_off = -0.5 * (p.q_gg + 1j) * gg
    e_off = -0.5 * (p.q_ee + 1j) * ge
    coupling = -0.5 * (p.q_eg + 1j) * geg
    h = np.empty((4, 4), dtype=np.complex128)
    h[:2, :2] = [[g_diag, g_off], [g_off, g_diag + p.shift_g]]
    h[2:, 2:] = [[e_diag + p.delta, e_off], [e_off, e_diag + p.shift_e + p.delta]]
    h[:2, 2:] = coupling
    h[2:, :2] = coupling
    return h
