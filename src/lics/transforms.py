"""Rotation to the bright/dark basis and the block structure it induces.

A pi/4 rotation inside each degenerate level, followed by a swap of the
middle components, maps the four-state Hamiltonian onto two independent
2x2 blocks: a decaying bright pair and a lossless dark pair.  The same
orthogonal map relates the amplitude vectors of the two pictures:

    (b_g, b_e, d_g, d_e) = ((c_g1 + c_g2), (c_e1 + c_e2),
                            (c_g2 - c_g1), (c_e2 - c_e1)) / sqrt(2)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .model import CMatrix

__all__ = [
    "Basis",
    "State",
    "rotation",
    "shift_permutation",
    "block_diagonalize",
    "to_bright_dark",
    "from_bright_dark",
]

CANONICAL_ANGLE = np.pi / 4


class Basis(enum.Enum):
    """Amplitude bases a State can be expressed in."""

    ORIGINAL4 = "original4"
    BRIGHTDARK4 = "brightdark4"
    BRIGHT2 = "bright2"
    TWOLEVEL2 = "twolevel2"

    @property
    def dim(self) -> int:
        return 4 if self in (Basis.ORIGINAL4, Basis.BRIGHTDARK4) else 2

    @property
    def labels(self) -> tuple[str, ...]:
        return _BASIS_LABELS[self]


_BASIS_LABELS = {
    Basis.ORIGINAL4: ("g1", "g2", "e1", "e2"),
    Basis.BRIGHTDARK4: ("bg", "be", "dg", "de"),
    Basis.BRIGHT2: ("bg", "be"),
    Basis.TWOLEVEL2: ("g", "e"),
}


@dataclass(frozen=True, eq=False)
class State:
    """Complex amplitude vector tagged with its basis."""

    basis: Basis
    amps: np.ndarray

    def __post_init__(self) -> None:
        basis = Basis(self.basis)
        amps = np.asarray(self.amps, dtype=np.complex128).copy()
        if amps.shape != (basis.dim,):
            raise ValueError(
                f"basis {basis.value} needs {basis.dim} amplitudes, got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "amps", amps)

    @property
    def norm_sq(self) -> float:
        """Total bound population; at most 1 + roundoff for physical states."""
        return float((np.abs(self.amps) ** 2).sum())


def rotation(theta: float) -> CMatrix:
    """Block-diagonal rotation diag(R, R) acting inside each level.

    R = [[cos t, sin t], [-sin t, cos t]]; the result is real orthogonal,
    hence unitary.
    """
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    c, s = np.cos(theta), np.sin(theta)
    u = np.zeros((4, 4), dtype=np.complex128)
    u[0, 0] = u[1, 1] = u[2, 2] = u[3, 3] = c
    u[0, 1] = u[2, 3] = s
    u[1, 0] = u[3, 2] = -s
    return u


def shift_permutation() -> CMatrix:
    """Permutation swapping components 2 and 3; its own inverse."""
    p = np.zeros((4, 4), dtype=np.complex128)
    p[0, 0] = p[3, 3] = 1.0
    p[1, 2] = p[2, 1] = 1.0
    return p


def block_diagonalize(
    h: CMatrix, theta: float = CANONICAL_ANGLE
) -> tuple[CMatrix, CMatrix, float]:
    """Apply P U h U^dagger P and split into 2x2 blocks.

    Returns (top-left block, bottom-right block, residual) where the
    residual is the largest absolute entry of the two off-diagonal
    blocks.  The residual is reported, not asserted: it vanishes (to
    roundoff) for the degenerate model at theta = pi/4 and measures the
    coupling leakage for anything else, e.g. the non-degenerate model
    where it equals half the intra-level splitting.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {h.shape}")
    u = rotation(theta)
    p = shift_permutation()
    ht = p @ u @ h @ u.conj().T @ p
    residual = float(max(np.abs(ht[:2, 2:]).max(), np.abs(ht[2:, :2]).max()))
    return ht[:2, :2].copy(), ht[2:, 2:].copy(), residual


# (g1, g2, e1, e2) -> (b_g, b_e, d_g, d_e), built once at import
_BRIGHT_DARK_MAP = shift_permutation() @ rotation(CANONICAL_ANGLE)
_BRIGHT_DARK_MAP.setflags(write=False)


def to_bright_dark(s: State) -> State:
    """Map an original-basis state to (b_g, b_e, d_g, d_e); norm preserving."""
    if s.basis is not Basis.ORIGINAL4:
        raise ValueError(f"expected a {Basis.ORIGINAL4.value} state, got {s.basis.value}")
    return State(Basis.BRIGHTDARK4, _BRIGHT_DARK_MAP @ s.amps)


def from_bright_dark(s: State) -> State:
    """Inverse of ``to_bright_dark``; round-trips to machine precision."""
    if s.basis is not Basis.BRIGHTDARK4:
        raise ValueError(f"expected a {Basis.BRIGHTDARK4.value} state, got {s.basis.value}")
    # the map is real orthogonal, so the inverse is the plain transpose
    return State(Basis.ORIGINAL4, _BRIGHT_DARK_MAP.T @ s.amps)
