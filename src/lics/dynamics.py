"""State propagation: eigensystem, matrix exponential and adaptive RK.

Two independent routes compute the same constant-Hamiltonian evolution
i dc/dt = H c (the third, the closed form on the trapping manifold, is
``analysis.analytic_bright`` and ``analytic_g1``):

* the exact exponential, reached through one function, ``_model_amps``,
  by ``evolve`` at one detuning and by ``_scan_ionization`` at many.
  ``four_state`` (as its bright block and dark diagonal, from
  ``transforms.block_diagonalize``), ``bright2`` and ``twolevel2`` take
  one eigenvector-free closed form for a 2x2 block, ``_block_amps``.
  ``nondegenerate4``, whose split levels do not decouple, takes
  ``_expm_amps``: one stacked ``eigensystem`` call whose eigenpairs come
  from LAPACK, and a scaling-and-squaring Pade exponential for every
  matrix whose eigenvector condition number exceeds 1e6, as near an
  exceptional point, or whose residual is large.  ``propagate_expm``,
  the oracle of the closed form, is ``_expm_amps`` on a stack of one;
* ``integrate``: the embedded Dormand-Prince 8(5,3) Runge-Kutta solver
  (DOP853), stepping onto every output time, its twelve stages evaluated
  as one precomputed polynomial in step·M (M = -i h) per step, and the
  steps cut short by dense samples taken in runs.

Agreement between the routes is the main correctness check of the
package, so they share no propagation code: ``integrate`` precomputes
powers of M for a degree-12 polynomial fixed by the Runge-Kutta tableau
and never forms an exponential.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    CMatrix,
    Params,
    bright_hamiltonian,
    effective_hamiltonian,
    nondegenerate_hamiltonian,
    two_level_hamiltonian,
)
from .transforms import _BRIGHT_DARK_MAP, Basis, State, block_diagonalize, from_bright_dark

__all__ = [
    "TimeGrid",
    "Trajectory",
    "Eigensystem",
    "IntegrationError",
    "eigensystem",
    "eigenvalues",
    "model_eigenvalues",
    "propagate_expm",
    "integrate",
    "evolve",
    "build_hamiltonian",
    "MODELS",
    "INITS",
]

MODELS = ("four_state", "bright2", "twolevel2", "nondegenerate4")
INITS = ("bright", "g1", "g2")

# eigenvector matrices worse conditioned than this mark the matrix as
# degenerate: the eigen route's error grows as eps·cond(V), and LAPACK's
# vectors at an exceptional point reach a 1-norm condition of 2e7 to 1e8
_EXPM_COND_LIMIT = 1e6
# an eigen-residual above this, relative to max(1, max |entry|), marks the
# eigenpairs as untrustworthy
_RESIDUAL_TOL = 1e-6
# largest n_samples of a TimeGrid and delta_steps of a scan; 10**6 float64
# samples are 8 MB, and every grid point costs a propagation
_MAX_GRID_POINTS = 10**6
# amplitude vectors per chunk of the propagation kernels and of the row
# maps: no vector's bits depend on the chunk, and a chunk's temporaries take
# a few hundred KB, so a stage holds little more than its result
_CHUNK = 1 << 11
# the models that _block_amps propagates; nondegenerate4 takes _expm_amps
_BLOCK_MODELS = ("four_state", "bright2", "twolevel2")
# four_state is propagated as its bright block and its dark diagonal only
# if block_diagonalize leaves every other entry below this, relative to
# the largest entry of the Hamiltonian (the bound of acceptance criterion 1)
_BLOCK_TOL = 1e-12
# below this |s t|, sin(s t)/(s t) is summed as its Taylor series, whose
# first omitted term, (s t)^8 / 9!, is then below 3e-22
_SINC_SERIES_BELOW = 1e-2
# above this |Im s t|, cos(s t) and sin(s t) near overflow (at about 710)
# while e^{-imt} may underflow, so both are summed from e^{-i(m ± s)t}
_EXP_FORM_ABOVE = 700.0


class IntegrationError(RuntimeError):
    """Adaptive step size collapsed; the tolerance cannot be met."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform output grid over [t_start, t_end], times in T.

    The integrator substeps adaptively; the grid only fixes where the
    solution is reported.
    """

    t_start: float
    t_end: float
    n_samples: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ValueError("grid endpoints must be finite")
        if not self.t_end > self.t_start:
            raise ValueError(f"t_end must exceed t_start, got [{self.t_start}, {self.t_end}]")
        if not isinstance(self.n_samples, numbers.Integral) or self.n_samples < 2:
            raise ValueError(f"n_samples must be an integer >= 2, got {self.n_samples}")
        if self.n_samples > _MAX_GRID_POINTS:
            raise ValueError(f"n_samples must be at most {_MAX_GRID_POINTS}, got {self.n_samples}")
        # a subnormal step rounds by up to half its size, and can put a sample past t_end
        step = (self.t_end - self.t_start) / (self.n_samples - 1)
        if not sys.float_info.min <= step < math.inf:
            raise ValueError(
                f"grid step (t_end - t_start) / (n_samples - 1) must be a finite double of at least "
                f"{sys.float_info.min}, got {step}"
            )

    def times(self, rows: slice = slice(None)) -> np.ndarray:
        """The sample times in ``rows``, bit for bit ``np.linspace(t_start,
        t_end, n_samples)[rows]`` without forming the whole grid: k * step
        + t_start by linspace's own operations, and t_end for the last
        sample."""
        n = self.n_samples
        k = range(n)[rows]
        t = np.arange(k.start, k.stop, k.step, dtype=float)
        t *= (self.t_end - self.t_start) / (n - 1)
        t += self.t_start
        if n - 1 in k:
            t[k.index(n - 1)] = self.t_end
        return t


def _map_rows(matrix: np.ndarray, amps: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i] = matrix @ amps[i] for every row i, one stacked product per
    chunk of rows; each row gets the bits of its own product (``amps @
    matrix.T`` does not).  ``out`` may be ``amps``."""
    for start in range(0, len(amps), _CHUNK):
        rows = slice(start, start + _CHUNK)
        out[rows] = (matrix @ amps[rows, :, None])[..., 0]
    return out


@dataclass
class Trajectory:
    """Propagation result: (n_samples, dim) complex amplitudes ``amps`` in
    ``basis`` and ``ionization[i]`` = 1 - |amps[i]|^2, clamped of tiny
    negative roundoff.  Four-state models report ``amps`` in the bright/dark
    basis; ``amps_original`` derives the (g1, g2, e1, e2) amplitudes on access.
    """

    grid: TimeGrid
    basis: Basis
    amps: np.ndarray
    ionization: np.ndarray

    def __post_init__(self) -> None:
        shape = (self.grid.n_samples, self.basis.dim)
        if self.amps.shape != shape:
            raise ValueError(f"amps must have shape {shape}, got {self.amps.shape}")
        if not np.isfinite(self.amps).all():
            raise ValueError("amplitudes must be finite")

    @property
    def times(self) -> np.ndarray:
        return self.grid.times()

    @property
    def amps_original(self) -> np.ndarray | None:
        """The amplitudes in the (g1, g2, e1, e2) basis, mapped from
        bright/dark ``amps`` row by row as ``from_bright_dark`` maps one
        state; ``amps`` itself if it is in that basis; None for two-state
        bases.  Computed on each access, never stored."""
        if self.basis is Basis.ORIGINAL4:
            return self.amps
        if self.basis is Basis.BRIGHTDARK4:
            return _map_rows(_BRIGHT_DARK_MAP.T, self.amps, np.empty_like(self.amps))
        return None


@dataclass(frozen=True)
class Eigensystem:
    """Eigenvalues (sorted by real part, then imaginary part), right
    eigenvectors V (as columns) and V's ``inverse``.  ``degenerate``
    flags eigenpairs not trusted for propagation, such as those of a
    nearly defective matrix: the eigenvalues are still valid.  For a
    (k, n, n) stack each field gains a leading axis of length k, and
    ``degenerate`` is a (k,) mask."""

    values: np.ndarray
    vectors: np.ndarray
    degenerate: bool | np.ndarray
    inverse: np.ndarray


def _ionization_values(amps: np.ndarray) -> np.ndarray:
    """1 - |amps|^2 over the last axis, by chunks of ``_CHUNK`` vectors;
    values in [-1e-9, 0) are roundoff, not physics, and are reported as 0."""
    vectors = amps.reshape(-1, amps.shape[-1])
    ion = np.empty(len(vectors))
    for start in range(0, len(vectors), _CHUNK):
        rows = slice(start, start + _CHUNK)
        ion[rows] = 1.0 - (np.abs(vectors[rows]) ** 2).sum(axis=-1)
    ion[(ion < 0.0) & (ion >= -1e-9)] = 0.0
    return ion.reshape(amps.shape[:-1])


# ---------------------------------------------------------------------------
# eigen-solver


def _norm1(a: np.ndarray) -> np.ndarray:
    """1-norm (largest absolute column sum) of every matrix of a stack."""
    return np.abs(a).sum(axis=-2).max(axis=-1)


def _inverses(vectors: np.ndarray) -> np.ndarray:
    """V^-1 of every matrix of a stack from one batched call; only if
    some V is exactly singular one by one, with NaN for the singular."""
    try:
        return np.linalg.inv(vectors)
    except np.linalg.LinAlgError:
        if len(vectors) == 1:
            return np.full_like(vectors, np.nan)
        return np.concatenate([_inverses(v[None]) for v in vectors])


def eigensystem(m: CMatrix) -> Eigensystem:
    """Eigenvalues and right eigenvectors of a 2x2 or 4x4 complex matrix,
    or of every matrix of a (k, n, n) stack through one LAPACK call.

    LAPACK (``np.linalg.eig``) supplies the eigenpairs, sorted by real
    part (ties by imaginary part); each matrix of a stack gets the same
    bits as it gets alone.  A matrix is ``degenerate`` if the 1-norm
    condition number ||V||_1 ||V^-1||_1 of its eigenvectors exceeds 1e6,
    as near a defective multiple root, or its eigen-residual exceeds 1e-6
    relative to max(1, max |entry|) or overflows.

    Raises ValueError if an entry is not finite.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or m.shape[-1] not in (2, 4):
        raise ValueError(f"expected a 2x2 or 4x4 matrix or a stack of them, got shape {m.shape}")
    if m.ndim == 2:
        es = eigensystem(m[None])
        return Eigensystem(es.values[0], es.vectors[0], bool(es.degenerate[0]), es.inverse[0])
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")

    scale = np.abs(m).max(axis=(1, 2))
    # an overflowing residual or inverse marks the matrix below; no
    # warning is needed
    with np.errstate(over="ignore", invalid="ignore"):
        values, vectors = np.linalg.eig(m)
        order = np.lexsort((values.imag, values.real))
        values = np.take_along_axis(values, order, axis=1)
        vectors = np.take_along_axis(vectors, order[:, None, :], axis=2)
        residual = np.linalg.norm(m @ vectors - vectors * values[:, None, :], axis=1).max(axis=1)
        inverse = _inverses(vectors)
        cond = _norm1(vectors) * _norm1(inverse)
    degenerate = ~(residual <= _RESIDUAL_TOL * np.maximum(1.0, scale)) | ~(cond <= _EXPM_COND_LIMIT)
    return Eigensystem(values, vectors, degenerate, inverse)


def eigenvalues(m: CMatrix) -> np.ndarray:
    """Sorted eigenvalues of a 2x2 or 4x4 complex matrix."""
    return eigensystem(m).values


# ---------------------------------------------------------------------------
# matrix exponential


def _expm_pade(a: CMatrix) -> CMatrix:
    """exp(a) by scaling and squaring with a diagonal [7/7] Pade kernel."""
    n = a.shape[0]
    with np.errstate(over="ignore"):
        norm = float(np.abs(a).sum(axis=1).max())
    # also catches inf and NaN; a larger norm would overflow 2.0**squarings
    if not norm <= 2.0**1022:
        raise ValueError(f"matrix norm {norm:.6g} is out of range for the Pade exponential")
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    x = a / (2.0**squarings)

    m_order = 7
    c = [1.0]
    for j in range(1, m_order + 1):
        c.append(c[-1] * (m_order - j + 1) / (j * (2 * m_order - j + 1)))
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    ident = np.eye(n, dtype=np.complex128)
    odd = x @ (c[7] * x6 + c[5] * x4 + c[3] * x2 + c[1] * ident)
    even = c[6] * x6 + c[4] * x4 + c[2] * x2 + c[0] * ident
    result = np.linalg.solve(even - odd, even + odd)
    for _ in range(squarings):
        result = result @ result
    return result


def _expm_amps(hs: np.ndarray, amps0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i h t) amps0 for every matrix h of the (k, n, n) stack ``hs``
    and every t in ``times``, shape (k, len(times), n), from one stacked
    ``eigensystem`` call.

    A matrix whose eigenpairs are trusted takes the eigen kernel, filled
    by chunks of about ``_CHUNK`` vectors: each amplitude vector is its
    own product of V with the phased coefficients V^-1 amps0.  A
    ``degenerate`` matrix takes a scaling-and-squaring Pade exponential
    at every t.  Either way a vector's bits do not depend on how many
    matrices or times are computed with it.  Overflow and NaN are left
    to the caller's finiteness check; raises ValueError if an entry is
    not finite or a Pade norm is out of range.
    """
    es = eigensystem(hs)
    k, n = es.values.shape
    amps = np.empty((k, times.size, n), dtype=np.complex128)
    step = max(1, _CHUNK // k)
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = es.inverse @ amps0
        for start in range(0, times.size, step):
            part = slice(start, start + step)
            phases = np.exp(-1j * times[part, None] * es.values[:, None, :])
            amps[:, part] = (es.vectors[:, None] @ (phases * coeffs[:, None, :])[..., None])[..., 0]
        for j in np.flatnonzero(es.degenerate):
            amps[j] = [_expm_pade(-1j * hs[j] * t) @ amps0 for t in times]
    return amps


def propagate_expm(h: CMatrix, s0: State, grid: TimeGrid) -> Trajectory:
    """Evolve s0 with amplitudes exp(-i h (t - t_start)) s0 on the grid.

    Uses the eigen-decomposition of h; if it is ``degenerate`` (for
    instance, the eigenvector matrix has 1-norm condition number above
    1e6), each grid point falls back to a scaling-and-squaring Pade
    exponential (``_expm_amps`` on a stack of one).  Raises ValueError
    if an amplitude is not finite, e.g. after an overflow.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.shape != (s0.basis.dim, s0.basis.dim):
        raise ValueError(f"Hamiltonian shape {h.shape} does not match basis {s0.basis.value}")
    rel_times = grid.times()
    rel_times -= grid.t_start
    amps = _expm_amps(h[None], s0.amps, rel_times)[0]
    return Trajectory(grid, s0.basis, amps, _ionization_values(amps))


# ---------------------------------------------------------------------------
# closed-form exponential of a 2x2 block


def _mean_and_root(a, b, c, d):
    """m = (a + d)/2, h = (a - d)/2 and a root s of s^2 = h^2 + bc for the
    matrices [[a, b], [c, d]], whose eigenvalues are m ± s.

    s^2 is formed from h, not as m^2 - det, which cancels.  Where
    |h|^2 exceeds |bc|, s = h sqrt(1 + (bc/h)/h), so that h^2 cannot
    overflow.  Complex arithmetic keeps the imaginary parts apart from a
    large real detuning, so Im(m ± s), the decay rates, keep their
    accuracy even where eps |h| exceeds them.
    """
    m = (a + d) / 2
    h = (a - d) / 2
    bc = b * c
    # each branch is evaluated everywhere; only the chosen one is finite
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = np.where(np.abs(h) ** 2 > np.abs(bc), h * np.sqrt(1 + bc / h / h), np.sqrt(h * h + bc))
    return m, h, s


def _block_amps(block: CMatrix, deltas: np.ndarray, v0: np.ndarray, times: np.ndarray, out: np.ndarray) -> None:
    """Write exp(-i H t) v0 for H = ``block`` with each delta in ``deltas``
    added to its lower diagonal entry, at every t in ``times``, into
    ``out``, shape (len(deltas), len(times), 2).

    The closed form exp(-iHt) = e^{-imt} [cos(st) I - i (sin(st)/s)(H - mI)]
    (Moler and Van Loan, SIAM Rev. 45 (2003), sec. 2) needs no
    eigenvectors and is even in s.  sin(st)/s is a Taylor series where
    |st| < 1e-2, so an exceptional point (s = 0) is as exact as any other
    point; where |Im st| > 700 both terms are summed from e^{-i(m ± s)t}.
    Each amplitude vector is two scalar functions of t times the fixed
    vectors v0 and (H - mI) v0, so no propagator stack is formed, and its
    bits do not depend on how many detunings or times are computed with
    it.  Overflow gives NaN, left to the caller's finiteness check.
    """
    a, b, c = block[0, 0], block[0, 1], block[1, 0]
    m, h, s = _mean_and_root(a, b, c, block[1, 1] + deltas)
    # -i (H - mI) v0: the sine term's -i is folded into its vector
    w = -1j * np.stack([h * v0[0] + b * v0[1], c * v0[0] - h * v0[1]], axis=-1)
    with np.errstate(all="ignore"):
        x = s[:, None] * times
        cos_term = np.cos(x)
        sin_term = np.sin(x) / x
        small = np.abs(x) < _SINC_SERIES_BELOW
        x2 = x[small] ** 2
        sin_term[small] = 1.0 + x2 * (-1.0 / 6.0 + x2 * (1.0 / 120.0 - x2 / 5040.0))
        big = np.abs(x.imag) > _EXP_FORM_ABOVE
        del x
        phase = np.exp(-1j * (m[:, None] * times))
        cos_term *= phase
        # e^{-imt} sin(st)/s
        sin_term *= phase
        sin_term *= times
        del phase
        if big.any():
            k, j = np.nonzero(big)
            plus = np.exp(-1j * ((m[k] + s[k]) * times[j]))
            minus = np.exp(-1j * ((m[k] - s[k]) * times[j]))
            cos_term[big] = (plus + minus) / 2
            sin_term[big] = (minus - plus) / (2j * s[k])
        np.multiply(cos_term[..., None], v0, out=out)
        out += sin_term[..., None] * w[:, None, :]


def _blocks(h: CMatrix, model: str) -> tuple[CMatrix, np.ndarray]:
    """The 2x2 block of a ``_BLOCK_MODELS`` Hamiltonian ``h`` and its real
    dark diagonal: for ``four_state`` the bright block and the dark pair
    from ``block_diagonalize``, which must leave every other entry of the
    rotated matrix, the dark pair's loss and coupling included, within
    ``_BLOCK_TOL`` of the largest entry of ``h`` (else ValueError); for
    the two-state models ``h`` itself and no dark entries."""
    if model != "four_state":
        return h, np.empty(0)
    bright, dark, residual = block_diagonalize(h)
    dark_diag = np.diag(dark).real
    leak = max(residual, float(np.abs(dark - np.diag(dark_diag)).max()))
    if not leak <= _BLOCK_TOL * np.abs(h).max():
        raise ValueError(f"four_state Hamiltonian does not split into bright and dark blocks: residual {leak:.3g}")
    return bright, dark_diag


def model_eigenvalues(p: Params, model: str) -> np.ndarray:
    """The eigenvalues of a model's Hamiltonian, sorted as ``eigensystem``
    sorts them.

    A ``_BLOCK_MODELS`` model takes its block's pair m ± s from
    ``_mean_and_root`` by the stable quadratic formula (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., SIAM 2002, sec. 1.8):
    the root of larger modulus as it is, the other as det / that root,
    where m - s would cancel; ``four_state`` adds its dark diagonal.
    Both parts of each root then keep their accuracy at any detuning,
    where LAPACK's absolute error is eps times the largest entry.
    ``nondegenerate4`` does not split and takes LAPACK's values.

    Raises ValueError if an entry is not finite.
    """
    h = build_hamiltonian(p, model)
    if model not in _BLOCK_MODELS:
        return eigenvalues(h)
    if not np.isfinite(h).all():
        raise ValueError("matrix entries must be finite")
    block, dark_diag = _blocks(h, model)
    a, b, c, d = block.ravel()
    m, _, s = _mean_and_root(a, b, c, d)
    big = m + s if abs(m + s) >= abs(m - s) else m - s
    # (ad - bc) / big, without a product that could overflow
    small = a * (d / big) - b * (c / big) if big != 0 else 0.0
    values = np.array([big, small, *dark_diag], dtype=np.complex128)
    return values[np.lexsort((values.imag, values.real))]


def _detuning_stack(h0: CMatrix, deltas: np.ndarray) -> np.ndarray:
    """``h0`` with each delta in ``deltas`` added to the real parts of its
    excited diagonal entries (the second half of the basis).

    Every builder in ``model`` adds the detuning last, and only there.
    With ``h0`` built at delta = -0.0, which adds nothing to any entry,
    each slice is therefore the builder's matrix at that detuning, bit
    for bit, except where the builder overflows near the float limit.
    """
    n = h0.shape[0]
    stack = np.repeat(h0[None], deltas.size, axis=0)
    # a strided view: fancy indexing raises the peak RSS of scan runs
    stack.reshape(deltas.size, n * n)[:, n * n // 2 + n // 2 :: n + 1].real += deltas[:, None]
    return stack


def _norm_kept(ionization: np.ndarray, s0: State) -> np.ndarray:
    """False where ``ionization`` is NaN or below that of ``s0`` by more
    than roundoff (1e-9).  Every builder's Hamiltonian can only lose
    norm, so a gain means the propagation lost the decay rates."""
    return ionization >= _ionization_values(s0.amps) - 1e-9


def _model_amps(p: Params, model: str, s0: State, deltas: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Amplitudes of ``model`` from ``s0`` at every detuning in ``deltas``
    and every time in ``times``: shape (len(deltas), len(times), dim), for
    ``four_state`` in the bright/dark basis, else in the basis of ``s0``.

    The Hamiltonian is built once, at delta = -0.0; every builder adds
    the detuning last, to the excited diagonal only.  ``nondegenerate4``
    does not split: its ``_detuning_stack``, each matrix the builder's
    bit for bit, goes through ``_expm_amps``.  The other models run the
    closed form of their 2x2 block by chunks of about ``_CHUNK`` vectors,
    each detuning a shift of the block's lower diagonal entry, which the
    pi/4 rotation leaves in place.  ``four_state`` is split by
    ``block_diagonalize`` into its bright block and its dark pair, a pure
    phase; raises ValueError unless every other entry of the rotated
    matrix, the dark pair's loss and coupling included, is at roundoff.
    """
    h0 = build_hamiltonian(replace(p, delta=-0.0), model)
    if model not in _BLOCK_MODELS:
        return _expm_amps(_detuning_stack(h0, deltas), s0.amps, times)
    bright, dark_diag = _blocks(h0, model)
    v0 = s0.amps
    if model == "four_state":
        v0 = _BRIGHT_DARK_MAP @ s0.amps
    amps = np.empty((deltas.size, times.size, v0.size), dtype=np.complex128)
    step = max(1, _CHUNK // deltas.size)
    for start in range(0, times.size, step):
        part = slice(start, start + step)
        t = times[part]
        _block_amps(bright, deltas, v0[:2], t, amps[:, part, :2])
        if v0.size == 4:
            with np.errstate(over="ignore", invalid="ignore"):
                amps[:, part, 2] = np.exp(-1j * (dark_diag[0] * t)) * v0[2]
                amps[:, part, 3] = np.exp(-1j * ((dark_diag[1] + deltas)[:, None] * t)) * v0[3]
    return amps


def _scan_ionization(p: Params, model: str, init, deltas: np.ndarray, t_obs: float) -> np.ndarray:
    """Ionization at ``t_obs`` for every detuning in ``deltas``, bit for
    bit as ``evolve`` computes it: ``_model_amps`` over ``_CHUNK``
    detunings per call, as ``evolve`` calls it for one.  A point that
    failed, whose result is not finite or gains norm, or that lies in a
    chunk that raised (an entry overflowed, or LAPACK refused the
    stack), is run alone by ``evolve`` and its checks.  Raises
    RuntimeError naming the detuning if that run fails.
    """
    s0 = _initial_state(model, init)
    grid = TimeGrid(0.0, t_obs, 2)
    times = grid.times()[1:]
    values = np.full(deltas.size, np.nan)
    for start in range(0, deltas.size, _CHUNK):
        part = slice(start, start + _CHUNK)
        try:
            amps = _model_amps(p, model, s0, deltas[part], times)
        except (ValueError, np.linalg.LinAlgError):
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            values[part] = _ionization_values(amps[:, 0])
    for k in np.flatnonzero(~_norm_kept(values, s0)):
        d = float(deltas[k])
        try:
            values[k] = evolve(replace(p, delta=d), model, init, grid).ionization[-1]
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise RuntimeError(f"propagation failed at delta = {d:.12g}") from exc
    return values


# ---------------------------------------------------------------------------
# adaptive Dormand-Prince 8(5,3) integration

# DOP853 tableau (Hairer, Norsett and Wanner, Solving ODEs I, 2nd ed.,
# sec. II.10), rounded to double precision: row i of _RK_A holds a_ij of
# stage i.  The nodes c_i do not enter the polynomial form, because
# c' = Mc does not depend on t, and the thirteenth stage only serves the
# dense output, which stepping onto every output time makes unnecessary.
_RK_A = [
    np.array(row)
    for row in (
        [],
        [0.05260015195876773],
        [0.0197250569845379, 0.0591751709536137],
        [0.02958758547680685, 0.0, 0.08876275643042054],
        [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
        [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
        [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
        [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
         -0.015319437748624402, 0.008273789163814023],
        [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
         20.154067550477894, -43.48988418106996],
        [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
         15.279233632882423, -33.28821096898486, -0.020331201708508627],
        [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
         -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196],
        [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
         27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
         0.6433927460157636],
    )
]
_RK_B = np.array([0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
                  -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
                  0.04471061572777259])
# differences between the 8th-order weights and the embedded 5th- and
# 3rd-order ones
_RK_E5 = np.array([0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
                   1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
                   -0.022355307863886294])
_RK_E3 = _RK_B - np.array([0.2440944881889764, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.7338466882816118,
                           0.0, 0.0, 0.022058823529411766])
# highest power of z = step·M in the folded tableau, one per stage
_RK_DEGREE = len(_RK_A)


def _fold_tableau() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tableau as polynomials in z = step·M for the linear system c' = Mc.

    Stage i's increment step·k_i is z P_i(z) applied to y, with P_0 = 1
    and P_i = 1 + sum_j a_ij z P_j; row i of ``increments`` holds the
    coefficients of z^0..z^12 of z P_i.  Returns the step polynomial
    (y_new = R(z) y) and the 5th- and 3rd-order error polynomials.
    """
    one = np.eye(_RK_DEGREE + 1)[0]
    increments = np.zeros((_RK_DEGREE, _RK_DEGREE + 1))
    for i in range(_RK_DEGREE):
        increments[i, 1:] = (one + _RK_A[i] @ increments[:i])[:-1]
    return one + _RK_B @ increments, _RK_E5 @ increments, _RK_E3 @ increments


_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# the longest run of cut steps that integrate computes ahead of its
# controller: a run that ends early wastes at most this many products
_MAX_RUN = 64
# step matrices kept per call, one per distinct sample interval; a
# linspace grid has few (10 on 401 samples over [0, 40])
_MAX_CACHED = 64


def _error_norm(diff: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """RMS of diff / scale over the last axis, for one error estimate or a
    stack of them.  ``np.vecdot`` sums each row's squares with the BLAS
    dot that ``np.vdot`` calls, so every row gets the bits of ``np.vdot``."""
    q = diff / scale
    return np.sqrt(np.vecdot(q, q).real / q.shape[-1])


def _control(e5: float, e3: float, step: float, used: float, cut: bool) -> tuple[bool, float]:
    """DOP853's controller for a step of length ``used`` whose error
    estimates have the norms e5 and e3: whether it is accepted, and the
    step size to try next.  The step-size factor is 0.9 err^(-1/8); after
    an accepted ``cut`` step, shortened to end on a sample, the next step
    is never shorter than ``step``, the one proposed before the cut."""
    # DOP853's error measure, 0 when both estimates vanish
    err = e5 * e5 / math.hypot(e5, 0.1 * e3) if e5 else 0.0
    factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err**-0.125)) if err else _MAX_FACTOR
    # NaN fails this test, so a NaN error rejects the step
    if err <= 1.0:
        return True, max(step, used * factor) if cut else used * factor
    return False, used * min(1.0, factor)


def _initial_step(m: np.ndarray, y0: np.ndarray, tol: float, span: float) -> float:
    """First step size for c' = Mc from c(0) = y0 (Hairer, Norsett and
    Wanner, Solving ODEs I, sec. II.4), for a method of order 8."""
    f0 = m @ y0
    scale = tol + tol * np.abs(y0)
    d0 = float(np.sqrt(np.mean(np.abs(y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean(np.abs(f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    f1 = m @ (y0 + h0 * f0)
    d2 = float(np.sqrt(np.mean(np.abs((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.125
    return min(100 * h0, h1, span)


def integrate(h: CMatrix, s0: State, grid: TimeGrid, tol: float = 1e-10) -> Trajectory:
    """Solve i dc/dt = h c with the adaptive Dormand-Prince 8(5,3) pair.

    The local error per step is kept at or below ``tol`` (used as both
    absolute and relative tolerance), measured as in DOP853 from the
    embedded 5th- and 3rd-order estimates, with the step-size factor
    0.9 err^(-1/8).  Steps are cut to end on every grid time, so every
    returned sample is an error-controlled step end; a cut does not
    shrink the step proposed after it.  For the constant system c' = Mc,
    M = -i h, every stage is a fixed polynomial in z = step·M applied to
    c, so a step evaluates the folded tableau as one precomputed
    polynomial in z: one product gives the new amplitudes and both error
    estimates.  The powers of M are scaled by nu = max(1, ||M||_1) so
    that they cannot overflow.  Entirely independent of
    ``propagate_expm``, which makes the two usable as mutual oracles.

    Where the samples are denser than the steps the tolerance needs, the
    controller sits on a sample with a step longer than the next
    interval, and every later interval is again one cut step for as long
    as the errors stay at or below 1, because a cut never shrinks the
    step.  From such a sample the cut steps are taken in runs: the chain
    of products first, with one step matrix per distinct interval length,
    then the error norms of the whole run in one call, then the
    controller over them, step by step, up to its first rejection or
    uncut step.  Each product and each decision is the one the step-by-
    step loop makes, so the result is the same bit for bit.  A run is
    one step long at first and doubles after each run that is accepted
    whole, up to ``_MAX_RUN`` steps.

    Raises ValueError if an entry of ``h`` is not finite, and
    IntegrationError if the step size collapses below 1e-14 of the
    integration span.
    """
    if not (1e-13 <= tol <= 1e-3):
        raise ValueError(f"tol must lie in [1e-13, 1e-3], got {tol}")
    h = np.asarray(h, dtype=np.complex128)
    n = s0.basis.dim
    if h.shape != (n, n):
        raise ValueError(f"Hamiltonian shape {h.shape} does not match basis {s0.basis.value}")
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix entries must be finite")
    m = -1j * h
    # z^p = (step nu)^p (M / nu)^p; the rows of ``table`` are the
    # coefficients of (step nu)^p
    nu = max(1.0, float(np.abs(m).sum(axis=0).max()))
    exponents = np.arange(_RK_DEGREE + 1.0)
    powers = np.empty((len(exponents), n, n), dtype=np.complex128)
    powers[0] = np.eye(n)
    for p in range(1, len(exponents)):
        powers[p] = powers[p - 1] @ (m / nu)
    # folded per call: module-level tables built at import raised the peak
    # RSS of scan runs, which never integrate, by about 0.1 MB
    polys = np.stack(_fold_tableau(), axis=1)
    table = (polys[:, :, None, None] * powers[:, None]).reshape(_RK_DEGREE + 1, 3 * n * n)

    def step_matrix(used: float) -> np.ndarray:
        """The rows of y_new, err5 and err3 as one (3n, n) matrix applied to y."""
        return (((used * nu) ** exponents) @ table).reshape(3 * n, n)

    times = grid.times()
    # intervals[k - 1] is the length of a cut step from sample k - 1, bit for bit
    intervals = np.diff(times)
    span = grid.t_end - grid.t_start
    min_step = 1e-14 * span
    amp_out = np.empty((len(times), n), dtype=np.complex128)
    amp_out[0] = s0.amps

    t = grid.t_start
    y = s0.amps.copy()
    step = _initial_step(m, y, tol, span)
    cached: dict[float, np.ndarray] = {}
    run = 1

    k = 1
    while k < len(times):
        tau = times.item(k)
        if not t < tau:
            amp_out[k] = y
            k += 1
            continue
        if step < min_step:
            raise IntegrationError(f"step size underflow at t = {t:.6g}")
        if t == times.item(k - 1) and intervals.item(k - 1) < step:
            lengths = intervals[k - 1 : k - 1 + run].tolist()
            # row j + 1 holds y_new, err5 and err3 of the step from row j's y
            chain = np.empty((len(lengths) + 1, 3 * n), dtype=np.complex128)
            chain[0, :n] = y
            for j, used in enumerate(lengths):
                matrix = cached.get(used)
                if matrix is None:
                    matrix = step_matrix(used)
                    if len(cached) < _MAX_CACHED:
                        cached[used] = matrix
                np.matmul(matrix, chain[j, :n], out=chain[j + 1])
            ys = np.abs(chain[:, :n])
            scale = tol + tol * np.maximum(ys[:-1], ys[1:])
            norms = _error_norm(chain[1:, n:].reshape(-1, 2, n), scale[:, None]).tolist()
            accepted = 0
            for used, (e5, e3) in zip(lengths, norms):
                if not used < step:
                    break
                ok, step = _control(e5, e3, step, used, True)
                if not ok:
                    break
                accepted += 1
            if accepted:
                amp_out[k : k + accepted] = chain[1 : accepted + 1, :n]
                y = chain[accepted, :n]
                k += accepted
                t = times.item(k - 1)
            run = min(2 * run, _MAX_RUN) if accepted == len(lengths) else 1
            continue
        cut = tau - t < step
        used = tau - t if cut else step
        full = step_matrix(used) @ y
        y_new = full[:n]
        scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
        e5, e3 = _error_norm(full[n:].reshape(2, n), scale).tolist()
        ok, proposed = _control(e5, e3, step, used, cut)
        if ok:
            t = tau if cut else t + step
            y = y_new
        step = proposed

    return Trajectory(grid, s0.basis, amp_out, _ionization_values(amp_out))


# ---------------------------------------------------------------------------
# model/initialization orchestration

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def build_hamiltonian(p: Params, model: str) -> CMatrix:
    """Hamiltonian matrix for a named model variant."""
    builders = {
        "four_state": effective_hamiltonian,
        "bright2": bright_hamiltonian,
        "twolevel2": two_level_hamiltonian,
        "nondegenerate4": nondegenerate_hamiltonian,
    }
    if model not in builders:
        raise ValueError(f"unknown model {model!r}, expected one of {MODELS}")
    # an overflow near the float limit is reported once, by eigensystem's finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        return builders[model](p)


def _initial_state(model: str, init) -> State:
    four_state = model in ("four_state", "nondegenerate4")
    if isinstance(init, State):
        if four_state:
            if init.basis is Basis.BRIGHTDARK4:
                return from_bright_dark(init)
            if init.basis is Basis.ORIGINAL4:
                return init
            raise ValueError(f"model {model!r} needs a 4-amplitude state, got {init.basis.value}")
        wanted = Basis.BRIGHT2 if model == "bright2" else Basis.TWOLEVEL2
        if init.basis is not wanted:
            raise ValueError(f"model {model!r} needs a {wanted.value} state, got {init.basis.value}")
        return init
    if init not in INITS:
        raise ValueError(f"unknown init {init!r}, expected one of {INITS} or a State")
    if four_state:
        amps = {
            "bright": [_INV_SQRT2, _INV_SQRT2, 0.0, 0.0],
            "g1": [1.0, 0.0, 0.0, 0.0],
            "g2": [0.0, 1.0, 0.0, 0.0],
        }[init]
        return State(Basis.ORIGINAL4, amps)
    if model == "bright2":
        # a single ground state projects onto the bright pair with weight
        # 1/sqrt(2); the dark remainder is invisible to this model
        amp0 = 1.0 if init == "bright" else _INV_SQRT2
        return State(Basis.BRIGHT2, [amp0, 0.0])
    # the two-level reference model has one ground state; every ground
    # initialization means full population in it
    return State(Basis.TWOLEVEL2, [1.0, 0.0])


def evolve(p: Params, model: str, init, grid: TimeGrid) -> Trajectory:
    """Build the requested Hamiltonian, map the initial state, propagate.

    ``model`` is one of ``MODELS``; ``init`` one of ``INITS`` or a State
    in a basis compatible with the model.  Constant Hamiltonians are
    propagated exactly, by ``_model_amps`` at the one detuning
    ``p.delta``: ``four_state``, ``bright2`` and ``twolevel2`` by the
    closed form of their 2x2 blocks, ``nondegenerate4`` by the eigen
    kernel with its Pade fallback, as ``propagate_expm``.  Raises
    ValueError if a Hamiltonian entry or an amplitude is not finite, or
    if the ionization falls more than 1e-9 below its initial value: these
    Hamiltonians can only lose norm.

    Four-state trajectories are reported in the bright/dark basis only;
    ``nondegenerate4``'s original-basis amplitudes, whose ionization is
    computed first, are mapped onto it in place, row by row.
    """
    h = build_hamiltonian(p, model)
    s0 = _initial_state(model, init)
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix entries must be finite")
    times = grid.times()
    times -= grid.t_start
    amps = _model_amps(p, model, s0, np.array([float(p.delta)]), times)[0]
    basis = Basis.BRIGHTDARK4 if model == "four_state" else s0.basis
    traj = Trajectory(grid, basis, amps, _ionization_values(amps))
    if not _norm_kept(traj.ionization, s0).all():
        raise ValueError(f"the norm grew during propagation: ionization fell to {traj.ionization.min():.3g}")
    if model == "nondegenerate4":
        bright_dark = _map_rows(_BRIGHT_DARK_MAP, amps, amps)
        return Trajectory(grid, Basis.BRIGHTDARK4, bright_dark, traj.ionization)
    return traj
