"""State propagation: eigensystem, matrix exponential, adaptive RK, closed forms.

Three independent routes compute the same constant-Hamiltonian evolution
i dc/dt = H c:

* ``propagate_expm``: exact exponential through an eigen-decomposition
  whose eigenpairs come from LAPACK, with a scaling-and-squaring Pade
  fallback for defective or ill-conditioned cases (``_scan_ionization``
  runs the same ``eigensystem`` and kernel over a whole detuning scan, a
  stack of matrices per LAPACK call, and gets the same bits);
* ``integrate``: an embedded Dormand-Prince 5(4) Runge-Kutta solver with
  PI step control and dense output, its seven stages evaluated as one
  precomputed polynomial in step·M (M = -i h) per step;
* ``analytic_bright`` / ``analytic_g1``: closed-form amplitudes, valid
  only when the detuning satisfies the trapping condition.

Agreement between the routes is the main correctness check of the
package, so they share no propagation code: ``integrate`` precomputes
powers of M for a degree-7 polynomial fixed by the Runge-Kutta tableau
and never forms an exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .model import (
    CMatrix,
    Params,
    bright_hamiltonian,
    effective_hamiltonian,
    nondegenerate_hamiltonian,
    two_level_hamiltonian,
)
from .transforms import _BRIGHT_DARK_MAP, Basis, State, from_bright_dark

__all__ = [
    "TimeGrid",
    "Trajectory",
    "Eigensystem",
    "IntegrationError",
    "eigensystem",
    "eigenvalues",
    "propagate_expm",
    "integrate",
    "analytic_bright",
    "analytic_g1",
    "evolve",
    "build_hamiltonian",
    "MODELS",
    "INITS",
]

MODELS = ("four_state", "bright2", "twolevel2", "nondegenerate4")
INITS = ("bright", "g1", "g2")

# eigenvector matrices worse conditioned than this are not trusted for
# propagation and trigger the Pade fallback
_EXPM_COND_LIMIT = 1e8
# eigenvalues within this of each other, relative to max(1, |lambda|max),
# are one multiple root
_CLUSTER_TOL = 1e-7
# an eigen-residual above this, relative to max(1, max |entry|), marks the
# eigenpairs as untrustworthy
_RESIDUAL_TOL = 1e-6
# largest n_samples of a TimeGrid and delta_steps of a scan; 10**6 float64
# samples are 8 MB, and every grid point costs a propagation
_MAX_GRID_POINTS = 10**6
# detunings per stacked LAPACK call in _scan_ionization: a block's
# temporaries take about 1.4 KB per detuning, and each block costs about
# 90 us of Python overhead on top of its eigen-decompositions
_SCAN_BLOCK = 32


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
        if int(self.n_samples) != self.n_samples or self.n_samples < 2:
            raise ValueError(f"n_samples must be an integer >= 2, got {self.n_samples}")
        if self.n_samples > _MAX_GRID_POINTS:
            raise ValueError(f"n_samples must be at most {_MAX_GRID_POINTS}, got {self.n_samples}")

    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_samples)


@dataclass
class Trajectory:
    """Propagation result: (n_samples, dim) complex amplitudes ``amps`` in
    ``basis`` and ``ionization[i]`` = 1 - |amps[i]|^2, clamped of tiny
    negative roundoff.  Four-state models report ``amps`` in the bright/dark
    basis and the (g1, g2, e1, e2) evolution as ``amps_original``; ``states``
    and ``states_original`` build their State objects on first access.
    """

    grid: TimeGrid
    basis: Basis
    amps: np.ndarray
    ionization: np.ndarray
    amps_original: np.ndarray | None = None

    def __post_init__(self) -> None:
        shape = (self.grid.n_samples, self.basis.dim)
        if self.amps.shape != shape:
            raise ValueError(f"amps must have shape {shape}, got {self.amps.shape}")
        if not np.isfinite(self.amps).all():
            raise ValueError("amplitudes must be finite")

    @property
    def times(self) -> np.ndarray:
        return self.grid.times()

    @cached_property
    def states(self) -> list[State]:
        return [State(self.basis, a, t) for a, t in zip(self.amps, self.times)]

    @cached_property
    def states_original(self) -> list[State] | None:
        if self.amps_original is None:
            return None
        return [State(Basis.ORIGINAL4, a, t) for a, t in zip(self.amps_original, self.times)]


@dataclass(frozen=True)
class Eigensystem:
    """Eigenvalues (sorted by real part, then imaginary part) and right
    eigenvectors (as columns).  ``degenerate`` flags a defective matrix:
    the eigenvalues are still valid but the vectors do not span.  For a
    (k, n, n) stack each field gains a leading axis of length k, and
    ``degenerate`` is a (k,) mask."""

    values: np.ndarray
    vectors: np.ndarray
    degenerate: bool | np.ndarray


def _ionization_values(amps: np.ndarray) -> np.ndarray:
    """1 - |amps|^2 over the last axis; values in [-1e-9, 0) are
    roundoff, not physics, and are reported as 0."""
    ion = 1.0 - (np.abs(amps) ** 2).sum(axis=-1)
    return np.where((ion < 0.0) & (ion >= -1e-9), 0.0, ion)


# ---------------------------------------------------------------------------
# eigen-solver


def _null_space_vectors(a: CMatrix, count: int) -> tuple[np.ndarray, int]:
    """Orthonormal (approximate) null-space basis, best ``count`` vectors."""
    _, sv, vh = np.linalg.svd(a)
    nullity = int((sv <= 1e-8 * max(sv[0], 1e-300)).sum())
    vecs = vh[::-1][:count].conj().T
    return vecs, nullity


def eigensystem(m: CMatrix) -> Eigensystem:
    """Eigenvalues and right eigenvectors of a 2x2 or 4x4 complex matrix,
    or of every matrix of a (k, n, n) stack through one LAPACK call.

    LAPACK (``np.linalg.eig``) supplies the eigenpairs.  Eigenvalues
    within 1e-7 (relative) of each other are reported as one multiple
    root, their mean, with vectors spanning the numerical null space of
    ``m - value``; a null space thinner than the multiplicity flags the
    matrix as defective.  Only the matrices of a stack that have such a
    cluster run this pass.  Results are sorted by real part (ties by
    imaginary part) so repeated runs are reproducible, and each matrix of
    a stack gets the same bits as it gets alone.

    Raises ValueError if an entry is not finite.  A residual that
    overflows near the float limit flags the matrix as ``degenerate``.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or m.shape[-1] not in (2, 4):
        raise ValueError(f"expected a 2x2 or 4x4 matrix or a stack of them, got shape {m.shape}")
    if m.ndim == 2:
        es = eigensystem(m[None])
        return Eigensystem(es.values[0], es.vectors[0], bool(es.degenerate[0]))
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")

    n = m.shape[-1]
    scale = np.abs(m).max(axis=(1, 2))
    # near the float limit the residual overflows to inf or NaN, which
    # flags the eigenpairs as untrustworthy below; no warning is needed
    with np.errstate(over="ignore", invalid="ignore"):
        values, vectors = np.linalg.eig(m)
        # LAPACK splits a defective multiple root by about sqrt(eps); each
        # value joins the first value within tol of it
        tol = _CLUSTER_TOL * np.maximum(1.0, np.abs(values).max(axis=1))
        close = np.abs(values[:, :, None] - values[:, None, :]) <= tol[:, None, None]
        leaders = close.argmax(axis=2)
        degenerate = np.zeros(len(m), dtype=bool)
        for i in np.flatnonzero((leaders != np.arange(n)).any(axis=1) & (scale > 0.0)):
            for leader in np.flatnonzero(np.bincount(leaders[i]) > 1):
                members = np.flatnonzero(leaders[i] == leader)
                # the cluster mean cancels the leading error of the split values
                root = values[i, members].mean()
                vecs, nullity = _null_space_vectors(m[i] - root * np.eye(n), len(members))
                values[i, members] = root
                vectors[i][:, members] = vecs
                degenerate[i] |= nullity < len(members)
        order = np.lexsort((values.imag, values.real))
        values = np.take_along_axis(values, order, axis=1)
        vectors = np.take_along_axis(vectors, order[:, None, :], axis=2)
        residual = np.linalg.norm(m @ vectors - vectors * values[:, None, :], axis=1).max(axis=1)
    degenerate |= ~(residual <= _RESIDUAL_TOL * np.maximum(1.0, scale))
    zero = scale == 0.0
    values[zero] = 0.0
    vectors[zero] = np.eye(n)
    degenerate[zero] = False
    return Eigensystem(values, vectors, degenerate)


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


def _norm1(a: np.ndarray) -> np.ndarray:
    """1-norm (largest absolute column sum) of every matrix of a stack."""
    return np.abs(a).sum(axis=-2).max(axis=-1)


def _eigen_amps(es: Eigensystem, amps0: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i h t) amps0 for every matrix h of a stacked eigensystem and
    every t in ``times``, shape (k, len(times), n), and the (k,) mask of
    the matrices whose eigenpairs are trusted; the rows of the others are NaN.

    A matrix is trusted if it is not ``degenerate`` and the 1-norm
    condition number ||V||_1 ||V^-1||_1 of its eigenvector matrix V is at
    most ``_EXPM_COND_LIMIT``.  Each amplitude vector is its own product
    of V with the phased coefficients, so its bits do not depend on how
    many matrices or times are computed with it.
    """
    try:
        inverse = np.linalg.inv(es.vectors)
    except np.linalg.LinAlgError:
        # an exactly singular V somewhere in the stack; NaN fails the cond test
        inverse = np.full_like(es.vectors, np.nan)
    # overflow and NaN are left to the caller's finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        trusted = ~es.degenerate & (_norm1(es.vectors) * _norm1(inverse) <= _EXPM_COND_LIMIT)
        phases = np.exp(-1j * times[:, None] * es.values[:, None, :])
        coeffs = inverse @ amps0
        amps = (es.vectors[:, None] @ (phases * coeffs[:, None, :])[..., None])[..., 0]
    amps[~trusted] = np.nan
    return amps, trusted


def propagate_expm(h: CMatrix, s0: State, grid: TimeGrid) -> Trajectory:
    """Evolve s0 with amplitudes exp(-i h (t - t_start)) s0 on the grid.

    Uses the eigen-decomposition of h; if the eigenvector matrix is
    defective or has 1-norm condition number above 1e8, each grid point
    falls back to a scaling-and-squaring Pade exponential.  Raises
    ValueError if an amplitude is not finite, e.g. after an overflow.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.shape != (s0.basis.dim, s0.basis.dim):
        raise ValueError(f"Hamiltonian shape {h.shape} does not match basis {s0.basis.value}")
    rel_times = grid.times() - grid.t_start

    amps, trusted = _eigen_amps(eigensystem(h[None]), s0.amps, rel_times)
    if trusted[0]:
        amps = amps[0]
    else:
        # overflow and NaN are reported once, by the finiteness check
        with np.errstate(over="ignore", invalid="ignore"):
            amps = np.array([_expm_pade(-1j * h * t) @ s0.amps for t in rel_times])
    return Trajectory(grid, s0.basis, amps, _ionization_values(amps))


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


def _scan_ionization(p: Params, model: str, init, deltas: np.ndarray, t_obs: float) -> np.ndarray:
    """Ionization at ``t_obs`` for every detuning in ``deltas``, bit for
    bit as ``evolve`` computes it.

    The detunings are propagated ``_SCAN_BLOCK`` at a time, each block
    through one stacked ``eigensystem`` of ``_detuning_stack`` and the
    kernel that ``propagate_expm`` runs.  A point the kernel does not
    trust, or whose result is not finite, is propagated alone by
    ``propagate_expm`` on the builder's matrix, with its Pade fallback;
    so is every point of a block that LAPACK fails on.  Raises
    RuntimeError naming the detuning if that propagation fails.
    """
    s0 = _initial_state(model, init)
    h0 = build_hamiltonian(replace(p, delta=-0.0), model)
    grid = TimeGrid(0.0, t_obs, 2)
    times = grid.times()[1:]
    values = np.empty(deltas.size)
    for start in range(0, deltas.size, _SCAN_BLOCK):
        block = deltas[start : start + _SCAN_BLOCK]
        try:
            amps, _ = _eigen_amps(eigensystem(_detuning_stack(h0, block)), s0.amps, times)
            with np.errstate(over="ignore", invalid="ignore"):
                ion = _ionization_values(amps[:, 0])
        except (ValueError, np.linalg.LinAlgError):
            # a detuning overflowed an entry, or LAPACK failed on the block
            ion = np.full(block.size, np.nan)
        values[start : start + block.size] = ion
        for k in np.flatnonzero(~np.isfinite(ion)):
            d = float(block[k])
            try:
                traj = propagate_expm(build_hamiltonian(replace(p, delta=d), model), s0, grid)
            except (ValueError, np.linalg.LinAlgError) as exc:
                raise RuntimeError(f"propagation failed at delta = {d:.12g}") from exc
            values[start + k] = traj.ionization[-1]
    return values


# ---------------------------------------------------------------------------
# adaptive Dormand-Prince 5(4) integration

# Butcher tableau; the nodes _RK_C do not enter the polynomial form,
# because c' = Mc does not depend on t
_RK_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_RK_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_RK_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# difference between the 5th and the embedded 4th order weights
_RK_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
# quartic dense-output polynomial, one column per power of theta
_RK_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)


def _fold_tableau() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tableau as polynomials in z = step·M for the linear system c' = Mc.

    Stage i's increment step·k_i is z P_i(z) applied to y, with P_0 = 1
    and P_i = 1 + sum_j a_ij z P_j; row i of ``increments`` holds the
    coefficients of z^0..z^7 of z P_i.  Returns the step polynomial
    (y_new = R(z) y), the error polynomial and the dense-output
    polynomial, one row per power theta^1..theta^4.
    """
    one = np.eye(8)[0]
    increments = np.zeros((7, 8))
    for i in range(7):
        increments[i, 1:] = (one + _RK_A[i] @ increments[:i])[:-1]
    # one vector-matrix product per row: a first real matrix-matrix product
    # in the process raises its peak RSS by about 0.3 MB
    dense = np.array([weights @ increments for weights in _RK_P.T])
    return one + _RK_B @ increments, _RK_E @ increments, dense


_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0


def _error_norm(diff: np.ndarray, scale: np.ndarray) -> float:
    q = diff / scale
    return math.sqrt(np.vdot(q, q).real / q.size)


def _initial_step(m: np.ndarray, y0: np.ndarray, tol: float, span: float) -> float:
    """First step size for c' = Mc from c(0) = y0 (Hairer, Norsett and
    Wanner, Solving ODEs I, sec. II.4)."""
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
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


def integrate(h: CMatrix, s0: State, grid: TimeGrid, tol: float = 1e-10) -> Trajectory:
    """Solve i dc/dt = h c with an adaptive embedded RK 5(4) pair.

    The local error per step is kept at or below ``tol`` (used as both
    absolute and relative tolerance) by a PI step-size controller;
    values at the grid points come from the method's quartic dense
    output.  For the constant system c' = Mc, M = -i h, every
    Dormand-Prince stage is a fixed polynomial in z = step·M applied to
    c, so a step evaluates the folded tableau as one precomputed
    polynomial in z: one product gives the new amplitudes and the error
    estimate.  The powers of M are scaled by nu = max(1, ||M||_1) so that
    they cannot overflow.  Entirely independent of ``propagate_expm``,
    which makes the two usable as mutual oracles.

    Raises IntegrationError if the step size collapses below 1e-14 of
    the integration span.
    """
    if not (1e-13 <= tol <= 1e-3):
        raise ValueError(f"tol must lie in [1e-13, 1e-3], got {tol}")
    h = np.asarray(h, dtype=np.complex128)
    n = s0.basis.dim
    if h.shape != (n, n):
        raise ValueError(f"Hamiltonian shape {h.shape} does not match basis {s0.basis.value}")
    m = -1j * h
    # z^p = (step nu)^p (M / nu)^p; the step and error rows of ``table``
    # are the coefficients of (step nu)^p
    nu = max(1.0, float(np.abs(m).sum(axis=0).max()))
    powers = np.empty((8, n, n), dtype=np.complex128)
    powers[0] = np.eye(n)
    for p in range(1, 8):
        powers[p] = powers[p - 1] @ (m / nu)
    # folded per call: module-level tables built at import raised the peak
    # RSS of scan runs, which never integrate, by about 0.1 MB
    step_poly, error_poly, dense_poly = _fold_tableau()
    polys = np.stack([step_poly, error_poly], axis=1)
    table = (polys[:, :, None, None] * powers[:, None]).reshape(8, 2 * n * n)
    exponents = np.arange(8.0)
    theta_exponents = np.arange(1.0, 5.0)

    out_times = grid.times()
    span = grid.t_end - grid.t_start
    amp_out = np.empty((len(out_times), n), dtype=np.complex128)
    amp_out[0] = s0.amps
    next_out = 1

    t = grid.t_start
    y = s0.amps.copy()
    step = _initial_step(m, y, tol, span)
    err_prev = 1e-4

    while next_out < len(out_times):
        if step < 1e-14 * span:
            raise IntegrationError(f"step size underflow at t = {t:.6g}")
        step = min(step, grid.t_end - t)

        z_powers = (step * nu) ** exponents
        y_new, err_vec = ((z_powers @ table).reshape(2 * n, n) @ y).reshape(2, n)
        scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
        err = _error_norm(err_vec, scale)

        if err <= 1.0:
            t_new = t + step
            u = None
            while next_out < len(out_times) and out_times[next_out] <= t_new + 1e-15 * span:
                tau = out_times[next_out]
                if tau >= t_new - 1e-15 * span:
                    amp_out[next_out] = y_new
                else:
                    if u is None:
                        # z^p y, one row per power
                        u = z_powers[:, None] * (powers @ y)
                    theta = (tau - t) / step
                    amp_out[next_out] = y + (theta**theta_exponents @ dense_poly) @ u
                next_out += 1
            t, y = t_new, y_new
            factor = _MAX_FACTOR if err == 0.0 else _SAFETY * err**-0.17 * err_prev**0.04
            step *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            err_prev = max(err, 1e-10)
        else:
            step *= min(1.0, max(_MIN_FACTOR, _SAFETY * err**-0.2))

    return Trajectory(grid, s0.basis, amp_out, _ionization_values(amp_out))


# ---------------------------------------------------------------------------
# closed forms on the trapping manifold


def analytic_bright(p: Params, t):
    """Closed-form (b_g, b_e) for b_g(0) = 1; needs delta at trapping.

    ``t`` may be a scalar or an array of times in T.
    """
    from .analysis import _require_trapping

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
    propagated exactly via ``propagate_expm``.

    Four-state trajectories are reported in the bright/dark basis, mapped
    by one stacked product over all samples, with the original-basis
    amplitudes attached as ``amps_original``.
    """
    h = build_hamiltonian(p, model)
    s0 = _initial_state(model, init)
    traj = propagate_expm(h, s0, grid)
    if model in ("four_state", "nondegenerate4"):
        # stacked products are bit-identical to a per-row map; amps @ M.T is not
        bright_dark = (_BRIGHT_DARK_MAP @ traj.amps[:, :, None])[..., 0]
        return Trajectory(grid, Basis.BRIGHTDARK4, bright_dark, traj.ionization, amps_original=traj.amps)
    return traj
