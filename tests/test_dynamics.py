import dataclasses
import math
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lics
from conftest import make_random_params, params_strategy
from lics import (
    Basis,
    IntegrationError,
    Params,
    State,
    TimeGrid,
    Trajectory,
    analytic_bright,
    analytic_g1,
    bright_hamiltonian,
    build_hamiltonian,
    dark_hamiltonian,
    effective_hamiltonian,
    eigensystem,
    eigenvalues,
    evolve,
    from_bright_dark,
    integrate,
    model_eigenvalues,
    nondegenerate_hamiltonian,
    propagate_expm,
    to_bright_dark,
    trapping_delta,
)
from lics.dynamics import (
    _MAX_FACTOR,
    _MIN_FACTOR,
    _RK_A,
    _RK_B,
    _RK_DEGREE,
    _RK_E3,
    _RK_E5,
    _CHUNK,
    _SAFETY,
    _expm_pade,
    _fold_tableau,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)
_STEP_POLY, _E5_POLY, _E3_POLY = _fold_tableau()


def _sorted(values):
    return values[np.lexsort((values.imag, values.real))]


def _random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def _dissipative_hamiltonian(rng, n):
    """h = A - iB with A Hermitian and B positive semidefinite."""
    a = _random_matrix(rng, n)
    b = _random_matrix(rng, n)
    return 0.5 * (a + a.conj().T) - 1j * (b @ b.conj().T)


def _nested_stage_step(m, y, step):
    """One DOP853 step of c' = Mc through its twelve stages, as the tableau
    states them: the new amplitudes and the 5th- and 3rd-order error
    estimates."""
    k = np.empty((len(_RK_A), y.size), dtype=np.complex128)
    for i, a_row in enumerate(_RK_A):
        k[i] = m @ (y + step * (a_row @ k[:i]))
    return y + step * (_RK_B @ k), step * (_RK_E5 @ k), step * (_RK_E3 @ k)


def _polynomial_step(m, y, step):
    """The same step from the folded polynomials in z = step·M."""
    u = np.array([np.linalg.matrix_power(step * m, p) @ y for p in range(len(_STEP_POLY))])
    return _STEP_POLY @ u, _E5_POLY @ u, _E3_POLY @ u


def _count_step_attempts(monkeypatch):
    """Wrap ``_control``, which decides every step the controller takes,
    accepted or rejected, once; the returned list holds the step count.
    Steps computed ahead in a run and dropped after a rejection or an
    uncut step are never decided, so they are not counted."""
    attempts = [0]
    control = lics.dynamics._control

    def counting(e5, e3, step, used, cut):
        attempts[0] += 1
        return control(e5, e3, step, used, cut)

    monkeypatch.setattr(lics.dynamics, "_control", counting)
    return attempts


def _vdot_norm(diff, scale):
    q = diff / scale
    return math.sqrt(np.vdot(q, q).real / q.size)


def _scalar_integrate(h, s0, grid, tol, decisions, error_norm=_vdot_norm):
    """Reference: ``integrate`` as a loop of single DOP853 steps, without
    runs, each with its own step matrix, two error norms and controller
    decision.  Appends (used step, accepted) to ``decisions`` for every
    step and returns the amplitudes at the samples."""
    n = s0.basis.dim
    m = -1j * np.asarray(h, dtype=np.complex128)
    nu = max(1.0, float(np.abs(m).sum(axis=0).max()))
    exponents = np.arange(_RK_DEGREE + 1.0)
    powers = np.empty((len(exponents), n, n), dtype=np.complex128)
    powers[0] = np.eye(n)
    for p in range(1, len(exponents)):
        powers[p] = powers[p - 1] @ (m / nu)
    polys = np.stack(_fold_tableau(), axis=1)
    table = (polys[:, :, None, None] * powers[:, None]).reshape(_RK_DEGREE + 1, 3 * n * n)

    out_times = grid.times()
    span = grid.t_end - grid.t_start
    amp_out = np.empty((len(out_times), n), dtype=np.complex128)
    amp_out[0] = s0.amps
    t = grid.t_start
    y = s0.amps.copy()
    step = lics.dynamics._initial_step(m, y, tol, span)
    for k in range(1, len(out_times)):
        tau = out_times[k]
        while t < tau:
            if step < 1e-14 * span:
                raise IntegrationError(f"step size underflow at t = {t:.6g}")
            cut = tau - t < step
            used = tau - t if cut else step
            step_matrices = (((used * nu) ** exponents) @ table).reshape(3 * n, n)
            y_new, err5, err3 = (step_matrices @ y).reshape(3, n)
            scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
            e5, e3 = error_norm(err5, scale), error_norm(err3, scale)
            err = e5 * e5 / math.hypot(e5, 0.1 * e3) if e5 else 0.0
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err**-0.125)) if err else _MAX_FACTOR
            decisions.append((float(used), err <= 1.0))
            if err <= 1.0:
                t = tau if cut else t + step
                y = y_new
                step = max(step, used * factor) if cut else used * factor
            else:
                step = used * min(1.0, factor)
        amp_out[k] = y
    return amp_out


def _decided_integrate(h, s0, grid, tol, decisions):
    """``integrate``, appending (used step, accepted) to ``decisions`` for
    every step its controller decides."""
    control = lics.dynamics._control

    def recording(e5, e3, step, used, cut):
        accepted, proposed = control(e5, e3, step, used, cut)
        decisions.append((used, accepted))
        return accepted, proposed

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lics.dynamics, "_control", recording)
        return integrate(h, s0, grid, tol).amps


def _both_integrators(h, s0, grid, tol, error_norm=_vdot_norm):
    """(amplitudes, decisions) of ``_scalar_integrate`` and of
    ``integrate``; the amplitudes are None where IntegrationError ends the
    run."""
    results = []
    for run, kwargs in ((_scalar_integrate, {"error_norm": error_norm}), (_decided_integrate, {})):
        decisions = []
        try:
            results.append((run(h, s0, grid, tol, decisions, **kwargs), decisions))
        except IntegrationError:
            results.append((None, decisions))
    return results


class TestTimeGrid:
    def test_times_are_uniform(self):
        grid = TimeGrid(1.0, 3.0, 5)
        np.testing.assert_allclose(grid.times(), [1.0, 1.5, 2.0, 2.5, 3.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 0.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            TimeGrid(0.0, float("inf"), 10)
        with pytest.raises(ValueError, match=r"grid step .* got inf"):  # linspace: [nan, inf, inf, inf, 1e308]
            TimeGrid(-1e308, 1e308, 5)
        # an integral float passed int(n) == n, and then failed in times()
        for n in (3.0, np.float64(3)):
            with pytest.raises(ValueError, match="n_samples must be an integer >= 2"):
                TimeGrid(0.0, 1.0, n)
        assert TimeGrid(0.0, 1.0, np.int64(3)).times().tolist() == [0.0, 0.5, 1.0]

    @settings(max_examples=150, deadline=None)
    @given(
        start=st.floats(-1e8, 1e8),
        span=st.one_of(
            st.integers(1, 8).map(lambda ulps: ("ulps", ulps)),
            st.floats(1e-6, 1e8).map(lambda width: ("width", width)),
        ),
        n=st.one_of(st.integers(2, 5), st.integers(2, 4000), st.sampled_from([65536, 10**5 + 1, 10**6])),
        bounds=st.tuples(*[st.integers(-(10**6) - 2, 10**6 + 2) | st.none()] * 2),
        stride=st.sampled_from([None, 1, 2, 3, 7, 4096, -1, -3]),
        subnormal=st.booleans(),
    )
    # linspace puts sample 4 of this grid at 2e-323, past t_end = 1.5e-323
    @example(start=0.0, span=("ulps", 3), n=6, bounds=(None, None), stride=None, subnormal=False)
    def test_slices_equal_linspace_bit_for_bit(self, start, span, n, bounds, stride, subnormal):
        """times(rows) is np.linspace(...)[rows] in every bit, including
        grids a few ulps wide; a grid whose step is not a normal double,
        as a few-ulp step near zero is, is rejected."""
        if subnormal:  # |start| below 1e-308, so a few-ulp step is subnormal
            start *= 1e-316
        kind, size = span
        if kind == "ulps":
            end = start
            for _ in range(size):
                end = float(np.nextafter(end, np.inf))
        else:
            end = start + size
        if (end - start) / (n - 1) < sys.float_info.min:
            with pytest.raises(ValueError, match="grid step"):
                TimeGrid(start, end, n)
            return
        grid = TimeGrid(start, end, n)
        whole = np.linspace(start, end, n)
        # the plot's x range is that of the samples: the grid's ends
        assert whole.min() == start and whole.max() == end
        for rows in (slice(None), slice(*bounds, stride)):
            assert np.array_equal(grid.times(rows).view(np.uint64), whole[rows].view(np.uint64))

    def test_a_step_that_underflows(self):
        """A step below the smallest normal double is rejected: subnormal,
        it rounds by up to half its size."""
        with pytest.raises(ValueError, match=r"grid step .* at least 2.2250738585072014e-308, got 0.0"):
            TimeGrid(0.0, 5e-324, 3)
        with pytest.raises(ValueError, match="grid step"):
            TimeGrid(0.0, 1.5e-323, 6)
        assert TimeGrid(0.0, 2 * sys.float_info.min, 3).times()[1] == sys.float_info.min

    def test_sample_cap(self):
        assert TimeGrid(0.0, 1.0, 10**6).n_samples == 10**6
        with pytest.raises(ValueError, match="n_samples must be at most 1000000"):
            TimeGrid(0.0, 1.0, 10**6 + 1)
        with pytest.raises(ValueError, match="n_samples"):
            TimeGrid(0.0, 1.0, 10**9)


class TestEigensystem:
    def test_diagonal(self):
        es = eigensystem(np.diag([1 + 2j, 3 + 0j]))
        np.testing.assert_allclose(es.values, [1 + 2j, 3 + 0j], atol=1e-14)
        assert not es.degenerate

    def test_symmetric_flip(self):
        values = eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        np.testing.assert_allclose(values, [-1.0, 1.0], atol=1e-14)

    def test_bright_pair_real_eigenvalue_on_trapping_manifold(self, strong_params):
        p = dataclasses.replace(strong_params, delta=trapping_delta(strong_params))
        values = eigenvalues(bright_hamiltonian(p))
        n_real = int((np.abs(values.imag) < 1e-10).sum())
        assert n_real == 1
        # the decaying partner carries the whole loss rate
        assert abs(values.imag.min() + (5.5 + 12.74)) < 1e-10

    @pytest.mark.parametrize("n", [2, 4])
    def test_matches_lapack_on_random_matrices(self, n):
        rng = np.random.default_rng(42)
        for _ in range(200):
            m = _random_matrix(rng, n)
            mine = eigensystem(m)
            ref = _sorted(np.linalg.eigvals(m))
            scale = max(1.0, np.abs(m).max())
            assert np.abs(mine.values - ref).max() < 1e-9 * scale
            for k in range(n):
                v = mine.vectors[:, k]
                assert np.linalg.norm(m @ v - mine.values[k] * v) < 1e-8 * scale

    def test_random_model_matrices(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            p = make_random_params(rng)
            h = effective_hamiltonian(p)
            ref = _sorted(np.linalg.eigvals(h))
            assert np.abs(eigenvalues(h) - ref).max() < 1e-9 * max(1.0, np.abs(h).max())

    def test_defective_matrix_flagged(self):
        es = eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        np.testing.assert_allclose(es.values, [0.0, 0.0], atol=1e-12)
        assert es.degenerate

    def test_repeated_but_diagonalizable(self):
        es = eigensystem(np.eye(4, dtype=complex))
        np.testing.assert_allclose(es.values, np.ones(4), atol=1e-14)
        assert not es.degenerate
        # the four vectors span: they are orthonormal columns
        np.testing.assert_allclose(es.vectors.conj().T @ es.vectors, np.eye(4), atol=1e-12)

    def test_zero_matrix(self):
        es = eigensystem(np.zeros((2, 2), dtype=complex))
        np.testing.assert_array_equal(es.values, [0.0, 0.0])
        assert not es.degenerate

    def test_embedded_semisimple_double(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            v = _random_matrix(rng, 4)
            m = v @ np.diag([2.0 + 0.5j, 2.0 + 0.5j, -1.0, 3.0]) @ np.linalg.inv(v)
            es = eigensystem(m)
            ref = _sorted(np.linalg.eigvals(m))
            assert np.abs(es.values - ref).max() < 1e-7 * max(1.0, np.abs(m).max())
            assert not es.degenerate

    def test_embedded_defective_double(self):
        rng = np.random.default_rng(8)
        jordan = np.diag([2.0 + 0j, 2.0, -1.0, 3.0])
        jordan[0, 1] = 1.0
        for _ in range(20):
            v = _random_matrix(rng, 4)
            m = v @ jordan @ np.linalg.inv(v)
            es = eigensystem(m)
            assert es.degenerate
            ref = _sorted(np.linalg.eigvals(m))
            # sqrt(eps) accuracy is intrinsic to defective doubles
            assert np.abs(es.values - ref).max() < 1e-5 * max(1.0, np.abs(m).max())
            # propagation falls back to the series kernel and stays accurate
            s0 = State(Basis.ORIGINAL4, [0.5, 0.5, 0.5, 0.5])
            traj = propagate_expm(m, s0, TimeGrid(0.0, 1.0, 3))
            ref_amp = scipy.linalg.expm(-1j * m) @ s0.amps
            assert np.abs(traj.amps[-1] - ref_amp).max() < 1e-8 * max(
                1.0, np.abs(ref_amp).max()
            )

    def test_model_exceptional_point(self):
        """gamma_e - gamma_g = 2 q_eg sqrt(gamma_g gamma_e) and delta = 4.75
        make the bright pair's double root 2 - 2.5i exactly defective."""
        p_ep = Params(
            gamma_g=1, gamma_e=4, stark_g=0.5, stark_e=0.25, q_gg=1, q_eg=0.75, q_ee=0.5, delta=4.75
        )
        p_near = dataclasses.replace(p_ep, delta=4.75 + 1e-10)
        grid = TimeGrid(0.0, 6.0, 13)
        starts = {4: State(Basis.ORIGINAL4, [1, 0, 0, 0]), 2: State(Basis.BRIGHT2, [1, 0])}
        for p, defective in ((p_ep, True), (p_near, False)):
            for h in (effective_hamiltonian(p), bright_hamiltonian(p)):
                assert eigensystem(h).degenerate == defective
                s0 = starts[h.shape[0]]
                traj = propagate_expm(h, s0, grid)
                for t, a in zip(grid.times(), traj.amps):
                    ref = scipy.linalg.expm(-1j * h * t) @ s0.amps
                    assert np.abs(a - ref).max() < 1e-10

    def test_stack_equals_per_matrix_calls(self):
        """A stack holding a defective, a semisimple, a random, the identity,
        the zero matrix and a Jordan block whose LAPACK eigenvectors are
        exactly singular: each gets the bits of its own call."""
        p = Params(gamma_g=1, gamma_e=4, stark_g=0.5, stark_e=0.25, q_gg=1, q_eg=0.75, q_ee=0.5)
        rng = np.random.default_rng(3)
        singular = np.diag([0.0, 0.0, -1.0, 3.0])
        singular[0, 1] = 1e100  # the second eigenvector's tail underflows to zero
        stack = np.array(
            [
                effective_hamiltonian(dataclasses.replace(p, delta=4.75)),  # exceptional point
                effective_hamiltonian(dataclasses.replace(p, delta=-0.25)),  # semisimple double root
                _random_matrix(rng, 4),
                np.eye(4),
                np.zeros((4, 4)),
                singular,
            ]
        )
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(np.linalg.eig(singular)[1])
        es = eigensystem(stack)
        assert es.degenerate.tolist() == [True, False, False, False, False, True]
        for k, m in enumerate(stack):
            one = eigensystem(m)
            assert one.degenerate is bool(es.degenerate[k])
            for field in ("values", "vectors", "inverse"):
                mine, alone = getattr(es, field)[k], getattr(one, field)
                assert np.array_equal(mine.view(np.uint64), alone.view(np.uint64)), (k, field)

    def test_unsupported_shape_rejected(self):
        for shape in ((3, 3), (4,), (2, 2, 4), (2, 4, 4, 4)):
            with pytest.raises(ValueError, match="expected a 2x2 or 4x4 matrix"):
                eigensystem(np.ones(shape, dtype=complex))


def _mp_eigenvalues(h) -> list[complex]:
    """The eigenvalues of the double matrix ``h`` to 40 digits beyond its
    largest entry (mpmath)."""
    digits = 40 + int(np.log10(max(1.0, np.abs(h).max())))
    with mpmath.workdps(digits):
        values = mpmath.eig(mpmath.matrix([[mpmath.mpc(v.real, v.imag) for v in row] for row in h]), right=False)
        return [complex(v) for v in values]


class TestModelEigenvalues:
    """``model_eigenvalues``: the closed-form pair of each block model."""

    @pytest.mark.parametrize("model", ["four_state", "bright2", "twolevel2"])
    @pytest.mark.parametrize("delta", [1e20, 1e100, 1e200])
    def test_far_detuned_against_mpmath(self, strong_params, model, delta):
        """Both parts of every eigenvalue to 1e-12 relative, where LAPACK
        loses the decay rates (its absolute error is eps·delta).  At 1e200,
        h*h + bc in ``_mean_and_root`` overflows, and that branch must be
        the one discarded."""
        p = dataclasses.replace(strong_params, delta=delta)
        values = model_eigenvalues(p, model)
        assert np.array_equal(values, _sorted(values))
        truth = _mp_eigenvalues(build_hamiltonian(p, model))
        for v in values:
            nearest = min(truth, key=lambda z: abs(z - v))
            truth.remove(nearest)
            # the dark pair is real; mpmath leaves ~1e-40 there
            assert abs(v.real - nearest.real) <= 1e-12 * abs(nearest.real) + 1e-30
            assert abs(v.imag - nearest.imag) <= 1e-12 * abs(nearest.imag) + 1e-30
        decay = sorted(np.round(-values.imag, 9))
        bright = {"four_state": [0.0, 0.0, 5.5, 12.74], "bright2": [5.5, 12.74], "twolevel2": [2.75, 6.37]}
        assert decay == bright[model]

    def test_exceptional_point_is_a_double_root(self):
        """delta = 4.75 on the exceptional-point set: the builders' double
        matrices have the exact double root 2 - 2.5i.  bright2 returns it to
        a few ulps.  four_state's bright block comes from the pi/4 rotation,
        whose roundoff (~1e-16) splits a double root by its square root, as
        it splits LAPACK's on the 4x4 matrix."""
        p = Params(gamma_g=1, gamma_e=4, stark_g=0.5, stark_e=0.25, q_gg=1, q_eg=0.75, q_ee=0.5, delta=4.75)
        for h in (bright_hamiltonian(p), effective_hamiltonian(p)):
            truth = _mp_eigenvalues(h)
            assert sum(abs(z - (2 - 2.5j)) < 1e-30 for z in truth) == 2
        pair = model_eigenvalues(p, "bright2")
        assert np.abs(pair - (2 - 2.5j)).max() < 4 * np.finfo(float).eps * abs(2 - 2.5j)
        four = model_eigenvalues(p, "four_state")
        assert np.allclose(four[[0, 3]], [1.0, 6.0], rtol=1e-15, atol=0)
        lapack = eigenvalues(effective_hamiltonian(p))[1:3]
        assert np.abs(four[1:3] - (2 - 2.5j)).max() < 1e-7
        assert np.abs(lapack - (2 - 2.5j)).max() < 1e-7

    @settings(max_examples=200, deadline=None)
    @given(p=params_strategy)
    def test_agrees_with_lapack_at_moderate_detunings(self, p):
        for model in ("four_state", "bright2", "twolevel2"):
            h = build_hamiltonian(p, model)
            es = eigensystem(h)
            # near a defective root both are only good to sqrt(eps)
            assume(not es.degenerate)
            values = model_eigenvalues(p, model)
            # paired by distance: roots with equal real parts may sort either way
            distance = np.abs(values[:, None] - es.values[None, :])
            # LAPACK's error grows as eps·cond(V): at q_eg = 1e-9 and delta = 1
            # twolevel2 has cond(V) = 4.5e4 and LAPACK is 2.7e-12 off mpmath's
            # eigenvalues, the closed form 5.6e-15
            cond = np.linalg.norm(es.vectors, 1) * np.linalg.norm(es.inverse, 1)
            bound = max(1e-12, 50 * np.finfo(float).eps * cond) * max(1.0, np.abs(h).max())
            assert distance.min(axis=0).max() <= bound and distance.min(axis=1).max() <= bound

    def test_nondegenerate4_takes_lapack(self, strong_params):
        p = dataclasses.replace(strong_params, shift_g=0.2, shift_e=0.1, delta=1.5)
        expected = eigensystem(build_hamiltonian(p, "nondegenerate4")).values
        assert np.array_equal(model_eigenvalues(p, "nondegenerate4"), expected)

    def test_overflowing_entries_fail(self, strong_params):
        """At delta = 1.7e308 four_state's entry 2 (delta + stark_e) overflows;
        the two-state builders stay finite, and so does their pair."""
        p = dataclasses.replace(strong_params, delta=1.7e308)
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            model_eigenvalues(p, "four_state")
        for model in ("bright2", "twolevel2"):
            assert np.isfinite(model_eigenvalues(p, model)).all()


class TestPropagateExpm:
    def test_zero_hamiltonian_is_constant(self):
        s0 = State(Basis.BRIGHT2, [0.6, 0.8])
        traj = propagate_expm(np.zeros((2, 2), dtype=complex), s0, TimeGrid(0, 5, 11))
        for a in traj.amps:
            np.testing.assert_allclose(a, [0.6, 0.8], atol=1e-14)

    def test_pure_decay(self):
        h = np.diag([-1j, 0.0])
        s0 = State(Basis.BRIGHT2, [1.0, 0.0])
        traj = propagate_expm(h, s0, TimeGrid(0.0, 4.0, 9))
        amp0 = np.abs(traj.amps[:, 0])
        np.testing.assert_allclose(amp0, np.exp(-traj.times), rtol=1e-12)

    def test_matches_closed_form_on_trapping_manifold(self, strong_params):
        p = dataclasses.replace(strong_params, delta=trapping_delta(strong_params))
        grid = TimeGrid(0.0, 6.0, 301)
        s0 = State(Basis.BRIGHT2, [1.0, 0.0])
        traj = propagate_expm(bright_hamiltonian(p), s0, grid)
        bg, be = analytic_bright(p, grid.times())
        amps = traj.amps
        assert np.abs(amps[:, 0] - bg).max() < 1e-10
        assert np.abs(amps[:, 1] - be).max() < 1e-10

    def test_defective_hamiltonian_uses_series_fallback(self):
        h = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)  # Jordan block
        s0 = State(Basis.BRIGHT2, [1.0, 1.0])
        grid = TimeGrid(0.0, 2.0, 5)
        traj = propagate_expm(h, s0, grid)
        for t, a in zip(grid.times(), traj.amps):
            ref = scipy.linalg.expm(-1j * h * t) @ np.array([1.0, 1.0])
            np.testing.assert_allclose(a, ref, atol=1e-12)

    @pytest.mark.parametrize("scale", [0.1, 1.0, 30.0, 300.0])
    def test_series_kernel_matches_scipy(self, scale):
        from lics.dynamics import _expm_pade

        rng = np.random.default_rng(3)
        for _ in range(10):
            a = scale * _random_matrix(rng, 4) / 4.0
            ref = scipy.linalg.expm(a)
            np.testing.assert_allclose(
                _expm_pade(a), ref, atol=1e-13 * max(1.0, np.abs(ref).max()), rtol=1e-12
            )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            propagate_expm(np.eye(4, dtype=complex), State(Basis.BRIGHT2, [1, 0]), TimeGrid(0, 1, 3))


class TestIntegrate:
    def test_zero_hamiltonian_keeps_the_state(self):
        """With h = 0 the first-step estimate has no derivative to scale by."""
        s0 = State(Basis.BRIGHT2, [0.6, 0.8j])
        traj = integrate(np.zeros((2, 2), dtype=complex), s0, TimeGrid(0.0, 1.0, 5))
        assert np.array_equal(traj.amps, np.tile(s0.amps, (5, 1)))

    def test_tolerance_bounds(self):
        s0 = State(Basis.BRIGHT2, [1.0, 0.0])
        with pytest.raises(ValueError):
            integrate(np.eye(2, dtype=complex), s0, TimeGrid(0, 1, 3), tol=1e-14)
        with pytest.raises(ValueError):
            integrate(np.eye(2, dtype=complex), s0, TimeGrid(0, 1, 3), tol=1e-2)

    @pytest.mark.parametrize("tol", [1e-5, 1e-8, 1e-11])
    def test_agrees_with_expm_on_random_hamiltonians(self, tol):
        rng = np.random.default_rng(17)
        for _ in range(10):
            h = _random_matrix(rng, 4)
            h /= np.abs(h).max()
            s0v = rng.normal(size=4) + 1j * rng.normal(size=4)
            s0 = State(Basis.ORIGINAL4, s0v / np.linalg.norm(s0v))
            grid = TimeGrid(0.0, 2.0, 41)
            exact = propagate_expm(h, s0, grid).amps
            numeric = integrate(h, s0, grid, tol).amps
            assert np.abs(numeric - exact).max() < 10.0 * tol

    @pytest.mark.parametrize("tol", [1e-5, 1e-8, 1e-11])
    def test_agrees_with_expm_on_model_hamiltonians(self, tol):
        """Strong-drive models take hundreds of steps over 2 T; the global
        error is steps-proportional, not bounded by the per-step tolerance."""
        rng = np.random.default_rng(17)
        for _ in range(5):
            p = make_random_params(rng)
            h = effective_hamiltonian(p)
            s0 = State(Basis.ORIGINAL4, [INV_SQRT2, INV_SQRT2, 0.0, 0.0])
            grid = TimeGrid(0.0, 2.0, 41)
            exact = propagate_expm(h, s0, grid).amps
            numeric = integrate(h, s0, grid, tol).amps
            assert np.abs(numeric - exact).max() < 150.0 * tol

    def test_unitary_limit_preserves_norm(self):
        p = Params(gamma_g=0.0, gamma_e=0.0, stark_g=1.1, stark_e=-0.4, delta=2.0)
        h = effective_hamiltonian(p)
        s0 = State(Basis.ORIGINAL4, [0.5, 0.5, 0.5, 0.5])
        traj = integrate(h, s0, TimeGrid(0.0, 10.0, 101), tol=1e-12)
        norms = np.array([State(traj.basis, a).norm_sq for a in traj.amps])
        assert np.abs(norms - 1.0).max() < 1e-10

    def test_level_splitting_increases_ionization(self, weak_params):
        p = dataclasses.replace(weak_params, delta=trapping_delta(weak_params))
        p_nd = dataclasses.replace(p, shift_g=0.2, shift_e=0.2)
        s0 = State(Basis.ORIGINAL4, [1.0, 0.0, 0.0, 0.0])
        grid = TimeGrid(0.0, 10.0, 51)
        ion_deg = integrate(effective_hamiltonian(p), s0, grid, 1e-10).ionization[-1]
        ion_nd = integrate(nondegenerate_hamiltonian(p_nd), s0, grid, 1e-10).ionization[-1]
        assert ion_nd > ion_deg

    def test_step_underflow_raises(self):
        h = np.diag([1e16 + 0j, 0.0])
        s0 = State(Basis.BRIGHT2, [1.0, 0.0])
        with pytest.raises(IntegrationError):
            integrate(h, s0, TimeGrid(0.0, 1.0, 3), tol=1e-10)

    def test_non_finite_result_rejected(self, monkeypatch):
        """A controller that accepted every step would let an overflow
        through; the finiteness check still refuses it."""
        monkeypatch.setattr(lics.dynamics, "_error_norm", lambda diff, scale: np.zeros(diff.shape[:-1]))
        s0 = State(Basis.BRIGHT2, [1e300, 0.0])
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="amplitudes must be finite"):
            integrate(np.diag([1e3j, 0.0]), s0, TimeGrid(0.0, 1.0, 3))

    def test_non_finite_hamiltonian_rejected_without_warnings(self):
        """gamma_g gamma_e overflows, so the cross coupling is infinite."""
        h = build_hamiltonian(Params(1e200, 1e200), "nondegenerate4")
        s0 = State(Basis.ORIGINAL4, [1.0, 0.0, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                integrate(h, s0, TimeGrid(0, 1, 3))

    def test_dense_output_hits_grid_times(self):
        h = np.diag([-1j, -2j])
        s0 = State(Basis.BRIGHT2, [1.0, 1.0])
        grid = TimeGrid(0.0, 3.0, 7)
        tol = 1e-10
        traj = integrate(h, s0, grid, tol=tol)
        exact = np.exp(-1j * np.outer(grid.times(), np.diag(h))) * s0.amps
        np.testing.assert_allclose(traj.amps, exact, rtol=0, atol=10 * tol)

    def test_huge_hamiltonian_on_a_short_span(self):
        """Unscaled powers of M overflow at M^7 once ||h|| is above about
        1e44, while step·M stays near 1 on a short enough span."""
        h = 1e100 * np.array([[1.0 - 0.5j, 0.3], [0.3, -1.0 - 0.2j]])
        s0 = State(Basis.BRIGHT2, [1.0, 0.0])
        grid = TimeGrid(0.0, 1e-100, 5)
        exact = propagate_expm(h, s0, grid).amps
        assert np.abs(integrate(h, s0, grid, 1e-10).amps - exact).max() < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        log_scale=st.floats(min_value=-1.0, max_value=1.0),
        tol=st.floats(min_value=1e-12, max_value=1e-4),
    )
    def test_agrees_with_expm_on_dissipative_hamiltonians(self, seed, log_scale, tol):
        rng = np.random.default_rng(seed)
        h = _dissipative_hamiltonian(rng, 4)
        h *= 10.0**log_scale / np.abs(h).max()
        s0v = rng.normal(size=4) + 1j * rng.normal(size=4)
        s0 = State(Basis.ORIGINAL4, s0v / np.linalg.norm(s0v))
        grid = TimeGrid(0.0, 2.0, 41)
        exact = propagate_expm(h, s0, grid).amps
        assert np.abs(integrate(h, s0, grid, tol).amps - exact).max() < 10.0 * tol

    @pytest.mark.parametrize("shift", [1e-6, 0.2])
    def test_step_count_on_the_splitting_system(self, weak_params, monkeypatch, shift):
        """The weak drive of configs/splitting_comparison.conf at trapping,
        as the nondeg command integrates it: about 436 attempts, one per
        sample interval and a few more."""
        p = dataclasses.replace(weak_params, delta=trapping_delta(weak_params), shift_g=shift, shift_e=shift)
        s0 = State(Basis.ORIGINAL4, [1.0, 0.0, 0.0, 0.0])
        attempts = _count_step_attempts(monkeypatch)
        integrate(nondegenerate_hamiltonian(p), s0, TimeGrid(0.0, 40.0, 401), tol=1e-12)
        assert attempts[0] <= 500

    def test_a_cut_does_not_shrink_the_next_step(self, monkeypatch):
        """A first step just short of the first sample leaves a sliver, cut
        to land on the sample; the step after it is proposed from the
        uncut one, so each later interval takes one step."""
        monkeypatch.setattr(lics.dynamics, "_initial_step", lambda m, y0, tol, span: 0.099 * span)
        attempts = _count_step_attempts(monkeypatch)
        grid = TimeGrid(0.0, 1.0, 11)
        integrate(np.diag([1e-3 + 0j, -2e-3]), State(Basis.BRIGHT2, [1.0, 1.0]), grid, tol=1e-10)
        assert attempts[0] == grid.n_samples


class TestCutStepRuns:
    """Runs of cut steps against the step-by-step loop they replace: the
    same amplitudes bit for bit and the same accept/reject decisions."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        dim=st.sampled_from([2, 4]),
        log_scale=st.floats(min_value=-1.0, max_value=1.0),
        t_end=st.floats(min_value=0.1, max_value=20.0),
        n_samples=st.integers(min_value=2, max_value=401),
        tol=st.floats(min_value=1e-12, max_value=1e-4),
    )
    def test_equals_the_step_by_step_loop(self, seed, dim, log_scale, t_end, n_samples, tol):
        rng = np.random.default_rng(seed)
        h = _dissipative_hamiltonian(rng, dim)
        h *= 10.0**log_scale / np.abs(h).max()
        s0v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        s0 = State(Basis.ORIGINAL4 if dim == 4 else Basis.BRIGHT2, s0v / np.linalg.norm(s0v))
        (ref, ref_decisions), (amps, decisions) = _both_integrators(h, s0, TimeGrid(0.0, t_end, n_samples), tol)
        assert decisions == ref_decisions
        np.testing.assert_array_equal(amps, ref)

    @pytest.mark.parametrize("rejections", [False, True])
    def test_the_splitting_system(self, weak_params, monkeypatch, rejections):
        """The system of the nondeg command on its dense benchmark grid.
        With ``rejections``, both integrators see error norms raised 1000x
        wherever the scale's first entry hits a fixed residue, which
        depends only on the step's bits: about one step in seven is
        rejected, most of them inside runs."""
        p = dataclasses.replace(weak_params, delta=trapping_delta(weak_params), shift_g=0.2, shift_e=0.2)
        s0 = State(Basis.ORIGINAL4, [1.0, 0.0, 0.0, 0.0])
        grid = TimeGrid(0.0, 40.0, 401)
        error_norm = _vdot_norm
        if rejections:

            def raised(norm):
                def norm_of_a_hit(diff, scale):
                    hit = np.broadcast_to(scale, diff.shape)[..., 0] * 1e16 % 7.0 < 1.0
                    return norm(diff, scale) * np.where(hit, 1e3, 1.0)

                return norm_of_a_hit

            error_norm = raised(_vdot_norm)
            monkeypatch.setattr(lics.dynamics, "_error_norm", raised(lics.dynamics._error_norm))
        (ref, ref_decisions), (amps, decisions) = _both_integrators(
            nondegenerate_hamiltonian(p), s0, grid, 1e-12, error_norm=error_norm
        )
        assert decisions == ref_decisions
        np.testing.assert_array_equal(amps, ref)
        rejected = sum(not accepted for _, accepted in decisions)
        assert rejected > 20 if rejections else rejected == 0

    def test_a_nan_error_rejects_every_step(self, monkeypatch):
        """``err <= 1`` is False for NaN: every step is rejected, in a run
        or alone, until the step size underflows."""
        h = np.array([[0.4 - 0.1j, 0.3], [0.3, -0.5 - 0.2j]])
        s0 = State(Basis.BRIGHT2, [1.0, 0.0])
        monkeypatch.setattr(lics.dynamics, "_error_norm", lambda diff, scale: np.full(diff.shape[:-1], np.nan))
        monkeypatch.setattr(lics.dynamics, "_initial_step", lambda m, y0, tol, span: span)
        (ref, ref_decisions), (amps, decisions) = _both_integrators(
            h, s0, TimeGrid(0.0, 1.0, 11), 1e-8, error_norm=lambda diff, scale: math.nan
        )
        assert ref is None and amps is None
        assert decisions == ref_decisions
        assert len(decisions) > 10 and not any(accepted for _, accepted in decisions)

    def test_step_underflow(self):
        h = np.diag([1e16 + 0j, 0.0])
        s0 = State(Basis.BRIGHT2, [1.0, 0.0])
        (ref, ref_decisions), (amps, decisions) = _both_integrators(h, s0, TimeGrid(0.0, 1.0, 3), 1e-10)
        assert ref is None and amps is None
        assert decisions == ref_decisions


class TestFoldedTableau:
    """The stage loop folded into polynomials in z = step·M."""

    def test_step_polynomial_is_exp_through_the_eighth_power(self):
        expected = [1.0 / math.factorial(p) for p in range(9)]
        assert np.abs(_STEP_POLY[:9] - expected).max() <= 1e-15
        assert np.abs(_STEP_POLY[9:] - [1.0 / math.factorial(p) for p in range(9, 13)]).min() > 1e-9

    def test_error_polynomials_start_at_their_orders(self):
        """The 8th-order weights agree with the 5th-order ones through z^5
        and with the 3rd-order ones through z^3."""
        assert np.abs(_E5_POLY[:6]).max() < 1e-14
        assert np.abs(_E5_POLY[6:]).min() > 1e-11
        assert np.abs(_E3_POLY[:4]).max() < 1e-14
        assert np.abs(_E3_POLY[4:]).min() > 1e-11

    def test_coefficients_equal_scipys(self):
        """The typed tableau against scipy's copy of the book's, which the
        package itself never imports."""
        from scipy.integrate._ivp import dop853_coefficients as ref

        assert len(_RK_A) == ref.N_STAGES
        for i, a_row in enumerate(_RK_A):
            np.testing.assert_array_equal(a_row, ref.A[i, :i])
            assert not ref.A[i, i:].any()
        np.testing.assert_array_equal(_RK_B, ref.B)
        # the error estimates give the thirteenth stage no weight
        np.testing.assert_array_equal(_RK_E5, ref.E5[:-1])
        np.testing.assert_array_equal(_RK_E3, ref.E3[:-1])
        assert ref.E5[-1] == ref.E3[-1] == 0.0

    def test_every_sample_is_an_accepted_step_end(self, monkeypatch):
        """With a first step as long as the span and errors far below
        ``tol``, each interval between samples is one step, cut to end on
        its sample: sample k is R(z) applied to sample k - 1, with no
        interpolant."""
        monkeypatch.setattr(lics.dynamics, "_initial_step", lambda m, y0, tol, span: span)
        attempts = _count_step_attempts(monkeypatch)
        h = np.array([[0.4 - 0.1j, 0.3], [0.3, -0.5 - 0.2j]])
        s0 = State(Basis.BRIGHT2, [1.0, 0.0])
        grid = TimeGrid(0.0, 3.0, 7)
        amps = integrate(h, s0, grid, tol=1e-3).amps
        assert attempts[0] == grid.n_samples - 1
        powers = np.array([np.linalg.matrix_power(-0.5j * h, p) for p in range(len(_STEP_POLY))])
        step = np.tensordot(_STEP_POLY, powers, 1)
        np.testing.assert_allclose(amps[1:], amps[:-1] @ step.T, rtol=0.0, atol=1e-15)
        # the check can tell R(z) from the exact propagator
        assert np.abs(amps - propagate_expm(h, s0, grid).amps).max() > 1e-12

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("z_norm", [1e-3, 0.1, 1.0, 2.0, 3.3])
    def test_one_step_matches_the_nested_stages(self, n, z_norm):
        rng = np.random.default_rng(n)
        for _ in range(5):
            m = _random_matrix(rng, n)
            y = rng.normal(size=n) + 1j * rng.normal(size=n)
            y /= np.linalg.norm(y)
            step = z_norm / np.linalg.norm(m, 2)
            for ref, poly in zip(_nested_stage_step(m, y, step), _polynomial_step(m, y, step)):
                assert np.abs(poly - ref).max() <= 1e-13


class TestClosedForms:
    def test_bright_initial_condition(self, strong_params):
        p = dataclasses.replace(strong_params, delta=trapping_delta(strong_params))
        bg, be = analytic_bright(p, 0.0)
        assert bg == pytest.approx(1.0, abs=1e-15)
        assert be == pytest.approx(0.0, abs=1e-15)

    def test_bright_long_time_moduli(self, strong_params):
        p = dataclasses.replace(strong_params, delta=trapping_delta(strong_params))
        bg, be = analytic_bright(p, 6.0)
        assert abs(bg) == pytest.approx(12.74 / 18.24, abs=1e-7)
        assert abs(be) == pytest.approx(np.sqrt(5.5 * 12.74) / 18.24, abs=1e-7)

    def test_bright_matches_integrator(self, strong_params):
        p = dataclasses.replace(strong_params, delta=trapping_delta(strong_params))
        grid = TimeGrid(0.0, 1.0, 21)
        traj = integrate(bright_hamiltonian(p), State(Basis.BRIGHT2, [1.0, 0.0]), grid, 1e-11)
        bg, be = analytic_bright(p, grid.times())
        amps = traj.amps
        assert np.abs(amps[:, 0] - bg).max() < 1e-8
        assert np.abs(amps[:, 1] - be).max() < 1e-8

    def test_off_manifold_detuning_rejected(self, strong_params):
        p = dataclasses.replace(strong_params, delta=trapping_delta(strong_params) + 0.01)
        with pytest.raises(ValueError, match="trapping"):
            analytic_bright(p, 1.0)
        with pytest.raises(ValueError, match="trapping"):
            analytic_g1(p, 1.0)

    def test_g1_initial_condition(self, strong_params):
        p = dataclasses.replace(strong_params, delta=trapping_delta(strong_params))
        bg, be, dg = analytic_g1(p, 0.0)
        assert bg == pytest.approx(INV_SQRT2, abs=1e-15)
        assert be == pytest.approx(0.0, abs=1e-15)
        assert dg == pytest.approx(-INV_SQRT2, abs=1e-15)

    def test_g1_dark_amplitude_is_pure_phase(self, strong_params):
        p = dataclasses.replace(strong_params, delta=trapping_delta(strong_params))
        t = np.linspace(0.0, 8.0, 50)
        _, _, dg = analytic_g1(p, t)
        np.testing.assert_allclose(np.abs(dg), INV_SQRT2, atol=1e-14)

    def test_g1_ionization_plateau(self, strong_params):
        p = dataclasses.replace(strong_params, delta=trapping_delta(strong_params))
        bg, be, dg = analytic_g1(p, 6.0)
        ion = 1.0 - abs(bg) ** 2 - abs(be) ** 2 - abs(dg) ** 2
        assert ion == pytest.approx(0.5 * 5.5 / 18.24, abs=1e-6)
        # cross-check against the adaptive integrator
        grid = TimeGrid(0.0, 6.0, 2)
        s0 = State(Basis.ORIGINAL4, [1.0, 0.0, 0.0, 0.0])
        traj = integrate(effective_hamiltonian(p), s0, grid, 1e-11)
        assert ion == pytest.approx(traj.ionization[-1], abs=1e-8)


class TestEvolve:
    def test_bright_final_ionization(self, strong_params):
        p = dataclasses.replace(strong_params, delta=trapping_delta(strong_params))
        traj = evolve(p, "four_state", "bright", TimeGrid(0.0, 6.0, 121))
        assert traj.ionization[-1] == pytest.approx(5.5 / 18.24, abs=1e-6)
        assert traj.basis is Basis.BRIGHTDARK4
        assert traj.amps_original is not None
        assert traj.amps_original.shape == traj.amps.shape

    def test_g1_dark_population_constant(self, strong_params):
        p = dataclasses.replace(strong_params, delta=trapping_delta(strong_params))
        traj = evolve(p, "four_state", "g1", TimeGrid(0.0, 6.0, 121))
        dark = np.abs(traj.amps[:, 2]) ** 2
        np.testing.assert_allclose(dark, 0.5, atol=1e-10)

    def test_two_level_ground_start(self, strong_params):
        traj = evolve(strong_params, "twolevel2", "g1", TimeGrid(0.0, 1.0, 5))
        np.testing.assert_allclose(traj.amps[0], [1.0, 0.0], atol=1e-15)
        assert traj.basis is Basis.TWOLEVEL2

    def test_bright2_matches_four_state_bright_block(self, strong_params):
        p = dataclasses.replace(strong_params, delta=trapping_delta(strong_params))
        grid = TimeGrid(0.0, 4.0, 81)
        four = evolve(p, "four_state", "bright", grid).amps
        two = evolve(p, "bright2", "bright", grid).amps
        assert np.abs(four[:, :2] - two).max() < 1e-10
        assert np.abs(four[:, 2:]).max() < 1e-12

    def test_blockwise_evolution_consistency(self, strong_params):
        """Original-basis propagation mapped to bright/dark equals evolving
        the decoupled blocks independently."""
        p = dataclasses.replace(strong_params, delta=trapping_delta(strong_params))
        grid = TimeGrid(0.0, 5.0, 101)
        mapped = evolve(p, "four_state", "g1", grid).amps

        bright_block = propagate_expm(
            bright_hamiltonian(p), State(Basis.BRIGHT2, [INV_SQRT2, 0.0]), grid
        ).amps
        hd = dark_hamiltonian(p)
        dark0 = np.array([-INV_SQRT2, 0.0])
        phases = np.exp(-1j * np.outer(grid.times(), np.diag(hd)))
        dark_block = phases * dark0

        assert np.abs(mapped[:, :2] - bright_block).max() < 1e-10
        assert np.abs(mapped[:, 2:] - dark_block).max() < 1e-10

    def test_custom_state_initialization(self, strong_params):
        s0 = State(Basis.BRIGHTDARK4, [1.0, 0.0, 0.0, 0.0])
        traj = evolve(strong_params, "four_state", s0, TimeGrid(0.0, 1.0, 5))
        np.testing.assert_allclose(traj.amps[0], [1, 0, 0, 0], atol=1e-14)

    def test_incompatible_custom_state_rejected(self, strong_params):
        with pytest.raises(ValueError):
            evolve(strong_params, "four_state", State(Basis.BRIGHT2, [1, 0]), TimeGrid(0, 1, 3))
        with pytest.raises(ValueError):
            evolve(strong_params, "bright2", State(Basis.TWOLEVEL2, [1, 0]), TimeGrid(0, 1, 3))

    def test_unknown_tags_rejected(self, strong_params):
        with pytest.raises(ValueError, match="model"):
            evolve(strong_params, "pentagon", "bright", TimeGrid(0, 1, 3))
        with pytest.raises(ValueError, match="init"):
            evolve(strong_params, "four_state", "g3", TimeGrid(0, 1, 3))

    def test_builder_overflow_fails_without_warnings(self, strong_params):
        p = dataclasses.replace(strong_params, delta=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                evolve(p, "four_state", "g1", TimeGrid(0, 1, 3))

    @pytest.mark.parametrize("model,init", [("four_state", "g1"), ("bright2", "bright"), ("twolevel2", "g1")])
    def test_closed_form_past_the_cosine_overflow(self, model, init):
        """|Im s| t passes 700 after 72 T (145 T for twolevel2), where
        cos(st) heads for overflow while e^{-imt} underflows; the closed
        form then sums the two eigen-exponentials instead."""
        p = Params(gamma_g=19.0, gamma_e=0.5, stark_g=0.3, q_gg=1.0, q_eg=0.2, delta=2.0)
        grid = TimeGrid(0.0, 400.0, 41)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = evolve(p, model, init, grid)
        amps = traj.amps if traj.amps_original is None else traj.amps_original
        h = build_hamiltonian(p, model)
        s0 = lics.dynamics._initial_state(model, init)
        for t, a in zip(grid.times(), amps):
            assert np.abs(a - scipy.linalg.expm(-1j * h * t) @ s0.amps).max() < 1e-10

    def test_norm_gain_raises(self, strong_params):
        p = dataclasses.replace(strong_params, delta=1e200)
        with pytest.raises(ValueError, match="norm grew"):
            evolve(p, "nondegenerate4", "g1", TimeGrid(0.0, 6.0, 3))

    def test_ionization_monotone_for_random_parameters(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            p = make_random_params(rng)
            model = rng.choice(["four_state", "bright2", "twolevel2", "nondegenerate4"])
            init = rng.choice(["bright", "g1", "g2"])
            traj = evolve(p, str(model), str(init), TimeGrid(0.0, 4.0, 61))
            assert np.all(np.diff(traj.ionization) > -1e-9)
            assert traj.ionization.min() > -1e-9
            assert traj.ionization.max() < 1.0 + 1e-9

    def test_dark_populations_invariant_in_degenerate_model(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            p = make_random_params(rng)
            traj = evolve(p, "four_state", str(rng.choice(["g1", "g2"])), TimeGrid(0.0, 5.0, 41))
            dark = np.abs(traj.amps[:, 2:])
            assert np.abs(dark - dark[0]).max() < 1e-10


class TestTrajectory:
    def test_lengths_and_ionization_definition(self, strong_params):
        grid = TimeGrid(0.0, 2.0, 17)
        traj = evolve(strong_params, "four_state", "bright", grid)
        assert traj.amps.shape == (17, 4)
        assert traj.ionization.shape == (17,)
        for a, ion in zip(traj.amps, traj.ionization):
            assert ion == pytest.approx(1.0 - State(traj.basis, a).norm_sq, abs=1e-12)

    def test_evolve_builds_no_state_per_sample(self, strong_params, monkeypatch):
        calls = {"state": 0, "map": 0}
        post_init, to_bd = State.__post_init__, lics.transforms.to_bright_dark

        def counted_post_init(state):
            calls["state"] += 1
            post_init(state)

        def counted_map(state):
            calls["map"] += 1
            return to_bd(state)

        monkeypatch.setattr(State, "__post_init__", counted_post_init)
        for module in (lics, lics.transforms, lics.dynamics):
            if hasattr(module, "to_bright_dark"):
                monkeypatch.setattr(module, "to_bright_dark", counted_map)
        counts = []
        for n in (11, 2001):
            calls.update(state=0, map=0)
            traj = evolve(strong_params, "four_state", "g1", TimeGrid(0.0, 6.0, n))
            assert traj.amps.shape == (n, 4) and traj.amps_original.shape == (n, 4)
            assert calls["map"] == 0
            counts.append(calls["state"])
        assert counts[0] == counts[1] <= 2

    def test_states_are_built_from_the_arrays(self, strong_params):
        # more samples than one block of the row map holds
        grid = TimeGrid(0.0, 1.0, 2 * _CHUNK + 1)
        split = dataclasses.replace(strong_params, shift_g=0.2, shift_e=0.1)
        for traj in (evolve(strong_params, "four_state", "g1", grid), evolve(split, "nondegenerate4", "g1", grid)):
            assert traj.basis is Basis.BRIGHTDARK4
            # the stacked map is bit-identical to mapping each sample on its own
            np.testing.assert_array_equal(
                traj.amps_original, [from_bright_dark(State(Basis.BRIGHTDARK4, a)).amps for a in traj.amps]
            )
            # derived on each access, never stored
            assert traj.amps_original is not traj.amps_original
            with pytest.raises(AttributeError):
                traj.amps_original = traj.amps
        original = propagate_expm(effective_hamiltonian(strong_params), State(Basis.ORIGINAL4, [1, 0, 0, 0]), grid)
        assert original.amps_original is original.amps
        two = evolve(strong_params, "bright2", "bright", TimeGrid(0.0, 1.0, 5))
        assert two.amps_original is None

    def test_peak_memory_is_near_the_result(self, strong_params):
        """The kernels fill the result by blocks of samples, and a four-state
        trajectory stores no second (n, 4) array."""
        p = dataclasses.replace(strong_params, delta=trapping_delta(strong_params))
        grid = TimeGrid(0.0, 6.0, 20001)
        evolve(p, "four_state", "g1", TimeGrid(0.0, 6.0, 11))
        tracemalloc.start()
        try:
            traj = evolve(p, "four_state", "g1", grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * (traj.amps.nbytes + traj.ionization.nbytes)
        arrays = [v for v in vars(traj).values() if isinstance(v, np.ndarray)]
        assert sorted(a.shape for a in arrays) == [(20001,), (20001, 4)]

    def test_rejects_inconsistent_or_non_finite_amplitudes(self):
        grid = TimeGrid(0.0, 1.0, 3)
        with pytest.raises(ValueError, match="shape"):
            Trajectory(grid, Basis.BRIGHT2, np.zeros((3, 4), dtype=complex), np.zeros(3))
        with pytest.raises(ValueError, match="shape"):
            Trajectory(grid, Basis.BRIGHT2, np.zeros((2, 2), dtype=complex), np.zeros(2))
        amps = np.zeros((3, 2), dtype=complex)
        amps[1, 0] = np.nan
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            Trajectory(grid, Basis.BRIGHT2, amps, np.zeros(3))

    def test_oracle_triangle(self, strong_params):
        """Closed form, exponential and Runge-Kutta propagation agree."""
        p = dataclasses.replace(strong_params, delta=trapping_delta(strong_params))
        grid = TimeGrid(0.0, 6.0, 201)
        bg, be = analytic_bright(p, grid.times())
        closed = np.stack([bg, be], axis=1)

        s0 = State(Basis.ORIGINAL4, [INV_SQRT2, INV_SQRT2, 0.0, 0.0])
        h = effective_hamiltonian(p)
        via_expm = np.array(
            [to_bright_dark(State(s0.basis, a)).amps[:2] for a in propagate_expm(h, s0, grid).amps]
        )
        via_rk = np.array(
            [to_bright_dark(State(s0.basis, a)).amps[:2] for a in integrate(h, s0, grid, 1e-11).amps]
        )
        assert np.abs(closed - via_expm).max() < 1e-8
        assert np.abs(closed - via_rk).max() < 1e-8
        assert np.abs(via_expm - via_rk).max() < 1e-8


class TestRejections:
    @pytest.mark.parametrize(
        "call,match",
        [
            (lambda: eigensystem(np.array([[1.0, np.nan], [0.0, 1.0]])), "entries must be finite"),
            (lambda: eigensystem(np.full((3, 4, 4), np.inf)), "entries must be finite"),
            # row sums of 2**1023 and inf: 2.0**squarings would overflow
            (lambda: _expm_pade(np.full((2, 2), 2.0**1022, dtype=complex)), "out of range for the Pade"),
            (lambda: _expm_pade(np.diag([np.inf, 0.0]).astype(complex)), "out of range for the Pade"),
            (lambda: integrate(np.eye(4), State(Basis.BRIGHT2, [1, 0]), TimeGrid(0, 1, 3)), "does not match"),
        ],
    )
    def test_rejected(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


class TestScanFallback:
    def test_block_lapack_fails_on_runs_per_point(self, monkeypatch, strong_params):
        """A block of a nondegenerate4 scan that LAPACK fails on is run
        point by point by evolve, bit for bit."""
        eigensystem_of = lics.dynamics.eigensystem
        failed = []

        def fail_on_stacks(m):
            if np.ndim(m) == 3 and len(m) > 1:
                failed.append(len(m))
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigensystem_of(m)

        monkeypatch.setattr(lics.dynamics, "eigensystem", fail_on_stacks)
        p = dataclasses.replace(strong_params, shift_g=0.2, shift_e=0.2)
        deltas = np.linspace(-3.0, 3.0, 7)
        scan = lics.fano_scan(p, deltas, 6.0, "g1", "nondegenerate4")
        assert failed == [7]
        grid = TimeGrid(0.0, 6.0, 2)
        per_point = [
            evolve(dataclasses.replace(p, delta=d), "nondegenerate4", "g1", grid).ionization[-1]
            for d in deltas.tolist()
        ]
        assert scan.ionization.tolist() == per_point
