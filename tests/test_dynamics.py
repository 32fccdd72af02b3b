import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import lics
from conftest import make_random_params
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
    dark_hamiltonian,
    effective_hamiltonian,
    eigensystem,
    eigenvalues,
    evolve,
    integrate,
    nondegenerate_hamiltonian,
    propagate_expm,
    to_bright_dark,
    trapping_delta,
)
from lics.dynamics import _RK_A, _RK_B, _RK_C, _RK_E, _RK_P, _fold_tableau

INV_SQRT2 = 1.0 / np.sqrt(2.0)
_STEP_POLY, _ERROR_POLY, _DENSE_POLY = _fold_tableau()


def _sorted(values):
    return values[np.lexsort((values.imag, values.real))]


def _random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def _dissipative_hamiltonian(rng, n):
    """h = A - iB with A Hermitian and B positive semidefinite."""
    a = _random_matrix(rng, n)
    b = _random_matrix(rng, n)
    return 0.5 * (a + a.conj().T) - 1j * (b @ b.conj().T)


def _nested_stage_step(m, y, step, thetas):
    """One Dormand-Prince step of c' = Mc through its seven stages, as the
    tableau states them: the new amplitudes, the error estimate and the
    dense output at each theta."""

    def deriv(_t, c):
        return m @ c

    k = np.empty((7, y.size), dtype=np.complex128)
    k[0] = deriv(0.0, y)
    for i in range(1, 7):
        k[i] = deriv(_RK_C[i] * step, y + step * (_RK_A[i] @ k[:i]))
    dense = [y + step * (k.T @ (_RK_P @ theta ** np.arange(1, 5))) for theta in thetas]
    return y + step * (_RK_B @ k), step * (_RK_E @ k), np.array(dense)


def _polynomial_step(m, y, step, thetas):
    """The same step from the folded polynomials in z = step·M."""
    u = np.array([np.linalg.matrix_power(step * m, p) @ y for p in range(8)])
    dense = [y + (theta ** np.arange(1, 5) @ _DENSE_POLY) @ u for theta in thetas]
    return _STEP_POLY @ u, _ERROR_POLY @ u, np.array(dense)


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
            assert np.abs(traj.states[-1].amps - ref_amp).max() < 1e-8 * max(
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
                for t, s in zip(grid.times(), traj.states):
                    ref = scipy.linalg.expm(-1j * h * t) @ s0.amps
                    assert np.abs(s.amps - ref).max() < 1e-10

    def test_stack_equals_per_matrix_calls(self):
        """A stack holding a defective, a semisimple, a random, the identity
        and the zero matrix: each gets the bits of its own call."""
        p = Params(gamma_g=1, gamma_e=4, stark_g=0.5, stark_e=0.25, q_gg=1, q_eg=0.75, q_ee=0.5)
        rng = np.random.default_rng(3)
        stack = np.array(
            [
                effective_hamiltonian(dataclasses.replace(p, delta=4.75)),  # exceptional point
                effective_hamiltonian(dataclasses.replace(p, delta=-0.25)),  # semisimple double root
                _random_matrix(rng, 4),
                np.eye(4),
                np.zeros((4, 4)),
            ]
        )
        es = eigensystem(stack)
        assert es.degenerate.tolist() == [True, False, False, False, False]
        for k, m in enumerate(stack):
            one = eigensystem(m)
            assert one.degenerate is bool(es.degenerate[k])
            assert np.array_equal(es.values[k].view(np.uint64), one.values.view(np.uint64))
            assert np.array_equal(es.vectors[k].view(np.uint64), one.vectors.view(np.uint64))

    def test_unsupported_shape_rejected(self):
        for shape in ((3, 3), (4,), (2, 2, 4), (2, 4, 4, 4)):
            with pytest.raises(ValueError, match="expected a 2x2 or 4x4 matrix"):
                eigensystem(np.ones(shape, dtype=complex))


class TestPropagateExpm:
    def test_zero_hamiltonian_is_constant(self):
        s0 = State(Basis.BRIGHT2, [0.6, 0.8])
        traj = propagate_expm(np.zeros((2, 2), dtype=complex), s0, TimeGrid(0, 5, 11))
        for s in traj.states:
            np.testing.assert_allclose(s.amps, [0.6, 0.8], atol=1e-14)

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
        for t, s in zip(grid.times(), traj.states):
            ref = scipy.linalg.expm(-1j * h * t) @ np.array([1.0, 1.0])
            np.testing.assert_allclose(s.amps, ref, atol=1e-12)

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
        norms = np.array([s.norm_sq for s in traj.states])
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
        monkeypatch.setattr(lics.dynamics, "_error_norm", lambda diff, scale: 0.0)
        s0 = State(Basis.BRIGHT2, [1e300, 0.0])
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="amplitudes must be finite"):
            integrate(np.diag([1e3j, 0.0]), s0, TimeGrid(0.0, 1.0, 3))

    def test_dense_output_hits_grid_times(self):
        h = np.diag([-1j, -2j])
        s0 = State(Basis.BRIGHT2, [1.0, 1.0])
        grid = TimeGrid(0.0, 3.0, 7)
        traj = integrate(h, s0, grid, tol=1e-10)
        np.testing.assert_allclose([s.time for s in traj.states], grid.times())

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


class TestFoldedTableau:
    """The stage loop folded into polynomials in z = step·M."""

    def test_step_polynomial_is_the_dp5_stability_polynomial(self):
        expected = [1.0, 1.0, 1 / 2, 1 / 6, 1 / 24, 1 / 120, 1 / 600, 0.0]
        np.testing.assert_allclose(_STEP_POLY, expected, rtol=1e-15, atol=1e-15)
        assert _STEP_POLY[7] == 0.0

    def test_error_polynomial_starts_at_the_fifth_power(self):
        """Both weight sets are exact to fourth order, so their difference
        has no terms below z^5."""
        assert np.abs(_ERROR_POLY[:5]).max() < 1e-15
        assert np.abs(_ERROR_POLY[5:]).min() > 1e-5

    def test_dense_output_ends_at_the_step(self):
        """At theta = 1 the dense output is the step itself."""
        np.testing.assert_allclose(_DENSE_POLY.sum(axis=0)[1:], _STEP_POLY[1:], rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("z_norm", [1e-3, 0.1, 1.0, 2.0, 3.3])
    def test_one_step_matches_the_nested_stages(self, n, z_norm):
        rng = np.random.default_rng(n)
        thetas = [0.0, 0.25, 0.5, 0.9, 1.0]
        for _ in range(5):
            m = _random_matrix(rng, n)
            y = rng.normal(size=n) + 1j * rng.normal(size=n)
            y /= np.linalg.norm(y)
            step = z_norm / np.linalg.norm(m, 2)
            for ref, poly in zip(_nested_stage_step(m, y, step, thetas), _polynomial_step(m, y, step, thetas)):
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
        assert traj.states[0].basis is Basis.BRIGHTDARK4
        assert traj.states_original is not None
        assert traj.states_original[0].basis is Basis.ORIGINAL4

    def test_g1_dark_population_constant(self, strong_params):
        p = dataclasses.replace(strong_params, delta=trapping_delta(strong_params))
        traj = evolve(p, "four_state", "g1", TimeGrid(0.0, 6.0, 121))
        dark = np.abs(traj.amps[:, 2]) ** 2
        np.testing.assert_allclose(dark, 0.5, atol=1e-10)

    def test_two_level_ground_start(self, strong_params):
        traj = evolve(strong_params, "twolevel2", "g1", TimeGrid(0.0, 1.0, 5))
        np.testing.assert_allclose(traj.states[0].amps, [1.0, 0.0], atol=1e-15)
        assert traj.states[0].basis is Basis.TWOLEVEL2

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
        np.testing.assert_allclose(traj.states[0].amps, [1, 0, 0, 0], atol=1e-14)

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
        assert len(traj.states) == 17
        assert traj.ionization.shape == (17,)
        for s, ion in zip(traj.states, traj.ionization):
            assert ion == pytest.approx(1.0 - s.norm_sq, abs=1e-12)

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
        traj = evolve(strong_params, "four_state", "g1", TimeGrid(0.0, 1.0, 201))
        for states, amps in ((traj.states, traj.amps), (traj.states_original, traj.amps_original)):
            np.testing.assert_array_equal([s.amps for s in states], amps)
            np.testing.assert_array_equal([s.time for s in states], traj.times)
        # the stacked map is bit-identical to mapping each sample on its own
        np.testing.assert_array_equal(traj.amps, [to_bright_dark(s).amps for s in traj.states_original])
        assert traj.states_original[0].basis is Basis.ORIGINAL4
        assert traj.states is traj.states  # built once, on first access
        two = evolve(strong_params, "bright2", "bright", TimeGrid(0.0, 1.0, 5))
        assert two.states_original is None

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
            [to_bright_dark(s).amps[:2] for s in propagate_expm(h, s0, grid).states]
        )
        via_rk = np.array(
            [to_bright_dark(s).amps[:2] for s in integrate(h, s0, grid, 1e-11).states]
        )
        assert np.abs(closed - via_expm).max() < 1e-8
        assert np.abs(closed - via_rk).max() < 1e-8
        assert np.abs(via_expm - via_rk).max() < 1e-8
