import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import STRONG, make_random_params, params_strategy
from lics import (
    INITS,
    MODELS,
    Basis,
    Params,
    State,
    TimeGrid,
    asymptotic_survival,
    build_hamiltonian,
    default_delta_grid,
    degeneracy_validity,
    effective_hamiltonian,
    evolve,
    fano_scan,
    integrate,
    ionization,
    propagate_expm,
    trapping_delta,
    trapping_residual,
)
from lics import dynamics
from lics.dynamics import _detuning_stack

# gamma_e - gamma_g = 2 q_eg sqrt(gamma_g gamma_e): at delta = 4.75 the
# bright pair has a defective double root (an exceptional point)
EXCEPTIONAL = dict(gamma_g=1, gamma_e=4, stark_g=0.5, stark_e=0.25, q_gg=1, q_eg=0.75, q_ee=0.5)


def _at_trap(p: Params) -> Params:
    return dataclasses.replace(p, delta=trapping_delta(p))


class TestTrappingDelta:
    def test_strong_drive_value(self, strong_params):
        assert trapping_delta(strong_params) == pytest.approx(0.809, abs=1e-12)

    def test_weak_drive_value(self, weak_params):
        assert trapping_delta(weak_params) == pytest.approx(-0.9835, abs=1e-12)

    def test_symmetric_system_needs_no_detuning(self):
        p = Params(gamma_g=3.0, gamma_e=3.0, stark_g=0.7, stark_e=0.7, q_gg=2.0, q_ee=2.0, q_eg=5.0)
        assert trapping_delta(p) == pytest.approx(0.0, abs=1e-15)

    def test_delta_field_ignored(self, strong_params):
        shifted = dataclasses.replace(strong_params, delta=123.0)
        assert trapping_delta(shifted) == trapping_delta(strong_params)


class TestTrappingResidual:
    def test_vanishes_on_the_trapping_manifold(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            p = make_random_params(rng)
            residual = trapping_residual(p, trapping_delta(p))
            assert residual < 1e-10 * (p.gamma_e + p.gamma_g)

    def test_zero_rates_always_real(self):
        p = Params(gamma_g=0.0, gamma_e=0.0, stark_g=1.0, stark_e=-2.0)
        assert trapping_residual(p, 3.7) == 0.0

    def test_detuned_system_decays(self, strong_params):
        trap = trapping_delta(strong_params)
        assert trapping_residual(strong_params, trap + 5.0) == pytest.approx(0.024311, abs=1e-5)
        # loss of the slow eigenvalue grows with the distance from trapping
        residuals = [trapping_residual(strong_params, trap + off) for off in (1.0, 5.0, 20.0)]
        assert residuals[0] < residuals[1] < residuals[2]
        assert residuals[2] > 0.1

    def test_second_eigenvalue_keeps_the_loss(self):
        from lics import bright_hamiltonian, eigenvalues

        rng = np.random.default_rng(3)
        for _ in range(100):
            p = make_random_params(rng)
            total = p.gamma_e + p.gamma_g
            if total <= 1.0:
                continue
            values = eigenvalues(
                bright_hamiltonian(dataclasses.replace(p, delta=trapping_delta(p)))
            )
            assert np.abs(values.imag).max() > 0.1 * total


class TestIonization:
    def test_empty_state_fully_ionized(self):
        assert ionization(State(Basis.BRIGHT2, [0.0, 0.0])) == 1.0

    def test_normalized_state_not_ionized(self):
        assert ionization(State(Basis.ORIGINAL4, [0.5, 0.5, 0.5, 0.5])) == pytest.approx(0.0, abs=1e-15)

    def test_tiny_negative_clamped(self):
        amp = np.sqrt(1.0 + 5e-10)
        assert ionization(State(Basis.BRIGHT2, [amp, 0.0])) == 0.0

    def test_bright_start_plateau(self, strong_params):
        p = _at_trap(strong_params)
        traj = evolve(p, "four_state", "bright", TimeGrid(0.0, 6.0, 61))
        expected = 5.5 / 18.24
        assert traj.ionization[-1] == pytest.approx(expected, abs=1e-6)
        assert ionization(traj.states[-1]) == pytest.approx(expected, abs=1e-6)
        # independent route: adaptive integration of the same system
        rk = integrate(
            effective_hamiltonian(p),
            State(Basis.ORIGINAL4, [2**-0.5, 2**-0.5, 0.0, 0.0]),
            TimeGrid(0.0, 6.0, 2),
            1e-11,
        )
        assert rk.ionization[-1] == pytest.approx(expected, abs=1e-8)


class TestFanoScan:
    def test_grid_validation(self, strong_params):
        with pytest.raises(ValueError):
            fano_scan(strong_params, [], 6.0)
        with pytest.raises(ValueError):
            fano_scan(strong_params, [1.0, 0.5], 6.0)
        with pytest.raises(ValueError):
            fano_scan(strong_params, [0.0, 1.0], -1.0)

    def test_grid_size_is_capped(self, strong_params):
        # the cap is checked before the grid is read, so zeros cost nothing
        with pytest.raises(ValueError, match="at most 1000000 points, got 1000001"):
            fano_scan(strong_params, np.zeros(10**6 + 1), 6.0)

    def test_bright_profile_dip_location(self, strong_params):
        """At a finite observation time the profile minimum sits below the
        trapping detuning; the dip drifts onto it only as t_obs grows."""
        grid = np.linspace(-2.0, 3.0, 501)
        profile = fano_scan(strong_params, grid, 6.0, "bright", "four_state")
        assert profile.min_delta == pytest.approx(0.404, abs=0.02)
        # the trapping detuning is still within a hair of the minimum value
        at_trap = np.interp(0.809, grid, profile.ionization)
        assert at_trap - profile.ionization.min() < 2e-3

    def test_dip_approaches_trapping_value_at_long_times(self, strong_params):
        grid = np.linspace(-1.0, 2.0, 301)
        near = fano_scan(strong_params, grid, 6.0, "bright").min_delta
        far = fano_scan(strong_params, grid, 40.0, "bright").min_delta
        trap = trapping_delta(strong_params)
        assert abs(far - trap) < abs(near - trap)

    def test_single_ground_profile_bounded_by_dark_half(self, strong_params):
        grid = np.linspace(-10.0, 10.0, 201)
        profile = fano_scan(strong_params, grid, 6.0, "g1", "four_state")
        assert profile.ionization.max() <= 0.5 + 1e-9
        assert profile.ionization.min() > 0.1

    def test_two_level_minimum_misleads_about_the_four_state_system(self, strong_params):
        grid = np.linspace(-10.0, 10.0, 401)
        two = fano_scan(strong_params, grid, 6.0, "g1", "twolevel2")
        four = fano_scan(strong_params, grid, 6.0, "g1", "four_state")
        idx = int(np.argmin(two.ionization))
        assert four.ionization[idx] - four.ionization.min() >= 0.05

    def test_far_detuned_ground_states_fully_ionize(self, strong_params):
        profile = fano_scan(strong_params, [-1000.0, 0.0, 1000.0], 6.0, "bright")
        assert profile.ionization[0] > 0.99
        assert profile.ionization[-1] > 0.99

    def test_profile_metadata(self, strong_params):
        profile = fano_scan(strong_params, [0.0, 1.0], 2.0, "g1", "four_state")
        assert profile.observation_time == 2.0
        assert profile.model == "four_state"
        assert profile.init == "g1"


class TestScanKernel:
    """The blocked eigen kernel behind ``fano_scan`` against per-point
    propagation and an independent matrix exponential."""

    @pytest.mark.parametrize("model", MODELS)
    def test_affine_stack_equals_the_builders(self, model):
        """Bit for bit, signed zeros included."""
        deltas = np.concatenate([np.linspace(-20.0, 20.0, 41), [-0.6, -0.0, 0.809, 1e-9, 123.456]])
        for p in (
            Params(**STRONG, shift_g=0.2, shift_e=0.35),
            # zero rates, signed zero shifts, and delta = -0.6 cancels stark_e exactly
            Params(gamma_g=2.0, gamma_e=0.0, stark_g=-0.0, stark_e=0.6, q_ee=-0.0, shift_e=-0.0),
        ):
            stack = _detuning_stack(build_hamiltonian(dataclasses.replace(p, delta=-0.0), model), deltas)
            for d, h in zip(deltas, stack):
                ref = build_hamiltonian(dataclasses.replace(p, delta=float(d)), model)
                assert np.array_equal(h.view(np.uint64), ref.view(np.uint64)), (p, d)

    @settings(max_examples=60, deadline=None)
    @given(
        p=params_strategy,
        model=st.sampled_from(MODELS),
        init=st.sampled_from(INITS),
        t_obs=st.floats(min_value=0.1, max_value=6.0),
    )
    # near an exceptional point: eigenvector condition about 2e7
    @example(p=Params(gamma_g=1, gamma_e=1, stark_e=1e-14), model="four_state", init="bright", t_obs=1.0)
    def test_matches_per_point_evolve(self, p, model, init, t_obs):
        deltas = np.linspace(-12.0, 12.0, 49)
        profile = fano_scan(p, deltas, t_obs, init, model)
        grid = TimeGrid(0.0, t_obs, 2)
        ref = [
            evolve(dataclasses.replace(p, delta=float(d)), model, init, grid).ionization[-1]
            for d in deltas
        ]
        np.testing.assert_array_equal(profile.ionization, ref)

    @pytest.mark.parametrize(
        "model,s0",
        [
            ("four_state", State(Basis.ORIGINAL4, [1.0, 0.0, 0.0, 0.0])),
            ("bright2", State(Basis.BRIGHT2, [1.0, 0.0])),
        ],
    )
    def test_exceptional_point_takes_the_per_point_route(self, model, s0, monkeypatch):
        p = Params(**EXCEPTIONAL)
        deltas = np.linspace(-5.25, 14.75, 2001)  # step 0.01, several blocks
        k = int(np.flatnonzero(deltas == 4.75)[0])
        fallbacks = []
        per_point = dynamics.propagate_expm

        def spy(h, start, grid):
            fallbacks.append(h)
            return per_point(h, start, grid)

        monkeypatch.setattr(dynamics, "propagate_expm", spy)
        profile = fano_scan(p, deltas, 6.0, s0, model)
        monkeypatch.undo()

        h_ep = build_hamiltonian(dataclasses.replace(p, delta=4.75), model)
        assert any(np.array_equal(h, h_ep) for h in fallbacks)
        assert len(fallbacks) < 10
        expected = propagate_expm(h_ep, s0, TimeGrid(0.0, 6.0, 2)).ionization[-1]
        assert profile.ionization[k] == expected
        for d, ion in zip(deltas, profile.ionization):
            h = build_hamiltonian(dataclasses.replace(p, delta=float(d)), model)
            amps = scipy.linalg.expm(-6j * h) @ s0.amps
            assert abs(ion - (1.0 - np.vdot(amps, amps).real)) < 1e-10

    def test_failure_names_the_detuning(self, strong_params):
        with pytest.raises(RuntimeError, match=r"delta = 1e\+154") as info:
            fano_scan(strong_params, [0.0, 1e154], 6.0)
        assert isinstance(info.value.__cause__, ValueError)
        with pytest.raises(RuntimeError, match=r"delta = -?1e\+308"):
            fano_scan(strong_params, [-1e308, 1e308], 6.0)
        # eigenpairs that pass every check but overflow the amplitudes
        with pytest.raises(RuntimeError, match=r"delta = 1e\+22"):
            fano_scan(strong_params, [0.0, 1e22], 6.0, "bright", "bright2")

    def test_overflow_fails_without_warnings(self, strong_params):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match=r"delta = 1e\+154") as info:
                fano_scan(strong_params, [0.0, 1e154], 6.0)
        assert isinstance(info.value.__cause__, ValueError)
        assert str(info.value.__cause__) == "amplitudes must be finite"

    def test_builder_overflow_fails_without_warnings(self, strong_params):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match=r"delta = -1e\+308") as info:
                fano_scan(strong_params, [-1e308, 1e308], 6.0)
        assert isinstance(info.value.__cause__, ValueError)
        assert str(info.value.__cause__) == "matrix entries must be finite"

    @pytest.mark.parametrize("model,init", [("bright2", "bright"), ("twolevel2", "g1")])
    def test_two_state_overflow_fails_with_value_error(self, strong_params, model, init):
        """The 2x2 builders stay finite at 1e308; their overflowing
        residual sends the point to the Pade route, whose norm is out of
        range."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match=r"delta = 1e\+308") as info:
                fano_scan(strong_params, [0.0, 1e308], 6.0, init, model)
        assert isinstance(info.value.__cause__, ValueError)


class TestDefaultDeltaGrid:
    def test_plain_window(self, strong_params):
        grid = default_delta_grid(strong_params)
        assert grid[0] == -10.0 and grid[-1] == 10.0 and grid.size == 2001

    def test_widens_to_bracket_the_trapping_value(self):
        p = Params(gamma_g=1.0, gamma_e=20.0, q_ee=5.0, q_eg=-10.0)
        trap = trapping_delta(p)
        assert trap > 10.0
        grid = default_delta_grid(p)
        assert grid[0] < trap < grid[-1]

    def test_size_is_capped(self, strong_params):
        assert default_delta_grid(strong_params, n=10**6).size == 10**6
        with pytest.raises(ValueError, match="n must be at most 1000000"):
            default_delta_grid(strong_params, n=10**6 + 1)


class TestAsymptoticSurvival:
    def test_bright_start(self, strong_params):
        assert asymptotic_survival(_at_trap(strong_params), "bright") == pytest.approx(
            0.6984649, abs=1e-7
        )

    def test_single_ground_start(self, strong_params):
        assert asymptotic_survival(_at_trap(strong_params), "g1") == pytest.approx(
            0.8492325, abs=1e-7
        )

    def test_symmetric_rates_split_evenly(self):
        p = Params(gamma_g=4.0, gamma_e=4.0)
        assert asymptotic_survival(_at_trap(p), "bright") == 0.5

    def test_off_manifold_rejected(self, strong_params):
        with pytest.raises(ValueError, match="trapping"):
            asymptotic_survival(strong_params, "bright")

    def test_matches_late_time_ionization_complement(self, strong_params):
        p = _at_trap(strong_params)
        traj = evolve(p, "four_state", "bright", TimeGrid(0.0, 12.0, 25))
        assert 1.0 - traj.ionization[-1] == pytest.approx(
            asymptotic_survival(p, "bright"), abs=1e-9
        )

    def test_survival_error_bound(self, strong_params):
        p = _at_trap(strong_params)
        limit = asymptotic_survival(p, "bright")
        total = p.gamma_e + p.gamma_g
        for t_end in (0.5, 1.0, 2.0):
            traj = evolve(p, "four_state", "bright", TimeGrid(0.0, t_end, 11))
            survival = 1.0 - traj.ionization[-1]
            assert abs(survival - limit) < np.exp(-2.0 * t_end * total) + 1e-9


class TestDegeneracyValidity:
    def test_zero_shift_is_identical(self, weak_params):
        p = _at_trap(weak_params)
        report = degeneracy_validity(
            p, [0.0], TimeGrid(0.0, 5.0, 41), np.linspace(-3.0, 1.0, 41), tol=1e-12
        )
        assert report.sup_state_diff[0] < 1e-10

    def test_splitting_increases_ionization_late(self, weak_params):
        p = _at_trap(weak_params)
        grid = TimeGrid(0.0, 10.0, 101)
        report = degeneracy_validity(p, [0.2], grid, np.linspace(-3.0, 1.0, 81))
        tail = report.times >= 5.0
        assert np.all(report.ionization_shifted[0][tail] > report.ionization_degenerate[tail])

    def test_difference_vanishes_with_the_shift(self, weak_params):
        p = _at_trap(weak_params)
        grid = TimeGrid(0.0, 10.0, 51)
        report = degeneracy_validity(p, [1e-6, 1e-2, 0.2], grid, np.linspace(-3.0, 1.0, 21))
        assert report.sup_state_diff[0] < 1e-4
        assert report.sup_state_diff[0] < report.sup_state_diff[1] < report.sup_state_diff[2]

    def test_profile_minima_stay_close(self, weak_params):
        p = _at_trap(weak_params)
        report = degeneracy_validity(
            p, [0.2], TimeGrid(0.0, 10.0, 51), np.linspace(-5.0, 3.0, 321)
        )
        assert abs(report.profile_min_shifted[0] - report.profile_min_degenerate) < 0.5

    def test_negative_shift_rejected(self, weak_params):
        with pytest.raises(ValueError):
            degeneracy_validity(weak_params, [-0.1], TimeGrid(0.0, 1.0, 5), [0.0, 1.0])
