import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    STRONG,
    T_FAR,
    block_entries,
    ep_params_strategy,
    far_detuned_ionization,
    make_random_params,
    params_strategy,
)
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
    eigensystem,
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

    @pytest.mark.parametrize("delta", [1e20, 1e100, 1e200])
    def test_far_detuned_keeps_the_ground_decay_rate(self, strong_params, delta):
        """By adiabatic elimination the slow eigenvalue is a + bc/(a - d),
        so the residual tends to gamma_g = 5.5.  LAPACK's eigenvalue error,
        eps |delta|, swamped it: the residual read 0.0 at 1e20."""
        a, bc, d = block_entries(strong_params, delta, "bright2")
        expected = abs((a + bc / (a - d)).imag)
        assert trapping_residual(strong_params, delta) == pytest.approx(expected, rel=1e-12)

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
        assert ionization(State(traj.basis, traj.amps[-1])) == pytest.approx(expected, abs=1e-6)
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
        for t_obs in (1e-310, np.inf):  # a subnormal or infinite step of the grid [0, t_obs]
            with pytest.raises(ValueError, match="t_obs must be a finite double of at least 2.2250738585072014e-308"):
                fano_scan(strong_params, [0.0, 1.0], t_obs)

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
    def test_exceptional_point_takes_the_per_point_route(self, model, s0):
        """The closed form is exact at the exceptional point, so the scan
        gives that point exactly the bits of per-point ``evolve``."""
        p = Params(**EXCEPTIONAL)
        deltas = np.linspace(-5.25, 14.75, 2001)  # step 0.01
        k = int(np.flatnonzero(deltas == 4.75)[0])
        profile = fano_scan(p, deltas, 6.0, s0, model)

        expected = evolve(dataclasses.replace(p, delta=4.75), model, s0, TimeGrid(0.0, 6.0, 2)).ionization[-1]
        assert profile.ionization[k] == expected
        for d, ion in zip(deltas, profile.ionization):
            h = build_hamiltonian(dataclasses.replace(p, delta=float(d)), model)
            amps = scipy.linalg.expm(-6j * h) @ s0.amps
            assert abs(ion - (1.0 - np.vdot(amps, amps).real)) < 1e-10

    def test_nondegenerate4_pade_points_inside_a_call(self):
        """With zero shifts nondegenerate4 is exactly defective at 4.75.  The
        scan's one call of 2001 matrices mixes that one, which takes the
        Pade exponential, with trusted ones, and every point keeps the
        bits of per-point ``evolve``."""
        p = Params(**EXCEPTIONAL)
        deltas = np.linspace(-5.25, 14.75, 2001)  # step 0.01
        stack = _detuning_stack(build_hamiltonian(dataclasses.replace(p, delta=-0.0), "nondegenerate4"), deltas)
        assert np.flatnonzero(eigensystem(stack).degenerate).tolist() == np.flatnonzero(deltas == 4.75).tolist()
        s0 = State(Basis.ORIGINAL4, [1.0, 0.0, 0.0, 0.0])
        profile = fano_scan(p, deltas, 6.0, s0, "nondegenerate4")

        grid = TimeGrid(0.0, 6.0, 2)
        expected = [
            evolve(dataclasses.replace(p, delta=float(d)), "nondegenerate4", s0, grid).ionization[-1]
            for d in deltas
        ]
        np.testing.assert_array_equal(profile.ionization, expected)
        for h, ion in zip(stack, profile.ionization):
            amps = scipy.linalg.expm(-6j * h) @ s0.amps
            assert abs(ion - (1.0 - np.vdot(amps, amps).real)) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(p=ep_params_strategy())
    # eigenvector condition 1.9e7: a condition limit of 1e8 lets a 1.4e-9 eigen-route error through
    @example(
        p=Params(
            gamma_g=15.982358650310978,
            gamma_e=5.701331622293302,
            stark_g=-3.1317686523264197,
            stark_e=2.709965616653001,
            q_gg=2.528491240054155,
            q_ee=-1.8645358142910045,
            q_eg=-0.5385151400138588,
            delta=-12.27109425168779,
        )
    )
    def test_routes_agree_near_exceptional_points(self, p):
        grid = TimeGrid(0.0, 6.0, 13)
        deltas = p.delta + np.array([-1e-2, -1e-6, 0.0, 1e-6, 1e-2])
        for model, init in (("four_state", "bright"), ("four_state", "g1"), ("bright2", "bright")):
            s0 = dynamics._initial_state(model, init)
            h = build_hamiltonian(p, model)
            traj = propagate_expm(h, s0, grid)
            closed = evolve(p, model, init, grid)
            closed_amps = closed.amps if closed.amps_original is None else closed.amps_original
            for t, amps, amps_closed in zip(grid.times(), traj.amps, closed_amps):
                exact = scipy.linalg.expm(-1j * h * t) @ s0.amps
                assert np.abs(amps - exact).max() < 5e-10
                assert np.abs(amps_closed - exact).max() < 5e-10
            profile = fano_scan(p, deltas, 6.0, init, model)
            ref = [
                evolve(dataclasses.replace(p, delta=float(d)), model, init, grid).ionization[-1]
                for d in deltas
            ]
            np.testing.assert_array_equal(profile.ionization, ref)

    @pytest.mark.parametrize(
        "model,init", [("nondegenerate4", "g1"), ("bright2", "bright"), ("twolevel2", "g1")]
    )
    def test_norm_gain_fails_naming_the_detuning(self, strong_params, model, init):
        """At 1e200 LAPACK's eigenvalue error swamps every decay rate, so
        the nondegenerate4 eigen route gains norm (unchecked, its
        ionization there reads -1.07e14) and the scan fails naming the
        detuning.  The 2x2 models take the closed form, which keeps the
        rates, and return the adiabatic-elimination value where the eigen
        route read -1.27e-7 and -4.5e-8."""
        if model != "nondegenerate4":
            profile = fano_scan(strong_params, [0.0, 1e200], T_FAR, init, model)
            assert profile.ionization[1] == pytest.approx(
                far_detuned_ionization(strong_params, 1e200, model, init, T_FAR), abs=1e-12
            )
            return
        with pytest.raises(RuntimeError, match=r"delta = 1e\+200") as info:
            fano_scan(strong_params, [0.0, 1e200], 6.0, init, model)
        assert isinstance(info.value.__cause__, ValueError)
        assert "norm grew" in str(info.value.__cause__)

    def test_failure_names_the_detuning(self, strong_params):
        with pytest.raises(RuntimeError, match=r"delta = -?1e\+308"):
            fano_scan(strong_params, [-1e308, 1e308], 6.0)
        # the eigen route failed at these two points: its amplitudes
        # overflowed; the closed form returns the far-detuned value
        for delta, model in ((1e154, "four_state"), (1e22, "bright2")):
            profile = fano_scan(strong_params, [0.0, delta], T_FAR, "bright", model)
            assert profile.ionization[1] == pytest.approx(
                far_detuned_ionization(strong_params, delta, model, "bright", T_FAR), abs=1e-12
            )

    def test_overflow_fails_without_warnings(self, strong_params):
        """Where the eigen route's amplitudes overflowed, the closed form
        returns the far-detuned value, without a warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            profile = fano_scan(strong_params, [0.0, 1e154], T_FAR)
        assert profile.ionization[1] == pytest.approx(
            far_detuned_ionization(strong_params, 1e154, "four_state", "bright", T_FAR), abs=1e-12
        )

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
    @pytest.mark.parametrize("init", ["g3", "dark", None])
    def test_unknown_init_rejected(self, strong_params, init):
        with pytest.raises(ValueError, match="unknown init"):
            asymptotic_survival(_at_trap(strong_params), init)

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


def _split(p: Params, shift: float) -> Params:
    """``p`` at its trapping detuning with one common splitting in both levels."""
    return _at_trap(dataclasses.replace(p, shift_g=shift, shift_e=shift))


class TestDegeneracyValidity:
    def test_zero_shift_is_identical(self, weak_params):
        report = degeneracy_validity(
            _split(weak_params, 0.0), TimeGrid(0.0, 5.0, 41), np.linspace(-3.0, 1.0, 41), tol=1e-12
        )
        assert report.sup_state_diff < 1e-10

    def test_splitting_increases_ionization_late(self, weak_params):
        grid = TimeGrid(0.0, 10.0, 101)
        report = degeneracy_validity(_split(weak_params, 0.2), grid, np.linspace(-3.0, 1.0, 81))
        tail = report.times >= 5.0
        assert np.all(report.ionization_shifted[tail] > report.ionization_degenerate[tail])

    def test_difference_vanishes_with_the_shift(self, weak_params):
        grid = TimeGrid(0.0, 10.0, 51)
        diffs = [
            degeneracy_validity(_split(weak_params, shift), grid, np.linspace(-3.0, 1.0, 21)).sup_state_diff
            for shift in (1e-6, 1e-2, 0.2)
        ]
        assert diffs[0] < 1e-4
        assert diffs[0] < diffs[1] < diffs[2]

    def test_profile_minima_stay_close(self, weak_params):
        report = degeneracy_validity(
            _split(weak_params, 0.2), TimeGrid(0.0, 10.0, 51), np.linspace(-5.0, 3.0, 321)
        )
        assert abs(report.profile_min_shifted - report.profile_min_degenerate) < 0.5

    def test_unequal_shifts_are_taken_from_params(self, weak_params):
        p = dataclasses.replace(_at_trap(weak_params), shift_g=0.2, shift_e=0.05)
        grid = TimeGrid(0.0, 4.0, 21)
        deltas = np.linspace(-3.0, 1.0, 41)
        report = degeneracy_validity(p, grid, deltas, tol=1e-9)
        g1 = State(Basis.ORIGINAL4, [1.0, 0.0, 0.0, 0.0])
        shifted = integrate(build_hamiltonian(p, "nondegenerate4"), g1, grid, 1e-9)
        assert np.array_equal(report.ionization_shifted, shifted.ionization)
        assert report.profile_min_shifted == fano_scan(p, deltas, 4.0, "g1", "nondegenerate4").min_delta

    def test_profiles_are_observed_at_the_elapsed_time(self, weak_params):
        """The trajectories of a grid over [2, 4] have run for 2 T at its
        last sample, and so have the profiles: at t_obs = 4 both minima
        of this scan lie 0.45-0.4 further right."""
        p = _split(weak_params, 0.2)
        deltas = np.linspace(-3.0, 1.0, 81)
        report = degeneracy_validity(p, TimeGrid(2.0, 4.0, 21), deltas)
        degenerate = dataclasses.replace(p, shift_g=0.0, shift_e=0.0)
        assert report.profile_min_degenerate == fano_scan(degenerate, deltas, 2.0, "g1", "four_state").min_delta
        assert report.profile_min_shifted == fano_scan(p, deltas, 2.0, "g1", "nondegenerate4").min_delta
        assert report.profile_min_degenerate != fano_scan(degenerate, deltas, 4.0, "g1", "four_state").min_delta

    def test_negative_shift_rejected(self, weak_params):
        for shifts in (dict(shift_g=-0.1), dict(shift_e=-0.1)):
            with pytest.raises(ValueError, match="shifts must be >= 0"):
                degeneracy_validity(dataclasses.replace(weak_params, **shifts), TimeGrid(0.0, 1.0, 5), [0.0, 1.0])
