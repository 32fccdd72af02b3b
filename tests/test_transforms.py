import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_params, params_strategy
from lics import (
    Basis,
    State,
    block_diagonalize,
    bright_hamiltonian,
    dark_hamiltonian,
    effective_hamiltonian,
    from_bright_dark,
    nondegenerate_hamiltonian,
    rotation,
    shift_permutation,
    to_bright_dark,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


class TestRotation:
    def test_zero_angle_is_identity(self):
        np.testing.assert_array_equal(rotation(0.0), np.eye(4))

    def test_quarter_turn_entries(self):
        u = rotation(np.pi / 4)
        nonzero = u[u != 0]
        np.testing.assert_allclose(np.abs(nonzero), INV_SQRT2, atol=1e-15)
        # the two off-level blocks stay empty
        assert np.all(u[:2, 2:] == 0) and np.all(u[2:, :2] == 0)

    def test_unitary_at_fixed_angle(self):
        u = rotation(0.3)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(theta=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    def test_unitary_for_any_angle(self, theta):
        u = rotation(theta)
        assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-15

    def test_non_finite_angle_rejected(self):
        with pytest.raises(ValueError):
            rotation(float("nan"))


class TestShiftPermutation:
    def test_swaps_middle_components(self):
        p = shift_permutation()
        np.testing.assert_array_equal(p @ np.array([1, 2, 3, 4]), [1, 3, 2, 4])

    def test_self_inverse(self):
        p = shift_permutation()
        np.testing.assert_array_equal(p @ p, np.eye(4))

    def test_is_a_permutation_matrix(self):
        p = shift_permutation().real
        assert np.all((p == 0) | (p == 1))
        np.testing.assert_array_equal(p.sum(axis=0), np.ones(4))
        np.testing.assert_array_equal(p.sum(axis=1), np.ones(4))


class TestBlockDiagonalize:
    def test_degenerate_model_decouples(self, strong_params):
        p = dataclasses.replace(strong_params, delta=0.809)
        hb, hd, residual = block_diagonalize(effective_hamiltonian(p))
        assert residual < 1e-13
        np.testing.assert_allclose(hb, bright_hamiltonian(p), atol=1e-13)
        np.testing.assert_allclose(hd, dark_hamiltonian(p), atol=1e-13)

    def test_identity_passes_through(self):
        hb, hd, residual = block_diagonalize(np.eye(4, dtype=complex))
        assert residual < 1e-15
        np.testing.assert_allclose(hb, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(hd, np.eye(2), atol=1e-15)

    def test_level_splitting_leaks_across_blocks(self, weak_params):
        p = dataclasses.replace(weak_params, shift_g=0.2, shift_e=0.2)
        _, _, residual = block_diagonalize(nondegenerate_hamiltonian(p))
        assert residual == pytest.approx(0.1, abs=1e-12)

    def test_residual_small_for_random_parameters(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            p = make_random_params(rng)
            h = effective_hamiltonian(p)
            _, _, residual = block_diagonalize(h)
            assert residual < 1e-12 * max(1.0, np.abs(h).max())

    def test_quarter_turn_is_the_decoupling_angle(self, strong_params):
        h = effective_hamiltonian(strong_params)
        thetas = np.linspace(0.1, np.pi / 2 - 0.1, 201)
        residuals = [block_diagonalize(h, theta)[2] for theta in thetas]
        best = thetas[int(np.argmin(residuals))]
        assert abs(best - np.pi / 4) < (thetas[1] - thetas[0])

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = make_random_params(rng)
            h = effective_hamiltonian(p)
            hb, hd, _ = block_diagonalize(h)
            full = np.sort_complex(np.linalg.eigvals(h))
            blocks = np.sort_complex(
                np.concatenate([np.linalg.eigvals(hb), np.linalg.eigvals(hd)])
            )
            assert np.abs(full - blocks).max() < 1e-10 * max(1.0, np.abs(h).max())

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            block_diagonalize(np.eye(2, dtype=complex))


class TestStateMapping:
    def test_single_ground_state(self):
        s = State(Basis.ORIGINAL4, [1, 0, 0, 0])
        mapped = to_bright_dark(s)
        np.testing.assert_allclose(mapped.amps, [INV_SQRT2, 0, -INV_SQRT2, 0], atol=1e-15)
        assert mapped.basis is Basis.BRIGHTDARK4

    def test_bright_superposition(self):
        s = State(Basis.ORIGINAL4, [INV_SQRT2, INV_SQRT2, 0, 0])
        np.testing.assert_allclose(to_bright_dark(s).amps, [1, 0, 0, 0], atol=1e-15)

    def test_dark_excited_combination(self):
        s = State(Basis.ORIGINAL4, [0, 0, INV_SQRT2, -INV_SQRT2])
        np.testing.assert_allclose(to_bright_dark(s).amps, [0, 0, 0, -1], atol=1e-15)

    def test_inverse_of_pure_bright(self):
        s = State(Basis.BRIGHTDARK4, [1, 0, 0, 0])
        np.testing.assert_allclose(from_bright_dark(s).amps, [INV_SQRT2, INV_SQRT2, 0, 0], atol=1e-15)

    def test_inverse_of_pure_excited_bright(self):
        s = State(Basis.BRIGHTDARK4, [0, 1, 0, 0])
        np.testing.assert_allclose(from_bright_dark(s).amps, [0, 0, INV_SQRT2, INV_SQRT2], atol=1e-15)

    def test_wrong_basis_rejected(self):
        with pytest.raises(ValueError, match="original4"):
            to_bright_dark(State(Basis.BRIGHTDARK4, [1, 0, 0, 0]))
        with pytest.raises(ValueError, match="brightdark4"):
            from_bright_dark(State(Basis.ORIGINAL4, [1, 0, 0, 0]))

    @settings(max_examples=100, deadline=None)
    @given(
        raw=st.lists(
            st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
            min_size=8,
            max_size=8,
        )
    )
    def test_norm_preserved_and_round_trip(self, raw):
        amps = np.array(raw[:4]) + 1j * np.array(raw[4:])
        s = State(Basis.ORIGINAL4, amps)
        mapped = to_bright_dark(s)
        assert abs(mapped.norm_sq - s.norm_sq) < 1e-15 * max(1.0, s.norm_sq)
        back = from_bright_dark(mapped)
        assert np.abs(back.amps - s.amps).max() < 1e-15


class TestState:
    def test_dimension_must_match_basis(self):
        with pytest.raises(ValueError, match="amplitudes"):
            State(Basis.ORIGINAL4, [1, 0])
        with pytest.raises(ValueError, match="amplitudes"):
            State(Basis.BRIGHT2, [1, 0, 0, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_amplitudes_rejected(self, bad):
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            State(Basis.BRIGHT2, [bad, 0.0])

    def test_amplitudes_are_copied(self):
        raw = np.array([1.0 + 0j, 0, 0, 0])
        s = State(Basis.ORIGINAL4, raw)
        raw[0] = 5.0
        assert s.amps[0] == 1.0

    def test_norm_sq(self):
        s = State(Basis.BRIGHT2, [0.6, 0.8j])
        assert s.norm_sq == pytest.approx(1.0, abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(p=params_strategy)
def test_blockwise_spectrum_matches_direct_builders(p):
    """The rotated blocks agree with the directly built 2x2 models."""
    hb, hd, residual = block_diagonalize(effective_hamiltonian(p))
    scale = max(1.0, p.gamma_e * (1 + abs(p.q_ee)), p.gamma_g * (1 + abs(p.q_gg)))
    assert residual < 1e-13 * scale
    assert np.abs(hb - bright_hamiltonian(p)).max() < 1e-13 * scale
    assert np.abs(hd - dark_hamiltonian(p)).max() < 1e-13 * scale
