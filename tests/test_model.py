import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import STRONG, WEAK, make_random_params, params_strategy
from lics import (
    Params,
    bright_hamiltonian,
    dark_hamiltonian,
    effective_hamiltonian,
    nondegenerate_hamiltonian,
    two_level_hamiltonian,
)

ALL_BUILDERS = [
    effective_hamiltonian,
    bright_hamiltonian,
    dark_hamiltonian,
    two_level_hamiltonian,
    nondegenerate_hamiltonian,
]


class TestParams:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="gamma_g"):
            Params(gamma_g=-1.0, gamma_e=1.0)
        with pytest.raises(ValueError, match="gamma_e"):
            Params(gamma_g=1.0, gamma_e=-0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Params(gamma_g=float("nan"), gamma_e=1.0)
        with pytest.raises(ValueError, match="finite"):
            Params(gamma_g=1.0, gamma_e=1.0, delta=float("inf"))

    @pytest.mark.parametrize("value", ["1.0", True, None])
    def test_non_number_rejected(self, value):
        with pytest.raises(ValueError, match="gamma_e must be a real number"):
            Params(gamma_g=1.0, gamma_e=value)

    def test_cross_rate_is_geometric_mean(self):
        p = Params(gamma_g=1.0, gamma_e=4.0)
        assert p.gamma_eg == 2.0


class TestEffectiveHamiltonian:
    def test_reference_entries(self, strong_params):
        h = effective_hamiltonian(strong_params)
        assert h[0, 0] == pytest.approx(0.5 - 2.75j, abs=1e-14)
        assert h[0, 1] == pytest.approx(-6.325 - 2.75j, abs=1e-14)
        assert h[0, 2] == pytest.approx(-0.5 * (3.4 + 1j) * np.sqrt(5.5 * 12.74), abs=1e-13)
        assert h[2, 2] == pytest.approx(0.0 + 0.6 - 6.37j, abs=1e-14)

    def test_decoupled_limit_is_real_diagonal(self):
        p = Params(gamma_g=0.0, gamma_e=0.0, stark_g=1.2, stark_e=-0.7, delta=2.5)
        h = effective_hamiltonian(p)
        expected = np.diag([1.2, 1.2, 2.5 - 0.7, 2.5 - 0.7]).astype(complex)
        np.testing.assert_allclose(h, expected, atol=1e-15)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-15)

    def test_cross_block_entries_all_equal(self):
        p = Params(gamma_g=1.0, gamma_e=4.0, q_eg=3.0)
        h = effective_hamiltonian(p)
        expected = -0.5 * (3.0 + 1j) * 2.0
        for i in (0, 1):
            for j in (2, 3):
                assert h[i, j] == pytest.approx(expected, abs=1e-15)

    def test_loss_part_is_rank_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = make_random_params(rng)
            h = effective_hamiltonian(p)
            v = np.sqrt([p.gamma_g, p.gamma_g, p.gamma_e, p.gamma_e])
            anti = (h - h.conj().T) / 2.0
            np.testing.assert_allclose(
                anti, -0.5j * np.outer(v, v), rtol=1e-13, atol=1e-13 * max(1.0, p.gamma_e)
            )


class TestBrightHamiltonian:
    def test_reference_entries(self, strong_params):
        hb = bright_hamiltonian(strong_params)
        assert hb[0, 0] == pytest.approx(-5.825 - 5.5j, abs=1e-14)
        assert hb[0, 1] == pytest.approx(-(3.4 + 1j) * np.sqrt(5.5 * 12.74), abs=1e-13)
        assert hb[0, 1] == pytest.approx(-28.460660568581325 - 8.370782520170978j, abs=1e-12)

    def test_decoupled_limit(self):
        p = Params(gamma_g=0.0, gamma_e=0.0, stark_g=0.4, stark_e=0.9, delta=1.5)
        np.testing.assert_allclose(
            bright_hamiltonian(p), np.diag([0.4, 1.5 + 0.9]).astype(complex), atol=1e-15
        )


class TestDarkHamiltonian:
    def test_reference_entries(self, strong_params):
        hd = dark_hamiltonian(strong_params)
        assert hd[0, 0] == pytest.approx(2.3 * 5.5 / 2 + 0.5, abs=1e-13)
        assert hd[0, 0].imag == 0.0
        assert hd[0, 1] == 0.0 and hd[1, 0] == 0.0

    def test_entries_real(self, strong_params):
        import dataclasses

        p = dataclasses.replace(strong_params, delta=0.809)
        hd = dark_hamiltonian(p)
        assert hd[1, 1] == pytest.approx(0.809 + 31.85 + 0.6, abs=1e-12)
        assert np.all(hd.imag == 0.0)

    @settings(max_examples=300, deadline=None)
    @given(p=params_strategy)
    def test_detuning_is_added_last(self, p):
        """Bit for bit the entry at delta = -0.0 plus delta, as every
        builder adds the detuning (module docstring)."""
        ref = dark_hamiltonian(dataclasses.replace(p, delta=-0.0))
        ref.real[1, 1] += p.delta
        assert np.array_equal(dark_hamiltonian(p).view(np.uint64), ref.view(np.uint64))

    def test_no_fano_limit(self):
        p = Params(gamma_g=3.0, gamma_e=7.0, stark_g=0.1, stark_e=0.2, delta=1.0)
        np.testing.assert_allclose(
            dark_hamiltonian(p), np.diag([0.1, 1.2]).astype(complex), atol=1e-15
        )


class TestTwoLevelHamiltonian:
    def test_coupling_is_exactly_half_the_bright_one(self, strong_params):
        rng = np.random.default_rng(3)
        for p in [strong_params] + [make_random_params(rng) for _ in range(20)]:
            hb = bright_hamiltonian(p)
            h2 = two_level_hamiltonian(p)
            # bit-exact: halving is a power-of-two scaling
            assert h2[0, 1] == 0.5 * hb[0, 1]
            assert h2[1, 0] == 0.5 * hb[1, 0]

    def test_reference_value(self, strong_params):
        h2 = two_level_hamiltonian(strong_params)
        assert h2[0, 1] == pytest.approx(-14.230330284290662 - 4.185391260085489j, abs=1e-12)

    def test_decoupled_limit(self):
        p = Params(gamma_g=0.0, gamma_e=0.0, stark_g=-0.3, stark_e=0.8, delta=2.0)
        np.testing.assert_allclose(
            two_level_hamiltonian(p), np.diag([-0.3, 2.8]).astype(complex), atol=1e-15
        )

    def test_symmetric_rates_pure_loss_coupling(self):
        p = Params(gamma_g=2.0, gamma_e=2.0)
        assert two_level_hamiltonian(p)[0, 1] == pytest.approx(-1j, abs=1e-15)


class TestNondegenerateHamiltonian:
    def test_zero_shifts_reduce_to_degenerate(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = make_random_params(rng)
            diff = np.abs(nondegenerate_hamiltonian(p) - effective_hamiltonian(p)).max()
            assert diff < 1e-15

    def test_shift_placement(self, weak_params):
        import dataclasses

        p = dataclasses.replace(weak_params, shift_g=0.2, shift_e=0.2)
        h = nondegenerate_hamiltonian(p)
        assert h[1, 1] == pytest.approx(0.33 + 0.2 - 0.54j, abs=1e-14)
        assert h[3, 3] == pytest.approx(h[2, 2] + 0.2, abs=1e-14)
        assert h[0, 1] == pytest.approx(-1.242 - 0.54j, abs=1e-14)

    def test_coupling_blocks_match_degenerate(self, weak_params):
        import dataclasses

        p = dataclasses.replace(weak_params, shift_g=0.35, shift_e=0.15)
        h = nondegenerate_hamiltonian(p)
        h_deg = effective_hamiltonian(p)
        np.testing.assert_array_equal(h[:2, 2:], h_deg[:2, 2:])
        np.testing.assert_array_equal(h[2:, :2], h_deg[2:, :2])


@settings(max_examples=60, deadline=None)
@given(p=params_strategy)
def test_all_builders_complex_symmetric(p):
    for build in ALL_BUILDERS:
        h = build(p)
        assert np.abs(h - h.T).max() < 1e-15


@settings(max_examples=60, deadline=None)
@given(p=params_strategy)
def test_loss_is_negative_semidefinite(p):
    for build in ALL_BUILDERS:
        h = build(p)
        loss = 1j * (h - h.conj().T)  # Hermitian, should be PSD
        eigs = np.linalg.eigvalsh(loss)
        assert eigs.min() > -1e-10 * max(1.0, abs(eigs).max())
