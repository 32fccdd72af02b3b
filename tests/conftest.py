"""Shared fixtures: reference parameter sets and random-parameter helpers."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from lics import Params

# strong drive: deep ionization within a few T, convenient for trapping studies
STRONG = dict(
    gamma_g=5.5, gamma_e=12.74, stark_g=0.5, stark_e=0.6, q_gg=2.3, q_eg=3.4, q_ee=5.0
)
# weak drive: slow dynamics, used for the level-splitting comparisons
WEAK = dict(
    gamma_g=1.08, gamma_e=2.09, stark_g=0.33, stark_e=0.26, q_gg=2.3, q_eg=2.4, q_ee=2.5
)


@pytest.fixture
def strong_params() -> Params:
    return Params(**STRONG)


@pytest.fixture
def weak_params() -> Params:
    return Params(**WEAK)


def make_random_params(rng: np.random.Generator, delta_span: float = 10.0) -> Params:
    """Random physically valid parameters: rates in (0, 20], Fano q in
    [-10, 10], Stark shifts in [-5, 5]."""
    return Params(
        gamma_g=float(rng.uniform(1e-3, 20.0)),
        gamma_e=float(rng.uniform(1e-3, 20.0)),
        stark_g=float(rng.uniform(-5.0, 5.0)),
        stark_e=float(rng.uniform(-5.0, 5.0)),
        q_gg=float(rng.uniform(-10.0, 10.0)),
        q_ee=float(rng.uniform(-10.0, 10.0)),
        q_eg=float(rng.uniform(-10.0, 10.0)),
        delta=float(rng.uniform(-delta_span, delta_span)),
    )


# an observation time at which a far-detuned ground state has not yet
# fully ionized: the bright start keeps exp(-2 gamma_g t) = 0.58
T_FAR = 0.05


def block_entries(p: Params, delta: float, model: str) -> tuple[complex, complex, complex]:
    """(a, bc, d) of the 2x2 block [[a, b], [c, d]] of ``bright2`` (the
    four_state bright block) or ``twolevel2``, written out here from the
    model's formulas."""
    geg = np.sqrt(p.gamma_g * p.gamma_e)
    if model == "twolevel2":
        a = p.stark_g - 0.5j * p.gamma_g
        d = delta + p.stark_e - 0.5j * p.gamma_e
        return a, (0.5 * (p.q_eg + 1j) * geg) ** 2, d
    a = p.stark_g - 0.5 * (p.q_gg + 2j) * p.gamma_g
    d = delta + p.stark_e - 0.5 * (p.q_ee + 2j) * p.gamma_e
    return a, ((p.q_eg + 1j) * geg) ** 2, d


def far_detuned_ionization(p: Params, delta: float, model: str, init: str, t: float) -> float:
    """Independent oracle far from resonance: adiabatic elimination of the
    excited amplitude (|a - d| >> |b|, |c|) leaves
    b_g(t) = b_g(0) exp(-i (a + bc/(a - d)) t) and b_e ~ 0.  The
    four_state dark pair keeps its start population."""
    a, bc, d = block_entries(p, delta, model)
    bright0 = 1.0 if init == "bright" or model == "twolevel2" else 0.5
    dark0 = 0.5 if model == "four_state" and init != "bright" else 0.0
    return 1.0 - bright0 * np.exp(2.0 * (a + bc / (a - d)).imag * t) - dark0


_rate = st.floats(min_value=1e-3, max_value=20.0, allow_nan=False, allow_infinity=False)
_q = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
_shift = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)

params_strategy = st.builds(
    Params,
    gamma_g=_rate,
    gamma_e=_rate,
    stark_g=_shift,
    stark_e=_shift,
    q_gg=_q,
    q_ee=_q,
    q_eg=_q,
    delta=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def ep_params_strategy(draw) -> Params:
    """Parameters on the exceptional-point manifold of the bright pair,
    gamma_e - gamma_g = 2 q_eg sqrt(gamma_g gamma_e), with the detuning at
    its exceptional point or a signed relative offset of 1e-16 to 1e-8
    from it.  There the pair's eigenvalues coincide and its eigenvectors
    coalesce (Heiss, J. Phys. A 45 (2012) 444016)."""
    gamma_g = draw(st.floats(min_value=0.1, max_value=16.0))
    q_eg = draw(st.floats(min_value=-5.0, max_value=5.0))
    # sqrt(gamma_e / gamma_g) = q_eg + sqrt(q_eg^2 + 1), written without cancellation
    root = math.hypot(q_eg, 1.0)
    ratio = q_eg + root if q_eg >= 0.0 else 1.0 / (root - q_eg)
    gamma_e = gamma_g * ratio**2
    assume(gamma_e <= 40.0)
    p = Params(
        gamma_g=gamma_g,
        gamma_e=gamma_e,
        stark_g=draw(st.floats(min_value=-1.0, max_value=1.0)),
        stark_e=draw(st.floats(min_value=-1.0, max_value=1.0)),
        q_gg=draw(st.floats(min_value=-5.0, max_value=5.0)),
        q_ee=draw(st.floats(min_value=-5.0, max_value=5.0)),
        q_eg=q_eg,
    )
    # the bright block's double root: a - d = -2 (1 - i q_eg) gamma_eg
    delta_ep = (
        p.stark_g - p.stark_e - 0.5 * p.q_gg * p.gamma_g + 0.5 * p.q_ee * p.gamma_e + 2.0 * p.gamma_eg
    )
    offset = draw(
        st.just(0.0)
        | st.builds(lambda sign, u: sign * 10.0**u, st.sampled_from([-1.0, 1.0]), st.floats(-16.0, -8.0))
    )
    return dataclasses.replace(p, delta=delta_ep + offset * max(1.0, abs(delta_ep)))
