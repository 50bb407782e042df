import math
import struct

import pytest
from hypothesis import given, strategies as st

from fairdyn import (
    Policy,
    PopulationState,
    QualificationProfile,
    SelectionRates,
    UtilitySpec,
    selection_rates,
    utility,
)
from fairdyn.core import clamp01

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
shares = st.floats(min_value=0.01, max_value=0.99, allow_nan=False)


@pytest.mark.parametrize(
    "x, want",
    [
        (-0.0, -0.0),  # kept by sign: the comparisons see no negative number
        (0.0, 0.0),
        (0.25, 0.25),
        (1.0, 1.0),
        (5e-324, 5e-324),
        (-5e-324, 0.0),
        (1.0000000000000002, 1.0),
        (math.inf, 1.0),
        (-math.inf, 0.0),
        (5.0, 1.0),
        (-5.0, 0.0),
        (math.nan, math.nan),  # kept: NaN fails both comparisons
    ],
)
def test_clamp01_pins_its_bits(x, want):
    got = clamp01(x)
    assert type(got) is float and struct.pack("d", got) == struct.pack("d", want)


def test_profile_bounds():
    assert QualificationProfile(0.3).p0 == 0.7
    with pytest.raises(ValueError):
        QualificationProfile(1.2)
    with pytest.raises(ValueError):
        QualificationProfile(-0.1)


def test_state_share_bounds():
    with pytest.raises(ValueError):
        PopulationState.of(0.5, 0.5, 0.0)
    with pytest.raises(ValueError):
        PopulationState.of(0.5, 0.5, 1.0)
    assert PopulationState.of(0.5, 0.5, 0.3).g_b == 0.7


def test_utility_spec_sign_convention():
    with pytest.raises(ValueError):
        UtilitySpec(u0=0.1, u1=1.0)
    with pytest.raises(ValueError):
        UtilitySpec(u0=-1.0, u1=-0.1)
    UtilitySpec(u0=0.0, u1=0.0)  # degenerate but allowed
    for u0, u1, key in ((-1.0, math.inf, "u1"), (-math.inf, 1.0, "u0"), (math.nan, 1.0, "u0")):
        with pytest.raises(ValueError, match=f"utility {key} must be finite"):
            UtilitySpec(u0=u0, u1=u1)


def test_policy_entry_bounds():
    with pytest.raises(ValueError):
        Policy(1.1, 0.0, 0.0, 0.0)
    assert Policy.unconstrained().tau(1, "A") == 1.0
    assert Policy.all_zero().tau(0, "B") == 0.0


def test_utility_worked_example():
    state = PopulationState.of(0.8, 0.4, 0.5)
    u = UtilitySpec(u0=-1.0, u1=1.0)
    assert utility(state, Policy.unconstrained(), u) == pytest.approx(0.6, abs=1e-12)


def test_utility_all_zero_policy_is_zero():
    state = PopulationState.of(0.37, 0.91, 0.2)
    u = UtilitySpec(u0=-2.0, u1=1.5)
    assert utility(state, Policy.all_zero(), u) == 0.0


def test_utility_fully_qualified_population():
    state = PopulationState.of(1.0, 1.0, 0.5)
    u = UtilitySpec(u0=-3.0, u1=1.7)
    assert utility(state, Policy.unconstrained(), u) == pytest.approx(1.7, abs=1e-12)


def test_selection_rates_examples():
    state = PopulationState.of(0.8, 0.4, 0.5)
    rates = selection_rates(state, Policy.unconstrained())
    assert rates.agg_a == pytest.approx(0.8, abs=1e-15)
    assert selection_rates(state, Policy.all_zero()).agg_b == 0.0
    aa2 = Policy(1.0, 0.0, 1.0, 2.0 / 3.0)
    rates = selection_rates(state, aa2)
    assert rates.agg_b == pytest.approx(0.8, abs=1e-12)
    assert rates.parity_residual <= 1e-12


def test_selection_rates_group_accessors():
    state = PopulationState.of(0.6, 0.2, 0.5)
    pol = Policy(0.5, 0.25, 0.75, 0.1)
    rates = selection_rates(state, pol)
    assert rates.beta(1, "A") == pytest.approx(0.3)
    assert rates.for_group("B") == (pytest.approx(0.1 * 0.8), pytest.approx(0.75 * 0.2))


@given(probs, probs, shares, probs, probs, probs, probs)
def test_rates_bounded_by_profiles(pa, pb, ga, t1a, t0a, t1b, t0b):
    state = PopulationState.of(pa, pb, ga)
    rates = selection_rates(state, Policy(t1a, t0a, t1b, t0b))
    assert 0.0 <= rates.beta1_a <= state.pi_a.p1 + 1e-15
    assert 0.0 <= rates.beta0_a <= state.pi_a.p0 + 1e-15
    assert 0.0 <= rates.beta1_b <= state.pi_b.p1 + 1e-15
    assert 0.0 <= rates.beta0_b <= state.pi_b.p0 + 1e-15
    assert rates.agg_a == pytest.approx(rates.beta0_a + rates.beta1_a, abs=1e-15)


tau_vectors = st.tuples(*(st.floats(0, 1) for _ in range(4)))


@given(probs, probs, shares, st.floats(0, 1), tau_vectors, tau_vectors)
def test_utility_linear_in_policy(pa, pb, ga, lam, taus_p, taus_q):
    state = PopulationState.of(pa, pb, ga)
    u = UtilitySpec(u0=-1.3, u1=0.7)
    p = Policy(*taus_p)
    q = Policy(*taus_q)
    mix = Policy(*(lam * x + (1 - lam) * y for x, y in zip(taus_p, taus_q)))
    expected = lam * utility(state, p, u) + (1 - lam) * utility(state, q, u)
    assert utility(state, mix, u) == pytest.approx(expected, abs=1e-12)


@given(probs, probs, shares, probs, probs)
def test_utility_monotone_in_entries(pa, pb, ga, lo, hi):
    if lo > hi:
        lo, hi = hi, lo
    state = PopulationState.of(pa, pb, ga)
    u = UtilitySpec(u0=-0.8, u1=1.1)
    base = Policy(lo, 0.3, 0.4, 0.5)
    more_qualified = Policy(hi, 0.3, 0.4, 0.5)
    assert utility(state, more_qualified, u) >= utility(state, base, u) - 1e-15
    base = Policy(0.4, lo, 0.4, 0.5)
    more_unqualified = Policy(0.4, hi, 0.4, 0.5)
    assert utility(state, more_unqualified, u) <= utility(state, base, u) + 1e-15


def test_selection_rates_value_type():
    r = SelectionRates(0.1, 0.2, 0.3, 0.4)
    assert math.isclose(r.parity_residual, abs(0.3 - 0.7))
