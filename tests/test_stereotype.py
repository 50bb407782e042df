"""Biased policies and stereotype runs.

_reference_effective_policy is effective_policy as it was written before
the fill rule: its own validation and a hand-written table per case. With a
nonzero error the fill rule must give the same entries and errors, except
that an error of -0.0 counts as no error.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairdyn import (
    Policy,
    PopulationState,
    StereotypeSpec,
    StereotypeValidityError,
    UtilitySpec,
    constant_dynamics,
    dt_trajectory,
    effective_policy,
    selection_rates,
    stereotype_trajectory,
)
from fairdyn.core import clamp01
from fairdyn.policy import MODE_AA1, MODE_CODES, determine_aa_case, policy_entries

CONST = constant_dynamics(0.2, 0.8)
U_AA1 = UtilitySpec(u0=-2.0, u1=1.0)
U_AA2 = UtilitySpec(u0=-1.0, u1=2.0)


def _reference_un_entries(pi, eps):
    if eps == 0.0:
        return 1.0, 0.0
    if eps > 0.0:
        return 1.0, clamp01(eps / (1.0 - pi))
    if pi <= 0.0:
        raise StereotypeValidityError(
            "negative stereotype with no qualified individuals to under-identify"
        )
    return clamp01((pi + eps) / pi), 0.0


def _reference_effective_policy(mode, state, u, ea, eb):
    pa, pb = state.pi_a.p1, state.pi_b.p1
    if not (-pa <= ea <= 1.0 - pa):
        raise StereotypeValidityError(f"eps_a={ea} outside [-pi_a, 1-pi_a] = [{-pa}, {1.0 - pa}]")
    if not (-pb <= eb <= 1.0 - pb):
        raise StereotypeValidityError(f"eps_b={eb} outside [-pi_b, 1-pi_b] = [{-pb}, {1.0 - pb}]")
    flip = "errors large enough to flip the perceived advantaged group"
    if pa >= pb:
        if eb - ea > pa - pb:
            raise StereotypeValidityError(flip)
    else:
        if ea - eb > pb - pa:
            raise StereotypeValidityError(flip)

    if mode == "UN":
        return Policy(*_reference_un_entries(pa, ea), *_reference_un_entries(pb, eb))
    case = determine_aa_case(state, u).resolved_tag() if mode == "AA" else mode
    if case not in ("AA1", "AA2"):
        raise ValueError(f"unknown policy mode {mode!r}: expected one of UN, AA, AA1, AA2")

    adv_is_a = pa >= pb
    pi_adv, pi_dis = (pa, pb) if adv_is_a else (pb, pa)
    e_adv, e_dis = (ea, eb) if adv_is_a else (eb, ea)
    no_one = "negative stereotype with no qualified individuals to under-identify"
    if case == "AA1":
        if e_dis == 0.0 and e_adv == 0.0:
            return Policy(*policy_entries(MODE_AA1, pa, pb, state.g_a, u.u0, u.u1)[:4])
        if e_dis >= 0.0:
            target = pi_dis + e_dis
            t1_adv = min(1.0, target / pi_adv) if pi_adv > 0.0 else 1.0
            t0_adv = 0.0
            t1_dis = 1.0
            t0_dis = clamp01(e_dis / (1.0 - pi_dis)) if pi_dis < 1.0 else 0.0
        else:
            if pi_dis <= 0.0:
                raise StereotypeValidityError(no_one)
            target = pi_dis + e_dis
            t1_adv = clamp01(target / pi_adv) if pi_adv > 0.0 else 1.0
            t0_adv = 0.0
            t1_dis = clamp01(target / pi_dis)
            t0_dis = 0.0
    else:
        if e_adv >= 0.0:
            t1_adv = 1.0
            t0_adv = clamp01(e_adv / (1.0 - pi_adv)) if pi_adv < 1.0 else 0.0
        else:
            if pi_adv <= 0.0:
                raise StereotypeValidityError(no_one)
            t1_adv = clamp01((pi_adv + e_adv) / pi_adv)
            t0_adv = 0.0
        t1_dis = 1.0
        if pi_dis < 1.0:
            t0_dis = clamp01((pi_adv - pi_dis + e_adv - e_dis) / (1.0 - pi_dis))
        else:
            t0_dis = 0.0
    if adv_is_a:
        return Policy(t1_adv, t0_adv, t1_dis, t0_dis)
    return Policy(t1_dis, t0_dis, t1_adv, t0_adv)


def _outcome(fn, *args):
    """repr of fn(*args), or the class and message of its error."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001  compared by class and message
        return f"{type(exc).__name__}: {exc}"


def test_spec_validation_range():
    state = PopulationState.of(0.8, 0.4, 0.5)
    StereotypeSpec(eps_a=0.1, eps_b=-0.2).validate_for(state)
    with pytest.raises(StereotypeValidityError):
        StereotypeSpec(eps_a=0.3, eps_b=0.0).validate_for(state)  # 0.8+0.3 > 1
    with pytest.raises(StereotypeValidityError):
        StereotypeSpec(eps_a=0.0, eps_b=-0.5).validate_for(state)  # 0.4-0.5 < 0


def test_spec_validation_ordering():
    state = PopulationState.of(0.6, 0.5, 0.5)
    # eps_b - eps_a = 0.3 > piA - piB = 0.1: perceived advantage flips
    with pytest.raises(StereotypeValidityError):
        StereotypeSpec(eps_a=-0.1, eps_b=0.2).validate_for(state)


def test_spec_schedules():
    spec = StereotypeSpec(eps_a=[0.0, 0.1], eps_b=-0.05)
    assert spec.at(0) == (0.0, -0.05)
    assert spec.at(1) == (0.1, -0.05)


def test_un_negative_stereotype_example():
    state = PopulationState.of(0.5, 0.5, 0.5)
    pol = effective_policy("UN", state, U_AA1, StereotypeSpec(eps_a=-0.1, eps_b=-0.1))
    assert pol.tau1_a == pytest.approx(0.8, abs=1e-15)
    assert pol.tau0_a == 0.0
    assert pol.tau1_b == pytest.approx(0.8, abs=1e-15)


def test_un_positive_stereotype():
    state = PopulationState.of(0.5, 0.5, 0.5)
    pol = effective_policy("UN", state, U_AA1, StereotypeSpec(eps_a=0.1, eps_b=0.0))
    assert pol.tau1_a == 1.0
    assert pol.tau0_a == pytest.approx(0.2, abs=1e-15)  # 0.1 / (1 - 0.5)
    assert pol.tau0_b == 0.0


def test_aa1_negative_stereotype_table_example():
    state = PopulationState.of(0.8, 0.4, 0.5)
    pol = effective_policy("AA1", state, U_AA1, StereotypeSpec(eps_a=0.0, eps_b=-0.1))
    assert pol.tau1_a == pytest.approx(0.375, abs=1e-15)
    assert pol.tau1_b == pytest.approx(0.75, abs=1e-15)
    assert pol.tau0_a == 0.0 and pol.tau0_b == 0.0
    rates = selection_rates(state, pol)
    assert abs(rates.beta1_a - rates.beta1_b) <= 1e-12


def test_aa1_positive_stereotype_min_clause():
    # perceived disadvantaged mass exceeds the advantaged profile: cap at 1
    state = PopulationState.of(0.45, 0.4, 0.5)
    pol = effective_policy("AA1", state, U_AA1, StereotypeSpec(eps_a=0.1, eps_b=0.1))
    assert pol.tau1_a == 1.0
    assert pol.tau1_b == 1.0
    assert pol.tau0_b == pytest.approx(0.1 / 0.6, abs=1e-15)


_PI = st.sampled_from([0.0, -0.0, 1.0, 5e-324, 0.5]) | st.floats(0.0, 1.0)
_GA = st.sampled_from([0.5, 0.3]) | st.floats(0.01, 0.99)
_UTILITY = st.sampled_from([(-2.0, 1.0), (-1.0, 2.0), (-1.0, 1.0), (0.0, 0.0)]) | st.tuples(
    st.floats(-2.0, 0.0), st.floats(0.0, 2.0)
)


@settings(max_examples=300, deadline=None)
@given(
    pa=_PI, pb=_PI, ga=_GA, utility=_UTILITY,
    eps=st.tuples(st.sampled_from([0.0, -0.0]), st.sampled_from([0.0, -0.0])),
)
@example(pa=-0.0, pb=0.0, ga=0.5, utility=(-1.0, 2.0), eps=(0.0, 0.0))
@example(pa=0.8, pb=0.4, ga=0.5, utility=(-1.0, 2.0), eps=(-0.0, 0.0))
def test_zero_eps_matches_unbiased_policy_exactly(pa, pb, ga, utility, eps):
    """With both errors zero (of either sign) the biased policy is the
    closed form, bit for bit, in every mode."""
    state, u = PopulationState.of(pa, pb, ga), UtilitySpec(*utility)
    for mode in ("UN", "AA", "AA1", "AA2"):
        expected = Policy(*policy_entries(MODE_CODES[mode], pa, pb, ga, *utility)[:4])
        assert repr(effective_policy(mode, state, u, StereotypeSpec(*eps))) == repr(expected)


# An error as (end, offset): offset from the end "-pi" or "1-pi" of the
# valid range [-pi, 1 - pi] of its group, or from 0 for "". An offset of
# -0.0 gives the end itself.
_ERROR = st.tuples(
    st.sampled_from(["", "-pi", "1-pi"]),
    st.sampled_from([0.0, -0.0, 5e-324, -1e-17]) | st.floats(-1.0, 1.0),
)


def _error(error, pi):
    end, offset = error
    return offset if end == "" else (-pi if end == "-pi" else 1.0 - pi) + offset


@settings(max_examples=500, deadline=None)
@given(pa=_PI, pb=_PI, ga=_GA, utility=_UTILITY, errors=st.tuples(_ERROR, _ERROR))
@example(  # an error of -0.0 for AA2's advantaged group
    pa=0.8, pb=0.4, ga=0.5, utility=(-1.0, 2.0), errors=(("", -0.0), ("", 0.02))
)
@example(  # an error of -0.0 for AA1's disadvantaged group
    pa=0.8, pb=0.4, ga=0.5, utility=(-2.0, 1.0), errors=(("", 0.01), ("", -0.0))
)
@example(  # both groups at the lower end of their range
    pa=1.0, pb=0.0, ga=0.5, utility=(-1.0, 1.0), errors=(("-pi", -0.0), ("-pi", -0.0))
)
@example(  # AA1's advantaged entry at pi_dis = -0.0 with an error of -0.0: 0.0, not -0.0
    pa=-0.0, pb=0.5, ga=0.5, utility=(-2.0, 1.0), errors=(("", -0.0), ("", 5e-324))
)
def test_nonzero_eps_matches_reference(pa, pb, ga, utility, errors):
    """With an error other than zero, every mode (and an unknown one) gives
    the reference's entries and errors, an error of -0.0 read as 0.0."""
    u = UtilitySpec(*utility)
    for (x, ex), (y, ey) in (((pa, errors[0]), (pb, errors[1])), ((pb, errors[1]), (pa, errors[0]))):
        eps = (_error(ex, x), _error(ey, y))
        if eps[0] == 0.0 and eps[1] == 0.0:
            continue  # the closed form, as test_zero_eps_matches_unbiased_policy_exactly checks
        state = PopulationState.of(x, y, ga)
        unsigned = tuple(0.0 if e == 0.0 else e for e in eps)
        for mode in ("UN", "AA", "AA1", "AA2", "XX"):
            ours = _outcome(effective_policy, mode, state, u, StereotypeSpec(*eps))
            assert ours == _outcome(_reference_effective_policy, mode, state, u, *unsigned)


def test_unknown_mode_names_every_mode():
    """An unknown mode's error names the four modes, as dt_trajectory's
    does, with the errors zero or not; errors outside their range are still
    reported first."""
    state = PopulationState.of(0.6, 0.3, 0.5)
    message = r"^unknown policy mode 'XX': expected one of UN, AA, AA1, AA2$"
    for eps in (StereotypeSpec(0.0, 0.0), StereotypeSpec(0.01, -0.02)):
        with pytest.raises(ValueError, match=message):
            effective_policy("XX", state, U_AA1, eps)
    with pytest.raises(StereotypeValidityError):
        effective_policy("XX", state, U_AA1, StereotypeSpec(0.5, 0.0))


def test_any_real_scalar_is_a_constant_error():
    """An error given as a numpy float32 or int64, or an int, is one error
    for every step, and gives the record of float(eps)."""
    state = PopulationState.of(0.6, 0.3, 0.5)
    for eps in (np.float32(0.01), np.int64(0), 0, np.float64(-0.02)):
        spec = StereotypeSpec(eps, 0.0)
        spec.check_steps(3)
        assert spec.at(2) == (float(eps), 0.0)
        for mode in ("UN", "AA1"):
            got = stereotype_trajectory(state, mode, U_AA1, CONST, spec, 3)
            want = stereotype_trajectory(state, mode, U_AA1, CONST, StereotypeSpec(float(eps), 0.0), 3)
            assert repr(vars(got)) == repr(vars(want)), (eps, mode)


def test_negative_stereotype_with_empty_group_rejected():
    state = PopulationState.of(0.5, 0.0, 0.5)
    with pytest.raises(StereotypeValidityError):
        effective_policy("UN", state, U_AA1, StereotypeSpec(eps_a=0.0, eps_b=-0.1))


def test_effective_policies_stay_in_bounds(rng):
    for _ in range(300):
        pa, pb = sorted((rng.random(), rng.random()))[::-1]
        state = PopulationState.of(pa, pb, 0.5)
        ea = rng.uniform(-pa, 1.0 - pa)
        eb = rng.uniform(-pb, 1.0 - pb)
        if eb - ea > pa - pb:
            continue
        if (pa + ea <= 0 and ea < 0) or (pb + eb <= 0 and eb < 0):
            continue
        for mode in ("UN", "AA1", "AA2"):
            try:
                pol = effective_policy(mode, state, U_AA1, StereotypeSpec(ea, eb))
            except StereotypeValidityError:
                continue
            for v in (pol.tau1_a, pol.tau0_a, pol.tau1_b, pol.tau0_b):
                assert 0.0 <= v <= 1.0


def test_trajectory_zero_eps_bit_identical():
    state = PopulationState.of(0.8, 0.3, 0.5)
    zero = StereotypeSpec(eps_a=0.0, eps_b=0.0)
    for mode, u in (("UN", U_AA1), ("AA", U_AA1), ("AA", U_AA2)):
        biased = stereotype_trajectory(state, mode, u, CONST, zero, 25)
        plain = dt_trajectory(state, mode, u, CONST, 25)
        assert np.array_equal(biased.pi_a, plain.pi_a)
        assert np.array_equal(biased.pi_b, plain.pi_b)
        assert np.array_equal(biased.tau1_a, plain.tau1_a)
        assert np.array_equal(biased.tau0_b, plain.tau0_b)
        assert np.array_equal(biased.step_utility, plain.step_utility)


def test_aa1_negative_b_stereotype_rate_equality_every_step():
    state = PopulationState.of(0.8, 0.4, 0.5)
    spec = StereotypeSpec(eps_a=0.0, eps_b=-0.05)
    rec = stereotype_trajectory(state, "AA1", U_AA1, CONST, spec, 50)
    assert np.max(rec.extras["rate_gap_v1"]) <= 1e-12
    assert abs(rec.delta[-1]) < 1e-6  # still equalizes


def test_aa2_mixed_stereotype_equalizes():
    # A positive stereotype for the disadvantaged group must shrink with the
    # gap, or it would eventually flip the perceived advantage and become
    # invalid; under these constants the gap is exactly 0.4 * 0.6^t.
    steps = 60
    state = PopulationState.of(0.8, 0.4, 0.5)
    eps_b = [min(0.05, 0.5 * 0.4 * 0.6**t) for t in range(steps + 1)]
    spec = StereotypeSpec(eps_a=[0.0] * (steps + 1), eps_b=eps_b)
    rec = stereotype_trajectory(state, "AA2", U_AA2, CONST, spec, steps)
    assert abs(rec.delta[-1]) < 1e-6


def test_schedule_length_respected():
    state = PopulationState.of(0.8, 0.4, 0.5)
    spec = StereotypeSpec(eps_a=[0.0] * 11, eps_b=[0.0] * 11)
    rec = stereotype_trajectory(state, "AA1", U_AA1, CONST, spec, 10)
    assert len(rec.times) == 11


@pytest.mark.parametrize("field, key", [("eps_a", "epsA"), ("eps_b", "epsB")])
def test_short_schedule_is_rejected_before_the_first_step(monkeypatch, field, key):
    """A schedule needs steps + 1 entries: a shorter one is a plain
    ValueError (not a validity violation) raised before any step."""
    import fairdyn.stereotype as stereotype

    calls = []
    monkeypatch.setattr(stereotype, "effective_policy", lambda *args: calls.append(args))
    state = PopulationState.of(0.8, 0.4, 0.5)
    spec = StereotypeSpec(**{"eps_a": 0.0, "eps_b": 0.0, field: [0.01, 0.02]})
    with pytest.raises(ValueError) as exc:
        stereotype_trajectory(state, "AA", U_AA1, CONST, spec, 5)
    assert type(exc.value) is ValueError
    assert str(exc.value) == (
        f"the {field} ({key}) schedule has 2 entries; 5 steps need steps + 1 = 6"
    )
    assert calls == []


def test_aa_case_is_determined_once_per_step(monkeypatch):
    import fairdyn.stereotype as stereotype

    calls = []
    original = stereotype.determine_aa_case

    def counted(state, u):
        calls.append(state)
        return original(state, u)

    monkeypatch.setattr(stereotype, "determine_aa_case", counted)
    state = PopulationState.of(0.8, 0.3, 0.5)
    for u, tag in ((U_AA1, "AA1"), (U_AA2, "AA2")):
        calls.clear()
        rec = stereotype_trajectory(state, "AA", u, CONST, StereotypeSpec(0.02, -0.02), 10)
        assert len(calls) == 11 and set(rec.case_tags) == {tag}
    calls.clear()
    stereotype_trajectory(state, "AA1", U_AA1, CONST, StereotypeSpec(0.02, -0.02), 10)
    assert calls == []
