import numpy as np
import pytest

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

CONST = constant_dynamics(0.2, 0.8)
U_AA1 = UtilitySpec(u0=-2.0, u1=1.0)
U_AA2 = UtilitySpec(u0=-1.0, u1=2.0)


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


def test_zero_eps_matches_unbiased_policy_exactly():
    state = PopulationState.of(0.8, 0.4, 0.5)
    zero = StereotypeSpec(eps_a=0.0, eps_b=0.0)
    from fairdyn import aa_policy, unconstrained_policy

    for mode, expected in (
        ("UN", unconstrained_policy(state, U_AA1).policy),
        ("AA1", Policy(0.5, 0.0, 1.0, 0.0)),
        ("AA2", aa_policy(state, U_AA2).policy),
    ):
        assert effective_policy(mode, state, U_AA1 if mode != "AA2" else U_AA2, zero) == expected


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
