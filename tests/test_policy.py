import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fairdyn import (
    Policy,
    PopulationState,
    UtilitySpec,
    aa_policy,
    advantaged_group,
    determine_aa_case,
    lp_oracle,
    selection_rates,
    unconstrained_policy,
    utility,
)
from fairdyn.policy import policy_entries, policy_entries_array
from conftest import random_state, random_utility


def test_advantaged_group_tie_goes_to_a():
    assert advantaged_group(PopulationState.of(0.5, 0.5, 0.3)) == "A"
    assert advantaged_group(PopulationState.of(0.2, 0.5, 0.3)) == "B"


def test_unconstrained_policy_shape_and_value():
    state = PopulationState.of(0.8, 0.4, 0.5)
    sol = unconstrained_policy(state, UtilitySpec(u0=-1.0, u1=1.0))
    assert sol.policy == Policy.unconstrained()
    assert sol.achieved_utility == pytest.approx(0.6, abs=1e-12)


def test_unconstrained_degenerate_utility_keeps_policy():
    state = PopulationState.of(0.8, 0.4, 0.5)
    sol = unconstrained_policy(state, UtilitySpec(u0=0.0, u1=0.0))
    assert sol.policy == Policy.unconstrained()
    assert sol.achieved_utility == 0.0


def test_unconstrained_matches_oracle(rng):
    for _ in range(200):
        state = random_state(rng)
        u = random_utility(rng)
        sol = unconstrained_policy(state, u)
        oracle = lp_oracle(state, u, parity_constrained=False)
        assert sol.achieved_utility >= oracle.achieved_utility - 1e-9


def test_case_classification_examples():
    state = PopulationState.of(0.8, 0.4, 0.5)
    assert determine_aa_case(state, UtilitySpec(u0=-2.0, u1=1.0)).tag == "AA1"
    assert determine_aa_case(state, UtilitySpec(u0=-1.0, u1=2.0)).tag == "AA2"
    boundary = determine_aa_case(state, UtilitySpec(u0=-1.0, u1=1.0))
    assert boundary.tag == "Boundary"
    assert boundary.resolved_tag() == "AA2"
    assert boundary.advantaged == "A"


def test_case_uses_advantaged_groups_share():
    # B advantaged; the sign condition must use g_B = 0.8
    state = PopulationState.of(0.3, 0.7, 0.2)
    case = determine_aa_case(state, UtilitySpec(u0=-2.0, u1=1.0))
    assert case.advantaged == "B"
    assert case.tag == "AA2"  # 0.8*1 + 0.2*(-2) = 0.4 > 0


def test_aa1_worked_example():
    state = PopulationState.of(0.8, 0.4, 0.5)
    u = UtilitySpec(u0=-2.0, u1=1.0)
    sol = aa_policy(state, u)
    assert sol.case.tag == "AA1"
    assert sol.policy.tau1_a == pytest.approx(0.5, abs=1e-15)
    assert sol.policy == Policy(0.5, 0.0, 1.0, 0.0)
    oracle = lp_oracle(state, u, parity_constrained=True)
    assert sol.achieved_utility == pytest.approx(oracle.achieved_utility, abs=1e-9)


def test_aa2_worked_example():
    state = PopulationState.of(0.8, 0.4, 0.5)
    u = UtilitySpec(u0=-1.0, u1=2.0)
    sol = aa_policy(state, u)
    assert sol.case.tag == "AA2"
    assert sol.policy.tau0_b == pytest.approx(2.0 / 3.0, abs=1e-15)
    oracle = lp_oracle(state, u, parity_constrained=True)
    assert sol.achieved_utility == pytest.approx(oracle.achieved_utility, abs=1e-9)


def test_equal_profiles_reduce_to_unconstrained():
    state = PopulationState.of(0.6, 0.6, 0.4)
    for u in (UtilitySpec(-2.0, 1.0), UtilitySpec(-1.0, 2.0)):
        assert aa_policy(state, u).policy == Policy.unconstrained()


def test_degenerate_profiles():
    # pi_adv = 0 forces pi_dis = 0: AA1 ratio resolved to 1
    state = PopulationState.of(0.0, 0.0, 0.5)
    sol = aa_policy(state, UtilitySpec(u0=-2.0, u1=1.0))
    assert sol.policy.tau1_a == 1.0
    # pi_dis = 1 forces pi_adv = 1: AA2 fill rate resolved to 0
    state = PopulationState.of(1.0, 1.0, 0.5)
    sol = aa_policy(state, UtilitySpec(u0=-1.0, u1=2.0))
    assert sol.policy.tau0_b == 0.0
    # where pa or pb is 0 or 1 a parity coefficient is 0, and the oracle
    # takes both bounds of that free coordinate: it agrees with the closed form
    edges = (0.0, 0.25, 0.5, 0.75, 1.0)
    utilities = [UtilitySpec(u0, u1) for u0, u1 in (
        (-1.0, 1.0), (-2.0, 1.0), (-1.0, 2.0), (0.0, 1.0), (-1.0, 0.0), (0.0, 0.0),
    )]
    for pa, pb, ga, u in itertools.product(edges, edges, (0.2, 0.5, 0.8), utilities):
        state = PopulationState.of(pa, pb, ga)
        oracle = lp_oracle(state, u, parity_constrained=True)
        assert selection_rates(state, oracle.policy).parity_residual <= 1e-12
        assert abs(aa_policy(state, u).achieved_utility - oracle.achieved_utility) <= 1e-12


def test_oracle_unconstrained_agrees_exactly(rng):
    for _ in range(100):
        state = random_state(rng)
        u = random_utility(rng)
        oracle = lp_oracle(state, u, parity_constrained=False)
        assert oracle.achieved_utility == pytest.approx(
            unconstrained_policy(state, u).achieved_utility, abs=1e-12
        )


def test_oracle_parity_feasible(rng):
    for _ in range(300):
        state = random_state(rng)
        u = random_utility(rng)
        oracle = lp_oracle(state, u, parity_constrained=True)
        assert selection_rates(state, oracle.policy).parity_residual <= 1e-12


def test_closed_form_parity_exact(rng):
    for _ in range(500):
        state = random_state(rng)
        u = random_utility(rng)
        sol = aa_policy(state, u)
        assert selection_rates(state, sol.policy).parity_residual <= 1e-12


def test_closed_form_matches_oracle_bulk(rng):
    for _ in range(1000):
        state = random_state(rng)
        u = random_utility(rng)
        closed = aa_policy(state, u)
        oracle = lp_oracle(state, u, parity_constrained=True)
        assert abs(closed.achieved_utility - oracle.achieved_utility) <= 1e-9


def test_one_step_dominance(rng):
    for _ in range(300):
        state = random_state(rng)
        u = random_utility(rng)
        assert (
            aa_policy(state, u).achieved_utility
            <= unconstrained_policy(state, u).achieved_utility + 1e-12
        )


def test_group_swap_symmetry(rng):
    for _ in range(300):
        state = random_state(rng)
        u = random_utility(rng)
        if state.pi_a.p1 == state.pi_b.p1:
            continue  # tie-break rule is deliberately asymmetric
        mirrored = PopulationState.of(state.pi_b.p1, state.pi_a.p1, state.g_b)
        sol = aa_policy(state, u)
        mir = aa_policy(mirrored, u)
        assert mir.policy == Policy(
            sol.policy.tau1_b, sol.policy.tau0_b, sol.policy.tau1_a, sol.policy.tau0_a
        )


def test_achieved_utility_consistent(rng):
    for _ in range(100):
        state = random_state(rng)
        u = random_utility(rng)
        for sol in (aa_policy(state, u), unconstrained_policy(state, u)):
            assert sol.achieved_utility == pytest.approx(
                utility(state, sol.policy, u), abs=1e-12
            )


# States at the ends of [0, 1] and next to them, where the closed form's
# guarded divisions fall back to their limits.
EDGE_STATES = (0.0, 1.0, 1e-300, 1.0 - 1e-16, 0.5)
# (ga, u0, u1) with g*u1 + (1 - g)*u0 == 0 for the advantaged group's share
# g: ga when A is advantaged, 1 - ga when B is.
AA_BOUNDARY = ((0.5, -1.0, 1.0), (0.25, -1.0, 3.0), (0.75, -1.0, 3.0), (0.2, -1.0, 4.0), (0.3, 0.0, 0.0))
_unit = st.one_of(st.sampled_from(EDGE_STATES), st.floats(0.0, 1.0))
_points = st.lists(
    st.one_of(st.tuples(_unit, _unit), _unit.map(lambda p: (p, p))), min_size=1, max_size=12
)
_utilities = st.one_of(
    st.sampled_from(AA_BOUNDARY),
    st.tuples(st.floats(0.01, 0.99), st.floats(-2.0, 0.0), st.floats(0.0, 2.0)),
)


@settings(max_examples=300, deadline=None)
@given(mode=st.sampled_from((0, 1, 2, 3, 7)), points=_points, utility_args=_utilities)
@example(mode=1, points=[(0.0, 0.0), (1.0, 1.0), (1e-300, 0.0), (1.0 - 1e-16, 1.0)], utility_args=(0.25, -1.0, 3.0))
@example(mode=1, points=[(0.0, 1e-300), (1.0, 1.0 - 1e-16), (0.4, 0.4)], utility_args=(0.75, -1.0, 3.0))
def test_policy_entries_array_matches_scalar_entries(mode, points, utility_args):
    """Every output of the array closed form is, point by point, the scalar
    closed form's value: the same dtype and the same bytes."""
    ga, u0, u1 = utility_args
    if utility_args in AA_BOUNDARY:
        assert ga * u1 + (1.0 - ga) * u0 == 0.0 or (1.0 - ga) * u1 + (1.0 - (1.0 - ga)) * u0 == 0.0
    pa, pb = (np.array(column) for column in zip(*points))
    arrays = policy_entries_array(mode, pa, pb, ga, u0, u1)
    scalars = [policy_entries(mode, a, b, ga, u0, u1) for a, b in points]
    assert len(arrays) == 5
    for k, array in enumerate(arrays):
        expected = np.array([entries[k] for entries in scalars])
        assert array.shape == expected.shape
        assert array.dtype == expected.dtype
        assert array.tobytes() == expected.tobytes()
