"""Closed-form one-step policy solvers and an independent LP-vertex oracle.

The closed forms come from the case analysis of the parity-constrained
one-step maximization; the oracle enumerates basic feasible solutions of
the same LP and is kept deliberately independent of the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import Policy, PopulationState, UtilitySpec, utility

# Mode / case codes shared with the trajectory kernel.
MODE_UN = 0
MODE_AA = 1
MODE_AA1 = 2
MODE_AA2 = 3

MODE_CODES = {"UN": MODE_UN, "AA": MODE_AA, "AA1": MODE_AA1, "AA2": MODE_AA2}

CASE_UN = 0
CASE_AA1 = 1
CASE_AA2 = 2

CASE_TAGS = {CASE_UN: "UN", CASE_AA1: "AA1", CASE_AA2: "AA2"}

# Built once: the RK4 kernel asks for the UN policy at every stage.
_UN_ENTRIES = (1.0, 0.0, 1.0, 0.0, CASE_UN)


@dataclass(frozen=True)
class AACase:
    """Which parity branch is optimal, and who is currently advantaged."""

    tag: str  # "AA1" | "AA2" | "Boundary"
    advantaged: str  # "A" | "B"

    def resolved_tag(self) -> str:
        """Boundary resolves to AA2 (both branches optimal; AA2 is the
        permissive, larger-selection one)."""
        return "AA2" if self.tag == "Boundary" else self.tag


@dataclass(frozen=True)
class PolicySolution:
    policy: Policy
    case: AACase | None  # None marks the unconstrained solution
    achieved_utility: float


def advantaged_group(state: PopulationState) -> str:
    """Group with the larger qualified fraction; ties go to A."""
    return "A" if state.pi_a.p1 >= state.pi_b.p1 else "B"


def unconstrained_policy(state: PopulationState, u: UtilitySpec) -> PolicySolution:
    """Select every qualified individual, no unqualified one.

    Optimal for the unconstrained one-step LP given u0 <= 0 <= u1; ties at
    u == (0, 0) are broken toward selecting the qualified.
    """
    policy = Policy.unconstrained()
    achieved = (state.g_a * state.pi_a.p1 + state.g_b * state.pi_b.p1) * u.u1
    return PolicySolution(policy=policy, case=None, achieved_utility=achieved)


def determine_aa_case(state: PopulationState, u: UtilitySpec) -> AACase:
    """Classify the parity-constrained optimum by the sign of
    g_adv*u1 + (1-g_adv)*u0."""
    adv = advantaged_group(state)
    g_adv = state.g_a if adv == "A" else state.g_b
    s = g_adv * u.u1 + (1.0 - g_adv) * u.u0
    if s < 0.0:
        tag = "AA1"
    elif s > 0.0:
        tag = "AA2"
    else:
        tag = "Boundary"
    return AACase(tag=tag, advantaged=adv)


def policy_entries(
    mode: int, pa: float, pb: float, ga: float, u0: float, u1: float
) -> tuple[float, float, float, float, int]:
    """Scalar closed-form policy for one state.

    Returns (tau1_a, tau0_a, tau1_b, tau0_b, case_code). This is the single
    source of truth for the closed form: the RK4 kernel calls it at every
    stage and the trajectory engines at every recorded sample.
    """
    if mode == MODE_UN:
        return _UN_ENTRIES
    adv_is_a = pa >= pb
    if mode == MODE_AA:
        g_adv = ga if adv_is_a else 1.0 - ga
        s = g_adv * u1 + (1.0 - g_adv) * u0
        case = CASE_AA1 if s < 0.0 else CASE_AA2
    elif mode == MODE_AA1:
        case = CASE_AA1
    else:
        case = CASE_AA2
    pi_adv = pa if adv_is_a else pb
    pi_dis = pb if adv_is_a else pa
    if case == CASE_AA1:
        # 0/0 limit: pi_adv == 0 forces pi_dis == 0; any value is parity
        # feasible, pick the UN-consistent 1.
        t1_adv = pi_dis / pi_adv if pi_adv > 0.0 else 1.0
        t0_adv = 0.0
        t1_dis = 1.0
        t0_dis = 0.0
    else:
        t1_adv = 1.0
        t0_adv = 0.0
        t1_dis = 1.0
        # pi_dis == 1 forces pi_adv == 1; the 0/0 limit is resolved to 0.
        t0_dis = (pi_adv - pi_dis) / (1.0 - pi_dis) if pi_dis < 1.0 else 0.0
    if adv_is_a:
        return (t1_adv, t0_adv, t1_dis, t0_dis, case)
    return (t1_dis, t0_dis, t1_adv, t0_adv, case)


def policy_entries_array(
    mode: int, pa: np.ndarray, pb: np.ndarray, ga: float, u0: float, u1: float
) -> tuple:
    """policy_entries at every point of the float arrays pa, pb, as
    (tau1_a, tau0_a, tau1_b, tau0_b) with the same bits and no case codes:
    the same operations, each branch chosen per point by np.where."""
    if mode == MODE_UN:
        return _UN_ENTRIES[:4]
    adv_is_a = pa >= pb
    if mode == MODE_AA:
        g_adv = np.where(adv_is_a, ga, 1.0 - ga)
        aa1 = g_adv * u1 + (1.0 - g_adv) * u0 < 0.0
    else:
        aa1 = mode == MODE_AA1
    pi_adv = np.where(adv_is_a, pa, pb)
    pi_dis = np.where(adv_is_a, pb, pa)
    with np.errstate(divide="ignore", invalid="ignore"):  # the 0/0 limits are masked
        t1_adv = np.where(aa1, np.where(pi_adv > 0.0, pi_dis / pi_adv, 1.0), 1.0)
        t0_dis = np.where(aa1, 0.0, np.where(pi_dis < 1.0, (pi_adv - pi_dis) / (1.0 - pi_dis), 0.0))
    return (
        np.where(adv_is_a, t1_adv, 1.0),
        np.where(adv_is_a, 0.0, t0_dis),
        np.where(adv_is_a, 1.0, t1_adv),
        np.where(adv_is_a, t0_dis, 0.0),
    )


def aa_policy(state: PopulationState, u: UtilitySpec) -> PolicySolution:
    """Parity-constrained one-step optimum via the closed forms."""
    case = determine_aa_case(state, u)
    mode = MODE_AA1 if case.resolved_tag() == "AA1" else MODE_AA2
    t1a, t0a, t1b, t0b, _ = policy_entries(
        mode, state.pi_a.p1, state.pi_b.p1, state.g_a, u.u0, u.u1
    )
    policy = Policy(t1a, t0a, t1b, t0b)
    return PolicySolution(
        policy=policy, case=case, achieved_utility=utility(state, policy, u)
    )


def lp_oracle(
    state: PopulationState, u: UtilitySpec, parity_constrained: bool
) -> PolicySolution:
    """Exact maximizer by enumerating basic feasible solutions.

    Variables are ordered (tau1_a, tau0_a, tau1_b, tau0_b). For the parity
    problem every vertex fixes at least three coordinates at a bound and
    solves the equality for the remaining one. Ties are broken by
    lexicographic order on (tau1_a, tau1_b, tau0_a, tau0_b), descending.
    """
    pa, pb, ga = state.pi_a.p1, state.pi_b.p1, state.g_a
    gb = 1.0 - ga
    obj = (
        ga * u.u1 * pa,
        ga * u.u0 * (1.0 - pa),
        gb * u.u1 * pb,
        gb * u.u0 * (1.0 - pb),
    )
    # parity: a . tau == 0
    a = (pa, 1.0 - pa, -pb, -(1.0 - pb))

    candidates: list[tuple[float, float, float, float]] = []
    if not parity_constrained:
        candidates = [c for c in product((1.0, 0.0), repeat=4)]
    else:
        for free in range(4):
            others = [i for i in range(4) if i != free]
            for bounds in product((0.0, 1.0), repeat=3):
                fixed = dict(zip(others, bounds))
                rhs = -sum(a[i] * fixed[i] for i in others)
                if a[free] != 0.0:
                    x = rhs / a[free]
                    if -1e-12 <= x <= 1.0 + 1e-12:
                        x = min(1.0, max(0.0, x))
                        cand = [0.0] * 4
                        for i in others:
                            cand[i] = fixed[i]
                        cand[free] = x
                        candidates.append(tuple(cand))
                elif abs(rhs) <= 1e-12:
                    # Degenerate column: the free coordinate is unconstrained.
                    for x in (0.0, 1.0):
                        cand = [0.0] * 4
                        for i in others:
                            cand[i] = fixed[i]
                        cand[free] = x
                        candidates.append(tuple(cand))

    def score(c: tuple[float, float, float, float]):
        value = sum(obj[i] * c[i] for i in range(4))
        return (value, c[0], c[2], c[1], c[3])

    best = max(candidates, key=score)
    policy = Policy(*best)
    case = determine_aa_case(state, u) if parity_constrained else None
    return PolicySolution(
        policy=policy, case=case, achieved_utility=utility(state, policy, u)
    )
