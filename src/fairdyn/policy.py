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


def unknown_mode(mode) -> ValueError:
    """The error for a policy mode that is not a MODE_CODES key."""
    return ValueError(f"unknown policy mode {mode!r}: expected one of {', '.join(MODE_CODES)}")


def mode_code(mode: str) -> int:
    """MODE_CODES[mode]; unknown_mode's ValueError for any other mode."""
    try:
        return MODE_CODES[mode]
    except KeyError:
        raise unknown_mode(mode) from None


CASE_UN = 0
CASE_AA1 = 1
CASE_AA2 = 2

CASE_TAGS = {CASE_UN: "UN", CASE_AA1: "AA1", CASE_AA2: "AA2"}

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
    return PolicySolution(policy=policy, case=None, achieved_utility=utility(state, policy, u))


def determine_aa_case(state: PopulationState, u: UtilitySpec) -> AACase:
    """Classify the parity-constrained optimum by the sign of the
    advantaged group's AA score g_adv*u1 + (1-g_adv)*u0 (aa_scores)."""
    adv = advantaged_group(state)
    s = aa_scores(state.g_a, u.u0, u.u1)[adv == "B"]
    if s < 0.0:
        tag = "AA1"
    elif s > 0.0:
        tag = "AA2"
    else:
        tag = "Boundary"
    return AACase(tag=tag, advantaged=adv)


# The closed form as Python source, its one home: policy_entries and
# policy_entries_array are compiled from it, and the RK4 kernel (_loops_py)
# writes it into each stage. UN selects every qualified individual and no
# unqualified one. In each AA case, the entries (tau1_adv, tau0_adv, tau1_dis,
# tau0_dis) of the advantaged and the disadvantaged group, over their
# qualified fractions {adv} and {dis}, a guarded one as (test, value,
# fallback):
_AA_CASE_ENTRIES = {
    # 0/0 limit: pi_adv == 0 forces pi_dis == 0; any value is parity
    # feasible, pick the UN-consistent 1.
    CASE_AA1: (("{adv} > 0.0", "{dis} / {adv}", "1.0"), "0.0", "1.0", "0.0"),
    # pi_dis == 1 forces pi_adv == 1; the 0/0 limit is resolved to 0.
    CASE_AA2: ("1.0", "0.0", "1.0", ("{dis} < 1.0", "({adv} - {dis}) / (1.0 - {dis})", "0.0")),
}
# The AA score g*u1 + (1 - g)*u0 of the advantaged group's share g, as source
# over ga, u0 and u1, when A and when B is the advantaged group. Mode AA takes
# case AA1 where it is < 0, else AA2.
AA_SCORES = tuple(f"{g} * u1 + (1.0 - {g}) * u0" for g in ("ga", "(1.0 - ga)"))
AA1_TESTS = tuple(f"{score} < 0.0" for score in AA_SCORES)
aa_scores = eval(compile(f"lambda ga, u0, u1: ({', '.join(AA_SCORES)})", "<aa_scores>", "eval"))
aa_scores.__doc__ = """The AA scores (A advantaged, B advantaged) at ga, u0, u1, with the
bits the kernel's and policy_entries' AA1 tests compute."""


def _policy_tree(mode: int, pa: str, pb: str, aa1_tests) -> tuple:
    """The closed form of `mode` (AA2 for modes other than UN, AA and AA1)
    at the state named pa, pb: a branch (test, then, else) or a leaf
    (entries (tau1_a, tau0_a, tau1_b, tau0_b), case code)."""
    if mode == MODE_UN:
        return ("1.0", "0.0", "1.0", "0.0"), CASE_UN
    cases = {MODE_AA: (CASE_AA1, CASE_AA2), MODE_AA1: (CASE_AA1,)}.get(mode, (CASE_AA2,))
    sides = []
    for adv, dis, test in ((pa, pb, aa1_tests[0]), (pb, pa, aa1_tests[1])):
        fill = lambda e: e.format(adv=adv, dis=dis) if isinstance(e, str) else tuple(map(fill, e))
        leaves = [(fill(_AA_CASE_ENTRIES[case]), case) for case in cases]
        leaves = [(e if adv == pa else e[2:] + e[:2], case) for e, case in leaves]  # A's entries first
        sides.append((test, *leaves) if mode == MODE_AA else leaves[0])
    return (f"{pa} >= {pb}", *sides)


def policy_source(mode: int, pa: str, pb: str, leaf, aa1_tests=AA1_TESTS) -> list[str]:
    """The closed-form policy of `mode` at the state named pa, pb, as lines
    of Python source: if/else branches, each ending in leaf(entries, case),
    the lines for its case code and entries (tau1_a, tau0_a, tau1_b, tau0_b)
    as expressions. Mode AA branches on aa1_tests (source, or bound names)."""

    def lines(node) -> list[str]:
        if len(node) == 2:
            entries, case = node
            return leaf(tuple(e if isinstance(e, str) else "{1} if {0} else {2}".format(*e) for e in entries), case)
        return [f"if {node[0]}:", *indent(lines(node[1])), "else:", *indent(lines(node[2]))]

    return lines(_policy_tree(mode, pa, pb, aa1_tests))


def indent(lines: list[str], depth: int = 1) -> list[str]:
    return ["    " * depth + line for line in lines]


def _array_lines(mode: int) -> list[str]:
    """Lines returning the closed form of `mode` at the arrays pa, pb: its
    tests bound once, each output np.where over those on pa, pb (both sides
    computed, warnings masked), equal sides folded, constants filled."""
    tests: dict[str, str] = {}

    def where(node, k: int) -> str:
        if len(node) == 2:
            value = (*node[0], str(node[1]))[k]  # entry k, or the case code
            return value if isinstance(value, str) else "np.where({}, {}, {})".format(*value)
        then, other = where(node[1], k), where(node[2], k)
        if then == other:
            return then
        # an AA1 test is a Python bool: a conditional computes only the chosen side
        form = "({1} if {0} else {2})" if node[0] in AA1_TESTS else "np.where({0}, {1}, {2})"
        return form.format(tests.setdefault(node[0], f"c{len(tests)}"), then, other)

    outputs = [where(_policy_tree(mode, "pa", "pb", AA1_TESTS), k) for k in range(5)]
    outputs = [o if o.startswith("np.where") else f"np.full(pa.shape, {o})" for o in outputs]
    body = [f"{name} = {test}" for test, name in tests.items()] + [f"return ({', '.join(outputs)})"]
    return ['with np.errstate(all="ignore"):', *indent(body)]


def _compiled(name: str, body):
    """The compiled function name(mode, pa, pb, ga, u0, u1): the lines body(mode) for each mode."""
    lines = [f"def {name}(mode, pa, pb, ga, u0, u1):"]
    for mode in (MODE_UN, MODE_AA, MODE_AA1):
        lines += [f"    if mode == {mode}:", *indent(body(mode), 2)]
    namespace = {"__name__": __name__, "np": np}
    exec(compile("\n".join(lines + indent(body(MODE_AA2))) + "\n", f"<{name}>", "exec"), namespace)
    return namespace[name]


policy_entries = _compiled(
    "policy_entries", lambda mode: policy_source(mode, "pa", "pb", lambda e, case: [f"return ({', '.join(e)}, {case})"])
)
policy_entries.__doc__ = """Scalar closed-form policy for one state, (mode, pa, pb, ga, u0, u1) ->
(tau1_a, tau0_a, tau1_b, tau0_b, case_code), compiled from the source above."""
policy_entries_array = _compiled("policy_entries_array", _array_lines)
policy_entries_array.__doc__ = """policy_entries at every point of the 1-D float arrays pa, pb, as arrays
with the same bits and codes, compiled from the same source with np.where."""


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
