"""Estimation-error injection: the policy an institution actually implements
when it acts on biased estimates of the qualification profiles."""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Policy, PopulationState, UtilitySpec, clamp01
from .dynamics import DynamicsSpec, TrajectoryRecord, dt_trajectory
from .policy import CASE_TAGS, MODE_CODES, determine_aa_case, policy_entries


class StereotypeValidityError(ValueError):
    """Estimation errors incompatible with the current state."""


@dataclass(frozen=True)
class StereotypeSpec:
    """Per-group estimation errors, each a real number (numbers.Real, so a
    numpy float or int too), constant at every step, or a sequence of them
    tabulated per step."""

    eps_a: float | Sequence[float]
    eps_b: float | Sequence[float]

    def at(self, step: int) -> tuple[float, float]:
        ea = self.eps_a if _constant(self.eps_a) else self.eps_a[step]
        eb = self.eps_b if _constant(self.eps_b) else self.eps_b[step]
        return float(ea), float(eb)

    def check_steps(self, steps: int) -> None:
        """Raise ValueError where a per-step schedule has fewer entries than
        the steps + 1 samples of a run of `steps` steps."""
        for name, key, schedule in (("eps_a", "epsA", self.eps_a), ("eps_b", "epsB", self.eps_b)):
            if not _constant(schedule) and len(schedule) < steps + 1:
                raise ValueError(
                    f"the {name} ({key}) schedule has {len(schedule)} entries; "
                    f"{steps} steps need steps + 1 = {steps + 1}"
                )

    def validate_for(self, state: PopulationState, step: int = 0) -> None:
        ea, eb = self.at(step)
        pa, pb = state.pi_a.p1, state.pi_b.p1
        if not (-pa <= ea <= 1.0 - pa):
            raise StereotypeValidityError(
                f"eps_a={ea} outside [-pi_a, 1-pi_a] = [{-pa}, {1.0 - pa}]"
            )
        if not (-pb <= eb <= 1.0 - pb):
            raise StereotypeValidityError(
                f"eps_b={eb} outside [-pi_b, 1-pi_b] = [{-pb}, {1.0 - pb}]"
            )
        # The perceived ordering must not flip the true advantage.
        (pi_adv, e_adv), (pi_dis, e_dis) = _by_advantage(pa, pb, ea, eb)
        if e_dis - e_adv > pi_adv - pi_dis:
            raise StereotypeValidityError(
                "errors large enough to flip the perceived advantaged group"
            )


def _constant(eps) -> bool:
    """Whether eps is one error for every step: a real number, tested as a
    float or int first, as numbers.Real's test is slower."""
    return type(eps) in (float, int) or isinstance(eps, numbers.Real)


def _by_advantage(pa: float, pb: float, ea: float, eb: float):
    """(pi, eps) of the advantaged group, then of the other; ties go to A."""
    return ((pa, ea), (pb, eb)) if pa >= pb else ((pb, eb), (pa, ea))


def _fill(pi: float, eps: float) -> tuple[float, float]:
    """Truly implemented (tau1, tau0) for a group whose nominal policy
    selects all of its estimated qualified mass pi + eps: UN's groups, AA1's
    disadvantaged group and AA2's advantaged group."""
    if eps == 0.0:
        return 1.0, 0.0
    if eps > 0.0:
        # pi < 1 guaranteed: eps <= 1 - pi and eps > 0
        return 1.0, clamp01(eps / (1.0 - pi))
    # pi > 0 guaranteed: validate_for requires eps >= -pi, and eps < 0
    return clamp01((pi + eps) / pi), 0.0


def _resolved_case(mode: str, state: PopulationState, u: UtilitySpec) -> str:
    """mode, with AA resolved to the AA case it takes at state."""
    return determine_aa_case(state, u).resolved_tag() if mode == "AA" else mode


def effective_policy(
    mode: str,
    state: PopulationState,
    u: UtilitySpec,
    eps: StereotypeSpec,
    step: int = 0,
) -> Policy:
    """Translate the nominal policy on estimated profiles into the policy
    actually applied to the true distribution.

    With both errors zero this is the closed form. Otherwise each group the
    nominal policy fills gets _fill; in AA1 the advantaged group matches the
    disadvantaged group's estimated rate, and in AA2 the disadvantaged group
    fills the estimated gap with unqualified individuals. All entries are
    clamped into [0, 1]; the clamp only engages where the parity target
    computed from the estimates is unattainable on the true profiles.
    """
    eps.validate_for(state, step)
    ea, eb = eps.at(step)
    ea, eb = ea + 0.0, eb + 0.0  # -0.0 is no error: at pi = -0.0, pi + -0.0 keeps the sign
    pa, pb = state.pi_a.p1, state.pi_b.p1
    case = _resolved_case(mode, state, u)
    if case not in ("UN", "AA1", "AA2"):
        raise ValueError(f"unknown policy mode {mode!r}")
    if ea == 0.0 and eb == 0.0:
        return Policy(*policy_entries(MODE_CODES[case], pa, pb, state.g_a, u.u0, u.u1)[:4])
    if case == "UN":
        return Policy(*_fill(pa, ea), *_fill(pb, eb))

    (pi_adv, e_adv), (pi_dis, e_dis) = _by_advantage(pa, pb, ea, eb)
    if case == "AA1":
        adv = (clamp01((pi_dis + e_dis) / pi_adv) if pi_adv > 0.0 else 1.0, 0.0)
        dis = _fill(pi_dis, e_dis)
    else:
        adv = _fill(pi_adv, e_adv)
        gap = pi_adv - pi_dis + e_adv - e_dis
        dis = (1.0, clamp01(gap / (1.0 - pi_dis)) if pi_dis < 1.0 else 0.0)
    return Policy(*adv, *dis) if pa >= pb else Policy(*dis, *adv)


def stereotype_trajectory(
    state0: PopulationState,
    mode: str,
    u: UtilitySpec,
    dyn: DynamicsSpec,
    eps: StereotypeSpec,
    steps: int,
    strict: bool = False,
) -> TrajectoryRecord:
    """DT trajectory under the effectively implemented (biased) policies.

    Identical machinery to the unbiased DT run, with the effective policy
    substituted; additionally records the per-evaluation v=1 rate gap
    |beta(1;A) - beta(1;B)| per step in extras["rate_gap_v1"]. A per-step
    schedule needs an entry for each of the steps + 1 samples; a shorter one
    raises ValueError before the first step (StereotypeSpec.check_steps).
    """
    eps.check_steps(steps)
    g_a = state0.g_a
    case_code = {tag: code for code, tag in CASE_TAGS.items()}

    def policy_fn(pa: float, pb: float, step: int):
        # effective_policy takes the resolved case as its mode: one case per step
        state = PopulationState.of(pa, pb, g_a)
        tag = _resolved_case(mode, state, u)
        pol = effective_policy(tag, state, u, eps, step)
        return (pol.tau1_a, pol.tau0_a, pol.tau1_b, pol.tau0_b, case_code[tag])

    record = dt_trajectory(
        state0, mode, u, dyn, steps, strict=strict, policy_fn=policy_fn
    )
    record.extras["rate_gap_v1"] = np.abs(
        record.tau1_a * record.pi_a - record.tau1_b * record.pi_b
    )
    return record
