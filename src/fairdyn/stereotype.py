"""Estimation-error injection: the policy an institution actually implements
when it acts on biased estimates of the qualification profiles."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Policy, PopulationState, UtilitySpec, clamp01
from .dynamics import DynamicsSpec, TrajectoryRecord, dt_trajectory
from .policy import CASE_AA1, CASE_AA2, CASE_UN, MODE_AA1, determine_aa_case, policy_entries


class StereotypeValidityError(ValueError):
    """Estimation errors incompatible with the current state."""


@dataclass(frozen=True)
class StereotypeSpec:
    """Per-group estimation errors, constant or tabulated per step."""

    eps_a: float | Sequence[float]
    eps_b: float | Sequence[float]

    def at(self, step: int) -> tuple[float, float]:
        ea = self.eps_a if isinstance(self.eps_a, (int, float)) else self.eps_a[step]
        eb = self.eps_b if isinstance(self.eps_b, (int, float)) else self.eps_b[step]
        return float(ea), float(eb)

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
        if pa >= pb:
            if eb - ea > pa - pb:
                raise StereotypeValidityError(
                    "errors large enough to flip the perceived advantaged group"
                )
        else:
            if ea - eb > pb - pa:
                raise StereotypeValidityError(
                    "errors large enough to flip the perceived advantaged group"
                )


def _un_entries(pi: float, eps: float) -> tuple[float, float]:
    """Truly implemented (tau1, tau0) for one group under the select-all-
    qualified nominal policy with estimation error eps."""
    if eps == 0.0:
        return 1.0, 0.0
    if eps > 0.0:
        # pi < 1 guaranteed: eps <= 1 - pi and eps > 0
        return 1.0, clamp01(eps / (1.0 - pi))
    if pi <= 0.0:
        raise StereotypeValidityError(
            "negative stereotype with no qualified individuals to under-identify"
        )
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

    All entries are clamped into [0, 1]; the clamp only engages where the
    parity target computed from the estimates is unattainable on the true
    profiles (the min clause of the under-acceptance table, and the
    analogous overshoot of the over-acceptance fill rate).
    """
    eps.validate_for(state, step)
    ea, eb = eps.at(step)
    pa, pb = state.pi_a.p1, state.pi_b.p1

    if mode == "UN":
        t1a, t0a = _un_entries(pa, ea)
        t1b, t0b = _un_entries(pb, eb)
        return Policy(t1a, t0a, t1b, t0b)

    case = _resolved_case(mode, state, u)
    if case not in ("AA1", "AA2"):
        raise ValueError(f"unknown policy mode {mode!r}")

    adv_is_a = pa >= pb
    pi_adv, pi_dis = (pa, pb) if adv_is_a else (pb, pa)
    e_adv, e_dis = (ea, eb) if adv_is_a else (eb, ea)

    if case == "AA1":
        if e_dis == 0.0 and e_adv == 0.0:  # the unbiased closed form
            return Policy(*policy_entries(MODE_AA1, pa, pb, state.g_a, u.u0, u.u1)[:4])
        if e_dis >= 0.0:
            target = pi_dis + e_dis
            t1_adv = min(1.0, target / pi_adv) if pi_adv > 0.0 else 1.0
            t0_adv = 0.0
            t1_dis = 1.0
            t0_dis = clamp01(e_dis / (1.0 - pi_dis)) if pi_dis < 1.0 else 0.0
        else:
            if pi_dis <= 0.0:
                raise StereotypeValidityError(
                    "negative stereotype with no qualified individuals to under-identify"
                )
            target = pi_dis + e_dis
            t1_adv = clamp01(target / pi_adv) if pi_adv > 0.0 else 1.0
            t0_adv = 0.0
            t1_dis = clamp01(target / pi_dis)
            t0_dis = 0.0
    else:  # AA2
        if e_adv >= 0.0:
            t1_adv = 1.0
            t0_adv = clamp01(e_adv / (1.0 - pi_adv)) if pi_adv < 1.0 else 0.0
        else:
            if pi_adv <= 0.0:
                raise StereotypeValidityError(
                    "negative stereotype with no qualified individuals to under-identify"
                )
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
    raises ValueError before the first step.
    """
    for name, key, schedule in (("eps_a", "epsA", eps.eps_a), ("eps_b", "epsB", eps.eps_b)):
        if not isinstance(schedule, (int, float)) and len(schedule) < steps + 1:
            raise ValueError(
                f"the {name} ({key}) schedule has {len(schedule)} entries; "
                f"{steps} steps need steps + 1 = {steps + 1}"
            )
    g_a = state0.g_a
    case_code = {"UN": CASE_UN, "AA1": CASE_AA1, "AA2": CASE_AA2}

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
