"""Domain types and the basic utility / selection-rate accounting.

Everything here is an immutable value; the operations are pure functions
and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


# x clamped to [0, 1] as source: code compiled from templates writes it in,
# and clamp01 is compiled from it. The comparisons keep -0.0 and NaN.
CLAMP01 = "(0.0 if {x} < 0.0 else (1.0 if {x} > 1.0 else {x}))"
clamp01 = eval(compile("lambda x: " + CLAMP01.format(x="x"), "<clamp01>", "eval"))


@dataclass(frozen=True)
class QualificationProfile:
    """Probability that a member of a group evaluates as qualified (v=1)."""

    p1: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p1 <= 1.0):
            raise ValueError(f"p1 must lie in [0, 1], got {self.p1}")

    @property
    def p0(self) -> float:
        return 1.0 - self.p1


@dataclass(frozen=True)
class PopulationState:
    """Qualification profiles of both groups and the group-A share."""

    pi_a: QualificationProfile
    pi_b: QualificationProfile
    g_a: float

    def __post_init__(self) -> None:
        if not (0.0 < self.g_a < 1.0):
            raise ValueError(f"g_a must lie in (0, 1), got {self.g_a}")

    @property
    def g_b(self) -> float:
        return 1.0 - self.g_a

    def pi(self, group: str) -> QualificationProfile:
        return self.pi_a if group == "A" else self.pi_b

    @staticmethod
    def of(pi_a: float, pi_b: float, g_a: float) -> "PopulationState":
        return PopulationState(
            QualificationProfile(pi_a), QualificationProfile(pi_b), g_a
        )


@dataclass(frozen=True)
class UtilitySpec:
    """Per-evaluation utilities; selecting unqualified can never pay."""

    u0: float
    u1: float

    def __post_init__(self) -> None:
        for key in ("u0", "u1"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"utility {key} must be finite, got {getattr(self, key)!r}")
        if not (self.u0 <= 0.0 <= self.u1):
            raise ValueError(
                f"utilities must satisfy u0 <= 0 <= u1, got u0={self.u0}, u1={self.u1}"
            )


@dataclass(frozen=True)
class Policy:
    """Selection probabilities tau(v; group) for v in {0,1}, group in {A,B}."""

    tau1_a: float
    tau0_a: float
    tau1_b: float
    tau0_b: float

    def __post_init__(self) -> None:
        for name in ("tau1_a", "tau0_a", "tau1_b", "tau0_b"):
            val = getattr(self, name)
            if not (0.0 <= val <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {val}")

    def tau(self, v: int, group: str) -> float:
        if group == "A":
            return self.tau1_a if v == 1 else self.tau0_a
        return self.tau1_b if v == 1 else self.tau0_b

    @staticmethod
    def unconstrained() -> "Policy":
        return Policy(1.0, 0.0, 1.0, 0.0)

    @staticmethod
    def all_zero() -> "Policy":
        return Policy(0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class SelectionRates:
    """Per-evaluation rates beta(v; group) and their per-group aggregates."""

    beta1_a: float
    beta0_a: float
    beta1_b: float
    beta0_b: float

    @property
    def agg_a(self) -> float:
        return self.beta0_a + self.beta1_a

    @property
    def agg_b(self) -> float:
        return self.beta0_b + self.beta1_b

    @property
    def parity_residual(self) -> float:
        return abs(self.agg_a - self.agg_b)

    def beta(self, v: int, group: str) -> float:
        if group == "A":
            return self.beta1_a if v == 1 else self.beta0_a
        return self.beta1_b if v == 1 else self.beta0_b

    def for_group(self, group: str) -> tuple[float, float]:
        """(beta0, beta1) for one group, the argument order the dynamics use."""
        if group == "A":
            return (self.beta0_a, self.beta1_a)
        return (self.beta0_b, self.beta1_b)


def selection_rates(state: PopulationState, policy: Policy) -> SelectionRates:
    """Rates induced by a policy: beta(v;j) = tau(v;j) * pi(v|j)."""
    return SelectionRates(
        beta1_a=policy.tau1_a * state.pi_a.p1,
        beta0_a=policy.tau0_a * state.pi_a.p0,
        beta1_b=policy.tau1_b * state.pi_b.p1,
        beta0_b=policy.tau0_b * state.pi_b.p0,
    )


def utility(state: PopulationState, policy: Policy, u: UtilitySpec) -> float:
    """Average institutional utility of a policy at the given state."""
    part_a = u.u1 * policy.tau1_a * state.pi_a.p1 + u.u0 * policy.tau0_a * state.pi_a.p0
    part_b = u.u1 * policy.tau1_b * state.pi_b.p1 + u.u0 * policy.tau0_b * state.pi_b.p0
    return state.g_a * part_a + state.g_b * part_b
