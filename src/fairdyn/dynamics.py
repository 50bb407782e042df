"""Influence-dynamics engine: DT stepping, CT integration, trajectories.

A dynamics is the pair (f0, f1): maps from the per-group selection rates
(beta0, beta1) to the change-for-the-better and retention-at-the-top rates.
Outputs are clamped to [0, 1] before use; clamp events are counted so test
dynamics can assert none occurred on reachable states.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _kernels
from .core import PopulationState, QualificationProfile, UtilitySpec, clamp01
from .expr import compile_expression
from .policy import CASE_TAGS, CASE_UN, MODE_CODES, policy_entries

MERGE_TOL = 1e-10

POLICY_MODES = ("UN", "AA", "AA1", "AA2")


class CaseSwitchError(RuntimeError):
    """Raised under strict mode when the AA case flips mid-run."""


class StepHalvingError(RuntimeError):
    """Raised under strict mode when the integrator self-check fails."""


@dataclass(frozen=True)
class DynamicsSpec:
    """Evaluable dynamics pair with optional declared Lipschitz constants.

    affine, when set, is (a0, c0, d0, a1, c1, d1) describing
    f0 = a0 + c0*b0 + d0*b1 and f1 = a1 + c1*b0 + d1*b1; the trajectory
    kernels then evaluate the maps inline instead of calling back into
    Python.
    """

    f0: Callable[[float, float], float]
    f1: Callable[[float, float], float]
    name: str = "custom"
    declared_l0: float | None = None
    declared_l1: float | None = None
    affine: tuple[float, float, float, float, float, float] | None = None

    def f0_clamped(self, b0: float, b1: float) -> float:
        return clamp01(self.f0(b0, b1))

    def f1_clamped(self, b0: float, b1: float) -> float:
        return clamp01(self.f1(b0, b1))

    def validate_declared(self, resolution: int = 256) -> None:
        """Check declared Lipschitz constants against sampled finite
        differences on a resolution^2 grid; raises ValueError on excess."""
        if self.declared_l0 is None and self.declared_l1 is None:
            return
        xs = np.linspace(0.0, 1.0, resolution)
        for which, fn, declared in (
            ("f0", self.f0_clamped, self.declared_l0),
            ("f1", self.f1_clamped, self.declared_l1),
        ):
            if declared is None:
                continue
            worst = max_grid_slope(fn, xs)
            if worst > declared + 1e-6:
                raise ValueError(
                    f"{which} of dynamics {self.name!r}: sampled slope {worst:.6g} "
                    f"exceeds declared Lipschitz constant {declared:.6g}"
                )


def max_grid_slope(fn: Callable[[float, float], float], xs: np.ndarray) -> float:
    """Largest finite-difference slope of fn(x, y) along either axis of the
    grid xs x xs (xs equispaced)."""
    step = float(xs[1] - xs[0])
    grid = np.array([[fn(x, y) for y in xs] for x in xs])
    return float(
        max(
            np.max(np.abs(np.diff(grid, axis=0))),
            np.max(np.abs(np.diff(grid, axis=1))),
        )
        / step
    )


def constant_dynamics(f0_value: float, f1_value: float, name: str | None = None) -> DynamicsSpec:
    name = name if name is not None else f"constant({f0_value},{f1_value})"
    return affine_dynamics(f0_value, 0.0, 0.0, f1_value, 0.0, 0.0, name=name)


def affine_dynamics(
    a0: float,
    c0: float,
    d0: float,
    a1: float,
    c1: float,
    d1: float,
    name: str | None = None,
) -> DynamicsSpec:
    """f0 = a0 + c0*b0 + d0*b1, f1 = a1 + c1*b0 + d1*b1."""

    def f0(b0: float, b1: float, _a=a0, _c=c0, _d=d0) -> float:
        return _a + _c * b0 + _d * b1

    def f1(b0: float, b1: float, _a=a1, _c=c1, _d=d1) -> float:
        return _a + _c * b0 + _d * b1

    return DynamicsSpec(
        f0=f0,
        f1=f1,
        name=name if name is not None else f"affine({a0},{c0},{d0},{a1},{c1},{d1})",
        declared_l0=max(abs(c0), abs(d0)),
        declared_l1=max(abs(c1), abs(d1)),
        affine=(a0, c0, d0, a1, c1, d1),
    )


def appendix_c_dynamics() -> DynamicsSpec:
    """Built-in three-equilibrium example dynamics."""

    def f1(b0: float, b1: float) -> float:
        s = b0 + b1
        return 0.5 * (b1 + b1 / 5.0) / 1.4 + math.exp(-1e-9 * s) * math.sin(18.0 * s) + 0.1

    def f0(b0: float, b1: float) -> float:
        return (b1 + b1 / 5.0) / 1.2 + 0.01

    return DynamicsSpec(f0=f0, f1=f1, name="appendixC")


# Parameters of each builtin dynamics, by name. constant needs both; affine
# parameters default to 0.
BUILTIN_PARAMS = {
    "constant": ("f0", "f1"),
    "affine": ("a0", "c0", "d0", "a1", "c1", "d1"),
    "appendixC": (),
}


def make_builtin(name: str, params: dict | None = None) -> DynamicsSpec:
    """Build the builtin dynamics `name` from its BUILTIN_PARAMS; raises
    KeyError naming an unknown builtin or a missing constant parameter."""
    params = dict(params or {})
    if name == "constant":
        return constant_dynamics(*(float(params[key]) for key in BUILTIN_PARAMS[name]))
    if name == "affine":
        return affine_dynamics(*(float(params.get(key, 0.0)) for key in BUILTIN_PARAMS[name]))
    if name == "appendixC":
        return appendix_c_dynamics()
    raise KeyError(f"unknown builtin dynamics {name!r}")


def parse_dynamics(
    expr_f0: str,
    expr_f1: str,
    name: str = "expression",
    declared_l0: float | None = None,
    declared_l1: float | None = None,
) -> DynamicsSpec:
    """Build a DynamicsSpec from two expression sources over b0, b1."""
    return DynamicsSpec(
        f0=compile_expression(expr_f0),
        f1=compile_expression(expr_f1),
        name=name,
        declared_l0=declared_l0,
        declared_l1=declared_l1,
    )


@dataclass
class TrajectoryRecord:
    """Time-indexed states, policies and utilities of one run."""

    mode: str
    time_mode: str  # "DT" | "CT"
    times: np.ndarray
    pi_a: np.ndarray
    pi_b: np.ndarray
    tau1_a: np.ndarray
    tau0_a: np.ndarray
    tau1_b: np.ndarray
    tau0_b: np.ndarray
    beta_a: np.ndarray  # aggregate selection rate per group
    beta_b: np.ndarray
    step_utility: np.ndarray
    running_utility: np.ndarray
    cumulative_utility: float
    case_tags: list[str]
    flags: list[str]  # per-sample event flags for serialization
    events: list[tuple[float, str]]
    clamp_count: int
    g_a: float
    extras: dict = field(default_factory=dict)

    @property
    def delta(self) -> np.ndarray:
        return self.pi_a - self.pi_b

    def final_state(self) -> PopulationState:
        return PopulationState.of(float(self.pi_a[-1]), float(self.pi_b[-1]), self.g_a)


def dt_step(
    profile: QualificationProfile,
    rates: tuple[float, float],
    dyn: DynamicsSpec,
) -> QualificationProfile:
    """One DT update of a single group's profile given its (beta0, beta1)."""
    p1, _ = _dt_step_raw(profile.p1, rates[0], rates[1], dyn)
    return QualificationProfile(p1)


def _dt_step_raw(p1: float, b0: float, b1: float, dyn: DynamicsSpec) -> tuple[float, int]:
    raw1 = dyn.f1(b0, b1)
    raw0 = dyn.f0(b0, b1)
    clamps = int(raw1 < 0.0 or raw1 > 1.0) + int(raw0 < 0.0 or raw0 > 1.0)
    nxt = p1 * clamp01(raw1) + (1.0 - p1) * clamp01(raw0)
    return clamp01(nxt), clamps


PolicyFn = Callable[[float, float, int], tuple[float, float, float, float, int]]
# (pi_a, pi_b, step) -> (tau1_a, tau0_a, tau1_b, tau0_b, case_code)


def _sample_recorder(
    state0: PopulationState,
    mode: str,
    time_mode: str,
    u: UtilitySpec,
    events: list[tuple[float, str]],
    strict: bool,
    policy_fn: PolicyFn | None = None,
):
    """Per-sample bookkeeping shared by the DT and CT engines.

    Returns (sample, mark, finish). sample(step, t, pa, pb) evaluates the
    policy at one recorded state (the closed form for `mode`, or
    policy_fn(pa, pb, step) when given), stores the state, policy, selection
    rates and utility, marks the sample's case_switch / advantage_swap events
    at time t, and returns the rates (b0a, b1a, b0b, b1b). A case switch warns
    or raises at the sample where it happens. mark(t, kind) appends an event
    to `events` and flags it on the latest sample. finish(clamp_count) builds
    the record: DT sums the utilities of applied policies, CT integrates them
    by trapezoid.
    """
    code = MODE_CODES[mode] if policy_fn is None else None
    ga, gb = state0.g_a, state0.g_b
    u0, u1 = u.u0, u.u1
    where = "at step {step}" if time_mode == "DT" else "near t={t}"
    # one row per sample: t, pa, pb, tau1_a, tau0_a, tau1_b, tau0_b, beta_a,
    # beta_b, step utility
    rows: list[tuple[float, ...]] = []
    case_tags: list[str] = []
    flags: list[str] = []
    # CASE_UN never takes part in a switch, so it also stands for "no sample
    # yet"; a zero previous gap never makes a sign change.
    prev_case = CASE_UN
    prev_delta = 0.0

    def mark(t: float, kind: str) -> None:
        events.append((t, kind))
        flags[-1] = f"{flags[-1]}|{kind}" if flags[-1] else kind

    def sample(step: int, t: float, pa: float, pb: float):
        nonlocal prev_case, prev_delta
        if policy_fn is None:
            t1a, t0a, t1b, t0b, case = policy_entries(code, pa, pb, ga, u0, u1)
        else:
            t1a, t0a, t1b, t0b, case = policy_fn(pa, pb, step)
        b0a, b1a = t0a * (1.0 - pa), t1a * pa
        b0b, b1b = t0b * (1.0 - pb), t1b * pb
        flags.append("")
        if case != prev_case and prev_case != CASE_UN and case != CASE_UN:
            mark(t, "case_switch")
            message = "AA case switched " + where.format(step=step, t=t)
            if strict:
                raise CaseSwitchError(message)
            warnings.warn(message, RuntimeWarning, stacklevel=3)
        delta = pa - pb
        if prev_delta * delta < 0.0:
            mark(t, "advantage_swap")
        prev_case, prev_delta = case, delta

        rows.append((
            t, pa, pb, t1a, t0a, t1b, t0b, b0a + b1a, b0b + b1b,
            ga * (u1 * b1a + u0 * b0a) + gb * (u1 * b1b + u0 * b0b),
        ))
        case_tags.append(CASE_TAGS[case])
        return b0a, b1a, b0b, b1b

    def finish(clamp_count: int) -> TrajectoryRecord:
        # copy: each column becomes its own contiguous array
        times, pas, pbs, t1as, t0as, t1bs, t0bs, betas_a, betas_b, utils = (
            np.array(rows, dtype=float).T.copy()
        )
        if time_mode == "DT":
            running = np.cumsum(utils)
            cumulative = float(running[-1] - utils[-1])
        else:
            increments = 0.5 * (utils[1:] + utils[:-1]) * np.diff(times)
            running = np.concatenate(([0.0], np.cumsum(increments)))
            cumulative = float(running[-1])
        return TrajectoryRecord(
            mode=mode,
            time_mode=time_mode,
            times=times,
            pi_a=pas,
            pi_b=pbs,
            tau1_a=t1as,
            tau0_a=t0as,
            tau1_b=t1bs,
            tau0_b=t0bs,
            beta_a=betas_a,
            beta_b=betas_b,
            step_utility=utils,
            running_utility=running,
            cumulative_utility=cumulative,
            case_tags=case_tags,
            flags=flags,
            events=events,
            clamp_count=clamp_count,
            g_a=ga,
        )

    return sample, mark, finish


def dt_trajectory(
    state0: PopulationState,
    mode: str,
    u: UtilitySpec,
    dyn: DynamicsSpec,
    steps: int,
    strict: bool = False,
    policy_fn: PolicyFn | None = None,
) -> TrajectoryRecord:
    """Iterate the DT dynamics, recomputing the one-step policy each step.

    The policy recorded at the final time is the one that would be applied
    next; cumulative utility sums the utilities of applied policies only.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    events: list[tuple[float, str]] = []
    sample, mark, finish = _sample_recorder(
        state0, mode, "DT", u, events, strict, policy_fn
    )
    pa, pb = state0.pi_a.p1, state0.pi_b.p1
    clamp_count = 0
    for t in range(steps + 1):
        b0a, b1a, b0b, b1b = sample(t, float(t), pa, pb)
        if t < steps:
            pa, ca = _dt_step_raw(pa, b0a, b1a, dyn)
            pb, cb = _dt_step_raw(pb, b0b, b1b, dyn)
            if ca or cb:
                mark(float(t), "clamp")
                clamp_count += ca + cb
    return finish(clamp_count)


def ct_steps(t_end: float, h: float, sample_every: int | None = None) -> tuple[int, int]:
    """RK4 step count round(t_end/h) and sample stride (default: at most
    about 2000 samples) of a CT run; raises ValueError naming a bad input."""
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"t_end must be finite and >= 0, got {t_end!r}")
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"step size h must be finite and > 0, got {h!r}")
    if not math.isfinite(t_end / h):
        raise ValueError(f"t_end / h must be a finite step count, got {t_end!r} / {h!r}")
    n_steps = int(round(t_end / h))
    if sample_every is None:
        return n_steps, max(1, n_steps // 2000)
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every!r}")
    return n_steps, sample_every


def ct_integrate(
    state0: PopulationState,
    mode: str,
    u: UtilitySpec,
    dyn: DynamicsSpec,
    t_end: float,
    h: float = 1e-3,
    sample_every: int | None = None,
    check_step_halving: bool = False,
    stop_tol: float = 0.0,
    strict: bool = False,
) -> TrajectoryRecord:
    """Integrate the CT dynamics with fixed-step RK4.

    The closed-form policy is recomputed at every stage evaluation. Once the
    groups come within 1e-10 of each other they are merged onto a shared
    trajectory. Cumulative utility is the composite trapezoid over stored
    samples. With check_step_halving, the run is repeated at h/2 and the
    endpoint difference above 1e-6 is flagged (or raised under strict).
    """
    n_steps, sample_every = ct_steps(t_end, h, sample_every)

    samples, clamp_count, merge_step, stop_step = _kernels.ct_loop(
        state0.pi_a.p1,
        state0.pi_b.p1,
        state0.g_a,
        u.u0,
        u.u1,
        MODE_CODES[mode],
        dyn.f0,
        dyn.f1,
        dyn.affine,
        h,
        n_steps,
        sample_every,
        MERGE_TOL,
        stop_tol,
    )

    events: list[tuple[float, str]] = []
    if merge_step >= 0:
        events.append((merge_step * h, "merge"))
    if stop_step >= 0:
        events.append((stop_step * h, "stationary_stop"))
    # Samples after a merge have pa == pb exactly, so they never register an
    # advantage swap.
    sample, _, finish = _sample_recorder(state0, mode, "CT", u, events, strict)
    for step, pa, pb in samples:
        sample(step, step * h, pa, pb)
    record = finish(clamp_count)

    if check_step_halving:
        fine = ct_integrate(
            state0, mode, u, dyn, t_end, h=h / 2.0, sample_every=None,
            check_step_halving=False, stop_tol=0.0,
        )
        diff = max(
            abs(float(record.pi_a[-1]) - float(fine.pi_a[-1])),
            abs(float(record.pi_b[-1]) - float(fine.pi_b[-1])),
        )
        record.extras["step_halving_diff"] = diff
        record.extras["step_halving_ok"] = diff <= 1e-6
        if diff > 1e-6:
            if strict:
                raise StepHalvingError(
                    f"step-halving check failed: endpoint difference {diff:.3g}"
                )
            warnings.warn(
                f"step-halving check failed: endpoint difference {diff:.3g}",
                RuntimeWarning,
                stacklevel=2,
            )
    return record


def ct_gradient(
    pa: float, pb: float, g_a: float, mode: str, u: UtilitySpec, dyn: DynamicsSpec
) -> tuple[float, float]:
    """CT derivative (dpi_a/dt, dpi_b/dt) at one point under a policy mode."""
    pa, pb = clamp01(pa), clamp01(pb)
    t1a, t0a, t1b, t0b, _ = policy_entries(MODE_CODES[mode], pa, pb, g_a, u.u0, u.u1)
    b0a, b1a = t0a * (1.0 - pa), t1a * pa
    b0b, b1b = t0b * (1.0 - pb), t1b * pb
    da = pa * (dyn.f1_clamped(b0a, b1a) - 1.0) + (1.0 - pa) * dyn.f0_clamped(b0a, b1a)
    db = pb * (dyn.f1_clamped(b0b, b1b) - 1.0) + (1.0 - pb) * dyn.f0_clamped(b0b, b1b)
    return da, db


@dataclass(frozen=True)
class TailBracket:
    """Infinite-horizon cumulative-utility bracket for an equalizing CT run."""

    finite: float
    delta_tail: tuple[float, float]
    interval: tuple[float, float]


def cumulative_utility_with_tail(
    record: TrajectoryRecord,
    contraction: float,
    u: UtilitySpec,
    g_a: float,
) -> TailBracket:
    """Bracket the infinite-horizon integral of the utility.

    The finite-horizon part is the record's trapezoid integral. Past t_end,
    only the gap-dependent utility terms are bracketed, using the two-sided
    exponential envelopes on the group gap integrated analytically; the
    gap-independent baseline is common across modes once both groups sit at
    the shared limit and is excluded from the tail.
    """
    if not (0.0 <= contraction < 1.0):
        raise ValueError("tail bounds require a contraction estimate in [0, 1)")
    final_delta = float(record.delta[-1])
    d = abs(final_delta)
    lo = d / (1.0 + contraction)
    hi = d / (1.0 - contraction)

    tag = record.case_tags[-1]
    g_adv = g_a if final_delta >= 0.0 else 1.0 - g_a
    if tag == "UN":
        coeff = g_adv * u.u1
    elif tag == "AA1":
        coeff = 0.0
    else:  # AA2
        coeff = g_adv * u.u1 + (1.0 - g_adv) * u.u0
    finite = record.cumulative_utility
    if coeff >= 0.0:
        interval = (finite + coeff * lo, finite + coeff * hi)
    else:
        interval = (finite + coeff * hi, finite + coeff * lo)
    return TailBracket(finite=finite, delta_tail=(lo, hi), interval=interval)
