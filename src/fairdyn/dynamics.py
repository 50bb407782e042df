"""Influence-dynamics engine: DT stepping, CT integration, trajectories.

A dynamics is the pair (f0, f1): maps from the per-group selection rates
(beta0, beta1) to the change-for-the-better and retention-at-the-top rates.
Outputs are clamped to [0, 1] before use; clamp events are counted so test
dynamics can assert none occurred on reachable states.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _kernels
from .core import PopulationState, QualificationProfile, UtilitySpec, clamp01
from .expr import compile_expression
from .policy import CASE_TAGS, CASE_UN, MODE_CODES, policy_entries, policy_entries_array

MERGE_TOL = 1e-10


class CaseSwitchError(RuntimeError):
    """Raised under strict mode when the AA case flips mid-run."""


class StepHalvingError(RuntimeError):
    """Raised under strict mode when the integrator self-check fails."""


@dataclass(frozen=True)
class DynamicsSpec:
    """Evaluable dynamics pair with optional declared Lipschitz constants.

    affine, when set, is (a0, c0, d0, a1, c1, d1) describing
    f0 = a0 + c0*b0 + d0*b1 and f1 = a1 + c1*b0 + d1*b1, as the affine and
    constant builtins set it; the RK4 kernel then evaluates these terms
    inline (on the merged trajectory, where b0 = 0, a + d*b1) and never
    calls f0 or f1, the way it inlines the code of compiled expressions.
    Without it, maps that are not both compiled expressions are called.

    array_maps, when set, is the array form (f0, f1) of the maps: each takes
    two float arrays of one shape and returns the unclamped map at every
    point, bit for bit the scalar map's wherever that is finite, or None when
    it cannot vouch for every point (see array_sample). Expressions and the
    affine and constant builtins have one; Python callbacks do not, and the
    grid analyses call them once per point (see sample). A chunk with a
    failing point is evaluated again point by point, so maps must be pure.

    The spec keeps the last grid that sample_grid sampled, for the grid
    analyses of one resolution to share: the axis and two float arrays of
    (resolution+1)**2 points, 267 KB at resolution 128. dataclasses.replace
    starts a spec without it.
    """

    f0: Callable[[float, float], float]
    f1: Callable[[float, float], float]
    name: str = "custom"
    declared_l0: float | None = None
    declared_l1: float | None = None
    affine: tuple[float, float, float, float, float, float] | None = None
    array_maps: tuple[Callable, Callable] | None = None
    _grids: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def f0_clamped(self, b0: float, b1: float) -> float:
        value = self.f0(b0, b1)
        return value if 0.0 <= value <= 1.0 else self._clamp("f0", value, b0, b1)

    def f1_clamped(self, b0: float, b1: float) -> float:
        value = self.f1(b0, b1)
        return value if 0.0 <= value <= 1.0 else self._clamp("f1", value, b0, b1)

    def _clamp(self, which: str, value: float, b0: float, b1: float) -> float:
        """clamp01 of a map value outside [0, 1]; a NaN raises ValueError."""
        if value != value:
            point = (float(b0), float(b1))
            raise ValueError(f"{which} of dynamics {self.name!r} is NaN at (b0, b1) = {point!r}")
        return clamp01(value)

    def array_sample(self, b0: np.ndarray, b1: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """The clamped maps (f0, f1) at every point of the float arrays b0,
        b1 of one shape, evaluated as arrays with the bits f0_clamped and
        f1_clamped give there. None when the spec has no array form, or
        when some point has to go through the scalar maps: an evaluation
        raised, a divisor was zero, a power was complex or a raw value is
        not finite. The caller then evaluates those points one at a time,
        which raises the per-point error (or, say, clamps an infinite affine
        value)."""
        if self.array_maps is None:
            return None
        with np.errstate(all="ignore"):
            values = [fn(b0, b1) for fn in self.array_maps]
            if any(v is None or not np.isfinite(v).all() for v in values):
                return None
            f0, f1 = map(_clamp01_array, values)
        return f0, f1

    def sample(self, b0, b1) -> tuple[np.ndarray, np.ndarray]:
        """The clamped maps (f0, f1) at every point of the broadcast
        coordinate arrays b0, b1. Returns two arrays of the broadcast shape.

        The points go in chunks of 4096 through array_sample. A chunk it
        cannot vouch for (and every chunk of a spec without an array form)
        goes through _call_maps, which calls each map once per point. A
        chunk that fails there calls f0_clamped at each of its points, then
        f1_clamped at each, with Python floats; so the first failing point
        in that order raises its ValueError or ExpressionEvaluationError,
        naming the map and the point."""
        b0, b1 = np.broadcast_arrays(b0, b1)
        x, y = b0.ravel(), b1.ravel()
        f0, f1 = np.empty(x.size), np.empty(x.size)
        chunk = 4096  # points held as Python floats at a time: bounds memory
        for s in range(0, x.size, chunk):
            cx, cy = x[s : s + chunk], y[s : s + chunk]
            values = self.array_sample(cx, cy) or self._call_maps(cx, cy)
            if values is None:
                cx, cy = cx.tolist(), cy.tolist()
                values = list(map(self.f0_clamped, cx, cy)), list(map(self.f1_clamped, cx, cy))
            f0[s : s + chunk], f1[s : s + chunk] = values
        return f0.reshape(b0.shape), f1.reshape(b0.shape)

    def _call_maps(self, b0: np.ndarray, b1: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """The clamped maps (f0, f1) at every point of the 1-D float arrays
        b0, b1, with the bits f0_clamped and f1_clamped give: f0 called at
        each point, then f1, with Python floats. None when a call raised or
        _plain_array refuses its values; the caller then goes point by point."""
        x, y = b0.tolist(), b1.tolist()
        try:
            f0, f1 = (_plain_array(list(map(fn, x, y))) for fn in (self.f0, self.f1))
        except Exception:  # per point, a call raises its error again; an int may overflow
            return None
        if f0 is None or f1 is None:
            return None
        return _clamp01_array(f0), _clamp01_array(f1)

    def check_declared(self, l0_sampled: float, l1_sampled: float) -> None:
        """Raise ValueError when a sampled slope exceeds its declared
        Lipschitz constant (by more than 1e-6)."""
        for which, worst, declared in (
            ("f0", l0_sampled, self.declared_l0),
            ("f1", l1_sampled, self.declared_l1),
        ):
            if declared is not None and worst > declared + 1e-6:
                raise ValueError(
                    f"{which} of dynamics {self.name!r}: sampled slope {worst:.6g} "
                    f"exceeds declared Lipschitz constant {declared:.6g}"
                )

    def validate_declared(self, resolution: int = 256) -> None:
        """check_declared on the slopes of sample_grid(resolution), the grid
        that estimate_contraction(resolution) reads."""
        if self.declared_l0 is None and self.declared_l1 is None:
            return
        xs, f0, f1 = self.sample_grid(resolution)
        self.check_declared(max_grid_slope(f0, xs[1]), max_grid_slope(f1, xs[1]))

    def sample_grid(self, resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The axis xs = grid_axis(resolution) and the clamped maps sampled
        at (xs[i], xs[j]), indexed [i, j], as read-only arrays. The spec
        keeps the last grid it sampled and returns it again for the same
        resolution; a sampling that raises keeps nothing."""
        grid = self._grids.get(resolution)
        if grid is None:
            xs = grid_axis(resolution)
            grid = (xs, *self.sample(xs[:, None], xs))
            for array in grid:
                array.flags.writeable = False
            self._grids.clear()
            self._grids[resolution] = grid
        return grid


def _plain_array(values: list) -> np.ndarray | None:
    """values as a float64 array; None when one is NaN or is not a float, a
    numpy float64 or an int (a Fraction would round, and un_map computes with
    a numpy float32 in float32)."""
    if not {*map(type, values)} <= {float, np.float64, int}:
        return None
    array = np.fromiter(values, float, len(values))
    return None if np.isnan(array).any() else array


def _clamp01_array(values: np.ndarray) -> np.ndarray:
    """clamp01 at every element, by the same comparisons (so -0.0 stays)."""
    return np.where(values < 0.0, 0.0, np.where(values > 1.0, 1.0, values))


def grid_axis(resolution: int) -> np.ndarray:
    """The resolution+1 equispaced points of [0, 1] along each axis of the
    grid analyses."""
    return np.linspace(0.0, 1.0, resolution + 1)


def max_grid_slope(values: np.ndarray, step: float) -> float:
    """Largest finite-difference slope along either axis of a map sampled on
    a square grid with spacing step."""
    rows, cols = np.abs(np.diff(values, axis=0)), np.abs(np.diff(values, axis=1))
    return float(max(np.max(rows), np.max(cols)) / step)


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
        # The same closures on float arrays do the same IEEE operations.
        array_maps=(f0, f1),
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
    KeyError naming an unknown builtin or a missing constant parameter, and
    ValueError naming a parameter that is not finite."""
    if name not in BUILTIN_PARAMS:
        raise KeyError(f"unknown builtin dynamics {name!r}")
    params = dict(params or {})
    values = []
    for key in BUILTIN_PARAMS[name]:
        value = float(params[key] if name == "constant" else params.get(key, 0.0))
        if not math.isfinite(value):
            raise ValueError(f"parameter {key} of builtin {name} must be finite, got {value!r}")
        values.append(value)
    if name == "constant":
        return constant_dynamics(*values)
    if name == "affine":
        return affine_dynamics(*values)
    return appendix_c_dynamics()


def parse_dynamics(
    expr_f0: str,
    expr_f1: str,
    name: str = "expression",
    declared_l0: float | None = None,
    declared_l1: float | None = None,
) -> DynamicsSpec:
    """Build a DynamicsSpec from two expression sources over b0, b1."""
    f0, f1 = compile_expression(expr_f0), compile_expression(expr_f1)
    return DynamicsSpec(
        f0=f0,
        f1=f1,
        name=name,
        declared_l0=declared_l0,
        declared_l1=declared_l1,
        array_maps=(f0.array, f1.array),
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


def _nan_state(pa, pb, where: str) -> ValueError:
    return ValueError(f"NaN state (piA, piB) = ({pa!r}, {pb!r}) {where}: a dynamics map returned NaN")


def _case_switched(where: str, strict: bool) -> None:
    """Raise CaseSwitchError under strict, else warn, that the AA case
    switched; the warning names the line that called dt_trajectory or
    ct_integrate, whichever called this."""
    message = f"AA case switched {where}"
    if strict:
        raise CaseSwitchError(message)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def _case_switches(cases: np.ndarray) -> np.ndarray:
    """Whether each sample's case code differs from the previous sample's
    while neither is CASE_UN, which never takes part in a switch."""
    prev, cur = cases[:-1], cases[1:]
    return np.concatenate(([False], (cur != prev) & (prev != CASE_UN) & (cur != CASE_UN)))


def _columns(rows: list[tuple], width: int) -> np.ndarray:
    """The rows, tuples of `width` numbers, as `width` contiguous float
    columns."""
    flat = np.fromiter(itertools.chain.from_iterable(rows), float, width * len(rows))
    return flat.reshape(len(rows), width).T.copy()


_TAGS = np.array([CASE_TAGS[case] for case in sorted(CASE_TAGS)], dtype=object)


def _record(
    state0: PopulationState,
    mode: str,
    time_mode: str,
    u: UtilitySpec,
    steps: np.ndarray,
    h: float,
    pa: np.ndarray,
    pb: np.ndarray,
    policy: tuple,
    events: list[tuple[float, str]],
    clamp_count: int,
    clamped: np.ndarray | None = None,
) -> TrajectoryRecord:
    """The record of a DT or CT run from its float columns: the sample steps
    (at times steps*h), the states pa, pb and the policy (tau1_a, tau0_a,
    tau1_b, tau0_b, case code) at every sample.

    Computes the selection rates, step utility and running utility (DT sums
    the utilities of applied policies, CT integrates them by trapezoid) and
    the case tags. Each sample where the AA case switched, the advantaged
    group swapped or (where clamped is given) a map value was clamped gets
    those events in that order, flagged on the sample and appended to events
    at time step*h. Warns and raises nothing: the engines check the samples
    first."""
    ga, gb, u0, u1 = state0.g_a, state0.g_b, u.u0, u.u1
    t1a, t0a, t1b, t0b, cases = policy
    b0a, b1a = t0a * (1.0 - pa), t1a * pa
    b0b, b1b = t0b * (1.0 - pb), t1b * pb
    utils = ga * (u1 * b1a + u0 * b0a) + gb * (u1 * b1b + u0 * b0b)
    times = steps * h
    if time_mode == "DT":
        running = np.cumsum(utils)
        cumulative = float(running[-1] - utils[-1])
    else:
        increments = 0.5 * (utils[1:] + utils[:-1]) * np.diff(times)
        running = np.concatenate(([0.0], np.cumsum(increments)))
        cumulative = float(running[-1])

    delta = pa - pb
    marks = [
        ("case_switch", _case_switches(cases)),
        ("advantage_swap", np.concatenate(([False], delta[:-1] * delta[1:] < 0.0))),
    ]
    if clamped is not None:
        marks.append(("clamp", clamped))
    flags = [""] * pa.size
    for i in np.flatnonzero(np.logical_or.reduce([mask for _, mask in marks])).tolist():
        kinds = [kind for kind, mask in marks if mask[i]]
        t = int(steps[i]) * h
        events.extend((t, kind) for kind in kinds)
        flags[i] = "|".join(kinds)
    return TrajectoryRecord(
        mode=mode,
        time_mode=time_mode,
        times=times,
        pi_a=pa,
        pi_b=pb,
        tau1_a=t1a,
        tau0_a=t0a,
        tau1_b=t1b,
        tau0_b=t0b,
        beta_a=b0a + b1a,
        beta_b=b0b + b1b,
        step_utility=utils,
        running_utility=running,
        cumulative_utility=cumulative,
        case_tags=_TAGS[cases].tolist(),
        flags=flags,
        events=events,
        clamp_count=clamp_count,
        g_a=ga,
    )


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

    The policy is the closed form for `mode`, or policy_fn(pa, pb, step)
    when given. A NaN state raises ValueError naming its step, and a case
    switch warns (or raises CaseSwitchError under strict) at the step where
    it happens, before the next step is taken. The policy recorded at the
    final time is the one that would be applied next; cumulative utility
    sums the utilities of applied policies only.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    code = MODE_CODES[mode] if policy_fn is None else None
    ga, u0, u1 = state0.g_a, u.u0, u.u1
    pa, pb = state0.pi_a.p1, state0.pi_b.p1
    states, policies, clamps = [], [], []
    prev_case = CASE_UN
    for t in range(steps + 1):
        if pa != pa or pb != pb:
            raise _nan_state(pa, pb, f"at step {t}")
        if policy_fn is None:
            entries = policy_entries(code, pa, pb, ga, u0, u1)
        else:
            entries = policy_fn(pa, pb, t)
        t1a, t0a, t1b, t0b, case = entries
        if case != prev_case and prev_case != CASE_UN and case != CASE_UN:
            _case_switched(f"at step {t}", strict)
        prev_case = case
        states.append((pa, pb))
        policies.append(entries)
        if t < steps:
            pa, ca = _dt_step_raw(pa, t0a * (1.0 - pa), t1a * pa, dyn)
            pb, cb = _dt_step_raw(pb, t0b * (1.0 - pb), t1b * pb, dyn)
            clamps.append(ca + cb)
    clamps.append(0)  # no step is taken from the last sample
    pas, pbs = _columns(states, 2)
    t1a, t0a, t1b, t0b, cases = _columns(policies, 5)
    clamps = np.array(clamps)
    return _record(
        state0, mode, "DT", u, np.arange(steps + 1, dtype=float), 1.0, pas, pbs,
        (t1a, t0a, t1b, t0b, cases.astype(np.intp)), [], int(clamps.sum()), clamps > 0,
    )


def ct_steps(t_end: float, h: float, sample_every: int | None = None) -> tuple[int, int]:
    """RK4 step count t_end/h and sample stride (default: at most about 2000
    samples) of a CT run; raises ValueError naming a bad input. t_end must
    be a whole number of steps h, to a relative 1e-9 (so 0.3 / 0.1, whose
    float quotient is 2.9999999999999996, is 3 steps): a run never ends
    short of or past t_end."""
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"t_end must be finite and >= 0, got {t_end!r}")
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"step size h must be finite and > 0, got {h!r}")
    steps = t_end / h
    if not math.isfinite(steps):
        raise ValueError(f"t_end / h must be a finite step count, got {t_end!r} / {h!r}")
    n_steps = round(steps)
    if not math.isclose(steps, n_steps, rel_tol=1e-9):
        raise ValueError(
            f"t_end = {t_end!r} is not a whole number of steps h = {h!r} (t_end / h = {steps!r})"
        )
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
    steps, pa, pb = _columns(samples, 3)
    policy = policy_entries_array(MODE_CODES[mode], pa, pb, state0.g_a, u.u0, u.u1)
    # Walk the samples with a NaN state or a case switch in order; the
    # kernel's own objects name the state (a numpy float reprs differently).
    for i in np.flatnonzero(np.isnan(pa) | np.isnan(pb) | _case_switches(policy[4])).tolist():
        step, a, b = samples[i]
        where = f"near t={step * h}"
        if a != a or b != b:
            raise _nan_state(a, b, where)
        _case_switched(where, strict)
    record = _record(state0, mode, "CT", u, steps, h, pa, pb, policy, events, clamp_count)

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


def ct_field(
    pa: np.ndarray, pb: np.ndarray, g_a: float, mode: str, u: UtilitySpec, dyn: DynamicsSpec
) -> tuple[np.ndarray, np.ndarray] | None:
    """ct_gradient at every point of the 1-D float arrays pa, pb, evaluated
    as arrays with the same bits; None when dyn.array_sample cannot vouch
    for every point, and the points must go through ct_gradient."""
    pa, pb = _clamp01_array(pa), _clamp01_array(pb)
    t1a, t0a, t1b, t0b, _ = policy_entries_array(MODE_CODES[mode], pa, pb, g_a, u.u0, u.u1)
    maps_a = dyn.array_sample(t0a * (1.0 - pa), t1a * pa)
    maps_b = dyn.array_sample(t0b * (1.0 - pb), t1b * pb)
    if maps_a is None or maps_b is None:
        return None
    (f0a, f1a), (f0b, f1b) = maps_a, maps_b
    return pa * (f1a - 1.0) + (1.0 - pa) * f0a, pb * (f1b - 1.0) + (1.0 - pb) * f0b


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
