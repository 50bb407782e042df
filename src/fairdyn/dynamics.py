"""Influence-dynamics engine: DT stepping, CT integration, trajectories.

A dynamics is the pair (f0, f1): maps from the per-group selection rates
(beta0, beta1) to the change-for-the-better and retention-at-the-top rates.
Outputs are clamped to [0, 1] before use; clamp events are counted so test
dynamics can assert none occurred on reachable states.
"""

from __future__ import annotations

import itertools
import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _kernels
from ._loops_py import ct_rate
from .core import PopulationState, QualificationProfile, UtilitySpec, clamp01
from .expr import compile_expression
from .policy import (
    CASE_TAGS,
    CASE_UN,
    mode_code,
    policy_entries,
    policy_entries_array,
)

MERGE_TOL = 1e-10

# The builtin appendixC dynamics (appendix_c_dynamics) as expression sources.
APPENDIX_C_F0 = "(b1 + b1/5)/1.2 + 0.01"
APPENDIX_C_F1 = "0.5*(b1 + b1/5)/1.4 + exp(-0.000000001*(b0+b1))*sin(18*(b0+b1)) + 0.1"


def dt_map(x, f1, f0):
    """The DT profile map, unclamped, at qualified fraction x and clamped
    map values f1, f0 (floats or arrays; f1 first, as the maps are called)."""
    return x * f1 + (1.0 - x) * f0


def _nan_value(which: str, dyn: DynamicsSpec, b0: float, b1: float) -> ValueError:
    point = (float(b0), float(b1))
    return ValueError(f"{which} of dynamics {dyn.name!r} is NaN at (b0, b1) = {point!r}")


def map_value(v, which: str, dyn: DynamicsSpec, b0: float, b1: float) -> float:
    """The map-value rule: v, the value of the map `which` ("f0" or "f1") of
    dyn at (b0, b1), as a float in [0, 1]. A float in [0, 1] is used as is
    (-0.0 stays -0.0). Any other float is clamped to [0, 1], and a NaN
    raises a ValueError naming the map and the point. Any other value goes
    through float() once (which may raise), then the same rule.

    f0_clamped/f1_clamped, ct_gradient, un_map and the per-point tier of
    DynamicsSpec.sample call the maps f1 then f0 at each point, A then B,
    and apply this rule. The RK4 kernel's call form and the DT engine use
    a callback's values as returned."""
    if type(v) is not float:
        v = float(v)
    if 0.0 <= v <= 1.0:
        return v
    if v < 0.0:
        return 0.0
    if v > 1.0:
        return 1.0
    raise _nan_value(which, dyn, b0, b1)


def _sample_points(dyn: DynamicsSpec, xs: list, ys: list) -> tuple[list, list]:
    """The clamped maps (f0, f1) at the points (xs[n], ys[n]) in order, f1
    then f0 at each: the first failing point raises its error."""
    f0, f1, f0s, f1s = dyn.f0, dyn.f1, [], []
    for b0, b1 in zip(xs, ys):
        f1s.append(map_value(f1(b0, b1), "f1", dyn, b0, b1))
        f0s.append(map_value(f0(b0, b1), "f0", dyn, b0, b1))
    return f0s, f1s


def ct_gradient(
    pa: float, pb: float, g_a: float, mode: str, u: UtilitySpec, dyn: DynamicsSpec
) -> tuple[float, float]:
    """CT derivative (dpi_a/dt, dpi_b/dt) at one point under a policy mode:
    the CT field ct_rate of each group at its clamped state, with its map
    values by map_value, as the kernel's stages compute it."""
    code = mode_code(mode)
    pa, pb = clamp01(pa), clamp01(pb)
    t1a, t0a, t1b, t0b, _ = policy_entries(code, pa, pb, g_a, u.u0, u.u1)
    b0a, b1a = t0a * (1.0 - pa), t1a * pa
    b0b, b1b = t0b * (1.0 - pb), t1b * pb
    f0, f1 = dyn.f0, dyn.f1
    f1a = map_value(f1(b0a, b1a), "f1", dyn, b0a, b1a)
    f0a = map_value(f0(b0a, b1a), "f0", dyn, b0a, b1a)
    f1b = map_value(f1(b0b, b1b), "f1", dyn, b0b, b1b)
    f0b = map_value(f0(b0b, b1b), "f0", dyn, b0b, b1b)
    return ct_rate(pa, f1a, f0a), ct_rate(pb, f1b, f0b)


def un_map(dyn: DynamicsSpec):
    """The one-dimensional profile map induced by the unconstrained policy:
    pi -> the DT map at the rates (0, pi), clamped to [0, 1]."""
    f0, f1 = dyn.f0, dyn.f1

    def f(pi: float) -> float:
        v1 = map_value(f1(0.0, pi), "f1", dyn, 0.0, pi)
        v0 = map_value(f0(0.0, pi), "f0", dyn, 0.0, pi)
        x = dt_map(pi, v1, v0)
        x = x if x > 0.0 else 0.0  # max(0.0, x)
        return x if x < 1.0 else 1.0  # min(1.0, x)

    return f


# Grid intervals per axis of the grid analyses: the default, and the least
# that estimate_contraction, check_status_quo_bias and `fairdyn analyze` take.
GRID_RESOLUTION = 256
GRID_RESOLUTION_MIN = 64


def grid_axis(resolution: int) -> np.ndarray:
    """The resolution+1 equispaced points of [0, 1] along each axis of the
    grid analyses."""
    return np.linspace(0.0, 1.0, resolution + 1)


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
    affine is a stored copy of the maps: dataclasses.replace with new f0
    and f1 keeps it, and CT runs then use the old maps; replace it too.

    The array form of the maps is their .array attribute, read off f0 and
    f1 at each use, so a replaced spec cannot keep a stale one: a function
    that takes two float arrays that broadcast together and returns the
    unclamped map at every point (an array that broadcasts to their shape),
    bit for bit the scalar map's wherever that is finite, or None when it
    cannot vouch for every point (see array_sample). Compiled expressions
    (appendixC's too) and the affine and constant builtins' closures have
    one; Python callbacks do not, and the grid analyses call them once per
    point, each value through map_value (see sample). Points with a failing
    one among them are evaluated again point by point, so maps must be pure.

    The spec keeps the last grid that sample_grid sampled, for the grid
    analyses of one resolution to share: the axis and two float arrays of
    (resolution+1)**2 points, at most 267 KB at resolution 128 and 16.8 MB
    at 1024 (a map of one rate keeps a broadcast view of one axis's
    values). dataclasses.replace starts a spec without it.
    """

    f0: Callable[[float, float], float]
    f1: Callable[[float, float], float]
    name: str = "custom"
    declared_l0: float | None = None
    declared_l1: float | None = None
    affine: tuple[float, float, float, float, float, float] | None = None
    _grids: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def f0_clamped(self, b0: float, b1: float) -> float:
        """f0 at (b0, b1), clamped to [0, 1] by the map-value rule (map_value)."""
        return map_value(self.f0(b0, b1), "f0", self, b0, b1)

    def f1_clamped(self, b0: float, b1: float) -> float:
        """f1 at (b0, b1), clamped to [0, 1] by the map-value rule (map_value)."""
        return map_value(self.f1(b0, b1), "f1", self, b0, b1)

    def array_sample(self, b0: np.ndarray, b1: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """The clamped maps (f0, f1) at every point of the float arrays b0,
        b1, which broadcast together, evaluated as arrays with the bits
        f0_clamped and f1_clamped give there: two arrays that broadcast to
        the points' shape, each of the shape its map's array form returned
        (a map of b1 alone runs on b1's points only).
        None when f0 or f1 has no array form (.array), or when some point
        has to go through the scalar maps: an evaluation raised, a divisor
        was zero, a power was complex or a raw value is not finite. The caller then
        evaluates those points one at a time, which raises the per-point
        error (or, say, clamps an infinite affine value)."""
        arrays = getattr(self.f0, "array", None), getattr(self.f1, "array", None)
        if arrays[0] is None or arrays[1] is None:
            return None
        with np.errstate(all="ignore"):
            values = [fn(b0, b1) for fn in arrays]
            if any(v is None or not np.isfinite(v).all() for v in values):
                return None
        f0, f1 = (_clamp01_array(v) for v in values)
        return f0, f1

    def sample(self, b0, b1) -> tuple[np.ndarray, np.ndarray]:
        """The clamped maps (f0, f1) at every point of the broadcast
        coordinate arrays b0, b1. Returns two arrays of the broadcast shape.

        The points go in chunks of 8192 through array_sample. A chunk it
        cannot vouch for (and every chunk of a spec without an array form)
        goes point by point through _sample_points, in order, f1 then f0 at
        each point with Python floats as the engines call them, each value
        by map_value: the first failing point raises its error, naming the
        map and the point."""
        b0, b1 = np.broadcast_arrays(b0, b1)
        x, y = b0.ravel(), b1.ravel()
        f0, f1 = np.empty(x.size), np.empty(x.size)
        chunk = 8192  # points held as Python floats at a time: bounds memory
        for s in range(0, x.size, chunk):
            cx, cy = x[s : s + chunk], y[s : s + chunk]
            values = self.array_sample(cx, cy) or _sample_points(self, cx.tolist(), cy.tolist())
            f0[s : s + chunk], f1[s : s + chunk] = values
        return f0.reshape(b0.shape), f1.reshape(b0.shape)

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

    def validate_declared(self, resolution: int = GRID_RESOLUTION) -> None:
        """check_declared on the slopes of sample_grid(resolution), the grid
        that estimate_contraction(resolution) reads; it checks resolution
        as sample_grid does also where nothing is declared."""
        step_count("resolution", resolution, 1)
        if self.declared_l0 is None and self.declared_l1 is None:
            return
        xs, f0, f1 = self.sample_grid(resolution)
        self.check_declared(max_grid_slope(f0, xs[1]), max_grid_slope(f1, xs[1]))

    def sample_grid(self, resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The axis xs = grid_axis(resolution) and the clamped maps sampled
        at (xs[i], xs[j]), indexed [i, j], as read-only arrays. The maps'
        array forms run once, on xs down and xs across (array_sample), so
        each subexpression runs on the axes it reads; where they cannot
        vouch for every point, sample takes the materialised grid in
        chunks, which names the first failing point in row-major order.
        The spec keeps the last grid it sampled and returns it again for
        the same resolution; a sampling that raises keeps nothing.
        resolution must be an integer >= 1 (step_count's ValueError
        otherwise)."""
        step_count("resolution", resolution, 1)
        grid = self._grids.get(resolution)
        if grid is None:
            xs = grid_axis(resolution)
            maps = self.array_sample(xs[:, None], xs[None, :]) or self.sample(xs[:, None], xs)
            grid = (xs, *(np.broadcast_to(f, (xs.size, xs.size)) for f in maps))
            for array in grid:
                array.flags.writeable = False
            self._grids.clear()
            self._grids[resolution] = grid
        return grid


def _clamp01_array(values: np.ndarray) -> np.ndarray:
    """clamp01 at every element, by the same comparisons (so -0.0 stays)."""
    return np.where(values < 0.0, 0.0, np.where(values > 1.0, 1.0, values))


def max_grid_slope(values: np.ndarray, step: float) -> float:
    """Largest finite-difference slope along either axis of a map sampled on
    a square grid with spacing step. Both axes' differences, (n-1)*n of
    them on an n x n grid, go through one buffer in turn, and the largest
    |difference| is the largest of their maxima and negated minima (its abs
    makes a flat map's slope +0.0)."""
    n = values.shape[0]
    buffer = np.empty(n * (n - 1))
    rows = np.subtract(values[1:], values[:-1], out=buffer.reshape(n - 1, n))
    hi, lo = rows.max(), rows.min()
    cols = np.subtract(values[:, 1:], values[:, :-1], out=buffer.reshape(n, n - 1))
    return float(abs(max(hi, -lo, cols.max(), -cols.min())) / step)


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

    # The same closures on float arrays do the same IEEE operations.
    f0.array, f1.array = f0, f1
    return DynamicsSpec(
        f0=f0,
        f1=f1,
        name=name if name is not None else f"affine({a0},{c0},{d0},{a1},{c1},{d1})",
        declared_l0=max(abs(c0), abs(d0)),
        declared_l1=max(abs(c1), abs(d1)),
        affine=(a0, c0, d0, a1, c1, d1),
    )


def appendix_c_dynamics() -> DynamicsSpec:
    """Built-in three-equilibrium example dynamics: the expressions
    APPENDIX_C_F0 and APPENDIX_C_F1."""
    return parse_dynamics(APPENDIX_C_F0, APPENDIX_C_F1, name="appendixC")


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
    return clamp01(dt_map(p1, clamp01(raw1), clamp01(raw0))), clamps


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
    at time step*h. The engines check the samples first; a running utility
    that is not finite (its sum overflowed) raises ValueError naming u0, u1
    and the time of the first such sample."""
    ga, gb, u0, u1 = state0.g_a, state0.g_b, u.u0, u.u1
    t1a, t0a, t1b, t0b, cases = policy
    b0a, b1a = t0a * (1.0 - pa), t1a * pa
    b0b, b1b = t0b * (1.0 - pb), t1b * pb
    utils = ga * (u1 * b1a + u0 * b0a) + gb * (u1 * b1b + u0 * b0b)
    times = steps * h
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        if time_mode == "DT":
            running = np.cumsum(utils)
            cumulative = float(running[-1] - utils[-1])
        else:
            increments = 0.5 * (utils[1:] + utils[:-1]) * np.diff(times)
            running = np.concatenate(([0.0], np.cumsum(increments)))
            cumulative = float(running[-1])
    if not math.isfinite(running[-1]):  # a sum stays inf or NaN once it is
        t = float(times[np.flatnonzero(~np.isfinite(running))[0]])
        raise ValueError(
            f"running utility is not finite from t = {t!r} (u0 = {u0!r}, u1 = {u1!r}): "
            "the sum of the step utilities overflows"
        )

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
    sums the utilities of applied policies only. mode must be a policy mode
    (UN, AA, AA1 or AA2) also where policy_fn is given: any other raises
    ValueError naming it.
    """
    step_count("steps", steps, 0)
    code = mode_code(mode)
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
    return n_steps, step_count("sample_every", sample_every, 1)


def step_count(name: str, value, least: int) -> int:
    """value, a count of steps: an integer >= least, as the engines count
    steps in ints; otherwise a ValueError naming it."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


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
    samples. With check_step_halving, the run is repeated at h/2 for its
    endpoint only (no record, so no warnings of its own), and the endpoint
    difference above 1e-6 is flagged (or raised under strict).
    """
    code = mode_code(mode)
    n_steps, sample_every = ct_steps(t_end, h, sample_every)
    samples, clamp_count, merge_step, stop_step = _run_kernel(
        state0, code, u, dyn, h, n_steps, sample_every, stop_tol
    )

    events: list[tuple[float, str]] = []
    if merge_step >= 0:
        events.append((merge_step * h, "merge"))
    if stop_step >= 0:
        events.append((stop_step * h, "stationary_stop"))
    steps, pa, pb = _columns(samples, 3)
    policy = policy_entries_array(code, pa, pb, state0.g_a, u.u0, u.u1)
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
        n_fine = ct_steps(t_end, h / 2.0)[0]
        # one sample stride: the samples are the start and the endpoint
        _, a, b = _run_kernel(state0, code, u, dyn, h / 2.0, n_fine, max(1, n_fine), 0.0)[0][-1]
        if a != a or b != b:
            raise _nan_state(a, b, f"at t={n_fine * (h / 2.0)} of the step-halving run")
        diff = max(abs(float(record.pi_a[-1]) - float(a)), abs(float(record.pi_b[-1]) - float(b)))
        record.extras["step_halving_diff"] = diff
        record.extras["step_halving_ok"] = diff <= 1e-6
        if diff > 1e-6:
            message = f"step-halving check failed: endpoint difference {diff:.3g}"
            if strict:
                raise StepHalvingError(message)
            warnings.warn(message, RuntimeWarning, stacklevel=2)
    return record


def _run_kernel(state0, code, u, dyn, h, n_steps, sample_every, stop_tol):
    """The kernel's run of ct_integrate's arguments, with the mode's code:
    (samples, clamp_count, merge_step, stop_step)."""
    return _kernels.ct_loop(
        state0.pi_a.p1,
        state0.pi_b.p1,
        state0.g_a,
        u.u0,
        u.u1,
        code,
        dyn.f0,
        dyn.f1,
        dyn.affine,
        h,
        n_steps,
        sample_every,
        MERGE_TOL,
        stop_tol,
    )


def ct_field(
    pa: np.ndarray, pb: np.ndarray, g_a: float, mode: str, u: UtilitySpec, dyn: DynamicsSpec
) -> tuple[np.ndarray, np.ndarray] | None:
    """ct_gradient at every point of the 1-D float arrays pa, pb, evaluated
    as arrays with the same bits; None when dyn.array_sample cannot vouch
    for every point, and the points must go through ct_gradient."""
    pa, pb = _clamp01_array(pa), _clamp01_array(pb)
    t1a, t0a, t1b, t0b, _ = policy_entries_array(mode_code(mode), pa, pb, g_a, u.u0, u.u1)
    maps_a = dyn.array_sample(t0a * (1.0 - pa), t1a * pa)
    maps_b = dyn.array_sample(t0b * (1.0 - pb), t1b * pb)
    if maps_a is None or maps_b is None:
        return None
    (f0a, f1a), (f0b, f1b) = maps_a, maps_b
    return ct_rate(pa, f1a, f0a), ct_rate(pb, f1b, f0b)
