"""The trajectory records against the per-sample recorder they replaced.

_reference_recorder, _reference_dt_trajectory and _reference_ct_integrate
are the engines as they were when every sample went through one recorder
closure: the policy, the selection rates, the step utility, the case tag and
the case_switch / advantage_swap events computed one sample at a time. The
engines now build each record from its columns as arrays; DT, CT and
stereotype runs must give the same record field for field (by repr, arrays
element by element), the same warnings from the same lines and the same
errors.
"""

import dataclasses
import inspect
import math
import warnings
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairdyn import (
    CaseSwitchError,
    DynamicsSpec,
    PopulationState,
    StepHalvingError,
    StereotypeSpec,
    TrajectoryRecord,
    UtilitySpec,
    affine_dynamics,
    appendix_c_dynamics,
    constant_dynamics,
    parse_dynamics,
    stereotype,
)
from fairdyn import _kernels, dynamics
from fairdyn.policy import CASE_TAGS, CASE_UN, MODE_CODES, policy_entries
from conftest import appendix_c_callbacks


def _reference_recorder(state0, mode, time_mode, u, events, strict, policy_fn=None):
    code = MODE_CODES[mode] if policy_fn is None else None
    ga, gb = state0.g_a, state0.g_b
    u0, u1 = u.u0, u.u1
    where = "at step {step}" if time_mode == "DT" else "near t={t}"
    rows = []
    case_tags = []
    flags = []
    prev_case = CASE_UN
    prev_delta = 0.0

    def mark(t, kind):
        events.append((t, kind))
        flags[-1] = f"{flags[-1]}|{kind}" if flags[-1] else kind

    def sample(step, t, pa, pb):
        nonlocal prev_case, prev_delta
        if pa != pa or pb != pb:
            message = f"NaN state (piA, piB) = ({pa!r}, {pb!r}) " + where.format(step=step, t=t)
            raise ValueError(message + ": a dynamics map returned NaN")
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

    def finish(clamp_count):
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
            mode=mode, time_mode=time_mode, times=times, pi_a=pas, pi_b=pbs,
            tau1_a=t1as, tau0_a=t0as, tau1_b=t1bs, tau0_b=t0bs,
            beta_a=betas_a, beta_b=betas_b, step_utility=utils, running_utility=running,
            cumulative_utility=cumulative, case_tags=case_tags, flags=flags, events=events,
            clamp_count=clamp_count, g_a=ga,
        )

    return sample, mark, finish


def _reference_dt_trajectory(state0, mode, u, dyn, steps, strict=False, policy_fn=None):
    if steps < 0:
        raise ValueError("steps must be >= 0")
    events = []
    sample, mark, finish = _reference_recorder(state0, mode, "DT", u, events, strict, policy_fn)
    pa, pb = state0.pi_a.p1, state0.pi_b.p1
    clamp_count = 0
    for t in range(steps + 1):
        b0a, b1a, b0b, b1b = sample(t, float(t), pa, pb)
        if t < steps:
            pa, ca = dynamics._dt_step_raw(pa, b0a, b1a, dyn)
            pb, cb = dynamics._dt_step_raw(pb, b0b, b1b, dyn)
            if ca or cb:
                mark(float(t), "clamp")
                clamp_count += ca + cb
    return finish(clamp_count)


def _reference_ct_integrate(
    state0, mode, u, dyn, t_end, h=1e-3, sample_every=None, check_step_halving=False,
    stop_tol=0.0, strict=False,
):
    n_steps, sample_every = dynamics.ct_steps(t_end, h, sample_every)
    samples, clamp_count, merge_step, stop_step = _kernels.ct_loop(
        state0.pi_a.p1, state0.pi_b.p1, state0.g_a, u.u0, u.u1, MODE_CODES[mode],
        dyn.f0, dyn.f1, dyn.affine, h, n_steps, sample_every, dynamics.MERGE_TOL, stop_tol,
    )
    events = []
    if merge_step >= 0:
        events.append((merge_step * h, "merge"))
    if stop_step >= 0:
        events.append((stop_step * h, "stationary_stop"))
    sample, _, finish = _reference_recorder(state0, mode, "CT", u, events, strict)
    for step, pa, pb in samples:
        sample(step, step * h, pa, pb)
    record = finish(clamp_count)
    if check_step_halving:
        # the h/2 run's endpoint, with no record and so no warnings
        n_fine, _ = dynamics.ct_steps(t_end, h / 2.0)
        fine = _kernels.ct_loop(
            state0.pi_a.p1, state0.pi_b.p1, state0.g_a, u.u0, u.u1, MODE_CODES[mode],
            dyn.f0, dyn.f1, dyn.affine, h / 2.0, n_fine, 1, dynamics.MERGE_TOL, 0.0,
        )[0][-1]
        if math.isnan(fine[1]) or math.isnan(fine[2]):
            raise ValueError(
                f"NaN state (piA, piB) = ({fine[1]!r}, {fine[2]!r}) at t={n_fine * (h / 2.0)} "
                "of the step-halving run: a dynamics map returned NaN"
            )
        diff = max(abs(float(record.pi_a[-1]) - float(fine[1])), abs(float(record.pi_b[-1]) - float(fine[2])))
        record.extras["step_halving_diff"] = diff
        record.extras["step_halving_ok"] = diff <= 1e-6
        if diff > 1e-6:
            if strict:
                raise StepHalvingError(f"step-halving check failed: endpoint difference {diff:.3g}")
            warnings.warn(
                f"step-halving check failed: endpoint difference {diff:.3g}",
                RuntimeWarning,
                stacklevel=2,
            )
    return record


def _lines(fn):
    """(file, first line, last line) of a function's source."""
    source, first = inspect.getsourcelines(fn)
    return inspect.getsourcefile(fn), first, first + len(source) - 1


# A warning from ct_integrate (or its reference) that names a line in it.
_INTEGRATORS = [_lines(dynamics.ct_integrate), _lines(_reference_ct_integrate)]


def _where(w):
    for path, first, last in _INTEGRATORS:
        if w.filename == path and first <= w.lineno <= last:
            return "inside ct_integrate"
    return w.filename, w.lineno


def _value(x):
    if isinstance(x, np.ndarray):
        return type(x), x.dtype, x.shape, repr(x.tolist())
    if isinstance(x, dict):
        return {k: _value(v) for k, v in x.items()}
    return repr(x)


def _call(run, *args, **kwargs):
    # the one line every engine is called from, so warnings name one line
    return run(*args, **kwargs)


def _outcome(run, *args, **kwargs):
    """The record's fields, or the error's class and message; and the
    warnings, each by text, category and the file and line it names."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            record = _call(run, *args, **kwargs)
        except Exception as exc:  # compared by class and message
            result = type(exc), str(exc)
        else:
            result = {f.name: _value(getattr(record, f.name)) for f in dataclasses.fields(record)}
    return result, [(str(w.message), w.category, _where(w)) for w in caught]


def _nan_above(threshold):
    return DynamicsSpec(
        f0=lambda b0, b1: 0.2,
        f1=lambda b0, b1: math.nan if b1 > threshold else 0.8,
        name="nan",
    )


_COEF = st.floats(-1.0, 1.0, allow_nan=False) | st.sampled_from([0.0, -0.0, 0.5, 2.0])
_DYNAMICS = st.one_of(
    st.lists(_COEF, min_size=6, max_size=6).map(lambda c: affine_dynamics(*c)),
    st.lists(_COEF, min_size=6, max_size=6).map(
        lambda c: dataclasses.replace(affine_dynamics(*c), affine=None)
    ),
    st.tuples(_COEF, _COEF).map(lambda v: constant_dynamics(*v)),
    st.just(appendix_c_dynamics()),
    st.just(appendix_c_callbacks()),
    st.tuples(_COEF, _COEF, _COEF).map(
        lambda c: parse_dynamics(f"{c[0]!r} + {c[1]!r}*b0", f"0.6 + {c[2]!r}*sin(9*(b0 + b1))")
    ),
    st.floats(0.0, 1.0).map(_nan_above),
)
_PROB = st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, 0.5])
_EPS = st.sampled_from([0.0, 0.01, -0.01]) | st.floats(-0.05, 0.05)
# switches case and swaps advantage at once under AA, in DT and at h = 3 in CT
SWAPPING = affine_dynamics(
    -0.9388200339328929, -0.9491082780130784, 0.08282494558699316,
    0.8782983255570211, -0.23759152462357513, -0.5668012057387732,
)
CT_SWAP = ((0.7258526014465152, 0.5276294143623982, 0.7), (-2.0, 1.0))
DT_SWAP = ((0.9, 0.1, 0.7), (-2.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(
    engine=st.sampled_from(["CT", "DT", "stereotype"]),
    dyn=_DYNAMICS,
    state=st.tuples(_PROB, _PROB, st.floats(0.01, 0.99) | st.sampled_from([0.3, 0.7])),
    equal_start=st.booleans(),
    numpy_state=st.booleans(),
    utility=st.tuples(st.floats(-2.0, 0.0), st.floats(0.0, 2.0)) | st.just((-2.0, 1.0)),
    mode=st.sampled_from(list(MODE_CODES)),
    h=st.sampled_from([0.01, 0.1, 0.5, 1.0, 3.0]),
    steps=st.integers(0, 60),
    sample_every=st.none() | st.integers(1, 10),
    stop_tol=st.sampled_from([0.0, 1e-9, 1e-4, 1e-2]),
    halving=st.booleans(),
    strict=st.booleans(),
    eps=st.tuples(_EPS, _EPS),
)
@example(  # a case switch and an advantage swap at one CT sample
    engine="CT", dyn=SWAPPING, state=CT_SWAP[0], equal_start=False, numpy_state=False,
    utility=CT_SWAP[1], mode="AA", h=3.0, steps=30, sample_every=1, stop_tol=0.0,
    halving=False, strict=False, eps=(0.0, 0.0),
)
@example(  # the same, strict
    engine="CT", dyn=SWAPPING, state=CT_SWAP[0], equal_start=False, numpy_state=True,
    utility=CT_SWAP[1], mode="AA", h=3.0, steps=30, sample_every=None, stop_tol=0.0,
    halving=False, strict=True, eps=(0.0, 0.0),
)
@example(  # the halving check's inner run switches case too, and does not warn again
    engine="CT", dyn=SWAPPING, state=CT_SWAP[0], equal_start=False, numpy_state=False,
    utility=CT_SWAP[1], mode="AA", h=3.0, steps=30, sample_every=2, stop_tol=0.0,
    halving=True, strict=False, eps=(0.0, 0.0),
)
@example(  # DT: case switch, advantage swap and clamps, each flagged on its step
    engine="DT", dyn=SWAPPING, state=DT_SWAP[0], equal_start=False, numpy_state=False,
    utility=DT_SWAP[1], mode="AA", h=0.1, steps=40, sample_every=None, stop_tol=0.0,
    halving=False, strict=False, eps=(0.0, 0.0),
)
@example(  # the DT case switch of test_dynamics, strict
    engine="DT", dyn=affine_dynamics(0.2, 0.9, 0.0, 0.9, 0.0, 0.0), state=DT_SWAP[0],
    equal_start=False, numpy_state=False, utility=DT_SWAP[1], mode="AA", h=0.1, steps=40,
    sample_every=None, stop_tol=0.0, halving=False, strict=True, eps=(0.0, 0.0),
)
@example(  # a stereotype run that switches case
    engine="stereotype", dyn=affine_dynamics(0.2, 0.9, 0.0, 0.9, 0.0, 0.0), state=DT_SWAP[0],
    equal_start=False, numpy_state=False, utility=DT_SWAP[1], mode="AA", h=0.1, steps=40,
    sample_every=None, stop_tol=0.0, halving=False, strict=False, eps=(0.0, 0.0),
)
@example(  # NaN from a callback after the first step, in every engine
    engine="CT", dyn=_nan_above(0.5), state=(0.9, 0.7, 0.5), equal_start=False,
    numpy_state=True, utility=(-1.0, 1.0), mode="UN", h=0.01, steps=50, sample_every=1,
    stop_tol=0.0, halving=False, strict=False, eps=(0.0, 0.0),
)
@example(
    engine="DT", dyn=_nan_above(0.5), state=(0.9, 0.7, 0.5), equal_start=False,
    numpy_state=False, utility=(-1.0, 1.0), mode="AA", h=0.01, steps=5, sample_every=1,
    stop_tol=0.0, halving=False, strict=False, eps=(0.0, 0.0),
)
@example(
    engine="stereotype", dyn=_nan_above(0.5), state=(0.9, 0.7, 0.5), equal_start=False,
    numpy_state=False, utility=(-1.0, 1.0), mode="UN", h=0.01, steps=5, sample_every=1,
    stop_tol=0.0, halving=False, strict=False, eps=(0.0, 0.0),
)
@example(  # a case switch warns before a later NaN state raises
    engine="CT", dyn=dataclasses.replace(
        SWAPPING, f1=lambda b0, b1: math.nan if b1 > 0.6 else SWAPPING.f1(b0, b1), affine=None
    ), state=CT_SWAP[0], equal_start=False, numpy_state=False, utility=CT_SWAP[1], mode="AA",
    h=3.0, steps=30, sample_every=1, stop_tol=0.0, halving=False, strict=False, eps=(0.0, 0.0),
)
@example(  # appendixC under AA: merges, then stops
    engine="CT", dyn=appendix_c_dynamics(), state=(0.9, 0.2, 0.4), equal_start=False,
    numpy_state=False, utility=(-1.0, 1.0), mode="AA", h=0.5, steps=60, sample_every=3,
    stop_tol=1e-4, halving=True, strict=False, eps=(0.0, 0.0),
)
@example(  # starts at the fixed point of constant dynamics: the kernel exits at step 1
    engine="CT", dyn=constant_dynamics(0.2, 0.8), state=(0.5, 0.5, 0.5), equal_start=True,
    numpy_state=False, utility=(-1.0, 1.0), mode="AA2", h=0.1, steps=50, sample_every=7,
    stop_tol=0.0, halving=False, strict=False, eps=(0.0, 0.0),
)
def test_records_match_reference(
    engine, dyn, state, equal_start, numpy_state, utility, mode, h, steps, sample_every,
    stop_tol, halving, strict, eps,
):
    pa, pb, ga = map(np.float64, state) if numpy_state else state
    state0 = PopulationState.of(pa, pa if equal_start else pb, ga)
    u = UtilitySpec(*utility)
    if engine == "CT":
        kwargs = dict(
            t_end=steps * h, h=h, sample_every=sample_every, check_step_halving=halving,
            stop_tol=stop_tol, strict=strict,
        )
        ours = _outcome(dynamics.ct_integrate, state0, mode, u, dyn, **kwargs)
        ref = _outcome(_reference_ct_integrate, state0, mode, u, dyn, **kwargs)
    elif engine == "DT":
        ours = _outcome(dynamics.dt_trajectory, state0, mode, u, dyn, steps, strict=strict)
        ref = _outcome(_reference_dt_trajectory, state0, mode, u, dyn, steps, strict=strict)
    else:
        args = (state0, mode, u, dyn, StereotypeSpec(*eps), steps)
        ours = _outcome(stereotype.stereotype_trajectory, *args, strict=strict)
        with mock.patch.object(stereotype, "dt_trajectory", _reference_dt_trajectory):
            ref = _outcome(stereotype.stereotype_trajectory, *args, strict=strict)
    assert ours == ref
