"""The generated RK4 kernel against the hand-written kernel it replaced.

_reference_ct_loop and _reference_policy are the kernel and the closed form
as they were written out by hand (one deriv closure calling the policy at
every stage, inline affine evaluation, f0/f1 calls otherwise); the generated
kernel must give the same samples, clamp count and events bit for bit, and
raise the same errors.
"""

import dataclasses
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairdyn import (
    DynamicsSpec,
    Scenario,
    UtilitySpec,
    ExpressionEvaluationError,
    affine_dynamics,
    appendix_c_dynamics,
    constant_dynamics,
    parse_dynamics,
)
from fairdyn import _kernels, _loops_py, dynamics
from fairdyn import expr
from fairdyn.expr import AFFINE_SHAPE, compile_expression, ExpressionSyntaxError, interval
from fairdyn.policy import policy_entries
from conftest import appendix_c_callbacks
import goldens

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
# The shipped expression_ct scenario's maps, and the affine tuple perfbench's
# probe times: both maps of each are certified.
_EXPRESSION_CT = parse_dynamics("0.2 + 0.05*b0", "0.8 - 0.02*b1")
_PROBE_AFFINE = affine_dynamics(0.1, 0.05, 0.2, 0.6, -0.1, 0.3)


def _reference_policy(mode, pa, pb, ga, u0, u1):
    if mode == 0:
        return (1.0, 0.0, 1.0, 0.0, 0)
    adv_is_a = pa >= pb
    if mode == 1:
        g_adv = ga if adv_is_a else 1.0 - ga
        s = g_adv * u1 + (1.0 - g_adv) * u0
        case = 1 if s < 0.0 else 2
    elif mode == 2:
        case = 1
    else:
        case = 2
    pi_adv = pa if adv_is_a else pb
    pi_dis = pb if adv_is_a else pa
    if case == 1:
        t1_adv = pi_dis / pi_adv if pi_adv > 0.0 else 1.0
        t0_adv = 0.0
        t1_dis = 1.0
        t0_dis = 0.0
    else:
        t1_adv = 1.0
        t0_adv = 0.0
        t1_dis = 1.0
        t0_dis = (pi_adv - pi_dis) / (1.0 - pi_dis) if pi_dis < 1.0 else 0.0
    if adv_is_a:
        return (t1_adv, t0_adv, t1_dis, t0_dis, case)
    return (t1_dis, t0_dis, t1_adv, t0_adv, case)


def _reference_ct_loop(
    pa, pb, ga, u0, u1, mode, f0, f1, affine, h, n_steps, sample_every, merge_tol, stop_tol
):
    use_affine = affine is not None
    if use_affine:
        a0, c0, d0, a1, c1, d1 = affine

    clamp_count = 0
    merged = False
    merge_step = -1
    stop_step = -1

    def deriv(xa, xb):
        nonlocal clamp_count
        if xa < 0.0:
            xa = 0.0
        elif xa > 1.0:
            xa = 1.0
        if xb < 0.0:
            xb = 0.0
        elif xb > 1.0:
            xb = 1.0
        t1a, t0a, t1b, t0b, _ = _reference_policy(mode, xa, xb, ga, u0, u1)
        b0a = t0a * (1.0 - xa)
        b1a = t1a * xa
        b0b = t0b * (1.0 - xb)
        b1b = t1b * xb
        if use_affine:
            f1a = a1 + c1 * b0a + d1 * b1a
            f0a = a0 + c0 * b0a + d0 * b1a
            f1b = a1 + c1 * b0b + d1 * b1b
            f0b = a0 + c0 * b0b + d0 * b1b
        else:
            f1a = f1(b0a, b1a)
            f0a = f0(b0a, b1a)
            f1b = f1(b0b, b1b)
            f0b = f0(b0b, b1b)
        if f1a < 0.0:
            f1a = 0.0
            clamp_count += 1
        elif f1a > 1.0:
            f1a = 1.0
            clamp_count += 1
        if f0a < 0.0:
            f0a = 0.0
            clamp_count += 1
        elif f0a > 1.0:
            f0a = 1.0
            clamp_count += 1
        if f1b < 0.0:
            f1b = 0.0
            clamp_count += 1
        elif f1b > 1.0:
            f1b = 1.0
            clamp_count += 1
        if f0b < 0.0:
            f0b = 0.0
            clamp_count += 1
        elif f0b > 1.0:
            f0b = 1.0
            clamp_count += 1
        da = xa * (f1a - 1.0) + (1.0 - xa) * f0a
        db = xb * (f1b - 1.0) + (1.0 - xb) * f0b
        return da, db

    def deriv_merged(x):
        nonlocal clamp_count
        if x < 0.0:
            x = 0.0
        elif x > 1.0:
            x = 1.0
        if use_affine:
            f1v = a1 + d1 * x
            f0v = a0 + d0 * x
        else:
            f1v = f1(0.0, x)
            f0v = f0(0.0, x)
        if f1v < 0.0:
            f1v = 0.0
            clamp_count += 1
        elif f1v > 1.0:
            f1v = 1.0
            clamp_count += 1
        if f0v < 0.0:
            f0v = 0.0
            clamp_count += 1
        elif f0v > 1.0:
            f0v = 1.0
            clamp_count += 1
        return x * (f1v - 1.0) + (1.0 - x) * f0v

    samples = [(0, pa, pb)]
    half = 0.5 * h
    sixth = h / 6.0

    step = 0
    while step < n_steps:
        if not merged and abs(pa - pb) < merge_tol:
            merged = True
            merge_step = step
            pm = 0.5 * (pa + pb)
            pa = pm
            pb = pm
        if merged:
            k1 = deriv_merged(pa)
            if stop_tol > 0.0 and abs(k1) < stop_tol:
                stop_step = step
                break
            k2 = deriv_merged(pa + half * k1)
            k3 = deriv_merged(pa + half * k2)
            k4 = deriv_merged(pa + h * k3)
            pa = pa + sixth * (k1 + 2.0 * (k2 + k3) + k4)
            if pa < 0.0:
                pa = 0.0
            elif pa > 1.0:
                pa = 1.0
            pb = pa
        else:
            k1a, k1b = deriv(pa, pb)
            if stop_tol > 0.0 and abs(k1a) < stop_tol and abs(k1b) < stop_tol:
                stop_step = step
                break
            k2a, k2b = deriv(pa + half * k1a, pb + half * k1b)
            k3a, k3b = deriv(pa + half * k2a, pb + half * k2b)
            k4a, k4b = deriv(pa + h * k3a, pb + h * k3b)
            pa = pa + sixth * (k1a + 2.0 * (k2a + k3a) + k4a)
            pb = pb + sixth * (k1b + 2.0 * (k2b + k3b) + k4b)
            if pa < 0.0:
                pa = 0.0
            elif pa > 1.0:
                pa = 1.0
            if pb < 0.0:
                pb = 0.0
            elif pb > 1.0:
                pb = 1.0
        step += 1
        if step % sample_every == 0 or step == n_steps:
            samples.append((step, pa, pb))

    if stop_step >= 0 and samples[-1][0] != step:
        samples.append((step, pa, pb))

    return samples, clamp_count, merge_step, stop_step


def _examples(varying, **fixed):
    """One hypothesis @example per dict of `varying` arguments, each with
    the `fixed` ones."""

    def decorate(test):
        for args in reversed(varying):
            test = example(**fixed, **args)(test)
        return test

    return decorate


def _outcome(kernel, args):
    try:
        return repr(kernel(*args))
    except Exception as exc:  # compared by class and message
        return type(exc), str(exc)


_COEF = st.floats(-0.6, 0.6, allow_nan=False) | st.sampled_from(
    [0.0, -0.0, 0.5, -0.5, 2.0, 1e308, -1e308]  # 1e308 sums overflow to inf
)
# Expression shapes over signed literals {0}..{3}: sums, functions, powers
# with negated bases and exponents (a negative {2} makes the last one
# complex), division and min/max.
_SHAPES = [
    "{0} + {1}*b0 + {2}*b1",
    "{0} - {1}*b0 - -{2}*b1",
    "{0} + {1}*sin({2}*(b0 + b1)) + {3}*exp(-b1)",
    "{0} + {1}*(-b1)^2 + {2}*b0",
    "{0} + {1}*b1^-{2}",
    "{0} + -{1}^2*b1 + {2}*b0",
    "{0} + {1}*(b0 - 0.5)^{2}",
    "{0} + {1}*(b1 - {2})^-0.5",
    "min(0.9, max(0.1, {0} + {1}*b1)) + {2}*abs(b0 - b1)",
    "({0} + {1}*b1)/({2} + b0)",
    "{0}*b1*b1 + {1}*cos({2}*b0) + {3}",
    "{0} + {1}*b1*({2})^0.5",
]
_EXPRESSIONS = st.builds(
    lambda shape, coef: shape.format(*map(repr, coef)),
    st.sampled_from(_SHAPES),
    st.lists(_COEF, min_size=4, max_size=4),
)


def _callback(coef):
    return dataclasses.replace(affine_dynamics(*coef), affine=None)


def _mixed(source):
    return DynamicsSpec(f0=compile_expression(source), f1=appendix_c_callbacks().f1)


_OTHER_DYNAMICS = st.one_of(
    st.lists(_COEF, min_size=6, max_size=6).map(lambda c: affine_dynamics(*c)),
    st.lists(_COEF, min_size=6, max_size=6).map(_callback),
    st.tuples(_COEF, _COEF).map(lambda v: constant_dynamics(*v)),
    st.just(appendix_c_dynamics()),
    st.just(appendix_c_callbacks()),
    _EXPRESSIONS.map(_mixed),
)
# half of them parsed expressions, the form with the most generated code
_DYNAMICS = st.booleans().flatmap(
    lambda parsed: st.builds(parse_dynamics, _EXPRESSIONS, _EXPRESSIONS) if parsed else _OTHER_DYNAMICS
)
_PROB = st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, 0.5])


@settings(max_examples=300, deadline=None)
@given(
    dyn=_DYNAMICS,
    state=st.tuples(_PROB, _PROB, st.floats(0.01, 0.99)),
    equal_start=st.booleans(),
    numpy_state=st.booleans(),
    utility=st.tuples(st.floats(-2.0, 0.0), st.floats(0.0, 2.0)),
    mode=st.sampled_from([0, 1, 2, 3]),
    h=st.sampled_from([0.01, 0.1, 0.5, 1.5]),
    n_steps=st.integers(0, 200),
    sample_every=st.integers(1, 40),
    merge_tol=st.sampled_from([0.0, 1e-10, 1e-3, 0.2]),
    stop_tol=st.sampled_from([0.0, 1e-9, 1e-4, 1e-2]),
)
@example(  # appendixC expression under AA, merging, then stopping
    dyn=parse_dynamics(
        "(b1 + b1/5)/1.2 + 0.01",
        "0.5*(b1 + b1/5)/1.4 + exp(-0.000000001*(b0+b1))*sin(18*(b0+b1)) + 0.1",
    ),
    state=(0.9, 0.2, 0.4), equal_start=False, numpy_state=False, utility=(-1.0, 1.0),
    mode=1, h=0.05, n_steps=200, sample_every=7, merge_tol=1e-3, stop_tol=1e-9,
)
@example(  # f1 is complex at zero: it fails before f0's 0^-0.5 warns
    dyn=parse_dynamics("0.0 + 0.0*(b1 - 0.0)^-0.5", "0.0 + 0.0*b1*(-0.5)^0.5"),
    state=(0.0, 0.0, 0.5), equal_start=False, numpy_state=True, utility=(-1.0, 1.0),
    mode=0, h=0.01, n_steps=1, sample_every=1, merge_tol=0.0, stop_tol=0.0,
)
@example(  # negated powers of literals: -0.7^2 is -(0.7^2), the exponent folds
    dyn=parse_dynamics("0.5 + -0.7^2*b1 + 0.1*b0", "0.6 + -0.2*b1^-0.5"),
    state=(0.9, 0.2, 0.5), equal_start=False, numpy_state=False, utility=(-1.0, 1.0),
    mode=0, h=0.1, n_steps=20, sample_every=1, merge_tol=1e-10, stop_tol=0.0,
)
@_examples(  # mode AA with both AA tests true (AA1), both false (AA2) or one each
    [dict(utility=u) for u in ((-1.0, 1.0), (-2.0, 0.1), (-1.0, 0.0), (-0.1, 2.0), (0.0, 1.0), (0.0, 0.0))],
    dyn=_EXPRESSION_CT, state=(0.7, 0.2, 0.4), equal_start=False, numpy_state=False,
    mode=1, h=0.1, n_steps=100, sample_every=3, merge_tol=1e-3, stop_tol=0.0,
)
def test_kernel_matches_reference(
    dyn, state, equal_start, numpy_state, utility, mode, h, n_steps, sample_every, merge_tol,
    stop_tol,
):
    pa, pb, ga = map(np.float64, state) if numpy_state else state  # numpy's complex128 compares
    pb = pa if equal_start else pb
    args = (
        pa, pb, ga, *utility, mode, dyn.f0, dyn.f1, dyn.affine,
        h, n_steps, sample_every, merge_tol, stop_tol,
    )
    assert _outcome(_loops_py.ct_loop, args) == _outcome(_reference_ct_loop, args)


@settings(max_examples=300, deadline=None)
@given(
    pa=_PROB | st.just(math.nan),
    pb=_PROB | st.just(math.nan),
    ga=st.floats(0.01, 0.99) | st.just(0.5),
    utility=st.tuples(st.floats(-2.0, 0.0), st.floats(0.0, 2.0)) | st.just((-1.0, 1.0)),
)
def test_policy_entries_match_reference(pa, pb, ga, utility):
    """policy_entries is compiled from the closed form's source, like the
    kernel's stages: every mode (and an unknown code, which is AA2)."""
    for mode in (0, 1, 2, 3, 7):
        for x, y in ((pa, pb), (pb, pa), (pa, pa)):
            expected = _reference_policy(mode, x, y, ga, *utility)
            assert repr(policy_entries(mode, x, y, ga, *utility)) == repr(expected)


# Expression dynamics that fail mid-run, each with its start (piA, piB) and
# the reason the failing point names: x falls below 0.5 and the divisor
# max(0, b1 - 0.5) is zero, or the power is complex; x passes 0.8872 and
# exp(800*b1) overflows.
MID_RUN_FAILURES = [
    (("0.1", "0.3 + 1e-300/max(0, b1 - 0.5)"), (0.9, 0.8), "ZeroDivisionError"),
    (("0.1", "0.3 + 0.1*(b1 - 0.5)^0.5"), (0.9, 0.8), "complex value"),
    (("0.9", "0.95 + 1e-300*exp(800*b1)"), (0.5, 0.4), "OverflowError"),
]


@pytest.mark.parametrize("sources, start, reason", MID_RUN_FAILURES)
@pytest.mark.parametrize("mode", [0, 1, 3])
@pytest.mark.parametrize("merge_tol", [0.0, 1e-10])
def test_mid_run_errors_match_reference(sources, start, reason, mode, merge_tol):
    dyn = parse_dynamics(*sources)
    head = (*start, 0.5, -1.0, 1.0, mode, dyn.f0, dyn.f1, None, 0.1)
    # the first ten steps run
    assert _outcome(_loops_py.ct_loop, (*head, 10, 1, merge_tol, 0.0)) == _outcome(
        _reference_ct_loop, (*head, 10, 1, merge_tol, 0.0)
    )
    with pytest.raises(ExpressionEvaluationError) as exc:
        _loops_py.ct_loop(*head, 2000, 1, merge_tol, 0.0)
    with pytest.raises(ExpressionEvaluationError) as expected:
        _reference_ct_loop(*head, 2000, 1, merge_tol, 0.0)
    assert str(exc.value) == str(expected.value)
    assert reason in str(exc.value)


def _counting(dyn):
    """dyn's maps as callbacks that count their calls, into the returned list."""
    calls = [0]

    def wrap(f):
        def counted(b0, b1):
            calls[0] += 1
            return f(b0, b1)

        return counted

    return wrap(dyn.f0), wrap(dyn.f1), calls


def _fixed_point_outcomes(dyn, args):
    """(kernel outcome, reference outcome, kernel map calls, reference map
    calls) for ct_loop arguments without the maps and affine."""
    runs = []
    for kernel in (_loops_py.ct_loop, _reference_ct_loop):
        f0, f1, calls = _counting(dyn)
        head, tail = args[:6], args[6:]
        runs.append((_outcome(kernel, (*head, f0, f1, None, *tail)), calls[0]))
    (ours, our_calls), (ref, ref_calls) = runs
    return ours, ref, our_calls, ref_calls


@pytest.mark.parametrize("mode", [0, 1, 2, 3])
def test_fixed_point_exit_appendix_c(mode):
    """The shipped appendixC scenario's run (t_end 100, h 0.01, one sample in
    100) becomes a bitwise fixed point of the step long before step 10,000:
    the kernel stops calling the maps there and returns the reference's
    samples and counts."""
    args = (0.95, 0.05, 0.5, -1.0, 1.0, mode, 0.01, 10_000, 100, 1e-10, 0.0)
    ours, ref, our_calls, ref_calls = _fixed_point_outcomes(appendix_c_dynamics(), args)
    assert ours == ref
    assert our_calls < ref_calls


@pytest.mark.parametrize("start", [(0.9, 0.2), (0.4, 0.4)])
@pytest.mark.parametrize("inline", [True, False])
def test_fixed_point_exit_counts_the_clamps_of_every_step(start, inline):
    """Both maps clamp at every evaluation and the state never moves: the
    clamp count is that of all n_steps steps, 16 per unmerged step and 8
    per merged one, though only the first step runs."""
    dyn = constant_dynamics(-0.5, 1.5)
    n_steps = 1000
    f0, f1, calls = _counting(dyn)
    args = (*start, 0.5, -1.0, 1.0, 1, f0, f1, dyn.affine if inline else None,
            0.1, n_steps, 7, 1e-10, 0.0)
    result = _loops_py.ct_loop(*args)
    merged = start[0] == start[1]
    assert calls[0] == (0 if inline else (8 if merged else 16))
    assert result[1] == (8 if merged else 16) * n_steps
    assert repr(result) == repr(_reference_ct_loop(*args))


@pytest.mark.parametrize("n_steps, sample_every", [(1000, 7), (1000, 1), (1000, 1000), (999, 10), (5, 9), (1, 3)])
def test_fixed_point_exit_samples_like_reference(n_steps, sample_every):
    """The samples after the fixed point follow the stride, end with the
    n_steps sample and have no duplicate, whether or not the stride divides
    the remaining steps."""
    dyn = parse_dynamics("0.2", "0.7")  # settles at 0.4 within the run
    for start in ((0.9, 0.1), (0.4, 0.4)):
        args = (*start, 0.5, -1.0, 1.0, 0, dyn.f0, dyn.f1, None, 0.5, n_steps, sample_every, 0.0, 0.0)
        assert _outcome(_loops_py.ct_loop, args) == _outcome(_reference_ct_loop, args)
        samples = _loops_py.ct_loop(*args)[0]
        assert samples[-1][0] == n_steps
        assert len({step for step, _, _ in samples}) == len(samples)


def test_fixed_point_exit_does_not_stop_a_moving_state():
    """A derivative far above stop_tol that is too small to move the state:
    the state is fixed, the stop test never fires, and the kernel ends the
    run at the first step as the reference would run it out."""
    dyn = constant_dynamics(1e-20, 1.0)
    stop_tol = 1e-25
    args = (0.5, 0.2, 0.5, -1.0, 1.0, 0, 0.01, 500, 3, 1e-10, stop_tol)
    ours, ref, our_calls, ref_calls = _fixed_point_outcomes(dyn, args)
    assert ours == ref
    assert (our_calls, ref_calls) == (16, 16 * 500)
    assert abs(dynamics.ct_gradient(0.5, 0.2, 0.5, "UN", UtilitySpec(-1.0, 1.0), dyn)[0]) >= stop_tol


def test_fixed_point_exit_tells_signed_zeros_apart():
    """From piA = -0.0, f1 clamps while b1 is -0.0, and the first step moves
    piA to +0.0, equal as a number but not as a value: the steps after it
    clamp nothing, so an exit on numeric equality would count a clamp per
    step."""

    def f1(b0, b1):
        return 1.5 if math.copysign(1.0, b1) < 0.0 else 1.0

    dyn = DynamicsSpec(f0=lambda b0, b1: 0.0, f1=f1, name="signed zero")
    args = (-0.0, 1.0, 0.5, -1.0, 1.0, 0, 0.01, 200, 1, 1e-10, 0.0)
    ours, ref, our_calls, ref_calls = _fixed_point_outcomes(dyn, args)
    assert ours == ref
    assert ours.startswith("([(0, -0.0, 1.0), (1, 0.0, 1.0), (2, 0.0, 1.0)")
    assert ours.endswith(", 1, -1, -1)")
    assert our_calls == 2 * 16 < ref_calls


def test_fixed_point_exit_tells_float_types_apart():
    """A map that returns numpy floats turns the state (0.0, 0.0) into
    numpy's (0.0, 0.0) at the first step: the same bits, but the maps now
    see numpy floats, and f1 here, like numpy's warnings, tells them apart.
    The steps after it clamp nothing."""

    def f1(b0, b1):
        return 1.5 if type(b1) is float else 0.5

    dyn = DynamicsSpec(f0=lambda b0, b1: np.float64(0.0), f1=f1, name="float types")
    args = (0.0, 0.0, 0.5, -1.0, 1.0, 0, 0.01, 200, 1, 0.0, 0.0)
    ours, ref, our_calls, ref_calls = _fixed_point_outcomes(dyn, args)
    assert ours == ref
    assert ours.endswith(", 2, -1, -1)")
    assert our_calls == 2 * 16 < ref_calls


def test_fixed_point_exit_never_matches_nan():
    """A NaN state compares unequal to itself: the kernel runs every step."""
    dyn = DynamicsSpec(f0=lambda b0, b1: 0.2, f1=lambda b0, b1: math.nan, name="nan")
    for mode in (0, 1, 2, 3):
        args = (0.9, 0.7, 0.5, -1.0, 1.0, mode, 0.01, 300, 7, 1e-10, 0.0)
        ours, ref, our_calls, ref_calls = _fixed_point_outcomes(dyn, args)
        assert ours == ref and "nan" in ours
        assert our_calls == ref_calls == 16 * 300


def test_nan_callback_flows_like_reference():
    nan_above = DynamicsSpec(
        f0=lambda b0, b1: 0.2, f1=lambda b0, b1: math.nan if b1 > 0.5 else 0.8, name="nan"
    )
    for mode in (0, 1, 2, 3):
        args = (0.9, 0.7, 0.5, -1.0, 1.0, mode, nan_above.f0, nan_above.f1, None, 0.01, 50, 1, 1e-10, 0.0)
        result = _loops_py.ct_loop(*args)
        assert math.isnan(result[0][1][1])
        assert _outcome(_loops_py.ct_loop, args) == _outcome(_reference_ct_loop, args)


def test_too_deep_expression_integrates_through_calls():
    """The deepest '-' chain compile_expression accepts is too deep for
    CPython's compiler inside the kernel: the kernel then calls the maps."""

    def compiles(n):
        try:
            compile_expression("-".join(["b1"] * n))
        except ExpressionSyntaxError:
            return False
        return True

    lo, hi = 1, 20_000
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if compiles(mid) else (lo, mid - 1)
    dyn = parse_dynamics("0.5", "-".join(["b1"] * lo))
    args = (0.9, 0.2, 0.5, -1.0, 1.0, 0, dyn.f0, dyn.f1, None, 0.1, 20, 1, 1e-10, 0.0)
    assert _outcome(_loops_py.ct_loop, args) == _outcome(_reference_ct_loop, args)
    forms = [(f.shape, "check") for f in (dyn.f0, dyn.f1)]
    assert _loops_py._kernel(0, *forms) is _loops_py._kernel(0, *_loops_py._CALLS)


def test_kernel_sources_are_the_goldens():
    """The kernel sources ct_loop generates for goldens.KERNEL_DYNAMICS in
    every mode, from float and float32 starts, are byte for byte the ones
    pinned in goldens.json."""
    assert goldens.kernel_sources() == json.loads(goldens.TABLE.read_text())[goldens.KERNEL_SOURCES]


def test_kernel_entry_point_contract():
    """perfbench rebinds _kernels.ct_loop and binds ct_loop's arguments by
    name: both stay as they are."""
    assert _kernels.ct_loop is _loops_py.ct_loop
    assert list(inspect.signature(_loops_py.ct_loop).parameters) == [
        "pa", "pb", "ga", "u0", "u1", "mode", "f0", "f1", "affine",
        "h", "n_steps", "sample_every", "merge_tol", "stop_tol",
    ]


# -- certified maps: the kernel without the maps' clamps and checks ---------

# The states a stage can clamp its state to, with the edge cases of [0, 1]:
# signed zero, the least subnormal and the float below 1.
_CLAMPED = st.floats(0.0, 1.0) | st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1 - 1e-16])


@settings(max_examples=300, deadline=None)
@given(
    pa=_CLAMPED,
    pb=_CLAMPED,
    tie=st.booleans(),
    ga=st.floats(0.0, 1.0) | st.just(math.nan),
    utility=st.tuples(st.floats(-2.0, 0.0), st.floats(0.0, 2.0)) | st.just((0.0, 0.0)),
)
@example(pa=1.0, pb=1 - 1e-16, tie=False, ga=0.5, utility=(-1.0, 1.0))
@example(pa=5e-324, pb=-0.0, tie=False, ga=0.5, utility=(-1.0, 1.0))
def test_rates_of_a_clamped_state_lie_in_the_unit_cell(pa, pb, tie, ga, utility):
    """The premise of the certified kernel: at any state in [0, 1]^2, every
    mode's taus lie in [0, 1], and so do the rates tau0*(1 - x) and tau1*x
    as the kernel's stages compute them."""
    pb = pa if tie else pb
    for mode in (0, 1, 2, 3):
        t1a, t0a, t1b, t0b, _ = policy_entries(mode, pa, pb, ga, *utility)
        rates = (t0a * (1.0 - pa), t1a * pa, t0b * (1.0 - pb), t1b * pb)
        for value in (t1a, t0a, t1b, t0b, *rates):
            assert 0.0 <= value <= 1.0, (mode, pa, pb)


def _certified_maps(dyn) -> bool:
    """Whether both of dyn's maps are certified (an affine tuple's or an
    expression's interval form lies in [0, 1] over the unit cell)."""
    if dyn.affine is not None:
        a0, c0, d0, a1, c1, d1 = dyn.affine
        return all(_in_unit(AFFINE_SHAPE.tree, v) for v in ((a0, c0, d0), (a1, c1, d1)))
    return all(hasattr(f, "shape") and _in_unit(f.shape.tree, f.literals) for f in (dyn.f0, dyn.f1))


def _in_unit(tree, literals) -> bool:
    bounds = interval(tree, literals, (0.0, 1.0), (0.0, 1.0))
    return bounds is not None and 0.0 <= bounds[0] and bounds[1] <= 1.0


def _recorded_forms(monkeypatch, run) -> list[tuple]:
    """The map forms (form0, form1) of every kernel run() asks _loops_py for."""
    seen, kernel = [], _loops_py._kernel

    def recording(mode, form0, form1):
        seen.append((form0, form1))
        return kernel(mode, form0, form1)

    monkeypatch.setattr(_loops_py, "_kernel", recording)
    run()
    return seen


_APPENDIX_C_EXPRESSIONS = (
    "(b1 + b1/5)/1.2 + 0.01",
    "0.5*(b1 + b1/5)/1.4 + exp(-0.000000001*(b0+b1))*sin(18*(b0+b1)) + 0.1",
)


@pytest.mark.parametrize(
    "dyn, guards",
    [
        (_EXPRESSION_CT, ("certified", "certified")),
        (_PROBE_AFFINE, ("certified", "certified")),
        (constant_dynamics(-0.5, 0.8), ("clamp", "certified")),
        (parse_dynamics(*_APPENDIX_C_EXPRESSIONS), ("check", "check")),
        (appendix_c_callbacks(), ("clamp", "clamp")),  # Python callbacks: called
        # maps that reach the cell's edge exactly
        (parse_dynamics("0.9*b1", "b1"), ("certified", "certified")),
        (constant_dynamics(0.0, 1.0), ("certified", "certified")),
    ],
    ids=[
        "expression_ct", "affine", "constant", "appendixC expressions", "appendixC callbacks",
        "edge expressions", "edge constants",
    ],
)
def test_which_maps_are_certified(monkeypatch, dyn, guards):
    """Each form is a map's Shape (None for a called map) and its guard:
    the kernel cache's keys hold no tree."""
    args = (0.7, 0.2, 0.4, -1.5, 1.0, 2, dyn.f0, dyn.f1, dyn.affine, 0.01, 10, 1, 1e-10, 0.0)
    forms = _recorded_forms(monkeypatch, lambda: _loops_py.ct_loop(*args))
    assert [(form0[1], form1[1]) for form0, form1 in forms] == [guards]
    assert all(type(shape) in (expr.Shape, type(None)) for pair in forms for shape, _ in pair)
    assert _certified_maps(dyn) == (guards == ("certified", "certified"))


def test_each_map_is_certified_once(monkeypatch):
    """ct_loop folds the interval form of a map's tree and literals once
    while its verdict stays cached, an affine tuple's as the affine tree's;
    the start and the step are still tested at every run."""
    _loops_py._certified.cache_clear()
    folded = []
    monkeypatch.setattr(_loops_py, "interval", lambda *args: folded.append(args[1]) or interval(*args))
    dyn = parse_dynamics("0.2 + 0.05*b0", _APPENDIX_C_EXPRESSIONS[1])  # f0 is certified, f1 is not
    for pa in (0.7, 0.6, np.float32(0.6)):
        args = (pa, 0.2, 0.4, -1.5, 1.0, 2, dyn.f0, dyn.f1, None, 0.01, 10, 1, 1e-10, 0.0)
        forms = _recorded_forms(monkeypatch, lambda: _loops_py.ct_loop(*args))
        guards = ("check", "check") if type(pa) is np.float32 else ("certified", "check")
        assert [(form0[1], form1[1]) for form0, form1 in forms] == [guards]
    assert folded == [dyn.f0.literals, dyn.f1.literals]

    for values in ((0.1, 0.05, 0.2), (0.1, 0.05, 0.2), (1.5, 0.0, 0.0)):
        args = (0.7, 0.2, 0.4, -1.5, 1.0, 2, None, None, values * 2, 0.01, 10, 1, 1e-10, 0.0)
        _loops_py.ct_loop(*args)
    assert folded[2:] == [(0.1, 0.05, 0.2), (1.5, 0.0, 0.0)]  # both maps of a run share their tuple
    info = _loops_py._certified.cache_info()
    assert (info.hits, info.misses) == (6, 4)


def test_a_map_parsed_again_reuses_its_certificate(monkeypatch):
    """The certificate is a function of a map's tree and literals: the same
    sources parsed again, as each fairdyn command parses its scenario, fold
    their interval form no more, run the certified kernel and gain no
    attribute."""
    folds = []
    imul = expr._INTERVAL["*"]
    monkeypatch.setitem(expr._INTERVAL, "*", lambda a, b: folds.append(1) or imul(a, b))
    text = (SCENARIOS / "expression_ct.scn").read_text().replace("t_end = 40", "t_end = 1")
    maps = []
    for parse in range(2):
        scenario = Scenario.from_text(text)
        dyn = scenario.make_dynamics()
        maps += [(f, dict(vars(f))) for f in (dyn.f0, dyn.f1)]
        before = len(folds)
        forms = _recorded_forms(monkeypatch, scenario.run_trajectory)
        assert {(form0[1], form1[1]) for form0, form1 in forms} == {("certified", "certified")}
        assert len(folds) == before or not parse
    assert [vars(f) for f, _ in maps] == [attributes for _, attributes in maps]


@pytest.mark.parametrize(
    "terms, evict", [(300, False), (1000, False), (1000, True)], ids=["300", "1000", "1000-evicted"]
)
def test_a_long_certified_chain_runs_the_certified_kernel(monkeypatch, terms, evict):
    """The interval form and the kernel's constant folding walk a chain in a
    loop: a long sum is certified, the kernel inlines it without checks,
    and it gives the reference's samples. Parsed again, it runs the same
    kernel: the caches keyed by its shape find it by identity, and after
    its shape has left expr's cache (evict) they compare no trees."""
    source = "+".join([f"{0.9 / terms!r}*b1"] * terms)
    for parse in range(2):
        if parse and evict:
            for k in range(expr._SHAPES_SIZE + 1):
                compile_expression("b0" + " + b1" * k)
        dyn = parse_dynamics("0.2 + 0.1*b0", source)
        args = (0.7, 0.2, 0.4, -1.5, 1.0, 1, dyn.f0, dyn.f1, None, 0.01, 60, 7, 1e-10, 0.0)
        (forms,) = _recorded_forms(monkeypatch, lambda: _loops_py.ct_loop(*args))
        assert [form[1] for form in forms] == ["certified", "certified"]
        assert _loops_py._kernel(1, *forms) is not _loops_py._kernel(1, *_loops_py._CALLS)
        assert _outcome(_loops_py.ct_loop, args) == _outcome(_reference_ct_loop, args)


_SIGNED = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, 1e-300, -1e-300, 5e-324])
# A shape with a literal in each kind of interval helper that a zero can reach.
_ZERO_SHAPE = compile_expression("abs(0 - 0*b0) + min(0*b1, 0/2) + max(-(0), 0*exp(0*b1))").shape


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([AFFINE_SHAPE, _ZERO_SHAPE]), st.lists(_SIGNED, min_size=8, max_size=8))
def test_signed_zero_literals_certify_alike(shape, values):
    """Literals with -0.0 in place of 0.0 (or the reverse) share their
    cached certificate, as the two hash equal: they certify alike."""
    values = tuple(values[: shape.n_literals])
    flipped = tuple(-v if v == 0.0 else v for v in values)
    assert _in_unit(shape.tree, values) == _in_unit(shape.tree, flipped)
    _loops_py._certified.cache_clear()
    _loops_py._certified(shape, flipped)
    assert _loops_py._certified(shape, values) == _in_unit(shape.tree, values)
    assert _loops_py._certified.cache_info().hits == 1


def test_certified_kernels_fold_the_closed_form(monkeypatch):
    """Kernels whose maps are both certified write no rate that the closed
    form fixes at 0.0 or x, keep no clamp count, and test the merge without
    abs(); under UN and AA1, where b0 is 0.0 in every stage, expression_ct's
    f0 = 0.2 + 0.05*b0 is computed once, before the loop."""
    for dyn in (_EXPRESSION_CT, _PROBE_AFFINE):
        args = (0.7, 0.2, 0.4, -1.5, 1.0, 0, dyn.f0, dyn.f1, dyn.affine, 0.01, 10, 1, 1e-10, 0.0)
        (forms,) = _recorded_forms(monkeypatch, lambda: _loops_py.ct_loop(*args))
        assert [form[1] for form in forms] == ["certified", "certified"]
        for mode in (0, 1, 2, 3):
            source = _loops_py._kernel_source(mode, *forms)
            for unfolded in ("(0.0) * (1.0 - ", "(1.0) * ", "abs(pa - pb)", "clamps0"):
                assert unfolded not in source, (mode, unfolded)
            setup, loop = source.split("\n    while ")
            if dyn is _EXPRESSION_CT and mode in (0, 2):
                assert "= lit0_0 + lit0_1 * 0.0\n" in setup
                assert "lit0_" not in loop and " b0a" not in loop


@pytest.mark.parametrize(
    "utility, kernel_mode",
    [((-2.0, 0.1), 2), ((-1.0, 0.0), 2), ((-0.1, 2.0), 3), ((0.0, 0.0), 3), ((-1.0, 1.0), 1)],
)
def test_mode_aa_runs_the_kernel_of_its_agreeing_tests(monkeypatch, utility, kernel_mode):
    """With gA = 0.4, mode AA whose two AA tests (score < 0 when A, and when
    B, is the advantaged group) are both true runs the AA1 kernel, both
    false the AA2 kernel (a score of 0 is not < 0), and one each its own."""
    modes, kernel = [], _loops_py._kernel
    monkeypatch.setattr(_loops_py, "_kernel", lambda mode, *forms: modes.append(mode) or kernel(mode, *forms))
    for dyn in (_EXPRESSION_CT, appendix_c_dynamics()):
        _loops_py.ct_loop(0.7, 0.2, 0.4, *utility, 1, dyn.f0, dyn.f1, dyn.affine, 0.01, 10, 1, 1e-10, 0.0)
    assert modes == [kernel_mode, kernel_mode]


def test_shipped_ct_scenarios_kernel_forms(monkeypatch):
    """expression_ct's maps are certified; three_equilibria_ct's (appendixC's
    expressions, which leave [0, 1]) are inlined with their checks."""
    scenario = Scenario.from_file(SCENARIOS / "expression_ct.scn")
    forms = _recorded_forms(monkeypatch, scenario.run_trajectory)
    assert {(form0[1], form1[1]) for form0, form1 in forms} == {("certified", "certified")}
    scenario = Scenario.from_file(SCENARIOS / "three_equilibria_ct.scn")
    forms = _recorded_forms(monkeypatch, scenario.run_trajectory)
    assert {(form0[1], form1[1]) for form0, form1 in forms} == {("check", "check")}


@pytest.mark.parametrize(
    "start",
    [(math.nan, 0.2), (0.7, math.inf), (np.float32(0.7), 0.2), (0.7, 0.2, np.float32(0.01)), (1, 0.2)],
    ids=["nan", "inf", "float32 state", "float32 step", "int"],
)
def test_uncertain_starts_keep_the_checked_kernel(monkeypatch, start):
    """A NaN or infinite state passes the stage's clamp, and a float32 state
    or step computes in float32: the maps keep their checks."""
    dyn = _EXPRESSION_CT
    pa, pb, h = (*start, 0.01)[:3]
    args = (pa, pb, 0.4, -1.5, 1.0, 2, dyn.f0, dyn.f1, None, h, 10, 1, 1e-10, 0.0)
    forms = _recorded_forms(monkeypatch, lambda: _outcome(_loops_py.ct_loop, args))
    assert [(form0[1], form1[1]) for form0, form1 in forms] == [("check", "check")]
    assert _outcome(_loops_py.ct_loop, args) == _outcome(_reference_ct_loop, args)


# Maps that lie inside [0, 1] over the unit cell, with their literals: affine
# tuples and expression shapes whose interval forms certify them.
_SMALL = st.floats(-0.12, 0.12) | st.sampled_from([0.0, -0.0, 0.12])
_LEVEL = st.floats(0.3, 0.7) | st.just(0.5)
_CERTIFIED_SHAPES = [
    "{0} + {1}*b0 + {2}*b1",
    "{0} - {1}*b0*b1 + {2}*b1*b1",
    "{0} + {1}*sin(18*(b0 + b1)) + {2}*exp(-b1)",
    "min(0.6, max(0.4, {0} + {1}*b1)) + {2}*abs(b0 - b1)",
    "({0} + {1}*b1)/(1.5 + {2}*b0)",
    "{0} + {1}*cos({2}*b0) + {2}*(0.5 + b1)^0.5",
    # terms that b0 = 0.0 makes constant: expression_ct's f0 becomes one
    "{0} + {1}*b0",
    "{1}*b0 + {0} + {2}*b1",
    "{0} - {1}*b0 + {2}*b1",
]
_CERTIFIED_EXPRESSIONS = st.builds(
    lambda shape, level, small: shape.format(repr(level), *map(repr, small)),
    st.sampled_from(_CERTIFIED_SHAPES),
    _LEVEL,
    st.lists(_SMALL, min_size=2, max_size=2),
)
# Signed zeros and halves: affine maps that reach 0 or 1 exactly, which the
# interval form's exact ends certify.
_ZERO = st.sampled_from([0.0, -0.0])
_EDGE = st.sampled_from([0.0, -0.0, 0.5])
_CERTIFIED_DYNAMICS = st.one_of(
    st.builds(parse_dynamics, _CERTIFIED_EXPRESSIONS, _CERTIFIED_EXPRESSIONS),
    st.builds(
        lambda a0, a1, slopes: affine_dynamics(a0, slopes[0], slopes[1], a1, slopes[2], slopes[3]),
        _LEVEL, _LEVEL, st.lists(_SMALL, min_size=4, max_size=4),
    ),
    st.builds(constant_dynamics, _LEVEL, _LEVEL),
    st.builds(
        lambda a0, c0, d0, c1, d1: affine_dynamics(a0, c0, d0, 1.0, -c1, -d1),
        _ZERO, _EDGE, _EDGE, _EDGE, _EDGE,
    ),
)
_START = _CLAMPED | st.sampled_from([-0.25, 1.5])


@settings(max_examples=300, deadline=None)
@given(
    dyn=_CERTIFIED_DYNAMICS,
    state=st.tuples(_START, _START, st.floats(0.01, 0.99)),
    kind=st.sampled_from([float, np.float64]),
    equal_start=st.booleans(),
    utility=st.tuples(st.floats(-2.0, 0.0), st.floats(0.0, 2.0)),
    mode=st.sampled_from([0, 1, 2, 3]),
    h=st.sampled_from([0.01, 0.1, 0.5, 1.5]),
    n_steps=st.integers(0, 300),
    sample_every=st.integers(1, 40),
    merge_tol=st.sampled_from([0.0, 1e-10, 1e-3, 0.2]),
    stop_tol=st.sampled_from([0.0, 1e-9, 1e-4, 1e-2]),
)
@example(  # a NaN start passes every clamp: the maps keep their checks
    dyn=_EXPRESSION_CT, state=(math.nan, 0.2, 0.4),
    kind=float, equal_start=False, utility=(-1.5, 1.0), mode=2, h=0.01, n_steps=20,
    sample_every=1, merge_tol=1e-10, stop_tol=0.0,
)
@example(  # a float32 start computes in float32
    dyn=_EXPRESSION_CT, state=(0.7, 0.2, 0.4),
    kind=np.float32, equal_start=False, utility=(-1.5, 1.0), mode=1, h=0.1, n_steps=50,
    sample_every=3, merge_tol=1e-3, stop_tol=0.0,
)
@example(  # a numpy float64 start takes the certified kernel
    dyn=_PROBE_AFFINE, state=(0.9, 0.9, 0.5),
    kind=np.float64, equal_start=True, utility=(-1.0, 1.0), mode=3, h=0.5, n_steps=300,
    sample_every=7, merge_tol=1e-10, stop_tol=0.0,
)
@example(  # f0 is -0.0 from piA = -0.0 in merged stages, which drop f0's c0*b0 term
    dyn=affine_dynamics(-0.0, 0.0, 0.0, 1.0, 0.0, 0.0), state=(-0.0, -0.0, 0.5), kind=float,
    equal_start=True, utility=(-1.0, 1.0), mode=0, h=0.1, n_steps=5, sample_every=1,
    merge_tol=1e-10, stop_tol=0.0,
)
@example(  # the folded rate b0 = 0.0 is +0.0: with f0's a0 = -0.0 its sign reaches piA
    dyn=affine_dynamics(-0.0, 0.5, 0.5, 1.0, 0.0, 0.0), state=(-0.0, -0.0, 0.5), kind=float,
    equal_start=True, utility=(-1.0, 1.0), mode=3, h=0.1, n_steps=5, sample_every=1,
    merge_tol=0.0, stop_tol=0.0,
)
@_examples(  # expression_ct's run under UN, AA1 and AA2, f0 constant while b0 is 0.0
    [dict(mode=mode, kind=kind) for mode in (0, 2, 3) for kind in (float, np.float64)],
    dyn=_EXPRESSION_CT, state=(0.7, 0.2, 0.4), equal_start=False, utility=(-1.5, 1.0),
    h=0.01, n_steps=300, sample_every=7, merge_tol=1e-10, stop_tol=0.0,
)
@_examples(  # the probe's affine tuple, merged from the first step
    [dict(mode=mode, kind=kind) for mode in (0, 1, 3) for kind in (float, np.float64)],
    dyn=_PROBE_AFFINE, state=(0.9, 0.2, 0.5), equal_start=True, utility=(-1.0, 1.0),
    h=0.05, n_steps=300, sample_every=50, merge_tol=1e-10, stop_tol=0.0,
)
def test_certified_kernel_matches_reference(
    dyn, state, kind, equal_start, utility, mode, h, n_steps, sample_every, merge_tol, stop_tol,
):
    """Certified maps (the expressions and affine tuples drawn here always
    are, at float and numpy float64 starts) run the kernel without their
    clamps and checks: it gives the reference's samples, clamp count and
    events, through merged starts, stationary stops and fixed-point exits."""
    pa, pb, ga = (kind(v) for v in state)
    pb = pa if equal_start else pb
    args = (
        pa, pb, ga, *utility, mode, dyn.f0, dyn.f1, dyn.affine,
        h, n_steps, sample_every, merge_tol, stop_tol,
    )
    assert _certified_maps(dyn)
    assert _outcome(_loops_py.ct_loop, args) == _outcome(_reference_ct_loop, args)
