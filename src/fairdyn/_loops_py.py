"""The fixed-step RK4 trajectory kernel behind ct_integrate.

ct_loop runs a kernel generated from one template and compiled at its first
use. The generator writes in the policy mode's closed form (policy.py's
policy_source) and each map's form: an expression's scalar code, the affine
tuple's three terms, or a call of the map, with its clamp and checks unless
the map's interval form certifies its range. Numeric literals are kernel
arguments, so expressions that differ only in their numbers share a kernel.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .expr import EVAL_ERRORS, SCALAR_FUNCTIONS, affine_interval
from .policy import AA1_TESTS, MODE_AA, indent, policy_source

BACKEND = "python"

# A map's form: (code, merged code, number of literals, guard). Both codes
# are str.format templates over {b0}, {b1} and {i}, the map's i-th literal;
# the merged stages fill in 0.0 for b0. The guard says what the kernel does
# with the map's value:
# - "clamp": clamps it to [0, 1], counting the clamps (affine maps, calls).
# - "check": an expression's value is also checked: a stage where its code
#   raises or gives a non-finite or complex value is run again through the
#   compiled maps, which raise the expression's own error.
# - "certified": nothing. The map's interval form encloses its value over
#   the cell [0, 1]^2 inside [0, 1], so the value never needs a clamp and
#   the code never fails there (see ct_loop for when the rates lie there).
_AFFINE = ("{0} + {1} * {b0} + {2} * {b1}", "{0} + {2} * {b1}", 3, "clamp")
_AFFINE_CERTIFIED = (*_AFFINE[:3], "certified")
_CALLS = (
    ("f0({b0}, {b1})", "f0({b0}, {b1})", 0, "clamp"),
    ("f1({b0}, {b1})", "f1({b0}, {b1})", 0, "clamp"),
)

# The CT field dx/dt = x*(f1 - 1) + (1 - x)*f0 of one group as source: each
# kernel stage writes it in, and ct_rate(x, f1, f0) (floats or arrays; f1
# first, as the maps are called) is compiled from it.
CT_RATE = "{x} * ({f1} - 1.0) + (1.0 - {x}) * {f0}"
ct_rate = eval(compile("lambda x, f1, f0: " + CT_RATE.format(x="x", f1="f1", f0="f0"), "<ct_rate>", "eval"))


def ct_loop(
    pa,
    pb,
    ga,
    u0,
    u1,
    mode,
    f0,
    f1,
    affine,
    h,
    n_steps,
    sample_every,
    merge_tol,
    stop_tol,
):
    """Fixed-step classical RK4 over the joint two-group CT dynamics.

    The policy (and with it the selection rates feeding f0/f1) is recomputed
    from the current point at every stage evaluation. Once the groups come
    within merge_tol of each other they are merged onto one shared
    trajectory. If stop_tol > 0, integration stops early once both
    derivatives fall below it in magnitude.

    affine, when not None, is (a0, c0, d0, a1, c1, d1) and replaces the f0/f1
    calls with inline affine evaluation. Otherwise maps compiled by
    compile_expression are inlined when both are, and called otherwise, so
    a Python callback's exceptions come in the order the maps are called.

    A step that leaves (pa, pb) as it was, of the same type and bit for bit
    (-0.0 is not 0.0 and NaN never matches), is a fixed point: the step
    depends only on (pa, pb), the merged flag and the run's constants, so
    every later step would repeat it, and neither the stop nor the merge
    test that did not fire on it can fire later. The run ends there: the
    remaining samples and the n_steps sample get this state, and
    clamp_count gets this step's clamps once per remaining step. f0 and f1
    must be pure functions of (b0, b1), as they are called fewer times.

    An affine map or an expression whose interval form encloses it inside
    [0, 1] over the cell [0, 1]^2 is written without its clamp and checks.
    That rests on two premises: every stage clamps its state x to [0, 1],
    and the closed form's taus lie in [0, 1], so the rates tau0*(1 - x) and
    tau1*x lie in [0, 1]. A NaN state passes the clamp, and a float32 state
    or step computes the rates and maps in float32, which the float64
    enclosure does not bound: the unchecked form is taken only when pa, pb
    and h are finite floats or numpy float64s.

    Returns (samples, clamp_count, merge_step, stop_step) where samples is a
    list of (step_index, pa, pb); merge_step and stop_step are -1 when the
    corresponding event did not occur.
    """
    in_cell = all(type(v) in _FLOATS and -math.inf < v < math.inf for v in (pa, pb, h))
    if affine is not None:
        a0, c0, d0, a1, c1, d1 = affine
        literals = ((a0, c0, d0), (a1, c1, d1))
        forms = tuple(
            _AFFINE_CERTIFIED if in_cell and _certified(affine_interval, values) else _AFFINE
            for values in literals
        )
    else:
        codes = getattr(f0, "scalar_code", None), getattr(f1, "scalar_code", None)
        if codes[0] is None or codes[1] is None:
            forms, literals = _CALLS, ((), ())
        else:
            forms = tuple(
                (code, code, len(values), "certified" if in_cell and _certified(f.interval) else "check")
                for (code, values), f in zip(codes, (f0, f1))
            )
            literals = tuple(values for _, values in codes)
    kernel = _kernel(mode, *forms)
    return kernel(
        pa, pb, ga, u0, u1, f0, f1, *literals, h, n_steps, sample_every, merge_tol, stop_tol
    )


# The state types the certificate covers: a float32 state or step computes
# the stages in float32.
_FLOATS = (float, np.float64)
_CELL = (0.0, 1.0)


def _certified(interval, *literals) -> bool:
    """Whether interval(*literals, cell, cell), a map's interval form over
    the cell [0, 1]^2, lies in [0, 1]."""
    bounds = interval(*literals, _CELL, _CELL)
    return bounds is not None and 0.0 <= bounds[0] and bounds[1] <= 1.0


class _Refused(ArithmeticError):
    """An inlined expression gave a non-finite or complex value: the stage
    is run again through the compiled maps, which raise their own error."""


def _same(x, y) -> bool:
    """Whether x and y, which compare equal (so neither is NaN), are the
    same value: of one type (a float and a numpy float64 can behave
    differently in the maps) and of one sign, so that -0.0 and 0.0 differ."""
    return type(x) is type(y) and math.copysign(1.0, x) == math.copysign(1.0, y)


@functools.lru_cache(maxsize=32)
def _kernel(mode, form0, form1):
    """The kernel for a policy mode and the forms of f0 and f1, compiled on
    first use; with the maps called instead when the inlined code is too
    deeply nested for CPython's compiler."""
    namespace = dict(SCALAR_FUNCTIONS, EVAL_ERRORS=EVAL_ERRORS, _Refused=_Refused)
    namespace.update(_isinstance=isinstance, _complex=complex, _same=_same)
    try:
        exec(compile(_kernel_source(mode, form0, form1), "<ct_loop kernel>", "exec"), namespace)
    except (RecursionError, MemoryError, SyntaxError):  # nesting limits
        if (form0, form1) == _CALLS:
            raise
        return _kernel(mode, *_CALLS)
    return namespace["kernel"]


_TEMPLATE = """\
def kernel(pa, pb, ga, u0, u1, f0, f1, literals0, literals1, h, n_steps, sample_every, merge_tol, stop_tol):
{setup}
    clamp_count = 0
    merged = False
    merge_step = -1
    stop_step = -1
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
        pa0 = pa
        pb0 = pb
        clamps0 = clamp_count
        if merged:
{merged1}
            if stop_tol > 0.0 and abs(k1) < stop_tol:
                stop_step = step
                break
{merged2}
{merged3}
{merged4}
            pa = pa + sixth * (k1 + 2.0 * (k2 + k3) + k4)
            if pa < 0.0:
                pa = 0.0
            elif pa > 1.0:
                pa = 1.0
            pb = pa
        else:
{stage1}
            if stop_tol > 0.0 and abs(k1a) < stop_tol and abs(k1b) < stop_tol:
                stop_step = step
                break
{stage2}
{stage3}
{stage4}
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
        if pa == pa0 and pb == pb0 and _same(pa, pa0) and _same(pb, pb0):
            # A fixed point of the step: every later step repeats this one.
            clamp_count += (clamp_count - clamps0) * (n_steps - step)
            first = step - step % sample_every + sample_every
            samples.extend((s, pa, pb) for s in range(first, n_steps, sample_every))
            if step < n_steps:
                samples.append((n_steps, pa, pb))
            break

    if stop_step >= 0 and samples[-1][0] != step:
        samples.append((step, pa, pb))

    return samples, clamp_count, merge_step, stop_step
"""


def _kernel_source(mode, form0, form1) -> str:
    forms = (form0, form1)
    setup = [
        f"{''.join(f'lit{i}_{j}, ' for j in range(form[2]))}= literals{i}"
        for i, form in enumerate(forms)
        if form[2]
    ]
    if mode == MODE_AA:  # the AA case of each advantaged group, once per run
        setup += [f"aa1_a = {AA1_TESTS[0]}", f"aa1_b = {AA1_TESTS[1]}"]
    parts = {"setup": "\n".join(indent(setup or ["pass"]))}
    for k, (xa, xb) in enumerate(
        (("pa", "pb"), ("pa + half * k1a", "pb + half * k1b"),
         ("pa + half * k2a", "pb + half * k2b"), ("pa + h * k3a", "pb + h * k3b")),
        start=1,
    ):
        parts[f"stage{k}"] = "\n".join(indent(_stage(k, mode, xa, xb, forms), 3))
    for k, x in enumerate(("pa", "pa + half * k1", "pa + half * k2", "pa + h * k3"), start=1):
        parts[f"merged{k}"] = "\n".join(indent(_merged_stage(k, x, forms), 3))
    return _TEMPLATE.format(**parts)


def _stage(k: int, mode, xa: str, xb: str, forms) -> list[str]:
    """RK4 stage k of both groups at the state (xa, xb), into (kka, kkb)."""

    def rates(entries, case):
        t1a, t0a, t1b, t0b = entries
        return [
            f"b0a = ({t0a}) * (1.0 - xa)",
            f"b1a = ({t1a}) * xa",
            f"b0b = ({t0b}) * (1.0 - xb)",
            f"b1b = ({t1b}) * xb",
        ]

    return [
        f"xa = {xa}",
        f"xb = {xb}",
        *_clamp_state("xa"),
        *_clamp_state("xb"),
        *policy_source(mode, "xa", "xb", rates, ("aa1_a", "aa1_b")),
        *_maps(
            (("f1a", 1, "b0a", "b1a"), ("f0a", 0, "b0a", "b1a"),
             ("f1b", 1, "b0b", "b1b"), ("f0b", 0, "b0b", "b1b")),
            forms,
            merged=False,
        ),
        f"k{k}a = " + CT_RATE.format(x="xa", f1="f1a", f0="f0a"),
        f"k{k}b = " + CT_RATE.format(x="xb", f1="f1b", f0="f0b"),
    ]


def _merged_stage(k: int, x: str, forms) -> list[str]:
    """RK4 stage k of the merged trajectory at x, into kk. The policy of
    equal groups selects no unqualified individual: b0 = 0.0, b1 = x."""
    return [
        f"x = {x}",
        *_clamp_state("x"),
        *_maps((("f1v", 1, "0.0", "x"), ("f0v", 0, "0.0", "x")), forms, merged=True),
        f"k{k} = " + CT_RATE.format(x="x", f1="f1v", f0="f0v"),
    ]


def _clamp_state(x: str) -> list[str]:
    return [f"if {x} < 0.0:", f"    {x} = 0.0", f"elif {x} > 1.0:", f"    {x} = 1.0"]


def _maps(values, forms, merged: bool) -> list[str]:
    """The clamped map values `values`, (name, map index, b0, b1) each, in
    order. Called maps are all called before any is clamped, as a callback's
    exceptions come in call order; an expression is checked right after it
    is evaluated, as its compiled map would be, and a failed check reruns
    the stage through the compiled maps."""
    code, clamps = [], []
    for name, i, b0, b1 in values:
        template, merged_template, n_literals, guard = forms[i]
        fields = (f"lit{i}_{j}" for j in range(n_literals))
        code.append(f"{name} = " + (merged_template if merged else template).format(*fields, b0=b0, b1=b1))
        if guard == "certified":
            continue
        if guard == "clamp":
            clamps += [
                f"if {name} < 0.0:", f"    {name} = 0.0", "    clamp_count += 1",
                f"elif {name} > 1.0:", f"    {name} = 1.0", "    clamp_count += 1",
            ]
            continue
        if "**" in template:  # numpy's complex128 compares with floats without raising
            code += [f"if _isinstance({name}, _complex):", "    raise _Refused"]
        # A Python complex raises TypeError here.
        code += [
            f"if not 0.0 <= {name} <= 1.0:",
            f"    if not -1e999 < {name} < 1e999:",
            "        raise _Refused",
            f"    {name} = 0.0 if {name} < 0.0 else 1.0",
            "    clamp_count += 1",
        ]
    if not any(form[3] == "check" for form in forms):
        return code + clamps
    rerun = [f"f{i}({b0}, {b1})" for _, i, b0, b1 in values]
    return ["try:", *indent(code + clamps), "except EVAL_ERRORS:", *indent(rerun), "    raise"]
