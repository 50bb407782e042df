"""The fixed-step RK4 trajectory kernel behind ct_integrate.

ct_loop runs a kernel generated from one template and compiled at its first
use. The generator writes in the policy mode's closed form (policy.py's
policy_source) and each map's form: an expression's shape (the affine
tuple's is expr.AFFINE_SHAPE, a + c*b0 + d*b1) with its tree rendered as
scalar code, or a call of the map, with its clamp and checks unless the
map's interval form certifies its range (once per shape and literals while
they stay cached). Numeric literals are kernel arguments, so expressions
that differ only in their numbers share a kernel. A kernel whose maps are
both certified is specialised on what that proves (see _kernel_source).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .expr import AFFINE_SHAPE, EVAL_ERRORS, SCALAR_FUNCTIONS, Shape, _SCALAR, _fold, interval
from .policy import AA1_TESTS, MODE_AA, MODE_AA1, MODE_AA2, aa_scores, indent, policy_source

BACKEND = "python"

# A map's form: (shape, guard). The shape is expr's Shape of the map, whose
# tree is the map's code, with literal i the kernel's lit<map>_i. A called
# map has no shape (None) and is called as f0 or f1. The guard says what the
# kernel does with the map's value:
# - "clamp": clamps it to [0, 1], counting the clamps (affine maps, calls).
# - "check": an expression's value is also checked: a stage where its code
#   raises or gives a non-finite or complex value is run again through the
#   compiled maps, which raise the expression's own error.
# - "certified": nothing. The map's interval form encloses its value over
#   the cell [0, 1]^2 inside [0, 1], so the value never needs a clamp and
#   the code never fails there (see ct_loop for when the rates lie there).
# The merged stages fill in 0.0 for b0; the affine map's drop c*b0: a + d*b1.
_AFFINE_MERGED = ("+", 0, ("*", 2, "b1"))
_CALLS = ((None, "clamp"),) * 2

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
    The kernel and the certificates are cached by the maps' Shapes.

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
    and h are finite floats or numpy float64s. When both maps are
    certified, the kernel also folds the rates and computes the map terms
    that the closed form fixes once per run (see _kernel_source).

    Mode AA whose two AA tests (the AA1 case when A, and when B, is the
    advantaged group) agree, as aa_scores computes them once per run, is
    run by the AA1 or the AA2 kernel, whose closed form is then AA's.

    Returns (samples, clamp_count, merge_step, stop_step) where samples is a
    list of (step_index, pa, pb) at step 0, every multiple of sample_every
    (an int >= 1) and the last step; merge_step and stop_step are -1 when
    the corresponding event did not occur.
    """
    in_cell = all(type(v) in _FLOATS and -math.inf < v < math.inf for v in (pa, pb, h))
    if affine is not None:
        a0, c0, d0, a1, c1, d1 = affine
        shapes, literals, guard = (AFFINE_SHAPE, AFFINE_SHAPE), ((a0, c0, d0), (a1, c1, d1)), "clamp"
    else:
        shapes, guard = (getattr(f0, "shape", None), getattr(f1, "shape", None)), "check"
        literals = getattr(f0, "literals", ()), getattr(f1, "literals", ())
    if isinstance(shapes[0], Shape) and isinstance(shapes[1], Shape):
        forms = tuple(
            (shape, "certified" if in_cell and _certified(shape, values) else guard)
            for shape, values in zip(shapes, literals)
        )
    else:
        forms, literals = _CALLS, ((), ())
    if mode == MODE_AA:
        aa1_a, aa1_b = (score < 0.0 for score in aa_scores(ga, u0, u1))
        if aa1_a == aa1_b:
            mode = MODE_AA1 if aa1_a else MODE_AA2
    kernel = _kernel(mode, *forms)
    return kernel(
        pa, pb, ga, u0, u1, f0, f1, *literals, h, n_steps, sample_every, merge_tol, stop_tol
    )


# The state types the certificate covers: a float32 state or step computes
# the stages in float32.
_FLOATS = (float, np.float64)
_CELL = (0.0, 1.0)


@functools.lru_cache(maxsize=64)
def _certified(shape, literals) -> bool:
    """Whether the map of shape at the literals' values is certified: its
    interval form over the cell [0, 1]^2 lies in [0, 1]. A verdict is
    computed once per (shape, literals) while it stays cached, so a map
    parsed again, of the same Shape while expr caches it, reuses it. A
    literal -0.0 and 0.0 share an entry, as they hash and compare equal;
    they certify alike, as the interval form's ends then differ at most in
    the sign of a zero."""
    bounds = interval(shape.tree, literals, _CELL, _CELL)
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
    """The kernel for a policy mode and the forms of f0 and f1, whose Shapes
    key it by identity, compiled on first use; with the maps called instead
    when the inlined code is too deeply nested for CPython's compiler."""
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
    below_tol = -merge_tol
    next_sample = min(sample_every, n_steps)
    step = 0
    while step < n_steps:
        if not merged and below_tol < pa - pb < merge_tol:
            merged = True
            merge_step = step
            pm = 0.5 * (pa + pb)
            pa = pm
            pb = pm
        pa0 = pa
        pb0 = pb
{keep_clamps}        if merged:
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
        if step == next_sample:  # a multiple of sample_every, or n_steps
            samples.append((step, pa, pb))
            next_sample += sample_every
            if next_sample > n_steps:
                next_sample = n_steps
        if pa == pa0 and pb == pb0 and _same(pa, pa0) and _same(pb, pb0):
            # A fixed point of the step: every later step repeats this one.
{repeat_clamps}            first = step - step % sample_every + sample_every
            samples.extend((s, pa, pb) for s in range(first, n_steps, sample_every))
            if step < n_steps:
                samples.append((n_steps, pa, pb))
            break

    if stop_step >= 0 and samples[-1][0] != step:
        samples.append((step, pa, pb))

    return samples, clamp_count, merge_step, stop_step
"""
# The step's clamps, which the fixed-point exit counts once per remaining
# step; a kernel whose maps are both certified has none to count.
_KEEP_CLAMPS = "        clamps0 = clamp_count\n"
_REPEAT_CLAMPS = "            clamp_count += (clamp_count - clamps0) * (n_steps - step)\n"
# The kinds of node whose float operations cannot raise: a subtree of them
# over literals, and over b0 where it is 0.0, has one value in a run.
_CONSTANT_KINDS = ("+", "-", "*", "neg", "()")


def _kernel_source(mode, form0, form1) -> str:
    """The kernel of a policy mode and the forms of f0 and f1, as source.

    When both maps are certified, the guard has proven that the start and
    the step are finite floats or numpy float64s, so every stage state x is
    a value in [0, 1] that is not NaN, and the source is specialised on it:
    - A rate (0.0) * (1.0 - x) is +0.0, as 1.0 - x >= +0.0, and is written
      0.0; a rate (1.0) * x is x, of its type and sign, and is written x.
      Where x is a numpy float64, the 0.0 is a Python float of the same
      value, and a map's value may then be a Python float too: the stage's
      derivative x*(f1 - 1.0) + (1.0 - x)*f0 takes x's type all the same.
    - Where every leaf of the mode's closed form selects no unqualified
      individual (UN, AA1 and the merged stages), b0 is 0.0: the maps are
      written with b0 bound to 0.0, and the stages store no b0.
    - Each largest subtree of a map's tree over literals, and over b0 where
      it is bound, joined by + - * or unary minus (_CONSTANT_KINDS) is
      computed once, before the loop: the same IEEE operations on the same
      operands, which cannot raise, moved out of it.
    - No map clamps, so the step keeps no clamp count for the fixed-point
      exit.
    """
    forms = (form0, form1)
    certified = form0[1] == form1[1] == "certified"
    # each map's subtrees computed once, by their name in the kernel
    frozen = ({}, {}) if certified else None
    b0_zero = certified and _selects_no_unqualified(mode)
    parts = {
        "keep_clamps": "" if certified else _KEEP_CLAMPS,
        "repeat_clamps": "" if certified else _REPEAT_CLAMPS,
    }
    for k, (xa, xb) in enumerate(
        (("pa", "pb"), ("pa + half * k1a", "pb + half * k1b"),
         ("pa + half * k2a", "pb + half * k2b"), ("pa + h * k3a", "pb + h * k3b")),
        start=1,
    ):
        parts[f"stage{k}"] = "\n".join(indent(_stage(k, mode, xa, xb, forms, frozen, b0_zero), 3))
    for k, x in enumerate(("pa", "pa + half * k1", "pa + half * k2", "pa + h * k3"), start=1):
        parts[f"merged{k}"] = "\n".join(indent(_merged_stage(k, x, forms, frozen), 3))
    setup = [
        f"{''.join(f'lit{i}_{j}, ' for j in range(shape.n_literals))}= literals{i}"
        for i, (shape, _) in enumerate(forms)
        if shape is not None and shape.n_literals
    ]
    if mode == MODE_AA:  # the AA case of each advantaged group, once per run
        setup += [f"aa1_a = {AA1_TESTS[0]}", f"aa1_b = {AA1_TESTS[1]}"]
    for i, names in enumerate(frozen or ()):  # the frozen subtrees have b0 = 0.0 and no b1
        setup += [f"{name} = {_code(tree, i, forms[i][0].n_literals, '0.0', '', {})}" for tree, name in names.items()]
    parts["setup"] = "\n".join(indent(setup or ["pass"]))
    return _TEMPLATE.format(**parts)


def _selects_no_unqualified(mode) -> bool:
    """Whether every leaf of mode's closed form has tau0 = 0.0 for both
    groups, so that b0 is 0.0 in every unmerged stage."""
    leaves = []
    policy_source(mode, "xa", "xb", lambda entries, case: leaves.append(entries) or [])
    return all(t0a == t0b == "0.0" for _, t0a, _, t0b in leaves)


def _stage(k: int, mode, xa: str, xb: str, forms, frozen, b0_zero: bool) -> list[str]:
    """RK4 stage k of both groups at the state (xa, xb), into (kka, kkb).
    With `frozen` (both maps certified), the rates the closed form fixes at
    0.0 or x are written as such; with b0_zero, no b0 is stored."""
    fold = frozen is not None

    def rates(entries, case):
        t1a, t0a, t1b, t0b = entries
        lines = []
        for g, t1, t0 in (("a", t1a, t0a), ("b", t1b, t0b)):
            if not b0_zero:
                lines.append(f"b0{g} = " + ("0.0" if fold and t0 == "0.0" else f"({t0}) * (1.0 - x{g})"))
            lines.append(f"b1{g} = " + (f"x{g}" if fold and t1 == "1.0" else f"({t1}) * x{g}"))
        return lines

    b0a, b0b = ("0.0", "0.0") if b0_zero else ("b0a", "b0b")
    return [
        f"xa = {xa}",
        f"xb = {xb}",
        *_clamp_state("xa"),
        *_clamp_state("xb"),
        *policy_source(mode, "xa", "xb", rates, ("aa1_a", "aa1_b")),
        *_maps(
            (("f1a", 1, b0a, "b1a"), ("f0a", 0, b0a, "b1a"),
             ("f1b", 1, b0b, "b1b"), ("f0b", 0, b0b, "b1b")),
            forms,
            False,
            frozen,
            b0_zero,
        ),
        f"k{k}a = " + CT_RATE.format(x="xa", f1="f1a", f0="f0a"),
        f"k{k}b = " + CT_RATE.format(x="xb", f1="f1b", f0="f0b"),
    ]


def _merged_stage(k: int, x: str, forms, frozen) -> list[str]:
    """RK4 stage k of the merged trajectory at x, into kk. The policy of
    equal groups selects no unqualified individual: b0 = 0.0, b1 = x."""
    return [
        f"x = {x}",
        *_clamp_state("x"),
        *_maps((("f1v", 1, "0.0", "x"), ("f0v", 0, "0.0", "x")), forms, True, frozen, True),
        f"k{k} = " + CT_RATE.format(x="x", f1="f1v", f0="f0v"),
    ]


def _clamp_state(x: str) -> list[str]:
    return [f"if {x} < 0.0:", f"    {x} = 0.0", f"elif {x} > 1.0:", f"    {x} = 1.0"]


def _maps(values, forms, merged: bool, frozen, b0_bound: bool) -> list[str]:
    """The clamped map values `values`, (name, map index, b0, b1) each, in
    order. Called maps are all called before any is clamped, as a callback's
    exceptions come in call order; an expression is checked right after it
    is evaluated, as its compiled map would be, and a failed check reruns
    the stage through the compiled maps. With `frozen` (certified maps), a
    map's constant subtrees are named by their values computed once, in
    frozen[map index]; b0_bound says whether b0 is the constant 0.0."""
    code, clamps = [], []
    for name, i, b0, b1 in values:
        shape, guard = forms[i]
        tree = _AFFINE_MERGED if merged and shape is AFFINE_SHAPE else getattr(shape, "tree", None)
        if tree is None:
            code.append(f"{name} = f{i}({b0}, {b1})")
        elif frozen is None:
            code.append(f"{name} = " + _code(tree, i, shape.n_literals, b0, b1, {}))
        else:
            tree = _freeze(tree, shape.n_literals, b0_bound, frozen[i], f"c{i}_")
            code.append(f"{name} = " + _code(tree, i, shape.n_literals, b0, b1, frozen[i]))
        if guard == "certified":
            continue
        if guard == "clamp":
            clamps += [
                f"if {name} < 0.0:", f"    {name} = 0.0", "    clamp_count += 1",
                f"elif {name} > 1.0:", f"    {name} = 1.0", "    clamp_count += 1",
            ]
            continue
        if "**" in code[-1]:  # numpy's complex128 compares with floats without raising
            code += [f"if _isinstance({name}, _complex):", "    raise _Refused"]
        # A Python complex raises TypeError here.
        code += [
            f"if not 0.0 <= {name} <= 1.0:",
            f"    if not -1e999 < {name} < 1e999:",
            "        raise _Refused",
            f"    {name} = 0.0 if {name} < 0.0 else 1.0",
            "    clamp_count += 1",
        ]
    if not any(guard == "check" for _, guard in forms):
        return code + clamps
    rerun = [f"f{i}({b0}, {b1})" for _, i, b0, b1 in values]
    return ["try:", *indent(code + clamps), "except EVAL_ERRORS:", *indent(rerun), "    raise"]


def _code(tree, i: int, n_literals: int, b0: str, b1: str, frozen: dict) -> str:
    """The scalar code of map i's tree at the rates b0 and b1, its literals
    the kernel's lit<i>_<j> and its leaves named in `frozen` those names."""
    leaves = {j: f"lit{i}_{j}" for j in range(n_literals)}
    leaves.update({name: name for name in frozen.values()}, b0=b0, b1=b1)
    return _fold(tree, _SCALAR, leaves)


def _freeze(tree, n_literals: int, b0_bound: bool, frozen: dict, prefix: str):
    """The tree, of n_literals literals, with each largest subtree of
    _CONSTANT_KINDS over literals (and b0, where b0_bound) replaced by a
    leaf naming its value: frozen maps each such subtree to that name,
    prefix and a number, new ones added."""

    def join(kind, *walked):  # (the node with its constant subtrees named, whether it is constant)
        if kind in _CONSTANT_KINDS and all(constant for _, constant in walked):
            return (kind, *(child for child, _ in walked)), True
        return (kind, *(name(child) if constant else child for child, constant in walked)), False

    def name(node):  # a leaf stays: it is a literal's name or the 0.0 of b0
        if type(node) is not tuple:
            return node
        return frozen.setdefault(node, f"{prefix}{len(frozen)}")

    leaves = {i: (i, True) for i in range(n_literals)} | {"b0": ("b0", b0_bound), "b1": ("b1", False)}
    node, constant = _fold(tree, {kind: functools.partial(join, kind) for kind in _SCALAR}, leaves)
    return name(node) if constant else node
