import math
import operator
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fairdyn import (
    ArityError,
    ExpressionError,
    ExpressionEvaluationError,
    ExpressionSyntaxError,
    UnknownIdentifierError,
    appendix_c_dynamics,
    compile_expression,
    parse_dynamics,
)
from fairdyn import _loops_py, expr
from fairdyn.expr import AFFINE_SHAPE, MAX_NESTING, interval
from conftest import appendix_c_callbacks

APPENDIX_F1 = "0.5*(b1 + b1/5)/1.4 + exp(-0.000000001*(b0+b1))*sin(18*(b0+b1)) + 0.1"
APPENDIX_F0 = "(b1 + b1/5)/1.2 + 0.01"


def test_constants_and_variables():
    assert compile_expression("0.8")(0.3, 0.7) == 0.8
    assert compile_expression("b0")(0.3, 0.7) == 0.3
    assert compile_expression("b1")(0.3, 0.7) == 0.7
    assert compile_expression("1e-3")(0, 0) == 1e-3
    assert compile_expression(".5")(0, 0) == 0.5


def test_arithmetic_and_precedence():
    f = compile_expression("1 + 2*b0 - b1/4")
    assert f(0.5, 2.0) == pytest.approx(1 + 1.0 - 0.5)
    assert compile_expression("2^3^2")(0, 0) == 512  # right associative
    assert compile_expression("-2^2")(0, 0) == -4  # unary minus binds looser
    assert compile_expression("(1+2)*3")(0, 0) == 9
    b0, b1 = 0.3, 0.7
    for source, expected in (
        ("2^-3", 2.0 ** -3.0),
        ("-2^-2", -(2.0 ** -2.0)),
        ("2^-3^2", 2.0 ** -(3.0 ** 2.0)),
        ("2^3^-1", 2.0 ** (3.0 ** -1.0)),
        ("-b0^2", -(b0 ** 2.0)),
        ("b0--b1", b0 - (-b1)),
        ("2*-b0", 2.0 * (-b0)),
        ("b0/-b1*2", (b0 / (-b1)) * 2.0),
        ("1-2-3", (1.0 - 2.0) - 3.0),
        ("1-(2-3)", 1.0 - (2.0 - 3.0)),
        ("8/4/2", (8.0 / 4.0) / 2.0),
        ("8/(4/2)", 8.0 / (4.0 / 2.0)),
    ):
        assert compile_expression(source)(b0, b1) == expected, source


def test_expressions_that_differ_in_their_numbers_share_a_shape():
    """A unary minus on a bare literal is folded into the literal, so
    expressions that differ only in their numbers run one compiled shape on
    their own literals; a minus on a power stays, as in -2^2 = -(2^2)."""
    maps = [compile_expression(s) for s in ("0.1 + -0.2*b0", "7 + 0.2*b0", "3 + --4*b0")]
    assert all(f.__code__ is maps[0].__code__ for f in maps)
    assert all(f.array.__code__ is maps[0].array.__code__ for f in maps)
    assert maps[0].shape.tree == ("+", 0, ("*", 1, "b0"))
    assert all(f.shape is maps[0].shape for f in maps)  # one Shape per cached shape
    assert [f.literals for f in maps] == [(0.1, -0.2), (7.0, 0.2), (3.0, 4.0)]
    assert [f(1.0, 0.0) for f in maps] == [0.1 + -0.2, 7.0 + 0.2, 3.0 + 4.0]
    f = compile_expression("-2^2*b1")
    assert (f.shape.tree, f.literals) == (("*", ("neg", ("^", 0, 1)), "b1"), (2.0, 2.0))
    assert f.__code__ is not maps[0].__code__
    f = compile_expression("(-2)^2 - -1e999")
    assert (f.shape.tree, f.literals) == (("-", ("^", ("()", 0), 1), 2), (-2.0, 2.0, -math.inf))


def test_functions():
    assert compile_expression("sin(0)")(0, 0) == 0.0
    assert compile_expression("cos(0)")(0, 0) == 1.0
    assert compile_expression("exp(1)")(0, 0) == pytest.approx(math.e)
    assert compile_expression("abs(-3)")(0, 0) == 3.0
    assert compile_expression("min(b0, b1)")(0.2, 0.9) == 0.2
    assert compile_expression("max(b0, 0.5)")(0.2, 0.9) == 0.5
    assert compile_expression("min(1e999, b0)")(0.2, 0.9) == 0.2  # the literal is inf
    assert compile_expression("max(-1e999, b1)")(0.2, 0.9) == 0.9


def test_appendix_formulas_match_builtin():
    """The parsed appendixC sources, and the builtin's maps, against the
    same maps written in Python."""
    native = appendix_c_callbacks()
    builtin = appendix_c_dynamics()
    f0 = compile_expression(APPENDIX_F0)
    f1 = compile_expression(APPENDIX_F1)
    n = 10_000
    for i in range(n):
        x = (i * 0.7548776662466927) % 1.0
        y = (i * 0.5698402909980532) % 1.0
        for g0, g1 in ((f0, f1), (builtin.f0, builtin.f1)):
            assert abs(g0(x, y) - native.f0(x, y)) <= 1e-12
            assert abs(g1(x, y) - native.f1(x, y)) <= 1e-12


def test_simple_constant_pair_matches_builtin():
    from fairdyn import constant_dynamics

    dyn = constant_dynamics(0.2, 0.8)
    f0 = compile_expression("0.2")
    f1 = compile_expression("0.8")
    for x, y in [(0, 0), (0.3, 0.4), (1, 1)]:
        assert f0(x, y) == dyn.f0(x, y)
        assert f1(x, y) == dyn.f1(x, y)


@pytest.mark.parametrize(
    "source, error, message, position",
    [
        ("1 @ 2", ExpressionSyntaxError, "unexpected character '@'", 2),
        ("b0 +\t# 1", ExpressionSyntaxError, "unexpected character '#'", 5),
        ("1 + * 2", ExpressionSyntaxError, "unexpected '*'", 4),
        ("(b0 + 1", ExpressionSyntaxError, "expected ')', found 'end'", 7),
        ("min(b0, 1 b1)", ExpressionSyntaxError, "expected ')', found 'b1'", 10),
        ("b0 b1", ExpressionSyntaxError, "unexpected trailing 'b1'", 3),
        ("2 * sqrt(b0)", UnknownIdentifierError, "unknown function 'sqrt'", 4),
        ("b0 + b2", UnknownIdentifierError, "unknown identifier 'b2'", 5),
        ("sin(b0, b1)", ArityError, "sin takes 1 argument(s), got 2", 0),
        ("1 + min(b0)", ArityError, "min takes 2 argument(s), got 1", 4),
        ("", ExpressionSyntaxError, "unexpected 'end'", 0),
        ("  ", ExpressionSyntaxError, "unexpected 'end'", 2),
        ("(" * 300 + "b0" + ")" * 300, ExpressionSyntaxError,
         "expression is nested too deeply", 0),
    ],
    ids=lambda value: value[:20] if isinstance(value, str) else None,
)
def test_parser_errors(source, error, message, position):
    """Each parser error's class, message and position; a position is the
    index of the offending character or token, not of the whitespace before
    it."""
    with pytest.raises(ExpressionError) as exc:
        compile_expression(source)
    assert type(exc.value) is error
    assert str(exc.value) == f"{message} (at position {position})"
    assert exc.value.position == position


def test_evaluation_is_reproducible():
    f = compile_expression(APPENDIX_F1)
    vals = {f(0.123456, 0.654321) for _ in range(100)}
    assert len(vals) == 1


def test_long_sum_evaluates():
    """A 1,000-term chain of each operator compiles under the default
    recursion limit (Hypothesis raises it) and folds from the left."""
    for op, impl, b1 in (
        ("+", operator.add, 0.1),
        ("-", operator.sub, 0.1),
        ("*", operator.mul, 0.999),
        ("/", operator.truediv, 1.001),
    ):
        total = b1
        for _ in range(999):
            total = impl(total, b1)
        assert compile_expression(op.join(["b1"] * 1000))(0.0, b1) == total, op


def test_nesting_beyond_python_limits_is_a_syntax_error():
    for source in ("(" * 300 + "b0" + ")" * 300, "-" * 2000 + "b0", "^".join(["b0"] * 3000)):
        with pytest.raises(ExpressionSyntaxError, match="nested too deeply"):
            compile_expression(source)


@pytest.mark.parametrize(
    "source, point, reason",
    [
        ("1/b0", (0.0, 0.5), "ZeroDivisionError"),
        ("exp(1000*b1)", (0.0, 1.0), "OverflowError"),
        ("0.1 + (b0-0.5)^0.5", (0.1, 0.0), "complex value"),
        ("sin(b0/0.5)^0.5", (-0.2, 0.0), "complex value"),
        ("b0*1e308*10", (1.0, 0.0), "result inf is not finite"),
        ("1e999 - 1e999*b1", (0.0, 1.0), "result nan is not finite"),
        ("-1e999 + b0", (0.5, 0.5), "result -inf is not finite"),
        ("cos(1e999*b0)", (0.5, 0.0), "ValueError: math domain error"),
        # numpy's complex128 compares with floats: the type is checked
        ("b0*(-0.5)^0.5", (np.float64(1.0), np.float64(0.0)), "complex value"),
    ],
)
def test_evaluation_errors_name_expression_and_point(source, point, reason):
    with pytest.raises(ExpressionEvaluationError) as exc:
        compile_expression(source)(*point)
    assert isinstance(exc.value, ExpressionError) and isinstance(exc.value, ValueError)
    assert exc.value.point == point
    plain = (float(point[0]), float(point[1]))
    assert str(exc.value).startswith(f"expression {source!r} at (b0, b1) = {plain!r}: ")
    assert reason in str(exc.value)


# Random grammar trees, each as (source, native closure, precedence): the
# closure folds the tree the way a tree-walking evaluator would; precedence
# 1 is a sum, 2 a product, 3 a negation, 4 a power and 5 an atom.
_ATOM, _FACTOR = 5, 3
_NUMBERS = ["0", "1", "2", "0.5", ".25", "5.", "18", "1e-3", "3E+2", "1e-9", "1e308", "1e999"]
_LEAVES = st.one_of(
    st.sampled_from(_NUMBERS).map(lambda n: (n, lambda b0, b1, c=float(n): c, _ATOM)),
    st.just(("b0", lambda b0, b1: b0, _ATOM)),
    st.just(("b1", lambda b0, b1: b1, _ATOM)),
)
_NATIVE_FUNCTIONS = {
    "sin": math.sin, "cos": math.cos, "exp": math.exp, "abs": abs, "min": min, "max": max,
}


def _operand(node, min_prec, paren):
    source, _, prec = node
    return f"({source})" if paren or prec < min_prec else source


# operator -> (its precedence, the least precedence its right operand needs, native op)
_BINARY = {
    "+": (1, 2, operator.add),
    "-": (1, 2, operator.sub),
    "*": (2, 3, operator.mul),
    "/": (2, 3, operator.truediv),
    "^": (4, 3, operator.pow),
}


def _binary(op, left, right, paren):
    prec, right_prec, impl = _BINARY[op]
    left_prec = _ATOM if op == "^" else prec
    source = f"{_operand(left, left_prec, paren)} {op} {_operand(right, right_prec, paren)}"
    return source, lambda b0, b1, x=left[1], y=right[1]: impl(x(b0, b1), y(b0, b1)), prec


def _negate(node, paren):
    return "-" + _operand(node, _FACTOR, paren), lambda b0, b1, f=node[1]: -f(b0, b1), _FACTOR


def _call(name, args):
    impl, fns = _NATIVE_FUNCTIONS[name], [a[1] for a in args]
    source = f"{name}({', '.join(a[0] for a in args)})"
    return source, lambda b0, b1: impl(*[f(b0, b1) for f in fns]), _ATOM


def _extend(children):
    paren = st.booleans()
    return st.one_of(
        st.builds(_binary, st.sampled_from("+-*/^"), children, children, paren),
        st.builds(_binary, st.just("^"), children, children, paren),
        st.builds(_negate, children, paren),
        st.builds(_call, st.sampled_from(["sin", "cos", "exp", "abs"]), st.tuples(children)),
        st.builds(_call, st.sampled_from(["min", "max"]), st.tuples(children, children)),
    )


_TREES = st.recursive(_LEAVES, _extend, max_leaves=24)
_RATE = st.floats(-2, 2, allow_nan=False) | st.sampled_from([0.0, 0.5, 1.0])
# Python floats, and numpy scalars as the analysis grids pass them.
_POINTS = st.lists(
    st.builds(
        lambda b0, b1, kind: (kind(b0), kind(b1)),
        _RATE, _RATE, st.sampled_from([float, np.float64]),
    ),
    min_size=1,
    max_size=5,
)


def _native_outcome(fn, b0, b1):
    try:
        value = fn(b0, b1)
    except (ArithmeticError, TypeError, ValueError):
        return ExpressionEvaluationError
    if isinstance(value, complex) or not math.isfinite(value):
        return ExpressionEvaluationError
    return repr(value)


def _compiled_outcome(fn, b0, b1):
    try:
        return repr(fn(b0, b1))
    except ExpressionError as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(_TREES, _POINTS)
def test_compiled_matches_tree_fold(tree, points):
    source, native, _ = tree
    compiled = compile_expression(source)
    with np.errstate(all="ignore"):
        for b0, b1 in points:
            assert _compiled_outcome(compiled, b0, b1) == _native_outcome(native, b0, b1), source


def _scalar_outcome(fn, b0, b1):
    try:
        return repr(fn(b0, b1))
    except ExpressionEvaluationError as exc:
        return exc


# Points whose rates come from a small pool, so that points, and the rates
# of points, repeat.
_POOLED_POINTS = st.lists(_RATE | st.just(-0.0), min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(
        st.tuples(st.sampled_from(pool), st.sampled_from(pool)), min_size=1, max_size=12
    )
)


@settings(max_examples=300, deadline=None)
@given(_TREES.map(lambda tree: tree[0]), _POOLED_POINTS, st.booleans())
@example("min(1/b0, 2)", [(0.5, 0.0), (0.0, 0.25)], False)
@example("max(2, (1e999-1e999)/b0)", [(0.5, 0.0), (0.0, 0.25)], False)
@example("(b0-0.5)^0.5", [(1.0, 0.0), (0.25, 0.5)], False)
@example("exp(800*b1)", [(0.0, 0.5), (0.0, 1.0)], False)
@example("sin(1e999*b0)", [(0.0, 0.5), (0.5, 0.5)], False)
@example("min(b0, -b1)", [(0.0, 0.0)], False)  # Python's min keeps 0.0, np.minimum gives -0.0
@example("max(-b0, b1)", [(0.0, 0.0)], False)
# repeated arguments: signed zeros, an overflow, two array operands, 2-D
@example("sin(b0)", [(-0.0, 0.5), (0.0, 0.5), (-0.0, 0.5), (0.0, 0.5)], False)
@example("exp(800*b1)", [(0.0, 0.5), (0.0, 1.0), (0.0, 0.5), (0.0, 1.0)], False)
@example("b0^b1", [(0.5, 2.0), (0.5, 3.0), (0.25, 2.0), (0.5, 2.0), (2.0, 0.5)], False)
@example("exp(-b0)*sin(18*(b0 + b1))", [(0.0, 0.5), (0.5, 0.0), (-0.0, 0.5), (0.25, 0.25)], True)
# 1,000-term chains, 999 deep in the tree (test_long_sum_evaluates compiles
# them under the default recursion limit, which Hypothesis raises)
@example("+".join(["b0"] * 1000), [(0.1, 0.0), (0.3, 0.7)], False)
@example("-".join(["b0"] * 1000), [(0.1, 0.0), (-1.5, 0.7)], False)
@example("*".join(["b1"] * 1000), [(0.0, 0.999), (0.0, -1.001)], False)
@example("/".join(["b1"] * 1000), [(0.0, 0.5), (0.0, 0.0)], False)
def test_array_form_matches_scalar(source, points, two_d):
    """Where the array form gives finite values they are the scalar
    function's bits; where the scalar function raises, sample raises the
    same error as the point-by-point evaluation. With two_d the arrays have
    two rows: the points, then the points reversed."""
    compiled = compile_expression(source)
    b0, b1 = (np.array(axis) for axis in zip(*points))
    if two_d:
        b0, b1 = (np.stack([axis, axis[::-1]]) for axis in (b0, b1))
    points = list(zip(b0.ravel().tolist(), b1.ravel().tolist()))
    outcomes = [_scalar_outcome(compiled, x, y) for x, y in points]
    with np.errstate(all="ignore"):
        values = compiled.array(b0, b1)
    if values is not None and np.isfinite(values).all():
        assert values.shape == b0.shape
        assert [repr(v) for v in values.ravel().tolist()] == outcomes, source

    dyn = parse_dynamics(source, "0.5")
    errors = [o for o in outcomes if isinstance(o, ExpressionEvaluationError)]
    if errors:
        with pytest.raises(ExpressionEvaluationError) as exc:
            dyn.sample(b0, b1)
        assert str(exc.value) == str(errors[0])
    else:
        f0, _ = dyn.sample(b0, b1)
        assert [repr(v) for v in f0.ravel().tolist()] == [repr(dyn.f0_clamped(x, y)) for x, y in points]


def _bits(*values: float) -> tuple[int, ...]:
    return tuple(np.array(values).view(np.int64).tolist())


def test_element_wise_functions_run_once_per_distinct_argument(monkeypatch):
    """The array form calls sin, cos, exp and '^' once per distinct bit
    pattern of their argument, or pair of patterns for '^' of two arrays,
    and gives the scalar function's bits at every point."""
    f = compile_expression("sin(b0) + cos(b1) + exp(b0 - b1) + b1^b0")
    b0 = np.array([[0.0, -0.0, 0.5, 0.0], [0.5, -0.0, 0.25, 0.0]])
    b1 = np.array([[1.0, 1.0, 0.5, 0.25], [1.0, 1.0, 0.5, 0.5]])
    expected = [[repr(f(x, y)) for x, y in zip(*row)] for row in zip(b0.tolist(), b1.tolist())]
    arguments = {"sin": (b0,), "cos": (b1,), "exp": (b0 - b1,), "_pow": (b1, b0)}
    calls = {name: [] for name in arguments}
    for name, seen in calls.items():
        fn = f.__globals__[name]
        monkeypatch.setitem(
            f.__globals__, name, lambda *args, fn=fn, seen=seen: seen.append(_bits(*args)) or fn(*args)
        )
    values = f.array(b0, b1)
    for name, args in arguments.items():
        distinct = set(zip(*(a.ravel().view(np.int64).tolist() for a in args)))
        assert sorted(calls[name]) == sorted(distinct), name
    assert len(calls["sin"]) == 4 and len(calls["_pow"]) == 7  # of 8 points; 0.0 and -0.0 apart
    assert [[repr(v) for v in row] for row in values.tolist()] == expected


# _map's arguments come from a pool with repeats, both zeros, two NaN
# payloads, both infinities and subnormals, which numbering by value rather
# than by bit pattern merges or splits; 800 overflows exp and 2^800.
_NANS = np.array([0x7FF8000000000000, 0x7FF8000000000001], np.uint64).view(float).tolist()
_MAP_POOL = [0.0, -0.0, 0.5, -0.5, 1.0, 3.0, 800.0, 5e-324, -5e-324, 1e-310, math.inf, -math.inf, *_NANS]
_MAP_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "_pow": operator.pow}


@st.composite
def _map_cases(draw):
    """A function name of _MAP_FUNCTIONS and its _map arguments: a 1-D or
    2-D array; for _pow also an array and a float, either way round, or two
    arrays that broadcast together."""
    name = draw(st.sampled_from(sorted(_MAP_FUNCTIONS)))
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    layouts = [[(n,)], [(m, n)]]
    if name == "_pow":
        layouts += [[(n,), ()], [(), (m, n)], [(m, 1), (1, n)], [(m, n), (n,)], [(n,), (n,)]]
    args = []
    for shape in draw(st.sampled_from(layouts)):
        size = math.prod(shape)
        values = draw(st.lists(st.sampled_from(_MAP_POOL), min_size=size, max_size=size))
        args.append(np.array(values).reshape(shape) if shape else values[0])
    return name, args


def _call_outcome(fn, *args):
    """fn's value at Python floats, or the class of its error: a complex
    value is a TypeError, as _map documents."""
    try:
        value = fn(*args)
    except Exception as exc:
        return type(exc)
    return TypeError if isinstance(value, complex) else value


@settings(max_examples=300, deadline=None)
@given(_map_cases())
@example(("sin", [np.array([*_NANS, 0.0, -0.0] * 3)]))
@example(("_pow", [np.array([[0.5], [-0.0], [0.5]]), np.array([[-0.0, 0.0, 2.0]])]))
def test_map_keys_points_by_bit_pattern(case):
    """_map gives each point the bits of fn called on that point's Python
    floats, calling fn once per distinct bit pattern, or pair of them: two
    NaN payloads, and -0.0 and 0.0, are four arguments. Where fn raises at
    some point, _map raises the class of such an error."""
    name, args = case
    fn, seen = _MAP_FUNCTIONS[name], []
    points = list(zip(*(a.ravel().tolist() for a in np.broadcast_arrays(*args))))
    outcomes = [_call_outcome(fn, *point) for point in points]
    errors = {o for o in outcomes if isinstance(o, type)}
    run = lambda: expr._map(lambda *xs: seen.append(_bits(*xs)) or fn(*xs), *args)
    if errors:
        with pytest.raises(Exception) as exc:
            run()
        assert type(exc.value) in errors
    else:
        values = run()
        assert values.shape == np.broadcast_shapes(*(np.shape(a) for a in args))
        assert values.ravel().view(np.int64).tolist() == list(_bits(*outcomes))
        assert set(seen) == {_bits(*point) for point in points}
    assert len(seen) == len(set(seen))


def test_a_long_division_chain_has_an_array_form():
    """A 999-term '/' chain's array code nests no deeper than its scalar
    code: its values are the scalar function's bits, and a zero divisor
    anywhere still gives None."""
    f = compile_expression("/".join(["b1"] * 998) + "/4")
    b = np.array([0.5, 1.0, 1.001, -0.999])
    assert [repr(v) for v in f.array(b, b).tolist()] == [repr(f(x, x)) for x in b.tolist()]
    assert f.array(b, np.array([0.5, 0.0, 1.0, 1.0])) is None


@pytest.mark.parametrize("source", ["b0 + (0-1)^0.5", "b0*(-0.5)^0.5", "(b0-2)^0.5"])
def test_complex_power_has_no_array_value(source):
    """A complex power, of the points or of a constant subtree, makes the
    array form return None, where the scalar function raises."""
    compiled = compile_expression(source)
    b = np.linspace(0.0, 1.0, 5)
    with np.errstate(all="ignore"):
        assert compiled.array(b, b) is None
    with pytest.raises(ExpressionEvaluationError, match="complex value"):
        compiled(0.5, 0.5)


# -- one code object per shape ------------------------------------------------


def test_one_shape_shares_its_code(monkeypatch):
    """Expressions that differ only in their numbers run one code object,
    which holds their scalar and array functions and is compiled once, each
    on its own literals; the interval form compiles nothing."""
    compiles = []
    monkeypatch.setattr(expr, "_SHAPES", {})
    monkeypatch.setattr(expr, "compile", lambda *args: compiles.append(args) or compile(*args), raising=False)
    f, g = compile_expression("0.5*b0 + 0.25"), compile_expression("2*b0 + -1e999")
    assert f.__code__ is g.__code__
    b = np.array([0.0, 0.5])
    with np.errstate(all="ignore"):
        assert f.array(b, b).tolist() == [0.25, 0.5]
        assert g.array(b, b).tolist() == [-math.inf, -math.inf]
    assert f.__globals__["compiled_array"].__code__ is g.__globals__["compiled_array"].__code__
    assert _interval(f) == (0.25, 0.75)
    assert _interval(g) is None
    assert len(expr._SHAPES) == 1
    assert len(compiles) == 1
    assert f(0.5, 0.0) == 0.5
    with pytest.raises(ExpressionEvaluationError, match=r"'2\*b0 \+ -1e999'.*result -inf"):
        g(0.5, 0.0)


def test_nothing_compiles_at_import():
    """Importing the command line compiles no expression shape and no RK4
    kernel: both compile at their first use."""
    code = "import fairdyn.cli\nfrom fairdyn import _loops_py, expr\nprint(len(expr._SHAPES), _loops_py._kernel.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=str(Path(expr.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["0", "0"]


def test_a_compiled_shape_folds_only_the_scalar_form(monkeypatch):
    """A second expression of a compiled shape folds its scalar code, which
    names the shape, and no array code at its first array call; its interval
    form walks the tree with the interval helpers."""
    source = APPENDIX_F1.replace("18", "17")
    f = compile_expression(source)
    b = np.array([0.25, 0.5])
    f.array(b, b), _interval(f)
    tables = []
    fold = expr._fold
    monkeypatch.setattr(expr, "_fold", lambda node, table, leaves: tables.append(table) or fold(node, table, leaves))
    g = compile_expression(source.replace("17", "19"))
    assert g.array(b, b).tolist() == [g(x, x) for x in b.tolist()]
    assert _interval(g) is not None
    assert {id(table) for table in tables} == {id(expr._SCALAR), id(expr._INTERVAL)}


def _literal_source(value: float) -> str:
    """A literal's value in the expression grammar: its repr, or 1e999 for
    inf, with a leading '-' (folded into the literal) when it is negative."""
    text = repr(abs(value)) if math.isfinite(value) else "1e999"
    return "-" + text if math.copysign(1.0, value) < 0.0 else text


def _template(f) -> str:
    """The compiled map f's scalar code as a str.format template: {b0} and
    {b1} for the rates and {i} for the i-th literal."""
    fields = {i: f"{{{i}}}" for i in range(len(f.literals))}
    return expr._fold(f.shape.tree, expr._SCALAR, dict(fields, b0="{b0}", b1="{b1}"))


def _reference_outcome(template: str, literals, b0: float, b1: float):
    """The template evaluated with each literal written as its repr (+-1e999
    for +-inf): the repr of its value, or None where the compiled map raises."""
    numbers = [repr(v) if math.isfinite(v) else ("1e999" if v > 0.0 else "-1e999") for v in literals]
    try:
        value = eval(template.format(*numbers, b0="b0", b1="b1"), dict(expr.SCALAR_FUNCTIONS, b0=b0, b1=b1))
    except expr.EVAL_ERRORS:
        return None
    return repr(value) if not isinstance(value, complex) and math.isfinite(value) else None


# Any literal, stressing signed zero, subnormals and the ends of the range.
_LITERAL = st.floats(allow_nan=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308, math.inf, -math.inf]
)


@settings(max_examples=300, deadline=None)
@given(
    _TREES.map(lambda tree: tree[0]),
    st.lists(_LITERAL, min_size=24, max_size=24),  # _TREES has at most 24 leaves
    st.lists(st.tuples(_RATE, _RATE), min_size=1, max_size=6),
)
@example("2 ^ -b0 - 1e308 * 10", [-0.0] * 24, [(0.5, 0.0)])
def test_literals_bound_by_name_are_the_written_values(source, values, points):
    """An expression of a tree's shape with any literals gives, in the scalar
    and the array form, the bits of the template evaluated with the literals
    written in as numbers: binding them by name changes no operation."""
    shape = compile_expression(source)
    template = _template(shape)
    # a '^' base is an unsigned number in the grammar
    bases = {int(i) for i in re.findall(r"\{(\d+)\} \*\*", template)}
    literals = [abs(v) if i in bases else v for i, v in enumerate(values[: len(shape.literals)])]
    numbers = [_literal_source(v) for v in literals]
    compiled = compile_expression(template.replace("**", "^").format(*numbers, b0="b0", b1="b1"))
    assert compiled.shape is shape.shape and compiled.__code__ is shape.__code__
    assert list(map(repr, compiled.literals)) == list(map(repr, literals))

    expected = [_reference_outcome(template, literals, b0, b1) for b0, b1 in points]
    assert [_compiled_outcome(compiled, b0, b1) for b0, b1 in points] == [
        ExpressionEvaluationError if e is None else e for e in expected
    ], source
    with np.errstate(all="ignore"):
        values = compiled.array(*(np.array(axis) for axis in zip(*points)))
    if values is not None:
        for value, e in zip(values.tolist(), expected):
            assert repr(value) == e if e is not None else not math.isfinite(value), source


def test_code_cache_is_bounded():
    """More shapes than the cache holds: the cache keeps at most its bound
    of shapes, and the scalar, array and interval forms of every map
    compiled earlier still evaluate."""
    sums = [compile_expression("b0" + " + b1" * k) for k in range(expr._SHAPES_SIZE + 10)]
    assert len(expr._SHAPES) == expr._SHAPES_SIZE
    b = np.array([0.25, 0.5])
    for k, f in enumerate(sums):
        total = 0.25
        for _ in range(k):
            total += 0.5
        assert f(0.25, 0.5) == total
        assert f.array(b, np.array([0.5, 0.5])).tolist() == [total, 0.5 + 0.5 * k]
        lo, hi = _interval(f, (0.25, 0.25), (0.5, 0.5))
        assert lo <= total <= hi
    assert len(expr._SHAPES) == expr._SHAPES_SIZE


# -- the interval form --------------------------------------------------------

_CELL = (0.0, 1.0)


def _interval(f, b0=_CELL, b1=_CELL):
    """The compiled map f's interval form over the cell b0 x b1."""
    return interval(f.shape.tree, f.literals, b0, b1)

# Points of the unit cell: its ends, signed zero, subnormals, the least normal
# float and the float below 1.
_UNIT = st.floats(0.0, 1.0) | st.sampled_from(
    [0.0, -0.0, 1.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1 - 1e-16]
)


@settings(max_examples=400, deadline=None)
@given(
    _TREES.map(lambda tree: tree[0]),
    st.lists(st.tuples(_UNIT, _UNIT), min_size=1, max_size=12),
    st.sampled_from([float, np.float64]),
)
@example("b0 - b1", [(-0.0, 1.0), (1.0, 0.0)], float)
@example("min(b0, -b1) * 1e308 * 1e-300", [(0.0, 5e-324)], float)
@example("2 ^ (b0 * 18) / exp(-b1)", [(1.0, 1.0), (5e-324, 0.0)], float)
@example("(0.5 + b0) ^ -b1 - abs(b1 - 0.5)", [(0.0, 1.0), (1.0, 0.5)], np.float64)
@example("cos(b0 * 1e308) / (2 - sin(b1))", [(1.0, -0.0)], float)
@example("abs(b0 - 0.75) + abs(-b1)", [(0.0, 1.0)], float)
@example("b1 / (b0 - 0.5)", [(0.5000000000000001, 1.0)], float)
def test_interval_form_encloses_the_scalar_values(source, points, kind):
    """Where the interval form gives an enclosure over the unit cell, the
    scalar function returns a value inside it at every point of the cell,
    for Python and numpy floats alike (the RK4 kernel's two state types)."""
    compiled = compile_expression(source)
    bounds = _interval(compiled)
    if bounds is None:
        return
    lo, hi = bounds
    assert math.isfinite(lo) and math.isfinite(hi) and lo <= hi, source
    with np.errstate(all="ignore"):
        for b0, b1 in points:
            value = compiled(kind(b0), kind(b1))
            assert lo <= value <= hi, (source, b0, b1)


@pytest.mark.parametrize(
    "source",
    [
        "1/b0",  # a divisor that holds 0
        "1/(b0 - 0.5)",
        "(b0-0.5)^0.5",  # a base that may be negative
        "b1^0.5",  # or 0
        "exp(1000*b1)",  # overflows
        "b0*1e308*10",  # an end that is not finite
        "1e999 - 1e999*b1",  # a literal that is not finite
        "min(1e999, b0)",
    ],
    ids=lambda source: source[:20],
)
def test_interval_form_gives_no_enclosure(source):
    assert _interval(compile_expression(source)) is None


_END = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1.0, 0.1, 0.2, 0.9, 5e-324, 1 - 1e-16])
_OPERAND = st.tuples(_END, _END).map(lambda ends: tuple(sorted(ends)))
_ARITHMETIC = [
    (expr._iadd, operator.add), (expr._isub, operator.sub),
    (expr._imul, operator.mul), (expr._idiv, operator.truediv),
]


@settings(max_examples=300, deadline=None)
@given(_OPERAND, _OPERAND)
@example((0.9, 0.9), (0.0, 1.0))
@example((0.1, 0.1), (0.0, 0.2))
@example((1.0, 1.0), (5e-324, 1.0))
def test_arithmetic_enclosures_hold_the_real_values(a, b):
    """+ - * / hold the real value (by Fraction) at every pair of the
    operands' ends, and so over the operand intervals, and each end lies
    within about an ulp of the real one."""
    for helper, op in _ARITHMETIC:
        try:
            lo, hi = helper(a, b)
        except ZeroDivisionError:
            assert op is operator.truediv and b[0] <= 0.0 <= b[1]
            continue
        except OverflowError:  # a quotient past the largest float
            assert op is operator.truediv
            continue
        real = [op(Fraction(x), Fraction(y)) for x in a for y in b]
        assert Fraction(lo) <= min(real) and max(real) <= Fraction(hi), (op, a, b)
        assert Fraction(math.nextafter(math.nextafter(lo, math.inf), math.inf)) >= min(real)
        assert Fraction(math.nextafter(math.nextafter(hi, -math.inf), -math.inf)) <= max(real)


def test_a_long_sum_has_an_enclosure():
    """The interval form walks a chain in a loop, as every fold does: a
    1,000-term sum of exact terms encloses exactly."""
    assert _interval(compile_expression("+".join(["b0"] * 1000))) == (0.0, 1000.0)


def test_exact_interval_ends_are_kept():
    """An end that + - * / compute exactly is the real value and is kept, so
    maps that reach 0 or 1 exactly certify; an inexact end still moves out
    by an ulp."""
    assert _interval(compile_expression("0.9*b1")) == (0.0, 0.9)
    assert _interval(compile_expression("b1")) == (0.0, 1.0)
    assert _interval(compile_expression("1 - b0*b1")) == (0.0, 1.0)
    assert interval(AFFINE_SHAPE.tree, (0.0, 0.0, 0.0), _CELL, _CELL) == (0.0, 0.0)  # constant_dynamics(0.0, 1.0)
    assert interval(AFFINE_SHAPE.tree, (1.0, 0.0, 0.0), _CELL, _CELL) == (1.0, 1.0)
    assert _interval(compile_expression("0.1 + 0.2*b1")) == (
        0.1, math.nextafter(0.1 + 0.2, math.inf)
    )


def test_interval_form_of_the_affine_tree():
    """The affine tuple's interval form is that of the tree a + c*b0 + d*b1,
    the RK4 kernel's affine map."""
    compiled = compile_expression("0.1 + 0.05*b0 + 0.2*b1")
    assert compiled.shape.tree == AFFINE_SHAPE.tree
    assert compiled.shape.n_literals == AFFINE_SHAPE.n_literals == 3
    assert interval(AFFINE_SHAPE.tree, (0.1, 0.05, 0.2), _CELL, _CELL) == _interval(compiled)
    assert interval(AFFINE_SHAPE.tree, (0.1, math.nan, 0.2), _CELL, _CELL) is None


# -- the nesting limit ------------------------------------------------------


def _mixed(depth: int) -> str:
    """A source nested `depth` deep in parentheses, unary minuses, function
    calls and '^' exponents in turn."""
    opens, closes = "", ""
    for i in range(depth):
        unit = ("(", "-", "sin(", "0.5^")[i % 4]
        opens += unit
        closes = (")" if unit.endswith("(") else "") + closes
    return opens + "b1" + closes


def _nested(depth: int) -> dict[str, str]:
    """Sources nested `depth` deep, in each kind of nesting and mixed."""
    return {
        "parentheses": "(" * depth + "b0" + ")" * depth,
        "functions": "sin(" * depth + "b0" + ")" * depth,
        "unary minus": "-" * depth + "b0",
        "powers": "0.5^" * depth + "b1",
        "mixed": _mixed(depth),
    }


def _in_frames(frames: int, fn):
    """fn() called from `frames` more Python frames."""
    return fn() if frames == 0 else _in_frames(frames - 1, fn)


@pytest.mark.parametrize("kind", list(_nested(4)))
def test_nesting_limit_is_fixed(kind):
    """Whether a source nests too deeply does not depend on the caller's
    stack: at MAX_NESTING it compiles from 300 more frames in every form
    (scalar, array, interval and the RK4 kernel that inlines it), and one
    level deeper it is a syntax error from any depth."""
    source = _nested(MAX_NESTING)[kind]
    b = np.linspace(0.0, 1.0, 5)

    def every_form():
        compiled = compile_expression(source)
        form = (compiled.shape, "check")
        kernel = _loops_py._kernel(0, form, form)
        return compiled(0.5, 0.5), compiled.array(b, b), _interval(compiled), kernel

    value, array, bounds, kernel = _in_frames(300, every_form)
    assert math.isfinite(value)
    assert array is not None and bounds is not None
    assert kernel is not _loops_py._kernel(0, *_loops_py._CALLS)
    deeper = _nested(MAX_NESTING + 1)[kind]
    for frames in (0, 300):
        with pytest.raises(ExpressionSyntaxError) as exc:
            _in_frames(frames, lambda: compile_expression(deeper))
        assert str(exc.value) == "expression is nested too deeply (at position 0)"
