import math
import operator

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


def test_scalar_code_shares_a_template_across_numbers():
    """A unary minus on a bare literal is folded into the literal, so
    expressions that differ only in their numbers have one template; a
    minus on a power stays, as in -2^2 = -(2^2)."""
    forms = [compile_expression(s).scalar_code for s in ("0.1 + -0.2*b0", "7 + 0.2*b0", "3 + --4*b0")]
    assert {template for template, _ in forms} == {"{0} + {1} * {b0}"}
    assert [literals for _, literals in forms] == [(0.1, -0.2), (7.0, 0.2), (3.0, 4.0)]
    assert compile_expression("-2^2*b1").scalar_code == ("-{0} ** {1} * {b1}", (2.0, 2.0))
    assert compile_expression("(-2)^2 - -1e999").scalar_code == ("({0}) ** {1} - {2}", (-2.0, 2.0, -math.inf))


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
    dyn = appendix_c_dynamics()
    f0 = compile_expression(APPENDIX_F0)
    f1 = compile_expression(APPENDIX_F1)
    n = 10_000
    for i in range(n):
        x = (i * 0.7548776662466927) % 1.0
        y = (i * 0.5698402909980532) % 1.0
        assert abs(f0(x, y) - dyn.f0(x, y)) <= 1e-12
        assert abs(f1(x, y) - dyn.f1(x, y)) <= 1e-12


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


@settings(max_examples=300, deadline=None)
@given(
    _TREES.map(lambda tree: tree[0]),
    st.lists(st.tuples(_RATE, _RATE), min_size=1, max_size=12),
)
@example("min(1/b0, 2)", [(0.5, 0.0), (0.0, 0.25)])
@example("max(2, (1e999-1e999)/b0)", [(0.5, 0.0), (0.0, 0.25)])
@example("(b0-0.5)^0.5", [(1.0, 0.0), (0.25, 0.5)])
@example("exp(800*b1)", [(0.0, 0.5), (0.0, 1.0)])
@example("sin(1e999*b0)", [(0.0, 0.5), (0.5, 0.5)])
@example("min(b0, -b1)", [(0.0, 0.0)])  # Python's min keeps 0.0, np.minimum gives -0.0
@example("max(-b0, b1)", [(0.0, 0.0)])
# 1,000-term chains, 999 deep in the tree (test_long_sum_evaluates compiles
# them under the default recursion limit, which Hypothesis raises)
@example("+".join(["b0"] * 1000), [(0.1, 0.0), (0.3, 0.7)])
@example("-".join(["b0"] * 1000), [(0.1, 0.0), (-1.5, 0.7)])
@example("*".join(["b1"] * 1000), [(0.0, 0.999), (0.0, -1.001)])
@example("/".join(["b1"] * 1000), [(0.0, 0.5), (0.0, 0.0)])
def test_array_form_matches_scalar(source, points):
    """Where the array form gives finite values they are the scalar
    function's bits; where the scalar function raises, sample raises the
    same error as the point-by-point evaluation."""
    compiled = compile_expression(source)
    b0, b1 = (np.array(axis) for axis in zip(*points))
    outcomes = [_scalar_outcome(compiled, x, y) for x, y in points]
    with np.errstate(all="ignore"):
        values = compiled.array(b0, b1)
    if values is not None and np.isfinite(values).all():
        assert [repr(v) for v in values.tolist()] == outcomes, source

    dyn = parse_dynamics(source, "0.5")
    errors = [o for o in outcomes if isinstance(o, ExpressionEvaluationError)]
    if errors:
        with pytest.raises(ExpressionEvaluationError) as exc:
            dyn.sample(b0, b1)
        assert str(exc.value) == str(errors[0])
    else:
        f0, _ = dyn.sample(b0, b1)
        assert [repr(v) for v in f0.tolist()] == [repr(dyn.f0_clamped(x, y)) for x, y in points]


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
