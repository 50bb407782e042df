"""Recursive-descent compiler for dynamics expressions.

Grammar (over the selection rates b0 and b1):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?          # right associative
    atom    := NUMBER | 'b0' | 'b1' | FUNC '(' expr (',' expr)* ')' | '(' expr ')'

Numbers are decimal or scientific literals. Available functions:
sin, cos, exp, abs (1 argument), min, max (2 arguments).

Each parser rule returns two Python sources of its subtree, a scalar one and
an array one, with a field for each numeric literal (a unary minus on a bare
literal is folded into its value); compile_expression fills in the literals
and makes one function of each whole. The grammar's precedence and
associativity are Python's own (unary minus binds looser than '^', which is
right associative and takes a negated exponent), so the scalar function does
the tree's IEEE operations in the tree's order, bit-reproducible on a given
platform. An arithmetic error or a NaN, infinite or complex result raises
ExpressionEvaluationError naming the expression and the (b0, b1) point. The
RK4 kernel inlines the scalar source with the literals as its arguments (see
compile_expression's scalar_code).

The array function does the same IEEE operations on numpy float arrays:
`+ - * /`, unary minus and abs as numpy operations, min and max as the
np.where selections that Python's min and max make (NaN and -0.0 included),
and sin, cos, exp and '^' element by element through math and operator.pow
on Python floats, since numpy's own transcendental functions and np.power
round differently. Where the scalar function could raise at some point (a
zero divisor, an element-wise call that raises, a complex power) the array
function returns None instead, and a non-finite value it returns marks a
point where the scalar function raises.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from typing import Callable

import numpy as np


class ExpressionError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExpressionSyntaxError(ExpressionError):
    pass


class UnknownIdentifierError(ExpressionError):
    pass


class ArityError(ExpressionError):
    pass


class ExpressionEvaluationError(ExpressionError):
    """Evaluating a compiled expression at (b0, b1) failed or gave a NaN,
    infinite or complex value."""

    def __init__(self, source: str, b0: float, b1: float, outcome):
        if isinstance(outcome, (TypeError, complex)):  # a TypeError needs a complex operand
            reason = "complex value (a negative number to a fractional power)"
        elif isinstance(outcome, Exception):
            reason = f"{type(outcome).__name__}: {outcome}"
        else:
            reason = f"result {outcome!r} is not finite"
        self.point = (float(b0), float(b1))
        ValueError.__init__(
            self, f"expression {source!r} at (b0, b1) = {self.point!r}: {reason}"
        )
        self.position = None


# name -> (arity, scalar implementation, array code template)
_FUNCTIONS: dict[str, tuple[int, Callable[..., float], str]] = {
    "sin": (1, math.sin, "_map(sin, {})"),
    "cos": (1, math.cos, "_map(cos, {})"),
    "exp": (1, math.exp, "_map(exp, {})"),
    "abs": (1, abs, "abs({})"),
    "min": (2, min, "_min({}, {})"),
    "max": (2, max, "_max({}, {})"),
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            if source[pos:].strip() == "":
                break
            raise ExpressionSyntaxError(
                f"unexpected character {source[pos:].strip()[0]!r}", pos
            )
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.i = 0
        self.literals: list[float] = []

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, value, pos = self.next()
        if kind != "op" or value != op:
            raise ExpressionSyntaxError(f"expected {op!r}, found {value or 'end'!r}", pos)

    # Each rule returns (scalar code, array code) of its subtree, as
    # str.format templates: {b0} and {b1} for the rates, {i} for the i-th
    # numeric literal.

    def parse(self) -> tuple[str, str]:
        code = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected trailing {value!r}", pos)
        return code

    def expr(self) -> tuple[str, str]:
        return self.chain(self.term, "+-")

    def term(self) -> tuple[str, str]:
        return self.chain(self.factor, "*/")

    def chain(self, operand: Callable[[], tuple[str, str]], ops: str) -> tuple[str, str]:
        """Left-associative operand (op operand)*."""
        code, array = operand()
        while True:
            kind, value, _ = self.peek()
            if kind != "op" or value not in ops:
                return code, array
            self.next()
            rhs, rhs_array = operand()
            code = f"{code} {value} {rhs}"
            if value == "/":
                array = f"_div({array}, {rhs_array})"
            else:
                array = f"{array} {value} {rhs_array}"

    def factor(self) -> tuple[str, str]:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.next()
            code, array = self.factor()
            literal = _LITERAL_FIELD.fullmatch(code)
            if literal:  # a bare literal (never a '**' base here): fold the sign in
                i = int(literal[1])
                self.literals[i] = -self.literals[i]
                return code, array
            return "-" + code, "-" + array
        return self.power()

    def power(self) -> tuple[str, str]:
        base, base_array = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.next()
            exponent, exponent_array = self.factor()
            return f"{base} ** {exponent}", f"_map(_pow, {base_array}, {exponent_array})"
        return base, base_array

    def atom(self) -> tuple[str, str]:
        kind, value, pos = self.next()
        if kind == "num":
            self.literals.append(float(value))  # never NaN; a literal that overflows is inf
            code = f"{{{len(self.literals) - 1}}}"
            return code, code
        if kind == "ident":
            nxt_kind, nxt_value, _ = self.peek()
            if nxt_kind == "op" and nxt_value == "(":
                if value not in _FUNCTIONS:
                    raise UnknownIdentifierError(f"unknown function {value!r}", pos)
                arity = _FUNCTIONS[value][0]
                self.next()  # consume '('
                args = [self.expr()]
                while True:
                    kind2, value2, _ = self.peek()
                    if kind2 == "op" and value2 == ",":
                        self.next()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                if len(args) != arity:
                    raise ArityError(
                        f"{value} takes {arity} argument(s), got {len(args)}", pos
                    )
                codes, arrays = zip(*args)
                return f"{value}({', '.join(codes)})", _FUNCTIONS[value][2].format(*arrays)
            if value in ("b0", "b1"):
                return f"{{{value}}}", f"{{{value}}}"
            raise UnknownIdentifierError(f"unknown identifier {value!r}", pos)
        if kind == "op" and value == "(":
            code, array = self.expr()
            self.expect_op(")")
            return f"({code})", f"({array})"
        raise ExpressionSyntaxError(f"unexpected {value or 'end'!r}", pos)


# The whole expression becomes one scalar and one array function. In the
# scalar one, the chained comparison is False for NaN and +-inf and raises
# TypeError for a Python complex value. Only '**' turns real operands complex,
# and numpy's complex128 compares without raising, so code with '**' also
# checks the type. In the array one a subtree is a Python float when it has
# no b0 or b1 in it, else a float array of the points' shape.
_TEMPLATE = """\
def compiled(b0, b1):
    try:
        v = {code}
        if -1e999 < v < 1e999{real}:
            return v
    except EVAL_ERRORS as exc:
        v = exc
    _fail(b0, b1, v)
"""
_ARRAY_TEMPLATE = """\
def compiled_array(b0, b1):
    try:
        v = {array}
    except EVAL_ERRORS:
        return None
    return v if _isinstance(v, _ndarray) else _full(b0.shape, v)
"""
# The errors that mark a failed evaluation of an expression's code.
EVAL_ERRORS = (ArithmeticError, TypeError, ValueError)
_LITERAL_FIELD = re.compile(r"\{(\d+)\}")


def _literal_code(value: float) -> str:
    """Python source of a literal's value: its repr, or +-1e999 for +-inf
    (whose repr is a name)."""
    if math.isfinite(value):
        return repr(value)
    return "1e999" if value > 0.0 else "-1e999"


def _is_array(value) -> bool:
    return isinstance(value, np.ndarray)


def _map(fn: Callable[..., float], *args):
    """fn element by element over the 1-D array arguments (a float argument
    is the same at every point), on Python floats. A value that is not a
    real number, such as the complex power of a negative base, raises
    TypeError."""
    arrays = [a for a in args if _is_array(a)]
    if not arrays:
        return float(fn(*args))
    columns = [a.tolist() if _is_array(a) else itertools.repeat(a) for a in args]
    return np.fromiter(map(fn, *columns), float, count=arrays[0].size)


def _div(a, b):
    if np.any(b == 0.0):  # Python raises where numpy returns inf or NaN
        raise ZeroDivisionError("division by zero")
    return a / b


def _min(a, b):
    """Python's min(a, b): a unless b < a."""
    return np.where(b < a, b, a) if _is_array(a) or _is_array(b) else min(a, b)


def _max(a, b):
    """Python's max(a, b): a unless b > a."""
    return np.where(b > a, b, a) if _is_array(a) or _is_array(b) else max(a, b)


_ARRAY_NAMES = {
    "_map": _map, "_pow": operator.pow, "_div": _div, "_min": _min, "_max": _max,
    "_ndarray": np.ndarray, "_full": np.full,
}


def _no_array_form(b0, b1) -> None:
    return None


# The scalar implementations of the functions, by name, for code that
# inlines an expression's scalar code.
SCALAR_FUNCTIONS = {name: impl for name, (_, impl, _) in _FUNCTIONS.items()}


def compile_expression(source: str) -> Callable[[float, float], float]:
    """Compile a dynamics expression into a pure (b0, b1) -> float map that
    raises ExpressionEvaluationError instead of returning a NaN, infinite or
    complex value.

    The map's `scalar_code` attribute is (template, literals): the scalar
    code as a str.format template with the fields {b0} and {b1} for the
    rates and {i} for the i-th numeric literal, a unary minus on a bare
    literal folded into it, and the literals' values. Expressions that
    differ only in their numbers share one template; filled in with the
    literals' values it is the code the map runs, which calls the functions
    in SCALAR_FUNCTIONS by name.

    The map's `array` attribute is the expression's array form, compiled
    from the same parse: array(b0, b1) takes two float arrays of one shape
    and returns the unchecked values at every point, bit for bit the scalar
    map's wherever that returns, or None when the scalar map might raise at
    some point. Evaluate it under np.errstate(all="ignore"); a non-finite
    value marks a point where the scalar map raises."""
    def fail(b0: float, b1: float, outcome) -> None:
        raise ExpressionEvaluationError(source, b0, b1, outcome)

    # eval is safe here: the code is built only from validated tokens (float
    # literals, b0, b1, the names in _FUNCTIONS, operators and parentheses)
    # and runs without builtins, seeing only the names below.
    namespace = dict(SCALAR_FUNCTIONS)
    namespace.update(__builtins__={}, EVAL_ERRORS=EVAL_ERRORS, _fail=fail)
    namespace.update(_isinstance=isinstance, _complex=complex, **_ARRAY_NAMES)
    try:
        parser = _Parser(source)
        template, array = parser.parse()
        literals = tuple(parser.literals)
        numbers = [_literal_code(v) for v in literals]
        code = template.format(*numbers, b0="b0", b1="b1")
        real = " and not _isinstance(v, _complex)" if "**" in code else ""
        eval(compile(_TEMPLATE.format(code=code, real=real), "<expression>", "exec"), namespace)
    except (RecursionError, MemoryError, SyntaxError):  # nesting limits
        raise ExpressionSyntaxError("expression is nested too deeply", 0) from None
    compiled = namespace["compiled"]
    compiled.scalar_code = (template, literals)
    compiled.array = _array_form(array.format(*numbers, b0="b0", b1="b1"), namespace)
    return compiled


def _array_form(array: str, namespace: dict) -> Callable:
    """The array function of the code `array`, compiled at its first call:
    the trajectory engines never call it, and compiling costs as much as
    the scalar function did."""

    def array_form(b0, b1):
        fn = namespace.get("compiled_array")
        if fn is None:
            code = _ARRAY_TEMPLATE.format(array=array)
            try:
                eval(compile(code, "<expression>", "exec"), namespace)
            except (RecursionError, MemoryError, SyntaxError):  # '/' and '^' chains nest deeper
                namespace["compiled_array"] = _no_array_form
            fn = namespace["compiled_array"]
        return fn(b0, b1)

    return array_form
