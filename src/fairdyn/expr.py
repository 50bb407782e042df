"""Recursive-descent compiler for dynamics expressions.

Grammar (over the selection rates b0 and b1):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?          # right associative
    atom    := NUMBER | 'b0' | 'b1' | FUNC '(' expr (',' expr)* ')' | '(' expr ')'

Numbers are decimal or scientific literals. Available functions:
sin, cos, exp, abs (1 argument), min, max (2 arguments).

The parser builds only a tree of tuples. A node is an int i, the i-th
numeric literal (a unary minus on a bare literal is folded into its
value); "b0" or "b1"; or (kind, *children), with kind one of + - * / ^,
"neg", "()" (the source's parentheses) or a function name. Each form of
the expression is one table of a code template per kind, _SCALAR and
_ARRAY, and _render fills them in over the tree, never reassociating or
simplifying. The grammar's precedence and associativity are Python's own
(unary minus binds looser than '^', which is right associative and takes
a negated exponent), so the scalar function does the tree's IEEE
operations in the tree's order, bit-reproducible on a given platform. An
arithmetic error or a NaN, infinite or complex result raises
ExpressionEvaluationError naming the expression and the (b0, b1) point.
The RK4 kernel inlines the scalar code (compile_expression's scalar_code).

The array function does the same IEEE operations on numpy float arrays.
Where the scalar function could raise at some point (a zero divisor, an
element-wise call that raises, a complex power) it returns None instead,
and a non-finite value it returns marks a point where the scalar function
raises.
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


# The scalar implementations of the functions, by name, for the scalar
# code (and the RK4 kernel that inlines it), which calls them by name.
SCALAR_FUNCTIONS: dict[str, Callable[..., float]] = {
    "sin": math.sin, "cos": math.cos, "exp": math.exp, "abs": abs, "min": min, "max": max,
}
# The code template of each kind of node, one {} slot per child (a
# function's arity). The array form calls Python's float functions element
# by element where numpy's round differently (sin, cos, exp, np.power), and
# does Python's min, max and '/' with their NaN, -0.0 and zero-divisor rules.
_SCALAR = {
    "+": "{} + {}", "-": "{} - {}", "*": "{} * {}", "/": "{} / {}", "^": "{} ** {}",
    "neg": "-{}", "()": "({})",
    "sin": "sin({})", "cos": "cos({})", "exp": "exp({})", "abs": "abs({})",
    "min": "min({}, {})", "max": "max({}, {})",
}
_ARRAY = {
    **_SCALAR, "/": "_div({}, {})", "^": "_map(_pow, {}, {})",
    "sin": "_map(sin, {})", "cos": "_map(cos, {})", "exp": "_map(exp, {})",
    "min": "_min({}, {})", "max": "_max({}, {})",
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
        if m is None:  # after the whitespace at pos: the end or a bad character
            rest = source[pos:].lstrip()
            if not rest:
                break
            raise ExpressionSyntaxError(
                f"unexpected character {rest[0]!r}", len(source) - len(rest)
            )
        kind = m.lastgroup  # "num", "ident" or "op"
        tokens.append((kind, m.group(kind), m.start(kind)))
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

    def accept(self, ops: str) -> str | None:
        """The next token, consumed, if it is one of the operators `ops`."""
        kind, value, _ = self.tokens[self.i]  # not peek(): a frame more moves the nesting limit
        if kind == "op" and value in ops:
            self.i += 1
            return value
        return None

    def expect_op(self, op: str) -> None:
        kind, value, pos = self.next()
        if kind != "op" or value != op:
            raise ExpressionSyntaxError(f"expected {op!r}, found {value or 'end'!r}", pos)

    def parse(self):
        tree = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected trailing {value!r}", pos)
        return tree

    def expr(self):
        return self.chain(self.term, "+-")

    def term(self):
        return self.chain(self.factor, "*/")

    def chain(self, operand: Callable[[], object], ops: str):
        """Left-associative operand (op operand)*."""
        tree = operand()
        while op := self.accept(ops):
            tree = (op, tree, operand())
        return tree

    def factor(self):
        if self.accept("-"):
            tree = self.factor()
            if type(tree) is int:  # a bare literal (never a '^' base here): fold the sign in
                self.literals[tree] = -self.literals[tree]
                return tree
            return ("neg", tree)
        return self.power()

    def power(self):
        base = self.atom()
        return ("^", base, self.factor()) if self.accept("^") else base

    def atom(self):
        kind, value, pos = self.next()
        if kind == "num":
            self.literals.append(float(value))  # never NaN; a literal that overflows is inf
            return len(self.literals) - 1
        if kind == "ident":
            if self.accept("("):
                if value not in SCALAR_FUNCTIONS:
                    raise UnknownIdentifierError(f"unknown function {value!r}", pos)
                arity = _SCALAR[value].count("{}")
                args = [self.expr()]
                while self.accept(","):
                    args.append(self.expr())
                self.expect_op(")")
                if len(args) != arity:
                    raise ArityError(
                        f"{value} takes {arity} argument(s), got {len(args)}", pos
                    )
                return (value, *args)
            if value in ("b0", "b1"):
                return value
            raise UnknownIdentifierError(f"unknown identifier {value!r}", pos)
        if kind == "op" and value == "(":
            tree = self.expr()
            self.expect_op(")")
            return ("()", tree)
        raise ExpressionSyntaxError(f"unexpected {value or 'end'!r}", pos)


def _render(node, form: dict[str, str]) -> str:
    """The code of a tree in one form, as a str.format template: {b0} and
    {b1} for the rates, {i} for the i-th literal, and each node its kind's
    template in `form` filled with its children's code. A left-nested chain
    of + - * / (a 1,000-term sum nests 999 deep) is rendered in a loop."""
    chain = []
    while type(node) is tuple and node[0] in "+-*/":
        chain.append(node)
        node = node[1]
    if type(node) is not tuple:  # a leaf
        code = f"{{{node}}}"
    elif len(node) == 2:  # one frame per level, fewer than the parser's: what parses renders
        code = form[node[0]].format(_render(node[1], form))
    else:
        code = form[node[0]].format(_render(node[1], form), _render(node[2], form))
    for kind, _, right in reversed(chain):
        code = form[kind].format(code, _render(right, form))
    return code


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


def compile_expression(source: str) -> Callable[[float, float], float]:
    """Compile a dynamics expression into a pure (b0, b1) -> float map that
    raises ExpressionEvaluationError instead of returning a NaN, infinite or
    complex value.

    The map's `scalar_code` attribute is (template, literals): the scalar
    code as a str.format template with the fields {b0} and {b1} for the
    rates and {i} for the i-th numeric literal, and the literals' values.
    Expressions that differ only in their numbers share one template; filled
    in with the literals' values it is the code the map runs, which calls
    the functions in SCALAR_FUNCTIONS by name.

    The map's `array` attribute is the expression's array form, compiled
    from the same parse: array(b0, b1) takes two float arrays of one shape
    and returns the unchecked values at every point, bit for bit the scalar
    map's wherever that returns, or None when the scalar map might raise at
    some point. Evaluate it under np.errstate(all="ignore"); a non-finite
    value marks a point where the scalar map raises."""
    def fail(b0: float, b1: float, outcome) -> None:
        raise ExpressionEvaluationError(source, b0, b1, outcome)

    # eval is safe here: the code is rendered only from the tree's literals,
    # b0, b1 and the templates in _SCALAR and _ARRAY, and runs without
    # builtins, seeing only the names below.
    namespace = dict(SCALAR_FUNCTIONS)
    namespace.update(__builtins__={}, EVAL_ERRORS=EVAL_ERRORS, _fail=fail)
    namespace.update(_isinstance=isinstance, _complex=complex, **_ARRAY_NAMES)
    try:
        parser = _Parser(source)
        tree = parser.parse()
        literals = tuple(parser.literals)
        numbers = [_literal_code(v) for v in literals]
        template = _render(tree, _SCALAR)
        code = template.format(*numbers, b0="b0", b1="b1")
        real = " and not _isinstance(v, _complex)" if "**" in code else ""
        eval(compile(_TEMPLATE.format(code=code, real=real), "<expression>", "exec"), namespace)
    except (RecursionError, MemoryError, SyntaxError):  # nesting limits
        raise ExpressionSyntaxError("expression is nested too deeply", 0) from None
    compiled = namespace["compiled"]
    compiled.scalar_code = (template, literals)
    compiled.array = _array_form(tree, numbers, namespace)
    return compiled


def _array_form(tree, numbers: list[str], namespace: dict) -> Callable:
    """The array function of the tree, with the literals' code `numbers`,
    rendered and compiled at its first call: the trajectory engines never
    call it, and compiling costs as much as the scalar function did."""

    def array_form(b0, b1):
        fn = namespace.get("compiled_array")
        if fn is None:
            try:
                array = _render(tree, _ARRAY).format(*numbers, b0="b0", b1="b1")
                code = _ARRAY_TEMPLATE.format(array=array)
                eval(compile(code, "<expression>", "exec"), namespace)
            except (RecursionError, MemoryError, SyntaxError):  # '/' and '^' nest deeper here
                namespace["compiled_array"] = lambda b0, b1: None
            fn = namespace["compiled_array"]
        return fn(b0, b1)

    return array_form
