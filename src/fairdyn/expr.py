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
the expression is one table of a code template per kind, _SCALAR, _ARRAY
and _INTERVAL, and _render fills them in over the tree, never
reassociating or simplifying. The grammar's precedence and associativity
are Python's own (unary minus binds looser than '^', which is right
associative and takes a negated exponent), so the scalar function does the
tree's IEEE operations in the tree's order, bit-reproducible on a given
platform. An arithmetic error or a NaN, infinite or complex result raises
ExpressionEvaluationError naming the expression and the (b0, b1) point.
The RK4 kernel inlines the scalar code, rendered from the tree
(compile_expression's tree attribute) with _render over _SCALAR.

No form writes a literal's value into its code: the scalar and array
functions read the names lit0, lit1, ..., the kernel its arguments and the
interval function its literals argument. So each shape, an expression up to
its numbers, is compiled once per process in each form, and expressions of
one shape run the same code on their own literals' values. Those are the
same IEEE operations on the same doubles as code with the values written
in: CPython folds a subtree of literals with the same float operations.

The array function does the same IEEE operations on numpy float arrays.
It calls sin, cos, exp and '^' (Python's pow) element by element on Python
floats, as the scalar function does, and not numpy's ufuncs, which may round
differently from libm; and it calls each once per distinct argument (per bit
pattern, or pair of them), since grids pass the same arguments many times.
Where the scalar function could raise at some point (a zero divisor, an
element-wise call that raises, a complex power) it returns None instead,
and a non-finite value it returns marks a point where the scalar function
raises.

The interval function (_INTERVAL, after Moore's interval arithmetic) takes
a cell, a (lo, hi) pair for each rate, and returns a (lo, hi) pair of
finite floats that holds the scalar function's value at every point of the
cell, or None where it cannot: a divisor that may be 0, a '^' base that may
be <= 0, an end or a literal that is not finite, or code too deeply nested
to compile. Where it returns a pair, the scalar function cannot raise in
the cell, and the pair also holds the real values of the expression there.
The RK4 kernel drops its clamp and checks of a map whose enclosure over
[0, 1]^2 lies inside [0, 1].
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from types import CodeType
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
# by element (_map) where numpy's round differently (sin, cos, exp, np.power),
# and does Python's min, max and '/' with their NaN, -0.0 and zero-divisor rules.
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

# The interval form: each node's template calls a helper on (lo, hi) pairs
# (below), and parentheses are the nesting of the calls.
_INTERVAL = {
    "+": "_iadd({}, {})", "-": "_isub({}, {})", "*": "_imul({}, {})", "/": "_idiv({}, {})",
    "^": "_ipow({}, {})", "neg": "_ineg({})", "()": "{}",
    "sin": "_isincos({})", "cos": "_isincos({})", "exp": "_iexp({})", "abs": "_iabs({})",
    "min": "_imin({}, {})", "max": "_imax({}, {})",
}
# The deepest nesting the parser accepts: parentheses, function calls, unary
# minuses and '^' exponents, one within another. The parser recurses at most
# seven Python frames a level, so at this depth it needs under half of
# CPython's default limit of 1,000 frames, whatever calls it; a level adds
# one bracket to each form's code, where CPython's tokenizer allows 200.
MAX_NESTING = 64

_TOKEN_RE = re.compile(
    r"(?P<op>[-+*/^(),])"
    r"|(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<bad>\S)"  # a character that starts no token
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """The (kind, text, position) tokens of source, found in one pass of
    _TOKEN_RE over it, which skips the whitespace between them, and last
    ("end", "", len(source))."""
    tokens = [(m.lastgroup, m[0], m.start()) for m in _TOKEN_RE.finditer(source)]
    for kind, value, pos in tokens:
        if kind == "bad":
            raise ExpressionSyntaxError(f"unexpected character {value!r}", pos)
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.i = 0
        self.literals: list[float] = []
        self.depth = 0  # factors being parsed, one within another

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept(self, ops: str) -> str | None:
        """The next token, consumed, if it is one of the operators `ops`."""
        kind, value, _ = self.tokens[self.i]
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
        # Each nesting (parentheses, a function call, a unary minus, a '^'
        # exponent) parses one more factor inside the current one.
        if self.depth > MAX_NESTING:
            raise ExpressionSyntaxError("expression is nested too deeply", 0)
        self.depth += 1
        if self.accept("-"):
            tree = self.factor()
            if type(tree) is int:  # a bare literal (never a '^' base here): fold the sign in
                self.literals[tree] = -self.literals[tree]
            else:
                tree = ("neg", tree)
        else:
            tree = self.power()
        self.depth -= 1
        return tree

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


def _is_array(value) -> bool:
    return isinstance(value, np.ndarray)


def _map(fn: Callable[..., float], *args):
    """fn element by element over the float array arguments, of one 1-D or
    2-D shape (a float argument is the same at every point), on Python
    floats: numpy's ufuncs may round sin, cos, exp and power differently
    from the libm functions the scalar code calls. fn runs once per distinct
    argument, keyed by the arrays' bit patterns (an int64 view, which keeps
    -0.0 apart from 0.0 and one NaN payload from another), or per distinct
    tuple of them, and its value goes to every point with that argument. An
    error of fn at any argument propagates; a value that is not a real
    number, such as the complex power of a negative base, raises TypeError."""
    arrays = [a for a in args if _is_array(a)]
    if not arrays:
        return float(fn(*args))
    groups, first = _number(arrays[0].reshape(-1).view(np.int64))
    for a in arrays[1:]:
        more, more_first = _number(a.reshape(-1).view(np.int64))
        groups, first = _number(groups * more_first.size + more)  # below size**2
    columns = [a.reshape(-1)[first].tolist() if _is_array(a) else itertools.repeat(a) for a in args]
    values = np.fromiter(map(fn, *columns), float, count=first.size)
    return values[groups].reshape(arrays[0].shape)


def _number(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(groups, first) for the 1-D int array keys: each point's number
    among the distinct keys, counted in increasing order from 0, and, by
    number, the index of a point with that key. The sort is numpy's stable
    one, for 64-bit keys a timsort, which takes the ascending and descending
    runs of the keys as they come: linear over the equilibrium scan, and
    faster than the default sort over the grids' rows."""
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    new = np.empty(keys.size, bool)  # a point starts a group in key order
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    groups = np.empty(keys.size, np.intp)
    groups[order] = new.cumsum() - 1
    return groups, order[new]


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


# The interval helpers take and return (lo, hi) pairs of finite floats that
# hold every value of their operands' scalar code over a set of points, and
# raise an ArithmeticError where they give no finite enclosure. + - * / take
# the hull of their rounded values at the operands' ends: rounding to
# nearest is monotone, so those bound every rounded value in between. An end
# whose operation was inexact moves outward by an ulp, so that it bounds the
# real value too; an exact one is the real value, and a map that reaches 0
# or 1 exactly, such as 0.9*b1, keeps that end. exp and '^' call libm's exp
# and pow, which are not correctly rounded (the glibc manual's "Known
# Maximum Errors in Math Functions" lists up to 2 ulps for them), so they
# widen each end by _LIBM_ULPS: the error of the end's own call plus that of
# the scalar code's call. sin and cos give [-1, 1]; abs, min and max the
# hull.
_LIBM_ULPS = 4

# x op y as an integer ratio (numerator, denominator), from the ratios
# nx/dx and ny/dy of finite floats x and y.
_RATIOS = {
    operator.add: lambda nx, dx, ny, dy: (nx * dy + ny * dx, dx * dy),
    operator.sub: lambda nx, dx, ny, dy: (nx * dy - ny * dx, dx * dy),
    operator.mul: lambda nx, dx, ny, dy: (nx * ny, dx * dy),
    operator.truediv: lambda nx, dx, ny, dy: (nx * dy, dx * ny),
}


def _enclose(lo: float, hi: float, ulps: int = 1) -> tuple[float, float]:
    for _ in range(ulps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    if -math.inf < lo and hi < math.inf:  # False for NaN
        return lo, hi
    raise OverflowError("no finite enclosure")


def _point(value: float) -> tuple[float, float]:
    return _enclose(value, value, 0)


def _hull(op: Callable[[float, float], float], corners) -> tuple[float, float]:
    """The least and the greatest of x op y over the (x, y) corners, each
    moved outward by an ulp unless it is the exact value (an overflowed
    one, inf, raises OverflowError). An operation with a zero operand (never
    a divisor here) is exact."""
    lo, hi = math.inf, -math.inf
    ratio = _RATIOS[op]
    for x, y in corners:
        value = op(x, y)
        if x == 0.0 or y == 0.0 or _is_ratio(value, *ratio(*x.as_integer_ratio(), *y.as_integer_ratio())):
            lo, hi = min(lo, value), max(hi, value)
        else:
            lo = min(lo, math.nextafter(value, -math.inf))
            hi = max(hi, math.nextafter(value, math.inf))
    return _enclose(lo, hi, 0)


def _is_ratio(value: float, n: int, d: int) -> bool:
    """Whether the float value is exactly n / d."""
    value_n, value_d = value.as_integer_ratio()
    return value_n * d == n * value_d


def _iadd(a, b):
    return _hull(operator.add, ((a[0], b[0]), (a[1], b[1])))


def _isub(a, b):
    return _hull(operator.sub, ((a[0], b[1]), (a[1], b[0])))


def _imul(a, b):
    return _hull(operator.mul, itertools.product(a, b))


def _idiv(a, b):
    if b[0] <= 0.0 <= b[1]:
        raise ZeroDivisionError("the divisor may be 0")
    return _hull(operator.truediv, itertools.product(a, b))


def _ipow(a, b):
    """x ** y over a positive base is monotone in x and in y: its ends are
    at the corners."""
    if a[0] <= 0.0:
        raise ArithmeticError("the base may not be positive")
    ends = (a[0] ** b[0], a[0] ** b[1], a[1] ** b[0], a[1] ** b[1])
    return _enclose(min(ends), max(ends), _LIBM_ULPS)


def _iexp(a):
    return _enclose(math.exp(a[0]), math.exp(a[1]), _LIBM_ULPS)


def _isincos(a):
    return -1.0, 1.0


def _ineg(a):
    return -a[1], -a[0]


def _iabs(a):
    if a[0] >= 0.0:
        return a
    if a[1] <= 0.0:
        return -a[1], -a[0]
    return 0.0, max(-a[0], a[1])


def _imin(a, b):
    return min(a[0], b[0]), min(a[1], b[1])


def _imax(a, b):
    return max(a[0], b[0]), max(a[1], b[1])


_INTERVAL_NAMES = {
    "__builtins__": {}, "EVAL_ERRORS": EVAL_ERRORS, "_point": _point,
    "_iadd": _iadd, "_isub": _isub, "_imul": _imul, "_idiv": _idiv, "_ipow": _ipow,
    "_iexp": _iexp, "_isincos": _isincos, "_ineg": _ineg, "_iabs": _iabs,
    "_imin": _imin, "_imax": _imax,
}
_INTERVAL_TEMPLATE = """\
def compiled_interval(literals, b0, b1):
    try:
        return {interval}
    except EVAL_ERRORS:
        return None
"""


@functools.lru_cache(maxsize=64)
def _interval_function(template: str, n_literals: int) -> Callable:
    """The interval function of a tree rendered in _INTERVAL as `template`:
    interval(literals, b0, b1) takes the literals' values and the (lo, hi)
    pairs b0 and b1, and returns a (lo, hi) pair of finite floats that holds
    the scalar code's value at every point of the cell b0 x b1, or None
    where it gives no such enclosure (or the code does not compile). Trees
    that differ only in their numbers share one function."""
    fields = [f"_point(literals[{i}])" for i in range(n_literals)]
    code = template.format(*fields, b0="b0", b1="b1")
    namespace = dict(_INTERVAL_NAMES)
    try:
        eval(compile(_INTERVAL_TEMPLATE.format(interval=code), "<expression>", "exec"), namespace)
    except (RecursionError, MemoryError, SyntaxError):  # a long chain nests a call per term
        return lambda literals, b0, b1: None
    return namespace["compiled_interval"]


# The affine tree a + c*b0 + d*b1, the RK4 kernel's affine map, and its
# interval form: affine_interval((a, c, d), b0, b1).
AFFINE_TREE = _Parser("0 + 0*b0 + 0*b1").parse()
affine_interval = _interval_function(_render(AFFINE_TREE, _INTERVAL), 3)

# The names every scalar and array function sees; each expression's own
# namespace adds its literals, lit0, lit1, ..., and the _fail that names its
# source. Neither form's code runs with builtins.
_NAMES = {
    **SCALAR_FUNCTIONS, "__builtins__": {}, "EVAL_ERRORS": EVAL_ERRORS,
    "_isinstance": isinstance, "_complex": complex,
    "_map": _map, "_pow": operator.pow, "_div": _div, "_min": _min, "_max": _max,
    "_ndarray": np.ndarray, "_full": np.full,
}
# The code objects of the scalar and array functions, by their source text:
# the literals are names, so expressions that differ only in their numbers
# have one source and compile once per process. The oldest of more than
# _CODES_SIZE goes first; a function keeps its code object all the same.
# compile() is called where the text is written, without a frame around it:
# CPython scales its compiler's nesting limit from the caller's stack depth,
# and the kernel's fallback to calls rests on where that limit lies.
_CODES: dict[str, CodeType] = {}
_CODES_SIZE = 128


# The array function of a shape whose array code is too deep to compile, kept
# in _CODES in its place: it vouches for no point, and the points go through
# the scalar function, which gives the same bits. The scalar code's failure
# is not kept: CPython's nesting limit there follows the caller's stack depth.
_NO_ARRAY = compile("def compiled_array(b0, b1):\n    return None\n", "<expression>", "exec")


def _keep(text: str, code: CodeType) -> CodeType:
    """Keep code as the code object of the source text, and return it."""
    if len(_CODES) >= _CODES_SIZE:
        del _CODES[next(iter(_CODES))]
    _CODES[text] = code
    return code


def _literal_names(n_literals: int) -> list[str]:
    return [f"lit{i}" for i in range(n_literals)]


def compile_expression(source: str) -> Callable[[float, float], float]:
    """Compile a dynamics expression into a pure (b0, b1) -> float map that
    raises ExpressionEvaluationError instead of returning a NaN, infinite or
    complex value.

    The map's `scalar_code` attribute is (template, literals): the scalar
    code as a str.format template with the fields {b0} and {b1} for the
    rates and {i} for the i-th numeric literal, and the literals' values.
    Expressions that differ only in their numbers share one template. The
    map runs it with the names lit0, lit1, ... in the literal fields, bound
    to the literals' values, as the RK4 kernel does; it calls the functions
    in SCALAR_FUNCTIONS by name. Each template is compiled once per process
    (while its code object stays in a cache of _CODES_SIZE) and run in a
    namespace of its own per expression. The map's `tree` attribute is the
    parsed tree that template is rendered from (_render over _SCALAR).

    The map's `array` attribute is the expression's array form, compiled
    from the same parse, with its literals bound the same way: array(b0, b1)
    takes two float arrays of one shape and returns the unchecked values at
    every point, bit for bit the scalar map's wherever that returns, or None
    when the scalar map might raise at some point. Evaluate it under
    np.errstate(all="ignore"); a non-finite value marks a point where the
    scalar map raises.

    The map's `interval` attribute is the interval form, compiled at its
    first call: interval((lo0, hi0), (lo1, hi1)) returns a (lo, hi) pair
    of finite floats holding the map's value at every point of that cell
    of (b0, b1), or None."""
    def fail(b0: float, b1: float, outcome) -> None:
        raise ExpressionEvaluationError(source, b0, b1, outcome)

    try:
        parser = _Parser(source)
        tree = parser.parse()
        literals = tuple(parser.literals)
        names = _literal_names(len(literals))
        template = _render(tree, _SCALAR)
        code = template.format(*names, b0="b0", b1="b1")
        real = " and not _isinstance(v, _complex)" if "**" in code else ""
        text = _TEMPLATE.format(code=code, real=real)
        compiled_code = _CODES.get(text)
        if compiled_code is None:
            compiled_code = _keep(text, compile(text, "<expression>", "exec"))
    except (RecursionError, MemoryError, SyntaxError):  # nesting limits
        raise ExpressionSyntaxError("expression is nested too deeply", 0) from None
    # exec is safe here: the code is rendered only from the tree's literal
    # names, b0, b1 and the templates in _SCALAR and _ARRAY, and runs
    # without builtins, seeing only the names below.
    namespace = dict(_NAMES, _fail=fail)
    namespace.update(zip(names, literals))
    exec(compiled_code, namespace)
    compiled = namespace["compiled"]
    compiled.scalar_code = (template, literals)
    compiled.tree = tree
    compiled.array = _array_form(tree, len(literals), namespace)
    compiled.interval = _interval_form(tree, literals)
    return compiled


def _array_form(tree, n_literals: int, namespace: dict) -> Callable:
    """The array function of the tree, run in the scalar function's
    namespace, rendered at its first call: the trajectory engines never
    call it, and compiling a new shape costs as much as the scalar
    function does. A shape whose array code does not compile gets
    _NO_ARRAY, kept like any code object, so that it is not compiled again."""

    def array_form(b0, b1):
        fn = namespace.get("compiled_array")
        if fn is None:
            array = _render(tree, _ARRAY).format(*_literal_names(n_literals), b0="b0", b1="b1")
            text = _ARRAY_TEMPLATE.format(array=array)
            code = _CODES.get(text)
            if code is None:
                try:
                    code = compile(text, "<expression>", "exec")
                except (RecursionError, MemoryError, SyntaxError):  # '/' and '^' nest deeper here
                    code = _NO_ARRAY
                _keep(text, code)
            exec(code, namespace)
            fn = namespace["compiled_array"]
        return fn(b0, b1)

    return array_form


def _interval_form(tree, literals: tuple[float, ...]) -> Callable:
    """The interval function of the tree at its literals' values, rendered
    at its first call: interval(b0, b1)."""
    template = None

    def interval_form(b0, b1):
        nonlocal template
        if template is None:
            template = _render(tree, _INTERVAL)
        return _interval_function(template, len(literals))(literals, b0, b1)

    return interval_form
