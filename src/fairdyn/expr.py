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
the expression is one table keyed by kind, which one fold (_fold) applies
over the tree, never reassociating or simplifying: _SCALAR and _ARRAY hold
code templates, filled in with the code of the children and of the leaves,
whose names each caller gives, and _INTERVAL the interval helpers, which
interval() calls. The grammar's precedence and associativity
are Python's own (unary minus binds looser than '^', which is right
associative and takes a negated exponent), so the scalar function does the
tree's IEEE operations in the tree's order, bit-reproducible on a given
platform. An arithmetic error or a NaN, infinite or complex result raises
ExpressionEvaluationError naming the expression and the (b0, b1) point.
The RK4 kernel inlines the scalar code, folded from the tree
(compile_expression's shape attribute) over _SCALAR with its own names.

No form writes a literal's value into its code: the scalar and array
functions read the names lit0, lit1, ..., and the kernel its arguments. So
each shape, an expression up to its numbers, is compiled once per process
into a Shape (_SHAPES): its tree and one code object of its scalar and
array functions, which expressions of the shape run on their literals.
Those are the same IEEE operations on the same doubles as code with the
values written in: CPython folds a subtree of literals with the same float
operations.

The array function does the same IEEE operations on numpy float arrays.
It calls sin, cos, exp and '^' (Python's pow) element by element on Python
floats, as the scalar function does, and not numpy's ufuncs, which may round
differently from libm; and it calls each once per distinct argument (per bit
pattern, or pair of them; see _map), since grids pass the same arguments
many times.
Where the scalar function could raise at some point (a zero divisor, an
element-wise call that raises, a complex power) it returns None instead,
and a non-finite value it returns marks a point where the scalar function
raises.

The interval form (interval(), after Moore's interval arithmetic) walks
the tree; it is not compiled. It takes a cell, a (lo, hi) pair for each
rate, and returns a (lo, hi) pair of finite floats that holds the scalar
function's value at every point of the cell, or None where it cannot: a
divisor that may be 0, a '^' base that may be <= 0, or an end or a literal
that is not finite. Where it returns a pair, the scalar function cannot
raise in the cell, and the pair also holds the real values of the
expression there.
The RK4 kernel drops its clamp and checks of a map whose enclosure over
[0, 1]^2 lies inside [0, 1].
"""

from __future__ import annotations

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
# function's arity), as its bound str.format. The array form calls Python's
# float functions element by element (_map) where numpy's round differently
# (sin, cos, exp, np.power), and does Python's min, max and '/' with their
# NaN, -0.0 and zero-divisor rules.
_SCALAR = {
    "+": "{} + {}", "-": "{} - {}", "*": "{} * {}", "/": "{} / {}", "^": "{} ** {}",
    "neg": "-{}", "()": "({})",
    "sin": "sin({})", "cos": "cos({})", "exp": "exp({})", "abs": "abs({})",
    "min": "min({}, {})", "max": "max({}, {})",
}
_ARRAY = {
    **_SCALAR, "/": "{} / _nonzero({})", "^": "_map(_pow, {}, {})",
    "sin": "_map(sin, {})", "cos": "_map(cos, {})", "exp": "_map(exp, {})",
    "min": "_min({}, {})", "max": "_max({}, {})",
}
_SCALAR, _ARRAY = (
    {kind: template.format for kind, template in form.items()} for form in (_SCALAR, _ARRAY)
)
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
                arity = _SCALAR[value].__self__.count("{}")  # its template's slots
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


def _fold(node, table: dict[str, Callable], leaves):
    """The tree folded bottom-up: a leaf's value is leaves[leaf], and a
    node's is table[kind] called on its children's values, which are folded
    left to right. A left-nested chain of + - * / (a 1,000-term sum nests
    999 deep) is folded in a loop; any other node takes one frame, fewer
    than the parser takes: what parses folds."""
    chain = []
    while type(node) is tuple and node[0] in "+-*/":
        chain.append(node)
        node = node[1]
    if type(node) is not tuple:
        value = leaves[node]
    elif len(node) == 2:
        value = table[node[0]](_fold(node[1], table, leaves))
    else:
        value = table[node[0]](_fold(node[1], table, leaves), _fold(node[2], table, leaves))
    for kind, _, right in reversed(chain):
        value = table[kind](value, _fold(right, table, leaves))
    return value


# The whole expression becomes one scalar and one array function, compiled
# together. In the scalar one, the chained comparison is False for NaN and
# +-inf and raises TypeError for a Python complex value. Only '**' turns real
# operands complex, and numpy's complex128 compares without raising, so code
# with '**' also checks the type. In the array one a subtree is a Python
# float when it has no b0 or b1 in it, else a float array of the points'
# shape.
_TEMPLATE = """\
def compiled(b0, b1):
    try:
        v = {code}
        if -1e999 < v < 1e999{real}:
            return v
    except EVAL_ERRORS as exc:
        v = exc
    _fail(b0, b1, v)


def compiled_array(b0, b1):
    try:
        v = {array_code}
    except EVAL_ERRORS:
        return None
    return v if _isinstance(v, _ndarray) else _full(_broadcast_shapes(b0.shape, b1.shape), v)
"""
# The errors that mark a failed evaluation of an expression's code.
EVAL_ERRORS = (ArithmeticError, TypeError, ValueError)


def _is_array(value) -> bool:
    return isinstance(value, np.ndarray)


def _number(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the integer array keys, in increasing order,
    and each key's index among them, an array of keys' shape: one sort, a
    mask of where the sorted run changes, and a binary search per key."""
    ordered = np.sort(keys, axis=None)
    new = np.empty(ordered.size, bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    distinct = ordered[new]
    return distinct, np.searchsorted(distinct, keys)


def _distinct(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_number of the bit patterns of the float array a (an int64 view,
    which keeps -0.0 apart from 0.0 and one NaN payload from another). Where
    a's points lie along one axis and are strictly monotone, they are all
    distinct, and each is its own number, in a's order."""
    keys = a.view(np.int64)
    if a.size == max(a.shape, default=1):
        flat = a.reshape(-1)
        if (flat[1:] > flat[:-1]).all() or (flat[1:] < flat[:-1]).all():
            return keys.reshape(-1), np.arange(a.size).reshape(a.shape)
    return _number(keys)


def _map(fn: Callable[..., float], *args):
    """fn element by element over the float array arguments, which
    broadcast together (a float argument is the same at every point), on
    Python floats: numpy's ufuncs may round sin, cos, exp and power
    differently from the libm functions the scalar code calls. fn runs once
    per distinct argument, keyed by the arrays' bit patterns (_distinct), or
    per distinct pair of them, whose numbers i and j make the one key
    i * n + j (n the count of the second array's patterns); its value goes
    to every point with that argument. fn sees the distinct arguments in
    no set order: an error of fn at any of them propagates, and a value
    that is not a real number, such as the complex power of a negative
    base, raises TypeError."""
    arrays = [a for a in args if _is_array(a)]
    if not arrays:
        return float(fn(*args))
    if len(arrays) == 1:
        keys, groups = _distinct(arrays[0])
        columns = [keys.view(float).tolist() if _is_array(a) else itertools.repeat(a) for a in args]
    else:  # '^' of two arrays
        (ka, ia), (kb, ib) = map(_distinct, arrays)
        keys, groups = _number(ia * kb.size + ib)
        columns = [ka[keys // kb.size].view(float).tolist(), kb[keys % kb.size].view(float).tolist()]
    return np.fromiter(map(fn, *columns), float, count=keys.size)[groups]


def _nonzero(b):
    """The divisor b, where none of its values is 0: Python raises where
    numpy returns inf or NaN."""
    if np.any(b == 0.0):
        raise ZeroDivisionError("division by zero")
    return b


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


# The interval helper of each kind of node; parentheses keep the pair.
_INTERVAL = {
    "+": _iadd, "-": _isub, "*": _imul, "/": _idiv, "^": _ipow, "neg": _ineg, "()": tuple,
    "sin": _isincos, "cos": _isincos, "exp": _iexp, "abs": _iabs, "min": _imin, "max": _imax,
}


def interval(tree, literals: tuple[float, ...], b0, b1) -> tuple[float, float] | None:
    """The interval form of tree at the literals' values: a (lo, hi) pair of
    finite floats that holds the tree's scalar code's value at every point
    of the cell b0 x b1 of (lo, hi) pairs, or None where it gives no such
    enclosure."""
    try:
        return _fold(tree, _INTERVAL, dict(enumerate(map(_point, literals)), b0=b0, b1=b1))
    except EVAL_ERRORS:
        return None


# The names every scalar and array function sees; each expression's own
# namespace adds its literals, lit0, lit1, ..., and the _fail that names its
# source. Neither form's code runs with builtins.
_NAMES = {
    **SCALAR_FUNCTIONS, "__builtins__": {}, "EVAL_ERRORS": EVAL_ERRORS,
    "_isinstance": isinstance, "_complex": complex,
    "_map": _map, "_pow": operator.pow, "_nonzero": _nonzero, "_min": _min, "_max": _max,
    "_ndarray": np.ndarray, "_full": np.full, "_broadcast_shapes": np.broadcast_shapes,
}


class Shape:
    """One expression shape: its tree, its number of literals and the code
    object of its scalar and array functions (None for AFFINE_SHAPE). It
    hashes and compares by identity: a cache keyed by it walks no tree."""

    __slots__ = ("tree", "n_literals", "code")

    def __init__(self, tree, n_literals: int, code: CodeType | None):
        self.tree, self.n_literals, self.code = tree, n_literals, code


# The affine map a + c*b0 + d*b1, the RK4 kernel's affine map.
AFFINE_SHAPE = Shape(_Parser("0 + 0*b0 + 0*b1").parse(), 3, None)

# The Shape of each shape, by its scalar code, which names it, as the
# literals are names. The oldest of more than _SHAPES_SIZE goes first; its
# maps keep it all the same, and the shape parsed again is a new Shape.
_SHAPES: dict[str, Shape] = {}
_SHAPES_SIZE = 128


def compile_expression(source: str) -> Callable[[float, float], float]:
    """Compile a dynamics expression into a pure (b0, b1) -> float map that
    raises ExpressionEvaluationError instead of returning a NaN, infinite or
    complex value.

    The map's `shape` attribute is its Shape, whose `tree` is the parsed
    tree, and its `literals` attribute the values of the tree's numeric
    literals: leaf i is literals[i]. Expressions that differ only in their
    numbers share one Shape while it stays in a cache of _SHAPES_SIZE
    shapes; its scalar and array functions compile together, once, and run
    on each expression's own literals. The map runs the tree's scalar code
    with the names lit0, lit1, ... bound to the literals' values; the RK4
    kernel folds its own code from the tree, with its own names. The code
    calls the functions in SCALAR_FUNCTIONS by name. interval(shape.tree,
    literals, b0, b1) is the map's interval form.

    The map's `array` attribute is the expression's array function, with its
    literals bound the same way: array(b0, b1) takes two float arrays that
    broadcast together and returns the unchecked values at every point, bit
    for bit the scalar map's wherever that returns, or None when the scalar
    map might raise at some point. Each subexpression runs on the shape of
    the rates it reads, so the values come in an array that broadcasts to
    the arrays' shape (of b1's shape for a map of b1 alone; a constant map
    fills the broadcast shape). Evaluate it under np.errstate(all="ignore"); a
    non-finite value marks a point where the scalar map raises."""
    def fail(b0: float, b1: float, outcome) -> None:
        raise ExpressionEvaluationError(source, b0, b1, outcome)

    try:
        parser = _Parser(source)
        tree = parser.parse()
        literals = tuple(parser.literals)
        names = [f"lit{i}" for i in range(len(literals))]
        leaves = dict(enumerate(names), b0="b0", b1="b1")
        code = _fold(tree, _SCALAR, leaves)
        shape = _SHAPES.get(code)
        if shape is None:
            real = " and not _isinstance(v, _complex)" if "**" in code else ""
            array_code = _fold(tree, _ARRAY, leaves)
            text = _TEMPLATE.format(code=code, real=real, array_code=array_code)
            # compile() is called in this frame: CPython scales its compiler's
            # nesting limit from the caller's stack depth, and the kernel's
            # fallback to calls rests on where that limit lies.
            shape = Shape(tree, len(literals), compile(text, "<expression>", "exec"))
            if len(_SHAPES) >= _SHAPES_SIZE:
                del _SHAPES[next(iter(_SHAPES))]
            _SHAPES[code] = shape
    except (RecursionError, MemoryError, SyntaxError):  # nesting limits
        raise ExpressionSyntaxError("expression is nested too deeply", 0) from None
    # exec is safe here: the code is rendered only from the tree's literal
    # names, b0, b1 and the templates in _SCALAR and _ARRAY, and runs
    # without builtins, seeing only the names below.
    namespace = dict(_NAMES, _fail=fail)
    namespace.update(zip(names, literals))
    exec(shape.code, namespace)
    compiled = namespace["compiled"]
    compiled.literals = literals
    compiled.shape = shape
    compiled.array = namespace["compiled_array"]
    return compiled
