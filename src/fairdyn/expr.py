"""Recursive-descent compiler for dynamics expressions.

Grammar (over the selection rates b0 and b1):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?          # right associative
    atom    := NUMBER | 'b0' | 'b1' | FUNC '(' expr (',' expr)* ')' | '(' expr ')'

Numbers are decimal or scientific literals. Available functions:
sin, cos, exp, abs (1 argument), min, max (2 arguments).

Each parser rule returns the Python source of its subtree; compile_expression
makes one function of the whole. The grammar's precedence and associativity
are Python's own (unary minus binds looser than '^', which is right
associative and takes a negated exponent), so the function does the tree's
IEEE operations in the tree's order, bit-reproducible on a given platform.
An arithmetic error or a NaN, infinite or complex result raises
ExpressionEvaluationError naming the expression and the (b0, b1) point.
"""

from __future__ import annotations

import math
import re
from typing import Callable


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


_FUNCTIONS: dict[str, tuple[int, Callable[..., float]]] = {
    "sin": (1, math.sin),
    "cos": (1, math.cos),
    "exp": (1, math.exp),
    "abs": (1, abs),
    "min": (2, min),
    "max": (2, max),
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

    def parse(self) -> str:
        code = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected trailing {value!r}", pos)
        return code

    def expr(self) -> str:
        return self.chain(self.term, "+-")

    def term(self) -> str:
        return self.chain(self.factor, "*/")

    def chain(self, operand: Callable[[], str], ops: str) -> str:
        """Left-associative operand (op operand)*."""
        code = operand()
        while True:
            kind, value, _ = self.peek()
            if kind != "op" or value not in ops:
                return code
            self.next()
            code = f"{code} {value} {operand()}"

    def factor(self) -> str:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.next()
            return "-" + self.factor()
        return self.power()

    def power(self) -> str:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.next()
            return f"{base} ** {self.factor()}"
        return base

    def atom(self) -> str:
        kind, value, pos = self.next()
        if kind == "num":
            const = float(value)  # never NaN; a literal that overflows is inf
            return repr(const) if math.isfinite(const) else "1e999"
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
                return f"{value}({', '.join(args)})"
            if value in ("b0", "b1"):
                return value
            raise UnknownIdentifierError(f"unknown identifier {value!r}", pos)
        if kind == "op" and value == "(":
            code = self.expr()
            self.expect_op(")")
            return f"({code})"
        raise ExpressionSyntaxError(f"unexpected {value or 'end'!r}", pos)


# The whole expression becomes one function. The chained comparison is False
# for NaN and +-inf and raises TypeError for a Python complex value. Only '**'
# turns real operands complex, and numpy's complex128 compares without raising,
# so code with '**' also checks the type.
_TEMPLATE = """\
def compiled(b0, b1):
    try:
        v = {code}
        if -1e999 < v < 1e999{real}:
            return v
    except _EVAL_ERRORS as exc:
        v = exc
    _fail(b0, b1, v)
"""
_EVAL_ERRORS = (ArithmeticError, TypeError, ValueError)


def compile_expression(source: str) -> Callable[[float, float], float]:
    """Compile a dynamics expression into a pure (b0, b1) -> float map that
    raises ExpressionEvaluationError instead of returning a NaN, infinite or
    complex value."""
    def fail(b0: float, b1: float, outcome) -> None:
        raise ExpressionEvaluationError(source, b0, b1, outcome)

    # eval is safe here: the code is built only from validated tokens (float
    # literals, b0, b1, the names in _FUNCTIONS, operators and parentheses)
    # and runs without builtins, seeing only the names below.
    namespace = {name: impl for name, (_, impl) in _FUNCTIONS.items()}
    namespace.update(__builtins__={}, _EVAL_ERRORS=_EVAL_ERRORS, _fail=fail)
    namespace.update(_isinstance=isinstance, _complex=complex)
    try:
        code = _Parser(source).parse()
        real = " and not _isinstance(v, _complex)" if "**" in code else ""
        eval(compile(_TEMPLATE.format(code=code, real=real), "<expression>", "exec"), namespace)
    except (RecursionError, MemoryError, SyntaxError):  # nesting limits
        raise ExpressionSyntaxError("expression is nested too deeply", 0) from None
    return namespace["compiled"]
