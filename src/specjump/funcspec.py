"""Piecewise test functions with exact one-sided limits and known jumps.

A function is described in a small text format::

    domain [-pi,pi] periodic;
    piece (-pi-x)/2 on (-pi,0);
    piece (pi-x)/2 on (0,pi);
    jumps {0: pi}

Pieces live on open subintervals; the value at a breakpoint is always the
midpoint of the two one-sided limits, which is the normalization every jump
formula in this package assumes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "Expression",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "PiecewiseFunction",
    "SpecSyntaxError",
    "SpecArityError",
    "DomainError",
    "parse_function_spec",
    "format_function_spec",
    "evaluate",
    "one_sided_limits",
    "true_jump",
]


class SpecSyntaxError(ValueError):
    """Malformed function-spec text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class SpecArityError(ValueError):
    """Unknown function name or wrong number of call arguments."""


class DomainError(ValueError):
    """Point or breakpoint outside the declared domain."""


# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    operand: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    name: str
    arg: "Expression"


Expression = Num | Var | Neg | BinOp | Call


def _sign(v: float) -> float:
    if v != v:
        return v  # nan stays nan
    return 0.0 if v == 0 else math.copysign(1.0, v)


_FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "abs": abs,
    "sign": _sign,
    "sqrt": math.sqrt,
}


def eval_expr(expr: Expression, x: float) -> float:
    """Evaluate an expression tree at a scalar point."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        return x
    if isinstance(expr, Neg):
        return -eval_expr(expr.operand, x)
    if isinstance(expr, Call):
        return float(_FUNCTIONS[expr.name](eval_expr(expr.arg, x)))
    op, a, b = expr.op, eval_expr(expr.left, x), eval_expr(expr.right, x)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    # parser guarantees the exponent is an integer literal
    return a ** int(b)


def _map_scalar(fn, v: np.ndarray) -> np.ndarray:
    """fn applied to each element of v.

    Where fn raises, the element gets the non-finite value IEEE arithmetic
    gives: nan outside the domain (sqrt of a negative number, sin or cos of
    an infinity), and an infinity on overflow or a negative power of zero,
    signed like fn(+-1) for the argument's sign (exp is positive; x^n takes
    the sign of (+-1)^n).
    """
    vals = v.tolist()
    try:
        return np.array([fn(t) for t in vals], dtype=float)
    except (ArithmeticError, ValueError):
        pass
    out = []
    for t in vals:
        try:
            out.append(fn(t))
        except ValueError:
            out.append(math.nan)
        except ArithmeticError:
            out.append(math.copysign(math.inf, fn(math.copysign(1.0, t))))
    return np.array(out, dtype=float)


def eval_expr_array(expr: Expression, x: np.ndarray) -> np.ndarray:
    """Vectorized expression evaluation; used by quadrature and sampling.

    Arithmetic runs in numpy; function calls and integer powers go through
    the scalar routines eval_expr uses, so both agree bit for bit.  numpy's
    own exp and power dispatch to SIMD code that differs from libm on some
    CPUs, which would make quadrature bits depend on the host.
    """
    if isinstance(expr, Num):
        return np.full_like(x, expr.value, dtype=float)
    if isinstance(expr, Var):
        return np.asarray(x, dtype=float)
    if isinstance(expr, Neg):
        return -eval_expr_array(expr.operand, x)
    if isinstance(expr, Call):
        return _map_scalar(_FUNCTIONS[expr.name], eval_expr_array(expr.arg, x))
    a = eval_expr_array(expr.left, x)
    if expr.op == "^":
        n = int(expr.right.value)
        return _map_scalar(lambda t: t**n, a)
    b = eval_expr_array(expr.right, x)
    if expr.op == "+":
        return a + b
    if expr.op == "-":
        return a - b
    if expr.op == "*":
        return a * b
    return a / b


# ---------------------------------------------------------------------------
# Piecewise functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewiseFunction:
    """A regulated function on a closed interval, one expression per open piece.

    breakpoints are strictly increasing and interior to the domain; there is
    exactly one more piece than there are breakpoints.  jump_metadata is
    optional declared ground truth, as (location, magnitude) pairs.
    """

    domain: tuple[float, float]
    breakpoints: tuple[float, ...]
    pieces: tuple[Expression, ...]
    periodic: bool = False
    jump_metadata: Optional[tuple[tuple[float, float], ...]] = None

    def __post_init__(self):
        lo, hi = self.domain
        if not (lo < hi):
            raise DomainError(f"empty domain [{lo}, {hi}]")
        if len(self.pieces) != len(self.breakpoints) + 1:
            raise DomainError(
                f"{len(self.pieces)} pieces for {len(self.breakpoints)} breakpoints"
            )
        prev = lo
        for b in self.breakpoints:
            if not (prev < b < hi):
                raise DomainError(f"breakpoint {b} not interior to [{lo}, {hi}]")
            prev = b

    @property
    def edges(self) -> tuple[float, ...]:
        lo, hi = self.domain
        return (lo,) + self.breakpoints + (hi,)


def _wrap(f: PiecewiseFunction, x: float) -> float:
    lo, hi = f.domain
    if f.periodic:
        if x < lo or x >= hi:
            x = lo + math.fmod(x - lo, hi - lo)
            if x < lo:
                x += hi - lo
        return x
    if x < lo or x > hi:
        raise DomainError(f"{x} outside domain [{lo}, {hi}]")
    return x


def _piece_index(f: PiecewiseFunction, x: float) -> int:
    """Index of the piece whose open interval contains x (x not an edge)."""
    edges = f.edges
    for i in range(len(f.pieces)):
        if edges[i] < x < edges[i + 1]:
            return i
    raise DomainError(f"{x} does not lie inside any piece")


def one_sided_limits(f: PiecewiseFunction, x: float) -> tuple[float, float]:
    """Return (f(x-0), f(x+0)).

    Pieces extend continuously to their closed endpoints, so the limit at a
    breakpoint is the adjacent piece evaluated at the breakpoint itself.
    """
    x = _wrap(f, x)
    lo, hi = f.domain
    if x == lo or x == hi:
        if not f.periodic:
            raise DomainError("one-sided limits need an interior point")
        left = eval_expr(f.pieces[-1], hi)
        right = eval_expr(f.pieces[0], lo)
        return (left, right)
    for i, b in enumerate(f.breakpoints):
        if x == b:
            return (eval_expr(f.pieces[i], x), eval_expr(f.pieces[i + 1], x))
    v = eval_expr(f.pieces[_piece_index(f, x)], x)
    return (v, v)


def evaluate(f: PiecewiseFunction, x: float) -> float:
    """Point value; the midpoint of the one-sided limits at any breakpoint."""
    x = _wrap(f, x)
    lo, hi = f.domain
    if (x == lo or x == hi) and not f.periodic:
        # closure value of the edge piece
        piece = f.pieces[0] if x == lo else f.pieces[-1]
        return eval_expr(piece, x)
    if x == lo or x in f.breakpoints:
        left, right = one_sided_limits(f, x)
        return (left + right) / 2.0
    return eval_expr(f.pieces[_piece_index(f, x)], x)


def true_jump(f: PiecewiseFunction, x: float) -> float:
    """f(x+0) - f(x-0); zero at continuity points."""
    left, right = one_sided_limits(f, x)
    return right - left


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<num>(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<sym>[-+*/^()\[\]{};:,])
""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # num | name | sym | end
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise SpecSyntaxError(f"unexpected character {ch!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        tokens.append(_Token(kind, tok, line, col))
        col += len(tok)
        i = m.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Recursive-descent parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[_Token] = None):
        tok = tok or self.peek()
        raise SpecSyntaxError(message, tok.line, tok.col)

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            self.error(f"expected {text!r}, found {tok.text!r}", tok)
        return tok

    def accept(self, text: str) -> bool:
        if self.peek().text == text:
            self.pos += 1
            return True
        return False

    # expression grammar: sum -> term -> unary -> power -> atom
    def parse_expr(self) -> Expression:
        node = self.parse_term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expression:
        node = self.parse_unary()
        while self.peek().text in ("*", "/"):
            op = self.next().text
            node = BinOp(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> Expression:
        if self.accept("-"):
            return Neg(self.parse_unary())
        if self.accept("+"):
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self) -> Expression:
        base = self.parse_atom()
        if self.accept("^"):
            neg = self.accept("-")
            tok = self.next()
            if tok.kind != "num" or not re.fullmatch(r"\d+", tok.text):
                self.error("exponent must be an integer literal", tok)
            exponent = float(tok.text)
            node = BinOp("^", base, Num(-exponent if neg else exponent))
            return node
        return base

    def parse_atom(self) -> Expression:
        tok = self.next()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "name":
            if tok.text == "x":
                return Var()
            if tok.text == "pi":
                return Num(math.pi)
            if self.peek().text == "(":
                if tok.text not in _FUNCTIONS:
                    raise SpecArityError(f"unknown function {tok.text!r}")
                self.expect("(")
                arg = self.parse_expr()
                self.expect(")")
                return Call(tok.text, arg)
            self.error(f"unexpected name {tok.text!r}", tok)
        if tok.text == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        self.error(f"unexpected token {tok.text!r}", tok)

    def parse_const(self, what: str) -> float:
        """A constant expression (no x); used where the grammar says number."""
        tok = self.peek()
        expr = self.parse_expr()
        if _uses_var(expr):
            self.error(f"{what} must be constant", tok)
        return eval_expr(expr, 0.0)

    def parse_interval(self) -> tuple[float, float]:
        tok = self.next()
        if tok.text not in ("[", "("):
            self.error("expected interval", tok)
        a = self.parse_const("interval endpoint")
        self.expect(",")
        b = self.parse_const("interval endpoint")
        tok = self.next()
        if tok.text not in ("]", ")"):
            self.error("expected closing bracket", tok)
        return (a, b)


def _uses_var(expr: Expression) -> bool:
    if isinstance(expr, Var):
        return True
    if isinstance(expr, (Num,)):
        return False
    if isinstance(expr, Neg):
        return _uses_var(expr.operand)
    if isinstance(expr, Call):
        return _uses_var(expr.arg)
    return _uses_var(expr.left) or _uses_var(expr.right)


def parse_function_spec(text: str) -> PiecewiseFunction:
    """Parse function-spec text into a PiecewiseFunction.

    Raises SpecSyntaxError with position info on malformed input,
    SpecArityError for unknown function names, DomainError when pieces do
    not tile the domain or breakpoints leave it.
    """
    p = _Parser(text)
    p.expect("domain")
    p.expect("[")
    lo = p.parse_const("domain endpoint")
    p.expect(",")
    hi = p.parse_const("domain endpoint")
    p.expect("]")
    periodic = p.accept("periodic")

    pieces: list[tuple[Expression, Optional[tuple[float, float]]]] = []
    jumps = None
    p.expect(";")
    while True:
        p.expect("piece")
        expr = p.parse_expr()
        interval = None
        if p.accept("on"):
            interval = p.parse_interval()
        pieces.append((expr, interval))
        if not p.accept(";"):
            break
        if p.peek().text == "jumps":
            p.next()
            jumps = _parse_jumps(p)
            p.accept(";")
            break
        if p.peek().kind == "end":
            break
    tok = p.peek()
    if tok.kind != "end":
        p.error(f"unexpected trailing input {tok.text!r}", tok)

    return _assemble(lo, hi, periodic, pieces, jumps)


def _parse_jumps(p: _Parser) -> tuple[tuple[float, float], ...]:
    p.expect("{")
    out = []
    while True:
        loc = p.parse_const("jump location")
        p.expect(":")
        mag = p.parse_const("jump magnitude")
        out.append((loc, mag))
        if not p.accept(","):
            break
    p.expect("}")
    return tuple(out)


def _assemble(lo, hi, periodic, pieces, jumps) -> PiecewiseFunction:
    if len(pieces) == 1 and pieces[0][1] is None:
        expr = pieces[0][0]
        return PiecewiseFunction((lo, hi), (), (expr,), periodic, jumps)
    if any(iv is None for _, iv in pieces):
        raise DomainError("multi-piece specs need 'on' intervals for every piece")
    ordered = sorted(pieces, key=lambda t: t[1][0])
    eps = 1e-12 * max(1.0, abs(hi - lo))
    if abs(ordered[0][1][0] - lo) > eps or abs(ordered[-1][1][1] - hi) > eps:
        raise DomainError("pieces do not span the domain")
    breakpoints = []
    for (_, ivl), (_, ivr) in zip(ordered, ordered[1:]):
        if abs(ivl[1] - ivr[0]) > eps:
            raise DomainError(
                f"gap or overlap between pieces at {ivl[1]} and {ivr[0]}"
            )
        breakpoints.append(ivl[1])
    exprs = tuple(expr for expr, _ in ordered)
    return PiecewiseFunction((lo, hi), tuple(breakpoints), exprs, periodic, jumps)


# ---------------------------------------------------------------------------
# Pretty-printer (round-trips through the parser)
# ---------------------------------------------------------------------------

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _format_expr(expr: Expression, parent_prec: int = 0) -> str:
    if isinstance(expr, Num):
        v = expr.value
        if v < 0:
            return _format_expr(Neg(Num(-v)), parent_prec)
        return repr(v)
    if isinstance(expr, Var):
        return "x"
    if isinstance(expr, Neg):
        inner = _format_expr(expr.operand, 3)
        return f"(-{inner})" if parent_prec > 3 else f"-{inner}"
    if isinstance(expr, Call):
        return f"{expr.name}({_format_expr(expr.arg)})"
    prec = _PRECEDENCE[expr.op]
    if expr.op == "^":
        e = int(expr.right.value)
        # the parser only accepts an atom as the base, so a compound base
        # (including another power) must print parenthesized
        left = _format_expr(expr.left, prec + 1)
        s = f"{left}^{e}" if e >= 0 else f"{left}^-{-e}"
        return f"({s})" if parent_prec > prec else s
    left = _format_expr(expr.left, prec)
    # - and / are left-associative: right operand needs strictly higher binding
    right = _format_expr(expr.right, prec + 1)
    s = f"{left} {expr.op} {right}"
    return f"({s})" if parent_prec > prec else s


def format_function_spec(f: PiecewiseFunction) -> str:
    """Render a PiecewiseFunction back to spec text."""
    lo, hi = f.domain
    head = f"domain [{repr(lo)},{repr(hi)}]"
    if f.periodic:
        head += " periodic"
    parts = [head]
    edges = f.edges
    if len(f.pieces) == 1:
        parts.append(f"piece {_format_expr(f.pieces[0])}")
    else:
        for i, expr in enumerate(f.pieces):
            parts.append(
                f"piece {_format_expr(expr)} on ({repr(edges[i])},{repr(edges[i + 1])})"
            )
    if f.jump_metadata:
        body = ", ".join(f"{repr(a)}: {repr(b)}" for a, b in f.jump_metadata)
        parts.append(f"jumps {{{body}}}")
    return "; ".join(parts)
