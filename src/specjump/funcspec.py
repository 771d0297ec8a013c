"""Piecewise test functions with exact one-sided limits and known jumps.

A function is described in a small text format::

    domain [-pi,pi] periodic;
    piece (-pi-x)/2 on (-pi,0);
    piece (pi-x)/2 on (0,pi)

Pieces live on open subintervals; the value at a breakpoint is always the
midpoint of the two one-sided limits, which is the normalization every jump
formula in this package assumes.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import NamedTuple, Optional

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


def _map_scalar(fn, v: np.ndarray) -> np.ndarray:
    """fn (exp or an integer power) applied to each element of v.

    Where fn raises, on overflow or at a negative power of zero, the element
    gets the infinity IEEE arithmetic gives, signed like fn(+-1) for the
    argument's sign (exp is positive; x^n takes the sign of (+-1)^n).
    """
    vals = v.tolist()
    try:
        return np.fromiter(map(fn, vals), float, len(vals))
    except ArithmeticError:
        pass
    out = []
    for t in vals:
        try:
            out.append(fn(t))
        except ArithmeticError:
            out.append(math.copysign(math.inf, fn(math.copysign(1.0, t))))
    return np.array(out, dtype=float)


def _sqrt(v: np.ndarray) -> np.ndarray:
    """math.sqrt's values where it returns one (it is correctly rounded, as
    numpy's is), and +nan where it raises, at negative arguments."""
    with np.errstate(invalid="ignore"):
        return np.where(v < 0, math.nan, np.sqrt(v))


def _trig(fn, v: np.ndarray) -> np.ndarray:
    """numpy's fn (sin or cos) with math's values where it returns one, and
    +nan where it raises, at an infinity.  numpy's float64 sin and cos loops
    call libm, so the bits are math's on every dispatch level."""
    with np.errstate(invalid="ignore"):
        out = fn(v)
    out[np.isinf(v)] = math.nan
    return out


# exp goes through numpy's complex exp, which computes libm's exp(v) cos(0)
# below its scaling threshold (about 709).  numpy's real exp is not used:
# its AVX-512 loop differs from libm in the last bit.
_EXP_BELOW = 700.0


def _exp(v: np.ndarray) -> np.ndarray:
    """math.exp's values: numpy's complex exp where |v| < _EXP_BELOW, the
    scalar map (with its overflow rule) everywhere else, nan included."""
    rest = ~(np.abs(v) < _EXP_BELOW)
    out = np.exp(np.where(rest, 0.0, v) + 0j).real
    out[rest] = _map_scalar(math.exp, v[rest])
    return out


# The calls, each with the bits of Python's: abs is exact, sqrt correctly
# rounded, numpy's sign maps +-0.0 to 0.0 and passes a nan through, and sin,
# cos and exp reach libm as above.
_FUNCTIONS = {
    "abs": np.abs,
    "sign": np.sign,
    "sqrt": _sqrt,
    "sin": functools.partial(_trig, np.sin),
    "cos": functools.partial(_trig, np.cos),
    "exp": _exp,
}


def eval_expr_array(expr: Expression, x: np.ndarray) -> np.ndarray:
    """An expression tree at an array of points: the one evaluator, used by
    quadrature, sampling and every point value.

    Arithmetic and every call run in numpy, with the bits of Python's float
    arithmetic and math module (see _FUNCTIONS); integer powers and exp at
    |x| >= 700 go through Python floats.  numpy's own exp and power dispatch
    to SIMD code that differs from libm on some CPUs, which would make the
    bits depend on the host.  Where Python would raise, the value is the
    IEEE one, an infinity or a nan.
    """
    if isinstance(expr, Num):
        return np.full_like(x, expr.value, dtype=float)
    if isinstance(expr, Var):
        return np.asarray(x, dtype=float)
    if isinstance(expr, Neg):
        return -eval_expr_array(expr.operand, x)
    if isinstance(expr, Call):
        return _FUNCTIONS[expr.name](eval_expr_array(expr.arg, x))
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
    exactly one more piece than there are breakpoints.
    """

    domain: tuple[float, float]
    breakpoints: tuple[float, ...]
    pieces: tuple[Expression, ...]
    periodic: bool = False

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


def _piece_at(f: PiecewiseFunction, i: int, xs: np.ndarray) -> np.ndarray:
    """Piece i of f at the points xs; raises ValueError naming the piece and
    the first x where a value is not finite."""
    with np.errstate(all="ignore"):
        out = eval_expr_array(f.pieces[i], xs)
    bad = ~np.isfinite(out)
    if bad.any():
        raise ValueError(
            f"piece {i + 1} ({_format_expr(f.pieces[i])}) is not finite at x = {float(xs[bad][0])!r}"
        )
    return out


def _locate(f: PiecewiseFunction, xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, left, right): the points xs, wrapped into [lo, hi) on a periodic
    domain (a point that wraps onto lo or hi is lo itself), and the pieces
    that hold f(x-0) and f(x+0): the last and the first at a periodic lo, the
    edge piece on both sides of a non-periodic end.  Raises DomainError
    naming the first point that is nan, infinite on a periodic domain, or
    outside a non-periodic one."""
    x = np.array(xs, dtype=float)
    lo, hi = f.domain
    if f.periodic:
        out = (x < lo) | (x >= hi)
        with np.errstate(invalid="ignore"):
            x[out] = lo + np.fmod(x[out] - lo, hi - lo)
        x[x < lo] += hi - lo
        x[(x == lo) | (x == hi)] = lo
    bad = ~((lo <= x) & (x <= hi))
    if bad.any():
        first = float(np.asarray(xs, dtype=float)[bad][0])
        if f.periodic or math.isnan(first):
            raise DomainError(f"{first} does not lie inside any piece")
        raise DomainError(f"{first} outside domain [{lo}, {hi}]")
    left = np.searchsorted(f.breakpoints, x, side="left")
    right = np.searchsorted(f.breakpoints, x, side="right")
    if f.periodic:
        left[x == lo] = len(f.pieces) - 1
    return x, left, right


def _limits(f: PiecewiseFunction, xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, f(x-0), f(x+0)) at the points xs, x as _locate returns it; the left
    side of a periodic lo is the last piece at hi.  Each piece is evaluated
    once, at the points it holds on the right, then at those it holds only on
    the left, so _piece_at names the first x that is not finite in that order."""
    x, left, right = _locate(f, xs)
    wrap = (x == f.domain[0]) & f.periodic  # a one-piece domain has left == right there
    differ = np.flatnonzero(wrap | (left != right))
    # the right sides, then the left sides that differ from them
    points = np.concatenate((x, np.where(wrap[differ], f.domain[1], x[differ])))
    pieces = np.concatenate((right, left[differ]))
    values = np.empty(len(points))
    for i in range(len(f.pieces)):
        held = pieces == i
        if held.any():
            values[held] = _piece_at(f, i, points[held])
    rv = values[: len(x)]
    lv = rv.copy()
    lv[differ] = values[len(x) :]
    return x, lv, rv


def _one_sided(f: PiecewiseFunction, xs) -> tuple[np.ndarray, np.ndarray]:
    """(f(x-0), f(x+0)) at the points xs, none of them an end of a non-periodic domain."""
    if not f.periodic and not set(f.domain).isdisjoint(xs):
        raise DomainError("one-sided limits need an interior point")
    return _limits(f, xs)[1:]


def one_sided_limits(f: PiecewiseFunction, x: float) -> tuple[float, float]:
    """Return (f(x-0), f(x+0))."""
    left, right = _one_sided(f, [x])
    return float(left[0]), float(right[0])


def evaluate(f: PiecewiseFunction, x: float) -> float:
    """Point value; the midpoint of the one-sided limits at a breakpoint or a
    periodic lo, the closure value of the edge piece at a non-periodic end."""
    (x,), (left,), (right,) = (a.tolist() for a in _limits(f, [x]))
    if x in f.breakpoints or (f.periodic and x == f.domain[0]):
        return (left + right) / 2.0
    return right


def true_jump(f: PiecewiseFunction, x: float) -> float:
    """f(x+0) - f(x-0); zero at continuity points."""
    left, right = one_sided_limits(f, x)
    return right - left


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# every character is in one match: a token, a whitespace run (str.isspace,
# as re's \s is) or a character no token starts with.  No rule reads { } or :;
# they stay tokens so that a jumps {...} block fails at the word jumps
_TOKEN_RE = re.compile(
    r"""
    (?P<num>(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<sym>[-+*/^()\[\]{};:,])
  | (?P<space>\s+)
  | (?P<bad>.)
""",
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str  # num | name | sym | end
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    """The tokens of text, each with its 1-based line and column."""
    tokens = []
    line, start = 1, 0  # start: the index at which the line begins
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            run = m.group()
            if "\n" in run:
                line += run.count("\n")
                start = m.start() + run.rindex("\n") + 1
        elif kind == "bad":
            raise SpecSyntaxError(f"unexpected character {m.group()!r}", line, m.start() - start + 1)
        else:
            tokens.append(_Token(kind, m.group(), line, m.start() - start + 1))
    tokens.append(_Token("end", "", line, len(text) - start + 1))
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
        """A finite constant expression (no x); used where the grammar says number."""
        tok = self.peek()
        expr = self.parse_expr()
        if _uses_var(expr):
            self.error(f"{what} must be constant", tok)
        with np.errstate(all="ignore"):
            value = float(eval_expr_array(expr, np.zeros(1))[0])
        if not math.isfinite(value):
            self.error(f"{what} is not finite", tok)
        return value

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
    p.expect(";")
    while True:
        p.expect("piece")
        expr = p.parse_expr()
        interval = None
        if p.accept("on"):
            interval = p.parse_interval()
        pieces.append((expr, interval))
        if not p.accept(";") or p.peek().kind == "end":
            break
    tok = p.peek()
    if tok.kind != "end":
        p.error(f"unexpected trailing input {tok.text!r}", tok)

    return _assemble(lo, hi, periodic, pieces)


def _assemble(lo, hi, periodic, pieces) -> PiecewiseFunction:
    if len(pieces) == 1 and pieces[0][1] is None:
        expr = pieces[0][0]
        return PiecewiseFunction((lo, hi), (), (expr,), periodic)
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
    return PiecewiseFunction((lo, hi), tuple(breakpoints), exprs, periodic)


# ---------------------------------------------------------------------------
# Pretty-printer for error messages (round-trips through the parser)
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
