"""Reference series, and scalar code the package replaced, for the tests.

sawtooth_series and jump_part_series build analytic series directly.  The
rest is the package's former scalar code, kept as it was: the oracles the
numpy paths that replaced it must match bit for bit (the expression
evaluator, the point-at-a-time wrap and piece search with the point values
and variation sampler built on them, A_k, s_n_diagnostic and the
character-at-a-time tokenizer), and the spec printer the round-trip tests
use.
"""

import math
import re

import numpy as np

from specjump.coefficients import FourierSeries
from specjump.funcspec import (
    Call,
    DomainError,
    Neg,
    Num,
    SpecSyntaxError,
    Var,
    _format_expr,
    _Token,
    eval_expr_array,
)
from specjump.tails import _SuffixSums
from specjump.variation import SampleSequence


# ---------------------------------------------------------------------------
# Analytic series
# ---------------------------------------------------------------------------

def sawtooth_series(K):
    """The 2pi-periodic odd sawtooth with unit harmonic amplitudes b_k = 1/k.

    This is (pi - x)/2 on (0, 2pi), jump +pi at x = 0.
    """
    b = 1.0 / np.arange(1, K + 1, dtype=float)
    return FourierSeries(K, 0.0, np.zeros(K), b, provenance="closed_form")


def jump_part_series(jumps, K):
    """Series of the pure jump part: shifted sawtooths scaled by magnitude / pi.

    Each (location, magnitude) contributes magnitude/pi times the unit
    sawtooth translated to the location, so the sum carries exactly the
    given jumps and nothing else.
    """
    a = np.zeros(K)
    b = np.zeros(K)
    ks = np.arange(1, K + 1, dtype=float)
    for theta0, jump in jumps:
        a += -(jump / math.pi) * np.sin(ks * theta0) / ks
        b += (jump / math.pi) * np.cos(ks * theta0) / ks
    return FourierSeries(K, 0.0, a, b, provenance="closed_form")


# ---------------------------------------------------------------------------
# Scalar expression evaluation and point values
# ---------------------------------------------------------------------------

def _sign(v):
    if v != v:
        return v  # nan stays nan
    return 0.0 if v == 0 else math.copysign(1.0, v)


FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "abs": abs,
    "sign": _sign,
    "sqrt": math.sqrt,
}


def eval_expr(expr, x):
    """Evaluate an expression tree at a scalar point; raises where Python's
    float arithmetic or math does."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        return x
    if isinstance(expr, Neg):
        return -eval_expr(expr.operand, x)
    if isinstance(expr, Call):
        return float(FUNCTIONS[expr.name](eval_expr(expr.arg, x)))
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


def _wrap(f, x):
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


def _piece_index(f, x):
    """Index of the piece whose open interval contains x (x not an edge)."""
    edges = f.edges
    for i in range(len(f.pieces)):
        if edges[i] < x < edges[i + 1]:
            return i
    raise DomainError(f"{x} does not lie inside any piece")


def one_sided_limits(f, x):
    x = _wrap(f, x)
    lo, hi = f.domain
    if x == lo or x == hi:
        if not f.periodic:
            raise DomainError("one-sided limits need an interior point")
        return (eval_expr(f.pieces[-1], hi), eval_expr(f.pieces[0], lo))
    for i, b in enumerate(f.breakpoints):
        if x == b:
            return (eval_expr(f.pieces[i], x), eval_expr(f.pieces[i + 1], x))
    v = eval_expr(f.pieces[_piece_index(f, x)], x)
    return (v, v)


def evaluate(f, x):
    x = _wrap(f, x)
    lo, hi = f.domain
    if (x == lo or x == hi) and not f.periodic:
        return eval_expr(f.pieces[0] if x == lo else f.pieces[-1], x)
    if x == lo or x in f.breakpoints:
        left, right = one_sided_limits(f, x)
        return (left + right) / 2.0
    return eval_expr(f.pieces[_piece_index(f, x)], x)


def sample_per_point(f, density):
    """The variation sampler evaluating one point at a time."""
    if density < 2:
        raise ValueError("density must be >= 2")
    lo, hi = f.domain
    bps = set(f.breakpoints)
    xs = set(np.linspace(lo, hi, density).tolist()) - bps
    for i, expr in enumerate(f.pieces):
        a, b = f.edges[i], f.edges[i + 1]
        scan = np.linspace(a, b, 32 * density + 2)[1:-1]
        ys = eval_expr_array(expr, scan)
        d = np.diff(ys)
        turns = np.nonzero(d[:-1] * d[1:] < 0.0)[0]
        xs.update(float(scan[j + 1]) for j in turns if float(scan[j + 1]) not in bps)

    def value_at(x):
        # domain edges sample the closure value on the inside, not the
        # periodic wrap-around
        if f.periodic:
            if x == lo:
                return one_sided_limits(f, lo)[1]
            if x == hi:
                return one_sided_limits(f, hi)[0]
        return evaluate(f, x)

    entries = [(x, 0, value_at(x)) for x in xs]
    for bp in f.breakpoints:
        lv, rv = one_sided_limits(f, bp)
        entries.append((bp, 0, lv))
        entries.append((bp, 1, rv))
    entries.sort(key=lambda e: (e[0], e[1]))
    return SampleSequence(tuple(v for _, _, v in entries))


# ---------------------------------------------------------------------------
# Scalar series terms
# ---------------------------------------------------------------------------

def A_k(series, x0, k):
    """Conjugate-phase coefficient a_k sin(k x0) - b_k cos(k x0)."""
    if not (1 <= k <= series.K):
        raise ValueError(f"k={k} outside stored range 1..{series.K}")
    return float(series.a[k - 1]) * math.sin(k * x0) - float(series.b[k - 1]) * math.cos(k * x0)


def s_n_diagnostic(series, x0, n):
    """-(1/n) sum_{k=1}^{n} k A_k, the value `diagnose --check sn` prints."""
    if not (1 <= n <= series.K):
        raise ValueError(f"n={n} outside stored range 1..{series.K}")
    terms = [k * A_k(series, x0, k) for k in range(1, n + 1)]
    return -(_SuffixSums(terms).sum_from(0) / n)


# ---------------------------------------------------------------------------
# Spec text
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<num>(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<sym>[-+*/^()\[\]{};:,])
""",
    re.VERBOSE,
)


def tokenize_per_character(text):
    """The tokenizer that stepped over whitespace one character at a time."""
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


def format_function_spec(f):
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
    return "; ".join(parts)
