"""Fourier and Chebyshev coefficients of piecewise functions.

Coefficients are computed either in closed form (piecewise polynomials of
degree at most three) or by composite Gauss-Legendre quadrature whose panels
never straddle a breakpoint; its sums over uniform panels are chirp-z
transforms, so a rule costs O((N + K) log(N + K)) for N panels, not O(N K).
Quadrature results are accepted only after a panel-doubling agreement test,
so a stored series is trustworthy to the tolerance baked in here.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .funcspec import (
    Call,
    Expression,
    Neg,
    Num,
    PiecewiseFunction,
    Var,
    _format_expr,
    eval_expr_array,
)

__all__ = [
    "FourierSeries",
    "ChebyshevSeries",
    "AccuracyError",
    "fourier_coefficients",
    "chebyshev_coefficients",
    "A_k",
    "rho",
    "partial_sum",
    "sawtooth_series",
    "jump_part_series",
    "series_to_json",
    "series_from_json",
]

_DOUBLING_TOL = 1e-12
_MAX_DOUBLINGS = 8
# Work bound: no panel rule gets more Gauss-Legendre nodes than this.  The
# largest rule any test or benchmark plan uses has 262144 nodes; a cusp like
# sqrt(abs(x)) at K = 4096 would double on to 16.8M nodes (21 s, 307 MB).
_MAX_RULE_NODES = 1 << 22


class AccuracyError(RuntimeError):
    """A numerical cross-check failed: quadrature did not converge under
    panel doubling, or its next panel rule would exceed the work bound."""


def _frozen(name: str, values) -> np.ndarray:
    """A read-only 1-D float64 copy of a real sequence; the caller's object
    is left as it was."""
    out = np.array(values, dtype=float)
    if out.ndim != 1:
        raise ValueError(f"{name} must be a 1-D sequence of reals")
    out.flags.writeable = False
    return out


class _Series:
    """Equality, hashing and copying of both series classes.  Fields compare
    elementwise, so -0.0 equals 0.0 and series of different lengths are
    unequal; the hash reads only K and provenance, which equal series share."""

    def __eq__(self, other):
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in pairs)

    def __hash__(self):
        return hash((self.K, self.provenance))

    def __reduce__(self):
        # copies and pickles go through the constructor, which freezes again
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False)
class FourierSeries(_Series):
    """Coefficients a_k, b_k of f ~ a0_half + sum a_k cos kx + b_k sin kx.

    a[0] is a_1 (there is no index-zero entry; the mean sits in a0_half).
    a and b are read-only float64 arrays copied from any real sequence;
    a0_half is a float.  provenance records how the numbers were produced.
    """

    K: int
    a0_half: float
    a: np.ndarray
    b: np.ndarray
    provenance: str = "unknown"

    def __post_init__(self):
        object.__setattr__(self, "a0_half", float(self.a0_half))
        object.__setattr__(self, "a", _frozen("a", self.a))
        object.__setattr__(self, "b", _frozen("b", self.b))
        if len(self.a) != self.K or len(self.b) != self.K:
            raise ValueError(f"need exactly K={self.K} entries in a and b")


@dataclass(frozen=True, eq=False)
class ChebyshevSeries(_Series):
    """Coefficients c_k of f ~ sum c_k T_k(x) on [-1, 1]; c[0] is c_0.

    c is a read-only float64 array copied from any real sequence."""

    K: int
    c: np.ndarray
    provenance: str = "unknown"

    def __post_init__(self):
        object.__setattr__(self, "c", _frozen("c", self.c))
        if len(self.c) != self.K + 1:
            raise ValueError(f"need K+1={self.K + 1} entries in c")


# ---------------------------------------------------------------------------
# Closed forms for piecewise polynomials
# ---------------------------------------------------------------------------

def _as_polynomial(expr: Expression) -> Optional[list[float]]:
    """Power-basis coefficients [p0, p1, ...] if expr is polynomial, else None."""
    if isinstance(expr, Num):
        return [expr.value]
    if isinstance(expr, Var):
        return [0.0, 1.0]
    if isinstance(expr, Neg):
        inner = _as_polynomial(expr.operand)
        return None if inner is None else [-c for c in inner]
    if isinstance(expr, Call):
        return None
    left = _as_polynomial(expr.left)
    right = _as_polynomial(expr.right)
    if expr.op == "^":
        if left is None:
            return None
        e = int(expr.right.value)
        if e < 0:
            return None
        out = [1.0]
        for _ in range(e):
            out = _poly_mul(out, left)
        return out
    if left is None or right is None:
        return None
    if expr.op == "+":
        return _poly_add(left, right)
    if expr.op == "-":
        return _poly_add(left, [-c for c in right])
    if expr.op == "*":
        return _poly_mul(left, right)
    if expr.op == "/":
        if len(right) == 1:
            return [c / right[0] for c in left]
        return None
    return None


def _poly_add(p, q):
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0.0) + (q[i] if i < len(q) else 0.0) for i in range(n)]


def _poly_mul(p, q):
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_eval(p, t):
    acc = 0.0
    for c in reversed(p):
        acc = acc * t + c
    return acc


def _int_tm_trig(m: int, t: float, s, c, ks, k2, k3, k4) -> tuple:
    """Antiderivatives of t^m cos(kt) and of t^m sin(kt) for m in 0..3,
    vectorized over k > 0, from s = sin(k t), c = cos(k t) and the powers
    k2, k3, k4 of ks."""
    if m == 0:
        return s / ks, -c / ks
    if m == 1:
        return t * s / ks + c / k2, -t * c / ks + s / k2
    if m == 2:
        return (
            t**2 * s / ks + 2 * t * c / k2 - 2 * s / k3,
            -(t**2) * c / ks + 2 * t * s / k2 + 2 * c / k3,
        )
    return (
        t**3 * s / ks + 3 * t**2 * c / k2 - 6 * t * s / k3 - 6 * c / k4,
        -(t**3) * c / ks + 3 * t**2 * s / k2 + 6 * t * c / k3 - 6 * s / k4,
    )


_CF_CHUNK = 1 << 16


def _closed_form_sums(polys, ks: np.ndarray, table, rows: int) -> np.ndarray:
    """sum over pieces i and monomials j of polys[i][j] (F[j, i + 1] - F[j, i])
    at the frequencies ks: the chunk loop both closed forms share.

    table(chunk, uses) maps each (j, edge index) in uses to the antiderivative
    of the j-th basis function at that edge, over a chunk of at most
    _CF_CHUNK frequencies, as a tuple of `rows` arrays; the sums have one row
    each.  Neighbouring pieces share an edge, so a chunk evaluates each
    antiderivative once per (j, edge) it uses.
    """
    terms = [(c, j, i, i + 1) for i, p in enumerate(polys) for j, c in enumerate(p) if c != 0.0]
    uses = {(j, i) for _, j, lo, hi in terms for i in (lo, hi)}
    out = np.zeros((rows, len(ks)))
    for start in range(0, len(ks), _CF_CHUNK):
        F = table(ks[start : start + _CF_CHUNK], uses)
        for c, j, lo, hi in terms:
            for acc, up, down in zip(out[:, start : start + _CF_CHUNK], F[j, hi], F[j, lo]):
                acc += c * (up - down)
    return out


def _closed_form_fourier(polys, edges, K: int) -> FourierSeries:
    period = edges[-1] - edges[0]
    mean_terms = []
    for p, (lo, hi) in zip(polys, zip(edges, edges[1:])):
        anti = [0.0] + [c / (m + 1) for m, c in enumerate(p)]
        mean_terms.append(_poly_eval(anti, hi) - _poly_eval(anti, lo))
    a0_half = math.fsum(mean_terms) / period

    def table(ks, uses):
        powers = (ks, ks**2, ks**3, ks**4)
        trig = [(np.sin(ks * t), np.cos(ks * t)) for t in edges]
        return {(m, i): _int_tm_trig(m, edges[i], *trig[i], *powers) for m, i in uses}

    a, b = _closed_form_sums(polys, np.arange(1.0, K + 1), table, 2) / (period / 2.0)
    return FourierSeries(K, a0_half, a, b, provenance="closed_form")


def _poly_to_cos_poly(p) -> list[float]:
    """Rewrite p(cos t) as sum q_j cos(j t) for deg p <= 3.

    cos^2 = (1 + cos 2t)/2, cos^3 = (3 cos t + cos 3t)/4.
    """
    p = list(p) + [0.0] * (4 - len(p))
    q0 = p[0] + p[2] / 2.0
    q1 = p[1] + 3.0 * p[3] / 4.0
    q2 = p[2] / 2.0
    q3 = p[3] / 4.0
    return [q0, q1, q2, q3]


def _int_cos_cos(j: int, ks: np.ndarray, t: float, sines: np.ndarray) -> np.ndarray:
    """Antiderivative of cos(jt) cos(kt) at t, vectorized over k >= 0, fixed
    j <= 3, from sines[i] = sin((ks[0] - 3 + i) t): both sin((k - j) t) and
    sin((k + j) t) are slices of that one table."""
    dif = ks - j
    sm = ks + j
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (sines[3 - j : 3 - j + len(ks)] / (2.0 * dif)
               + sines[3 + j : 3 + j + len(ks)] / (2.0 * sm))
    eq = dif == 0.0
    if eq.any():
        out[eq] = t if j == 0 else t / 2.0 + math.sin(2 * j * t) / (4 * j)
    return out


def _closed_form_chebyshev(polys, edges, K: int) -> ChebyshevSeries:
    # theta-side breakpoints: theta = arccos(x), descending x maps to ascending theta
    thetas = [math.acos(max(-1.0, min(1.0, x))) for x in reversed(edges)]
    qs = [_poly_to_cos_poly(p) for p in reversed(polys)]

    def table(ks, uses):
        # m t is the same double as (k -+ j) t, so the bits are those of sin((k -+ j) t)
        ms = np.arange(ks[0] - 3.0, ks[-1] + 4.0)
        sines = {i: np.sin(ms * thetas[i]) for i in {i for _, i in uses}}
        return {(j, i): (_int_cos_cos(j, ks, thetas[i], sines[i]),) for j, i in uses}

    (c,) = _closed_form_sums(qs, np.arange(K + 1.0), table, 1) * (2.0 / math.pi)
    c[0] /= 2.0
    return ChebyshevSeries(K, c, provenance="closed_form")


# ---------------------------------------------------------------------------
# Gauss-Legendre machinery
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


# 2 pi in three parts of 27, 25 and 53 bits (Cody-Waite): q times either of
# the first two is exact for |q| < 2**26, and the three sum to 2 pi within
# 2e-34.
_TWO_PI = (
    float.fromhex("0x1.921fb54000000p+2"),
    float.fromhex("0x1.10b4610000000p-28"),
    float.fromhex("0x1.a62633145c06ep-56"),
)
_VELTKAMP = 134217729.0  # 2**27 + 1


def _split(v):
    """Veltkamp's split v = hi + lo into halves of at most 26 bits each, so
    the product of two halves is exact."""
    c = _VELTKAMP * v
    hi = c - (c - v)
    return hi, v - hi


def _phase(x: float, n: np.ndarray) -> np.ndarray:
    """x * n reduced modulo 2 pi, for integers n < 2**53, to within a few ulp
    of 2 pi (for x * n below about 4e8).

    The product is the exact sum of four products of split halves; each is
    reduced by round(part / 2 pi) times the three-part 2 pi.  A plain x * n
    of size 1e7 is already off by about 1e-9.
    """
    out = np.zeros(len(n))
    for xp in _split(x):
        for npart in _split(n):
            part = xp * npart
            q = np.round(part / (2.0 * math.pi))
            out += ((part - q * _TWO_PI[0]) - q * _TWO_PI[1]) - q * _TWO_PI[2]
    return out


def _cis_minus(theta: np.ndarray) -> np.ndarray:
    """exp(-i theta)."""
    return np.cos(theta) - 1j * np.sin(theta)


def _piece_values(number: int, expr, xs: np.ndarray) -> np.ndarray:
    """Piece number `number`, expression expr, at the points xs; raises
    ValueError naming the piece and the x value if any value is not finite."""
    out = eval_expr_array(expr, xs)
    bad = ~np.isfinite(out)
    if bad.any():
        raise ValueError(
            f"piece {number} ({_format_expr(expr)}) is not finite at "
            f"x = {float(xs[bad][0])!r}; quadrature needs finite values"
        )
    return out


def _panel_sums(edges, integrands, K: int, panels) -> np.ndarray:
    """S[k] = sum w g(x) exp(-ikx), k = 0..K, over one composite 16-point
    Gauss-Legendre rule: panels[i] uniform panels on the sub-interval
    edges[i]..edges[i + 1], where the integrand is integrands[i], a callable
    from an array of nodes to the array of its values there.  S[0] is the
    plain sum of w g(x); K = 0 gives just that integral.

    Sub-interval [lo, hi] with P panels of width 2h has nodes
    x = lo + h (2p + 1 + t_j), weights h w_j, for p < P and the 16 offsets
    t_j.  So for each j, S is exp(-ik(lo + h(1 + t_j))) times the chirp-z
    transform sum_p G[j, p] exp(-2ihkp), which Bluestein's identity
    2kp = k^2 + p^2 - (k - p)^2 turns into one FFT convolution with the chirp
    exp(-ihn^2): O((P + K) log(P + K)) per offset instead of O(P K).  The
    chirp phases reach 1e7 rad, so _phase reduces them exactly.  Offsets are
    done one at a time, in a fixed order, and the FFTs are numpy's pocketfft
    (no BLAS), so the bits are the same on every host.
    """
    ks = np.arange(K + 1.0)
    out = np.zeros(K + 1, dtype=complex)
    total = 0.0
    for (lo, hi), P, g_of in zip(zip(edges, edges[1:]), panels, integrands):
        h = (hi - lo) / (2.0 * P)
        n = np.arange(max(P, K + 1), dtype=float)
        chirp = _cis_minus(_phase(h, n * n))
        size = 1 << (P + K - 1).bit_length()  # >= P + K: no wrap-around
        kernel = np.zeros(size, dtype=complex)
        kernel[: K + 1] = chirp[: K + 1].conj()
        kernel[size - P + 1 :] = chirp[P - 1 : 0 : -1].conj()
        kernel = np.fft.fft(kernel)
        twice_p = 2.0 * np.arange(P, dtype=float)
        piece = np.zeros(K + 1, dtype=complex)
        for t, w in zip(_GL_NODES, _GL_WEIGHTS):
            g = (h * w) * g_of(lo + h * (twice_p + (1.0 + t)))
            total += float(np.sum(g))
            conv = np.fft.ifft(np.fft.fft(g * chirp[:P], size) * kernel)[: K + 1]
            piece += conv * _cis_minus(_phase(lo + h * (1.0 + t), ks))
        out += piece * chirp[: K + 1]
    out[0] = total
    return out


def _closed_form_polys(f: PiecewiseFunction) -> Optional[list[list[float]]]:
    """The closed-form-or-quadrature dispatch of both bases: the pieces'
    power-basis coefficients when every piece is a polynomial of degree
    <= 3 (closed form), else None (quadrature)."""
    polys = [_as_polynomial(e) for e in f.pieces]
    return polys if all(p is not None and len(p) <= 4 for p in polys) else None


def _doubled_quadrature(edges, integrands, K: int, coefficients, basis: str) -> tuple:
    """Panel doubling shared by both bases and the increment check; basis
    names the caller in errors.

    coefficients(S) turns the _panel_sums of one composite rule on edges into
    a tuple of coefficient arrays or scalars.  The panel counts start near 8
    panels per period of cos(K t) (at least 2 per sub-interval) and double
    until no entry moves by _DOUBLING_TOL or more; at most _MAX_DOUBLINGS
    doublings, then AccuracyError.  A rule of more than _MAX_RULE_NODES nodes
    raises AccuracyError before it is run.
    """
    base = [
        max(2, int(math.ceil(K * (hi - lo) / (2.0 * math.pi) * 2)))
        for lo, hi in zip(edges, edges[1:])
    ]
    prev = None
    for attempt in range(_MAX_DOUBLINGS + 1):
        panels = [n * 2**attempt for n in base]
        nodes = len(_GL_NODES) * sum(panels)
        if nodes > _MAX_RULE_NODES:
            raise AccuracyError(
                f"{basis} quadrature stopped after {attempt} doublings: its next "
                f"panel rule needs {nodes} nodes, more than the cap of {_MAX_RULE_NODES}"
            )
        cur = coefficients(_panel_sums(edges, integrands, K, panels))
        if prev is not None:
            delta = max(float(np.max(np.abs(c - p))) for c, p in zip(cur, prev))
            if delta < _DOUBLING_TOL:
                return cur
        prev = cur
    raise AccuracyError(
        f"{basis} quadrature did not converge after {_MAX_DOUBLINGS} doublings"
    )


def fourier_coefficients(f: PiecewiseFunction, K: int) -> FourierSeries:
    """Fourier coefficients of f up to frequency K.

    In closed form when every piece is a polynomial of degree <= 3, else by
    panel-doubled quadrature; the series' provenance says which.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    lo, hi = f.domain
    if not math.isclose(hi - lo, 2.0 * math.pi):
        raise ValueError("Fourier coefficients require a domain of length 2 pi")
    polys = _closed_form_polys(f)
    if polys is not None:
        return _closed_form_fourier(polys, f.edges, K)

    edges = f.edges
    period_half = (edges[-1] - edges[0]) / 2.0

    def coefficients(S):
        # S[k] = sum w f (cos kx - i sin kx)
        return S[0].real / (2.0 * period_half), S.real[1:] / period_half, -S.imag[1:] / period_half

    integrands = [functools.partial(_piece_values, i, e) for i, e in enumerate(f.pieces, 1)]
    a0_half, a, b = _doubled_quadrature(edges, integrands, K, coefficients, "Fourier")
    return FourierSeries(K, a0_half, a, b, provenance="quadrature")


def chebyshev_coefficients(f: PiecewiseFunction, K: int) -> ChebyshevSeries:
    """Chebyshev coefficients c_0..c_K of f on [-1, 1].

    In closed form or by quadrature, as fourier_coefficients decides.
    Computed in theta variables: c_k = (2/pi) * integral_0^pi f(cos t) cos(kt) dt
    (half weight at k = 0), with quadrature panels split at the theta images
    of the breakpoints.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    lo, hi = f.domain
    if not (math.isclose(lo, -1.0) and math.isclose(hi, 1.0)):
        raise ValueError("Chebyshev coefficients require domain [-1, 1]")
    polys = _closed_form_polys(f)
    if polys is not None:
        return _closed_form_chebyshev(polys, f.edges, K)

    # theta edges ascending; x edge -1 maps to pi
    theta_edges = [math.acos(max(-1.0, min(1.0, x))) for x in reversed(f.edges)]

    def coefficients(S):
        c = S.real * (2.0 / math.pi)
        c[0] /= 2.0
        return (c,)

    # the pieces in theta order, each evaluated at x = cos(theta)
    integrands = [
        lambda t, i=i, e=e: _piece_values(i, e, np.cos(t)) for i, e in enumerate(f.pieces, 1)
    ][::-1]
    (c,) = _doubled_quadrature(theta_edges, integrands, K, coefficients, "Chebyshev")
    return ChebyshevSeries(K, c, provenance="quadrature")


# ---------------------------------------------------------------------------
# Series accessors
# ---------------------------------------------------------------------------

def A_k(series: FourierSeries, x0: float, k: int) -> float:
    """Conjugate-phase coefficient a_k sin(k x0) - b_k cos(k x0)."""
    if not (1 <= k <= series.K):
        raise ValueError(f"k={k} outside stored range 1..{series.K}")
    return float(series.a[k - 1]) * math.sin(k * x0) - float(series.b[k - 1]) * math.cos(k * x0)


def rho(series: FourierSeries, k: int) -> float:
    """Spectral amplitude sqrt(a_k^2 + b_k^2)."""
    if not (1 <= k <= series.K):
        raise ValueError(f"k={k} outside stored range 1..{series.K}")
    return math.hypot(series.a[k - 1], series.b[k - 1])


def partial_sum(series: FourierSeries, x: float, n: int) -> float:
    """Value of the degree-n trigonometric partial sum at x."""
    if not (1 <= n <= series.K):
        raise ValueError(f"n={n} outside stored range 1..{series.K}")
    terms = [
        series.a[k - 1] * math.cos(k * x) + series.b[k - 1] * math.sin(k * x)
        for k in range(1, n + 1)
    ]
    return series.a0_half + math.fsum(terms)


# ---------------------------------------------------------------------------
# Analytic reference series
# ---------------------------------------------------------------------------

def sawtooth_series(K: int) -> FourierSeries:
    """The 2pi-periodic odd sawtooth with unit harmonic amplitudes b_k = 1/k.

    This is (pi - x)/2 on (0, 2pi), jump +pi at x = 0.
    """
    b = 1.0 / np.arange(1, K + 1, dtype=float)
    return FourierSeries(K, 0.0, np.zeros(K), b, provenance="closed_form")


def jump_part_series(jumps: list[tuple[float, float]], K: int) -> FourierSeries:
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
# Serialization (bit-exact round trips via repr floats)
# ---------------------------------------------------------------------------

# The coefficient lists are written as json writes floats, with repr, but in
# numpy integer arithmetic, so the bytes do not depend on numpy's SIMD level
# (digit counts also read the exponent of an integer converted to a double,
# which any rounding leaves right): Schubfach's shortest digits (Giulietti,
# "The Schubfach way to render doubles", 2020), then repr's layout as
# little-endian strings in uint64 words.
_CHUNK = 1 << 14  # values per numpy pass
_M32 = 0xFFFFFFFF
_P10 = np.array([10**j for j in range(18)], dtype=np.uint64)
_G_MIN = -292  # _tables holds 10^k for k = -292..326, all that doubles need
_ZEROS = 0x3030303030303030  # "00000000"


@functools.cache
def _tables() -> tuple:
    """Tables built at first use (2 ms), not at import, from Python ints:
    the high and low words of g = floor(10^k / 2^r) + 1 with
    r = floor(log2 10^k) - 127 for k = -292..326 (10^k as a 128-bit
    significand, rounded up); repr's suffixes "e-324,\n".."e+308,\n"; the
    ASCII of 0000..9999; and, in 3-word rows, masks of the first 0..25 bytes."""
    g = []
    for k in range(_G_MIN, 327):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        e = num.bit_length() - den.bit_length() - (k < 0)  # floor(log2 10^k)
        g.append((num << max(127 - e, 0)) // (den << max(e - 127, 0)) + 1)
    tails = [int.from_bytes(f"e{x:+03d},\n".encode(), "little") for x in range(-324, 309)]
    i = np.arange(10000, dtype=np.uint64)
    quads = (i // 1000 | i // 100 % 10 << 8 | i // 10 % 10 << 16 | i % 10 << 24) + 0x30303030
    low = [[((1 << 8 * n) - 1) >> 64 * w & 2**64 - 1 for n in range(26)] for w in range(3)]
    words = ([v >> 64 for v in g], [v & 2**64 - 1 for v in g], tails, quads, low)
    return tuple(np.array(w, dtype=np.uint64) for w in words)


def _round_to_odd(g, x):
    """floor(g x / 2^128), its lowest bit set if bits 64..127 of g x are
    above 1: Schubfach's rop for g = (a1, a0, b1, b0) in 32-bit limbs, high
    first, and x < 2^64, with every product of two 32-bit limbs exact."""
    a1, a0, b1, b0 = g
    x1, x0 = x >> 32, x & _M32
    b1x0, b0x1 = b1 * x0, b0 * x1
    t = (b0 * x0 >> 32) + (b1x0 & _M32) + (b0x1 & _M32)
    mid = b1 * x1 + (b1x0 >> 32) + (b0x1 >> 32) + (t >> 32)  # high word of (b1, b0) x
    a0x0, a0x1, a1x0, a1x1 = a0 * x0, a0 * x1, a1 * x0, a1 * x1
    c0 = (a0x0 & _M32) + (mid & _M32)
    c1 = (a0x0 >> 32) + (a0x1 & _M32) + (a1x0 & _M32) + (mid >> 32) + (c0 >> 32)
    c2 = (a0x1 >> 32) + (a1x0 >> 32) + (a1x1 & _M32) + (c1 >> 32)
    high = ((a1x1 >> 32) + (c2 >> 32) << 32) + (c2 & _M32)
    return high | ((c1 & _M32 != 0) | (c0 & _M32 > 1))


def _shortest(u: np.ndarray) -> tuple:
    """(d, k) with |x| = d 10^k for the doubles x with bits u: d has the
    fewest digits that read back to x and is, of those, the nearest (ties
    to even), as repr picks it.  Infinities and NaNs give garbage.

    Schubfach: for x = c 2^q, k = floor(log10 2^q) makes x's rounding
    interval 1 to 10 units of 10^k wide, so it holds at most one multiple of
    10^(k + 1), the shortest if there is one, and else the nearest multiple
    of 10^k.  lower, vb and upper are its ends and x in units of 10^k / 4,
    rounded to odd.  Zero gives d = 0.  Unlike Java's version, which keeps
    two digits, this gives repr's 5e-324 and 1e-323 for c = 1, 2."""
    e = (u >> 52) & 0x7FF
    m = u & ((1 << 52) - 1)
    c = np.where(e > 0, m | (1 << 52), m)
    q = np.where(e > 0, e.astype(np.int64) - 1075, -1074)
    closer = (m == 0) & (e > 1)  # the gap below x is half the gap above
    k = (q * 1262611 - closer * 524031) >> 22  # floor(log10(2^q)), or of 3/4 2^q
    h = (q + ((-k * 1741647) >> 19) + 1).astype(np.uint64)  # 1..4
    hi, lo = _tables()[:2]
    i = -k - _G_MIN
    g = (hi[i] >> 32, hi[i] & _M32, lo[i] >> 32, lo[i] & _M32)
    cb = c << 2
    odd = c & 1
    lower = _round_to_odd(g, (cb - 2 + closer) << h) + odd
    vb = _round_to_odd(g, cb << h)
    upper = _round_to_odd(g, (cb + 2) << h) - odd
    s = vb >> 2
    sp = s // 10
    up_in, wp_in = lower <= sp * 40, sp * 40 + 40 <= upper  # 10 sp, 10 sp + 10
    u_in, w_in = lower <= s * 4, s * 4 + 4 <= upper  # s, s + 1
    nearer_up = (vb > s * 4 + 2) | ((vb == s * 4 + 2) & (s & 1 == 1))
    d = np.where(
        (s >= 10) & (up_in != wp_in),
        (sp + wp_in) * 10,
        s + np.where(u_in != w_in, w_in, nearer_up),
    )
    return np.where(c > 0, d, 0), k


def _shl(words: np.ndarray, count) -> np.ndarray:
    """Strings, one word per row and low byte first, moved up by count < 8
    bytes; count is an int or a uint64 array."""
    out = words << count * 8
    out[1:] |= words[:-1] >> 64 - count * 8
    return out


def _repr_lines(u: np.ndarray) -> np.ndarray:
    """The bytes of "    " + repr(x) + ",\n" for the doubles x with bits u,
    NaN and +-Infinity spelt as json spells them, with zero bytes between.

    A line is five words: indent and sign; the number's text, up to 22
    bytes; the exponent, if any, and ",\n".  The text is z zeros (for
    0.000ddd) and 17 digits, with a point put in after p bytes, cut to size.
    """
    _, _, tails, quads, low = _tables()
    special = (u >> 52) & 0x7FF == 0x7FF
    nan = special & (u << 12 != 0)
    d, k = _shortest(u)
    one = d | 1  # as many digits as d, and 1 for d = 0
    t = ((one.astype(np.float64).view(np.int64) >> 52) - 1022) * 1233 >> 12
    count = t + (one >= _P10[t])  # digits of d
    d = d * _P10[17 - count]
    decpt = k + count  # |x| = 0.ddd... 10^decpt
    decpt[d == 0] = 1  # "0.0"
    expo = ((decpt < -3) | (decpt > 16)) & ~special  # repr's switch to 1e-05, 1e+16
    small = ~expo & (decpt < 1)
    z = np.where(small, 1 - decpt, 0)
    d10, d8 = d // 10, d // 10**9
    eights = np.stack([d8, d10 - d8 * 10**8])
    fours = eights // 10**4
    digits = np.empty((3, len(u)), dtype=np.uint64)  # 17 digits, 7 zeros
    digits[:2] = quads[fours] | quads[eights - fours * 10**4] << 32
    digits[2] = _ZEROS | (d - d10 * 10)
    # bytes up to the last nonzero digit, from the exponent of each word's digits as a double
    exponents = (digits[:2] ^ _ZEROS).astype(np.float64).view(np.int64) >> 52
    nz = np.maximum((exponents - 1015) >> 3, 0)
    nsig = np.where(digits[2] != _ZEROS, 17, np.where(nz[1] > 0, 8 + nz[1], nz[0]))
    ndig = np.where(expo, nsig, np.where(small, z + nsig, np.maximum(nsig, decpt + 1)))
    p = np.where(special | expo & (ndig == 1), 24, np.where(expo | small, 1, decpt))
    size = np.where(special, np.where(nan, 3, 8), ndig + (p < 24))
    letters = np.where(nan, np.uint64(0x4E614E), np.uint64(0x7974696E69666E49))  # NaN, Infinity
    digits[0] = np.where(special, letters, digits[0])
    text = _shl(digits, z.astype(np.uint64))
    text[0] |= _ZEROS & np.take(low[0], z)
    before = np.take(low, p, axis=1)
    dot = np.take(low, p + 1, axis=1) & ~before & 0x2E2E2E2E2E2E2E2E
    text = ((text & before) | _shl(text & ~before, 1) | dot) & np.take(low, size, axis=1)
    lines = np.empty((len(u), 5), dtype="<u8")
    lines[:, 0] = 0x20202020 | ((u >> 63 == 1) & ~nan).astype(np.uint64) * 0x2D << 32
    lines[:, 1:4] = text.T
    lines[:, 4] = np.where(expo, np.take(tails, np.clip(decpt + 323, 0, 632)), np.uint64(0x0A2C))
    return lines.view(np.uint8).ravel()


def _json_array(values: np.ndarray) -> str:
    """values as json.dumps(..., indent=2) lays out a list one level down."""
    if len(values) == 0:
        return "[]"
    bits = values.view(np.uint64)
    lines = [
        _repr_lines(bits[i : i + _CHUNK]).tobytes().translate(None, b"\0").decode("ascii")
        for i in range(0, len(bits), _CHUNK)
    ]
    lines[-1] = lines[-1][:-2]  # the last ",\n"
    return "".join(["[\n", *lines, "\n  ]"])


def series_to_json(series: FourierSeries | ChebyshevSeries) -> str:
    """Serialize a series as json.dumps(obj, indent=2) would; json emits
    floats via repr, so every bit survives."""
    if isinstance(series, FourierSeries):
        obj = {
            "kind": "fourier",
            "K": series.K,
            "a0_half": series.a0_half,
            "a": series.a,
            "b": series.b,
            "provenance": series.provenance,
        }
    elif isinstance(series, ChebyshevSeries):
        obj = {
            "kind": "chebyshev",
            "K": series.K,
            "c": series.c,
            "provenance": series.provenance,
        }
    else:
        raise TypeError(f"not a series: {type(series).__name__}")
    # one join: each list's text, 5.5 MB at K = 200000, is copied only once more
    text = []
    for key, value in obj.items():
        text += [",\n  " if text else "{\n  ", json.dumps(key), ": "]
        text.append(_json_array(value) if isinstance(value, np.ndarray) else json.dumps(value))
    return "".join(text + ["\n}"])


def _finite_floats(obj: dict, name: str, scalar: bool = False) -> np.ndarray:
    """Field name of a series JSON object as a float64 array.  Only finite
    JSON numbers are accepted: no strings, bools, nulls, NaN or Infinity."""
    if name not in obj:
        raise ValueError(f"series JSON lacks the field {name!r}")
    values = [obj[name]] if scalar else obj[name]
    if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
        raise ValueError(f"series JSON field {name!r} must hold numbers only")
    try:
        finite = all(map(math.isfinite, values))
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"series JSON field {name!r} must hold finite numbers only")
    return np.array(values, dtype=float)


def series_from_json(text: str) -> FourierSeries | ChebyshevSeries:
    """Inverse of series_to_json; malformed input raises ValueError naming
    the field at fault."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("series JSON must be an object")
    kind = obj.get("kind")
    prov = obj.get("provenance", "unknown")
    if kind not in ("fourier", "chebyshev"):
        raise ValueError(f"unknown series kind {kind!r}")
    K = obj.get("K")
    if type(K) is not int:
        raise ValueError("series JSON field 'K' must be an integer")
    if kind == "fourier":
        (a0_half,) = _finite_floats(obj, "a0_half", scalar=True)
        return FourierSeries(
            K, a0_half, _finite_floats(obj, "a"), _finite_floats(obj, "b"), provenance=prov
        )
    return ChebyshevSeries(K, _finite_floats(obj, "c"), provenance=prov)
