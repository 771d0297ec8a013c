"""Fourier and Chebyshev coefficients of piecewise functions.

Piecewise polynomials of degree at most three have closed forms.  By parts,
a_k - i b_k = sum_e e^(-ike) sum_d J_d / (ik)^(d+1) over half the period,
J_d being the jump of the d-th derivative (d <= 3) at breakpoint e, where a
domain end counts as a one-sided breakpoint.  Chebyshev coefficients
integrate cos(jt) cos(kt) between the breakpoints' arccos images from one
table sin(mt) / 2m per image.  So a chunk of frequencies costs little more
than its sine and cosine tables.  Everything else is integrated by composite
Gauss-Legendre quadrature whose panels never straddle a breakpoint; its sums
over uniform panels are chirp-z transforms, so a rule costs
O((N + K) log(N + K)) for N panels, not O(N K).
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
    _piece_at,
)

__all__ = [
    "FourierSeries",
    "ChebyshevSeries",
    "AccuracyError",
    "fourier_coefficients",
    "chebyshev_coefficients",
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


_CF_CHUNK = 1 << 13


def _derivatives(p, t) -> list[float]:
    """p and its first three derivatives at t."""
    return [_poly_eval([math.perm(m, d) * c for m, c in enumerate(p)][d:], t) for d in range(4)]


def _closed_form_fourier(polys, edges, K: int) -> FourierSeries:
    period = edges[-1] - edges[0]
    antis = [[0.0] + [c / (m + 1) for m, c in enumerate(p)] for p in polys]
    mean = math.fsum(_poly_eval(q, hi) - _poly_eval(q, lo) for q, lo, hi in zip(antis, edges, edges[1:]))
    a0_half = mean / period
    # J_d / half the period at each edge; with the zero polynomial outside
    # the domain, its ends are one-sided edges
    pieces = [[], *polys, []]
    sides = [(_derivatives(pieces[i], t), _derivatives(pieces[i + 1], t)) for i, t in enumerate(edges)]
    jumps = [[(r - l) / (period / 2.0) for l, r in zip(*side)] for side in sides]
    n = len(edges)
    a, b = np.zeros(K), np.zeros(K)
    for start in range(0, K, _CF_CHUNK):
        ks = np.arange(start + 1.0, min(start + _CF_CHUNK, K) + 1.0)
        u, u2 = 1.0 / ks, 1.0 / (ks * ks)
        terms = np.empty((2, n, len(ks)))
        for i, (t, (j0, j1, j2, j3)) in enumerate(zip(edges, jumps)):
            # a_k - i b_k gains e^(-ikt) sum_d J_d / (ik)^(d+1) = (c - is)(re + i im)
            re, im = (j3 * u2 - j1) * u2, (j2 * u2 - j0) * u
            phase = ks * t
            s, c = np.sin(phase), np.cos(phase)
            terms[:, i] = c * re + s * im, s * re - c * im
        # edges in mirrored pairs, outermost first, then the middle one: on a
        # symmetric partition a pair cancels exactly where f's symmetry says so
        for acc, rows in zip((a[start : start + len(ks)], b[start : start + len(ks)]), terms):
            for pair in rows[: n // 2] + rows[::-1][: n // 2]:
                acc += pair
            if n % 2:
                acc += rows[n // 2]
    return FourierSeries(K, a0_half, a, b, provenance="closed_form")


def _poly_to_cos_poly(p) -> list[float]:
    """Rewrite p(cos t) as sum q_j cos(j t) for deg p <= 3.

    cos^2 = (1 + cos 2t)/2, cos^3 = (3 cos t + cos 3t)/4.
    """
    p = list(p) + [0.0] * (4 - len(p))
    return [p[0] + p[2] / 2.0, p[1] + 3.0 * p[3] / 4.0, p[2] / 2.0, p[3] / 4.0]


def _closed_form_chebyshev(polys, edges, K: int) -> ChebyshevSeries:
    # theta-side breakpoints: theta = arccos(x), descending x maps to ascending theta
    thetas = [math.acos(max(-1.0, min(1.0, x))) for x in reversed(edges)]
    qs = [_poly_to_cos_poly(p) for p in reversed(polys)]
    terms = [(coef, j, i, i + 1) for i, q in enumerate(qs) for j, coef in enumerate(q) if coef != 0.0]
    uses = {(j, i) for _, j, lo, hi in terms for i in (lo, hi)}
    c = np.zeros(K + 1)
    for start in range(0, K + 1, _CF_CHUNK):
        ks = np.arange(float(start), min(start + _CF_CHUNK, K + 1))
        # one table per breakpoint; m t is the same double as (k -+ j) t, so
        # the bits are those of sin((k -+ j) t) / (2 (k -+ j)) for each term
        ms = np.arange(ks[0] - 3.0, ks[-1] + 4.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            halves = {i: np.sin(ms * thetas[i]) / (2.0 * ms) for i in {i for _, i in uses}}
        # the antiderivative of cos(jt) cos(kt) at theta i: for k != j (k = j
        # happens in the first chunk only) halves[k - j] + halves[k + j]
        F = {}
        for j, i in uses:
            F[j, i] = halves[i][3 - j : 3 - j + len(ks)] + halves[i][3 + j : 3 + j + len(ks)]
            if start == 0 and j <= K:
                t = thetas[i]
                F[j, i][j] = t if j == 0 else t / 2.0 + math.sin(2 * j * t) / (4 * j)
        acc = c[start : start + len(ks)]
        for coef, j, lo, hi in terms:
            acc += coef * (F[j, hi] - F[j, lo])
    c *= 2.0 / math.pi
    c[0] /= 2.0
    return ChebyshevSeries(K, c, provenance="closed_form")


# ---------------------------------------------------------------------------
# Gauss-Legendre machinery
# ---------------------------------------------------------------------------

# The 16-point rule, with the bits numpy.polynomial.legendre.leggauss(16)
# gives; as literals, so importing the package neither loads
# numpy.polynomial nor calls LAPACK.
_GL_NODES = np.array([float.fromhex(v) for v in (
    "-0x1.fa92c264d787ep-1", "-0x1.e39f56616f9b0p-1", "-0x1.bb3403514e483p-1", "-0x1.82c45dda4726bp-1",
    "-0x1.3c5a466d5e8b8p-1", "-0x1.d50259a43a772p-2", "-0x1.205cae642337cp-2", "-0x1.852bd6676a9f9p-4",
    "0x1.852bd6676a9f9p-4", "0x1.205cae642337cp-2", "0x1.d50259a43a772p-2", "0x1.3c5a466d5e8b8p-1",
    "0x1.82c45dda4726bp-1", "0x1.bb3403514e483p-1", "0x1.e39f56616f9b0p-1", "0x1.fa92c264d787ep-1",
)])
_GL_WEIGHTS = np.array([float.fromhex(v) for v in (
    "0x1.bcddab4b7c228p-6", "0x1.fdfb1a2c1261ep-5", "0x1.85c4ee79cc24bp-4", "0x1.fe7af2bad3878p-4",
    "0x1.325f61bca3cbep-3", "0x1.5a6ebbb5a7600p-3", "0x1.75f8c77e0c011p-3", "0x1.83feae80e4e01p-3",
    "0x1.83feae80e4e01p-3", "0x1.75f8c77e0c011p-3", "0x1.5a6ebbb5a7600p-3", "0x1.325f61bca3cbep-3",
    "0x1.fe7af2bad3878p-4", "0x1.85c4ee79cc24bp-4", "0x1.fdfb1a2c1261ep-5", "0x1.bcddab4b7c228p-6",
)])


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


def _phase(x, n: np.ndarray) -> np.ndarray:
    """x * n reduced modulo 2 pi, for integers n < 2**53, to within a few ulp
    of 2 pi (for x * n below about 4e8); x and n broadcast.

    The product is the exact sum of four products of split halves; each is
    reduced by round(part / 2 pi) times the three-part 2 pi.  A plain x * n
    of size 1e7 is already off by about 1e-9.

    Two shortcuts keep the bits, because `out` starts at +0.0, so never
    holds -0.0, and adding +-0.0 to it changes nothing.  An all-zero half
    of n (every n < 2**26 has no low half) makes its products +-0.0, so
    they are skipped.  A product no larger than 3 has q = +-0.0, so the
    reduction returns it (up to the sign of a zero) and it is added as it is.
    """
    out = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(n)))
    nparts = [(npart, np.max(np.abs(npart))) for npart in _split(n) if np.any(npart)]
    for xp in _split(x):
        x_max = np.max(np.abs(xp))
        for npart, n_max in nparts:
            part = xp * npart
            if x_max * n_max <= 3.0:
                out += part
            else:
                q = np.round(part / (2.0 * math.pi))
                out += ((part - q * _TWO_PI[0]) - q * _TWO_PI[1]) - q * _TWO_PI[2]
    return out


def _cis_minus(theta: np.ndarray) -> np.ndarray:
    """exp(-i theta), with the signed zeros of cos(theta) - 1j * sin(theta):
    its imaginary part is 0.0 - sin(theta), not -sin(theta)."""
    out = np.empty(np.shape(theta), dtype=complex)
    out.real = np.cos(theta)
    out.imag = np.subtract(0.0, np.sin(theta))
    return out


# Budget of FFT cells (rows times transform length) for one block of
# Gauss-Legendre offsets in _panel_sums; rules whose transform is longer
# than _CELLS / 2 run one offset per block, so large rules keep the memory
# of one offset at a time.  Budgets of 2^13 to 2^16 cells timed alike at
# K = 256, 512 and 4096, 2^12 was slower, and each doubling past 2^13 added
# about 0.5 MB to the peak RSS of a K = 256 and 512 build.
_CELLS = 1 << 13


def _block_values(g_of, x: np.ndarray) -> np.ndarray:
    """g_of at the (rows, P) nodes x, in one call on the flattened nodes.

    Where g_of raises ValueError (a value that is not finite), the rows are
    evaluated again one at a time, so the error names the node an offset by
    offset loop meets first: the increment check's integrand evaluates one
    piece on every row before the other.
    """
    try:
        return g_of(x.ravel()).reshape(x.shape)
    except ValueError:
        for row in x:
            g_of(row)
        raise


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
    chirp phases reach 1e7 rad, so _phase reduces them exactly.

    Offsets run in blocks of max(1, min(16, _CELLS // size)) rows, size
    being the FFT length: one integrand call per block, and FFTs along the
    rows.  numpy's pocketfft (no BLAS) transforms each row on its own, and
    the rows are added to the sums one at a time in offset order, so the
    bits are those of one offset at a time, the same on every host.
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
        rows = max(1, min(len(_GL_NODES), _CELLS // size))
        piece = np.zeros(K + 1, dtype=complex)
        for j in range(0, len(_GL_NODES), rows):
            t = _GL_NODES[j : j + rows, None]
            w = _GL_WEIGHTS[j : j + rows, None]
            g = (h * w) * _block_values(g_of, lo + h * (twice_p + (1.0 + t)))
            conv = np.fft.ifft(np.fft.fft(g * chirp[:P], size, axis=1) * kernel, axis=1)
            # not `conv * _cis_minus(...)`: for a temporary of 256 KiB or
            # more numpy computes that in place as cis * conv, and complex
            # products computed with FMA change bits with the operand order
            shifted = np.multiply(conv[:, : K + 1], _cis_minus(_phase(lo + h * (1.0 + t), ks)))
            for row_sum, terms in zip(g.sum(axis=1).tolist(), shifted):
                total += row_sum
                piece += terms
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

    integrands = [functools.partial(_piece_at, f, i) for i in range(len(f.pieces))]
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
    integrands = [lambda t, i=i: _piece_at(f, i, np.cos(t)) for i in range(len(f.pieces))][::-1]
    (c,) = _doubled_quadrature(theta_edges, integrands, K, coefficients, "Chebyshev")
    return ChebyshevSeries(K, c, provenance="quadrature")


# ---------------------------------------------------------------------------
# Series terms
# ---------------------------------------------------------------------------

def _conjugate_terms(series: FourierSeries, x0: float, K: int) -> np.ndarray:
    """The conjugate-phase terms A_k = a_k sin(k x0) - b_k cos(k x0) for
    k = 1..K: the terms of the tails and, times -k, of the differentiated
    series.  numpy's float64 sin and cos call libm, so each A_k has the
    bits of the same formula on Python floats."""
    ks = np.arange(1, K + 1, dtype=float)
    return series.a[:K] * np.sin(ks * x0) - series.b[:K] * np.cos(ks * x0)


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
    if not isinstance(prov, str):
        raise ValueError("series JSON field 'provenance' must be a string")
    K = obj.get("K")
    if type(K) is not int:
        raise ValueError("series JSON field 'K' must be an integer")
    if kind == "fourier":
        (a0_half,) = _finite_floats(obj, "a0_half", scalar=True)
        return FourierSeries(
            K, a0_half, _finite_floats(obj, "a"), _finite_floats(obj, "b"), provenance=prov
        )
    return ChebyshevSeries(K, _finite_floats(obj, "c"), provenance=prov)
