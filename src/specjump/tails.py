"""Jump estimators built from integrated Fourier tails, plus diagnostics.

The r-times-integrated tail of a Fourier series at x0 decays like n^-(2r+1)
with a coefficient proportional to the jump of the function at x0; inverting
that relation estimates the jump from nothing but tail sums.  A conjugate
variant decays like n^-2r (r >= 1 only).  The diagnostics monitor the
summability facts those estimators rest on.

Tails are truncated at K_cap; the error of truncation is modeled from the
stored coefficients (|A_k| <= rho_k with rho_k * k roughly bounded near the
cutoff, the decay a function of bounded variation exhibits) and reported as
remainder_bound.  Integration constants never arise: tails start at k = n
and contain no constant term.
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .coefficients import AccuracyError, FourierSeries, _conjugate_terms, _doubled_quadrature
from .funcspec import PiecewiseFunction, _locate, _piece_at

__all__ = [
    "PrecisionWarning",
    "JumpEstimate",
    "TailSumConfig",
    "integrated_tail",
    "jump_from_integrated",
    "conjugate_tail",
    "jump_from_conjugate",
    "v2_tail_diagnostic",
    "parseval_increment_check",
]

_METHODS = ("fejer", "cesaro", "integrated_tail", "conjugate_tail", "chebyshev_tail")


class PrecisionWarning(UserWarning):
    """A returned value may carry more truncation error than its use implies."""


@dataclass(frozen=True)
class JumpEstimate:
    """One jump estimate f(x0+0) - f(x0-0) with its provenance.

    remainder_bound, when present, bounds the truncation error contribution
    in the same units as value.
    """

    method: str
    x0: float
    n: int
    value: float
    r: Optional[int] = None
    alpha: Optional[float] = None
    remainder_bound: Optional[float] = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")


@dataclass(frozen=True)
class TailSumConfig:
    """Truncation policy for tail sums.

    K_cap: summation cutoff; defaults to series.K.  The bound on the
    discarded part beyond it is always modeled from the coefficients.
    """

    K_cap: Optional[int] = None


def _resolve_K(series, n: int, cfg) -> int:
    """The last index of a tail from n, Fourier or Chebyshev: min(K_cap, series.K)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    K = series.K if cfg is None or cfg.K_cap is None else min(cfg.K_cap, series.K)
    if K < n:
        raise ValueError(f"K_cap={K} smaller than tail start n={n}")
    return K


_BLOCK = 1 << 26  # terms per np.bincount: 27-bit halves times 2^26 terms stay below 2^53, exact


def _split(terms: np.ndarray) -> tuple:
    """(e, hi, lo) with terms = (hi 2^27 + lo) 2^(e - 53) elementwise: hi and
    lo are the integers of the top 26 and the low 27 bits of the mantissa,
    held exactly as floats (scaling by 2^26 and 2^27 and taking the fraction
    of m 2^26 round nothing)."""
    m, e = np.frexp(terms)
    m *= 2.0**26
    hi = np.trunc(m)
    m -= hi
    m *= 2.0**27
    return e, hi, m


class _SuffixSums:
    """The exact sum of terms[s:], rounded once, for any start s.

    A Kulisch-style long accumulator (Neal, arXiv:1505.05571): each term's
    two integer halves are binned by its binary exponent.  The build keeps
    the bins of all terms, exact in int64; a call subtracts the bins of the
    s head terms, shifts the bins into one Python int and divides once;
    int / int rounds correctly, ties to even.

    So the result is math.fsum's wherever fsum returns one: +0.0 for an exact
    zero, nan for a nan term, +-inf for infinite terms of one sign and
    ValueError for both signs.  Where fsum raises OverflowError on an
    intermediate sum, the exact sum is returned if it is finite: only a sum
    that rounds past the float range raises OverflowError.
    """

    def __init__(self, terms: np.ndarray):
        terms = np.asarray(terms, dtype=float)
        bad = ~np.isfinite(terms)
        # non-finite terms decide the result alone: kept aside, binned as zeros
        self._odd = (np.flatnonzero(bad), terms[bad]) if bad.any() else None
        self._terms = terms if self._odd is None else np.where(bad, 0.0, terms)
        e, hi, lo = _split(self._terms)
        self._emin = int(e.min(initial=0))
        self._bins = int(e.max(initial=0)) - self._emin + 1
        self._total = self._binned(e, hi, lo)

    def _binned(self, e, hi, lo) -> np.ndarray:
        """The int64 sums of the halves hi and lo in each exponent bin of
        e, as rows 0 and 1, added by np.bincount _BLOCK terms at a time."""
        e = e - self._emin
        out = np.zeros((2, self._bins), dtype=np.int64)
        for i in range(0, len(e), _BLOCK):
            chunk = slice(i, i + _BLOCK)
            for row, half in zip(out, (hi, lo)):
                row += np.bincount(e[chunk], half[chunk], self._bins).astype(np.int64)
        return out

    def sum_from(self, s: int) -> float:
        """The sum of terms[s:], for 0 <= s <= len(terms)."""
        if self._odd is not None:
            odd = self._odd[1][self._odd[0] >= s]
            if odd.size:
                if np.isposinf(odd).any() and np.isneginf(odd).any():
                    raise ValueError("-inf + inf in a sum")
                return math.nan if np.isnan(odd).any() else float(odd[0])
        his, los = (self._total - self._binned(*_split(self._terms[:s])))[:, ::-1].tolist()
        total = 0
        for h, l in zip(his, los):  # Horner over the bins, highest exponent first
            total = (total << 1) + (h << 27) + l
        shift = self._emin - 53
        return float(total << shift) if shift >= 0 else total / (1 << -shift)


# one entry, series -> ((x0 hex, p, K), _SuffixSums of the terms for k = 1..K); dies with it
_TERMS = weakref.WeakKeyDictionary()


def _window(values: np.ndarray, K: int) -> np.ndarray:
    """The last max(10, K // 100) entries of values (all of them if fewer):
    the window near the cutoff K that _window_sup reads."""
    return values[len(values) - min(len(values), max(10, K // 100)) :]


def _window_sup(amp: np.ndarray, K: int) -> float:
    """Windowed sup of amp_k k / K over _window(amp, K), where amp ends at
    k = K: the scale rho* of the bounded-variation decay model
    amp_k <= rho* K / k used beyond the cutoff."""
    amp = _window(amp, K)
    ks = np.arange(K - len(amp) + 1, K + 1, dtype=float)
    return float(np.max(amp * ks)) / K


def _tail(series, x0, r, n, cfg, what: str, conjugate: bool):
    """The engine of both tail kinds: (value, remainder bound, p) with weight
    power p = 2r (conjugate) or 2r + 1 (integrated), value
    (-1)^r sum_{k=n}^{K} A_k / k^p and the bound modeled beyond K.

    The terms A_k / k^p do not depend on n: _TERMS keeps the _SuffixSums of
    those for k = 1..K of the last (series, x0, p, K), and a call reads the
    sum from position n - 1.  A term comes from elementwise IEEE operations
    on its own k, so the sum is over the terms a build at n gives, rounded
    once as math.fsum rounds.

    Warns, naming `what`, when the bound exceeds 1% of the value.  Callers
    are the public functions only, so stacklevel 3 names their caller.
    """
    if conjugate and not (isinstance(r, int) and r >= 1):
        raise ValueError("conjugate tails require r >= 1")
    if not (isinstance(r, int) and r >= 0):
        raise ValueError("r must be a nonnegative integer")
    p = 2 * r + (0 if conjugate else 1)
    K = _resolve_K(series, n, cfg)
    key, hit = (float(x0).hex(), p, K), _TERMS.get(series)  # hex keeps -0.0 apart from 0.0
    if hit is None or hit[0] != key:
        hit = _TERMS.clear()  # None: the old terms are dropped before the new ones are built
        ks = np.arange(1, K + 1, dtype=float)
        hit = _TERMS[series] = (key, _SuffixSums(_conjugate_terms(series, x0, K) / ks**p))
    raw = hit[1].sum_from(n - 1)
    value = raw if r % 2 == 0 else -raw
    # sum_{k>K} rho* K / k^(p+1) <= rho* / (p K^(p-1))
    amp = np.hypot(_window(series.a[n - 1 : K], K), _window(series.b[n - 1 : K], K))
    bound = _window_sup(amp, K) / (p * float(K) ** (p - 1))
    if bound > 0.01 * abs(value):
        warnings.warn(
            f"{what}: truncation remainder bound {bound:.3g} exceeds 1% of "
            f"the result {value:.6g}; raise K_cap or supply more coefficients",
            PrecisionWarning,
            stacklevel=3,
        )
    return value, bound, p


def _jump(method, x0, r, n, tail, bound, p) -> JumpEstimate:
    """Jump estimate (-1)^(r+1) p pi n^p times a tail of weight power p."""
    scale = p * math.pi * float(n) ** p
    sign = -1.0 if r % 2 == 0 else 1.0
    return JumpEstimate(
        method=method,
        x0=x0,
        n=n,
        value=sign * scale * tail,
        r=r,
        remainder_bound=scale * bound,
    )


def integrated_tail(
    series: FourierSeries, x0: float, r: int, n: int, cfg: Optional[TailSumConfig] = None
) -> float:
    """(-1)^r sum_{k=n}^{K_cap} (a_k sin k x0 - b_k cos k x0) / k^(2r+1).

    Emits PrecisionWarning when the modeled remainder beyond K_cap exceeds
    1% of the result.
    """
    return _tail(series, x0, r, n, cfg, "integrated_tail", conjugate=False)[0]


def jump_from_integrated(
    series: FourierSeries, x0: float, r: int, n: int, cfg: Optional[TailSumConfig] = None
) -> JumpEstimate:
    """Jump estimate (-1)^(r+1) (2r+1) pi n^(2r+1) times the integrated tail."""
    parts = _tail(series, x0, r, n, cfg, "jump_from_integrated", conjugate=False)
    return _jump("integrated_tail", x0, r, n, *parts)


def conjugate_tail(
    series: FourierSeries, x0: float, r: int, n: int, cfg: Optional[TailSumConfig] = None
) -> float:
    """(-1)^r sum_{k=n}^{K_cap} (a_k sin k x0 - b_k cos k x0) / k^(2r), r >= 1.

    The even-power analogue of integrated_tail; its k^(-2r) weights are the
    term-by-term antiderivatives of the conjugate series, the convention
    validated by the sawtooth limit n^2 sum 1/k^3 -> 1/2.
    """
    return _tail(series, x0, r, n, cfg, "conjugate_tail", conjugate=True)[0]


def jump_from_conjugate(
    series: FourierSeries, x0: float, r: int, n: int, cfg: Optional[TailSumConfig] = None
) -> JumpEstimate:
    """Jump estimate (-1)^(r+1) 2r pi n^(2r) times the conjugate tail."""
    parts = _tail(series, x0, r, n, cfg, "jump_from_conjugate", conjugate=True)
    return _jump("conjugate_tail", x0, r, n, *parts)


def v2_tail_diagnostic(series: FourierSeries, n_values: Sequence[int]) -> list[float]:
    """u_n = n sum_{k=n}^{K} rho_k^2 for each n; bounded when the function
    has finite quadratic variation.

    Warns when the modeled rho^2 mass beyond K could move any u_n by more
    than 1% of the smallest one.
    """
    n_list = [int(n) for n in n_values]
    if not n_list:
        return []
    K = series.K
    for n in n_list:
        if not (1 <= n <= K):
            raise ValueError(f"n={n} outside stored range 1..{K}")
    r2 = np.hypot(series.a, series.b) ** 2
    tail = np.cumsum(r2[::-1])[::-1]
    out = [n * float(tail[n - 1]) for n in n_list]
    # discarded mass: sum_{k>K} rho_k^2 <= rho_K^2 K under rho ~ C/k decay
    bound = max(n_list) * float(r2[-1]) * K
    if bound > 0.01 * min(out):
        warnings.warn(
            f"v2_tail_diagnostic: discarded-tail bound {bound:.3g} exceeds 1% "
            f"of the smallest u_n {min(out):.6g}; K={K} is too small for these n",
            PrecisionWarning,
            stacklevel=2,
        )
    return out


def parseval_increment_check(
    f: PiecewiseFunction, series: FourierSeries, n: int
) -> tuple[float, float]:
    """Both sides of the shifted-increment identity
    (1/pi) integral [f(x + pi/n) - f(x)]^2 dx = 4 sum rho_m^2 sin^2(m pi / 2n).

    lhs by the coefficient quadrature engine at K = 0 (its panel doubling,
    tolerance, doubling cap and work bound; AccuracyError names the
    "increment" quadrature), on sub-intervals split at every point where x
    or x + pi/n crosses a breakpoint; rhs from the stored coefficients plus
    a modeled correction for the discarded tail (rho_m ~ rho* K / m decay
    with sin^2 averaging to 1/2, contributing 2 rho*^2 K).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lo, hi = f.domain
    if not f.periodic or not math.isclose(hi - lo, 2.0 * math.pi):
        raise ValueError("the increment identity needs a 2 pi periodic function")
    h = math.pi / n
    period = hi - lo

    ms = np.arange(1, series.K + 1, dtype=float)
    amp = np.hypot(series.a, series.b)
    rhs = 4.0 * _SuffixSums(amp**2 * np.sin(ms * (h / 2.0)) ** 2).sum_from(0)
    rhs += 2.0 * _window_sup(amp, series.K) ** 2 * series.K

    crossings = set()
    for bp in list(f.breakpoints) + [lo]:
        crossings.add(bp)
        back = bp - h
        if back < lo:
            back += period
        crossings.add(back)
    edges = sorted({lo, hi} | {c for c in crossings if lo < c < hi})

    # on each sub-interval x lies in piece p and x + h in piece q, reached
    # at x + s with s = h, or h - 2 pi where x + h wraps past hi
    mids = [(a + b) / 2.0 for a, b in zip(edges, edges[1:])]
    _, _, pieces = _locate(f, mids + [mid + h for mid in mids])
    integrands = []
    for mid, p, q in zip(mids, pieces.tolist(), pieces[len(mids) :].tolist()):
        s = h if mid + h < hi else h - period
        integrands.append(
            lambda x, p=p, q=q, s=s: (_piece_at(f, q, x + s) - _piece_at(f, p, x)) ** 2
        )
    (lhs,) = _doubled_quadrature(
        edges, integrands, 0, lambda S: (S[0].real / math.pi,), "increment"
    )
    return float(lhs), rhs
