"""Jump detection from Chebyshev coefficient tails.

The once-integrated tail of a Chebyshev expansion at an interior point x
decays like 1/n with coefficient -sqrt(1-x^2)/pi times the jump at x; the
estimator inverts that.  The integrated tail is evaluated by one route:
the tail's antiderivative as a Chebyshev expansion, summed by Clenshaw.  The
tests keep an independent theta-domain route (substitute x = cos theta,
integrate by parts, reuse the trigonometric tail sum) as its oracle.
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .coefficients import ChebyshevSeries
from .tails import JumpEstimate, PrecisionWarning, _SuffixSums, _window, _window_sup

__all__ = [
    "ChebyshevTailConfig",
    "chebyshev_tail",
    "integrated_chebyshev_tail",
    "jump_from_chebyshev",
    "sawtooth_tail_bound_check",
]

_ENDPOINT_MARGIN = 1e-8


@dataclass(frozen=True)
class ChebyshevTailConfig:
    """Tail start n and cutoff K_cap (None: every stored coefficient)."""

    n: int
    K_cap: Optional[int] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")


def _resolve_K(series: ChebyshevSeries, cfg: ChebyshevTailConfig) -> int:
    K = series.K if cfg.K_cap is None else min(cfg.K_cap, series.K)
    if K < cfg.n:
        raise ValueError(f"K_cap={K} smaller than tail start n={cfg.n}")
    return K


def _check_x(x: float) -> None:
    if not abs(x) < 1.0:
        raise ValueError("x must lie strictly inside (-1, 1)")


def _clenshaw(c: list, x: float) -> float:
    """sum_k c[k] T_k(x) by the Clenshaw recurrence, for len(c) >= 2, on
    Python floats: the operations of numpy's chebval, in its order, so the
    result has its bits."""
    x2 = 2 * x
    rest = reversed(c)
    c1 = next(rest)
    c0 = next(rest)
    for ck in rest:
        c0, c1 = ck - c1, c0 + c1 * x2
    return c0 + c1 * x


def chebyshev_tail(series: ChebyshevSeries, x: float, cfg: ChebyshevTailConfig) -> float:
    """sum_{k=n}^{K_cap} c_k T_k(x), evaluated by the Clenshaw recurrence.

    Emits PrecisionWarning when the oscillatory-sum bound on the discarded
    part beyond K_cap (c* / |sin(theta/2)| under the |c_k| <= c* K / k decay
    model) exceeds 1% of the result.
    """
    _check_x(x)
    n, K = cfg.n, _resolve_K(series, cfg)
    tail = series.c[n : K + 1]
    value = _clenshaw([0.0] * n + tail.tolist(), x)
    theta = math.acos(x)
    bound = _window_sup(np.abs(_window(tail, K)), K) / max(abs(math.sin(theta / 2.0)), 1e-6)
    if bound > 0.01 * abs(value):
        warnings.warn(
            f"chebyshev_tail: truncation bound {bound:.3g} exceeds 1% of the "
            f"result {value:.6g}; raise K_cap or supply more coefficients",
            PrecisionWarning,
            stacklevel=2,
        )
    return value


# one entry, series -> (K, upper D, constant suffix sums, x hex, {j: Clenshaw state})
_SHARED = weakref.WeakKeyDictionary()


def _swept(up: memoryview, states: dict, x: float, lo: int) -> tuple:
    """The Clenshaw state (c0, c1) after up[lo:], resumed from the lowest saved
    state at an index >= lo; saves one every 4096 indices, and at lo."""
    j = min(i for i in list(states) if i >= lo)  # list() copies while others may add
    c0, c1 = states[j]
    x2 = 2 * x
    while j > lo:
        j, stop = max(lo, (j - 1) // 4096 * 4096), j
        for ck in up[j:stop][::-1]:
            c0, c1 = ck - c1, c0 + c1 * x2
        states[j] = (c0, c1)
    return c0, c1


def integrated_chebyshev_tail(
    series: ChebyshevSeries, x: float, cfg: ChebyshevTailConfig
) -> float:
    """Integral from -1 to x of the Chebyshev tail sum_{k=n}^{K_cap} c_k T_k,
    via one antiderivative Chebyshev expansion D summed by Clenshaw.

    int T_k = [T_{k+1}/(k+1) - T_{k-1}/(k-1)]/2 - (-1)^k/(k^2-1) for k >= 2
    (constants fixed so the value at -1 is zero); int T_1 = (T_2 - 1)/4.

    With m = max(n, 2), D[i] for i >= m + 1 does not depend on m, nor do the
    terms -(-1)^i c_i / (i^2 - 1) of the constant, a sum over i = m..K.
    _SHARED keeps those entries, the _SuffixSums of those terms and the last
    x's Clenshaw states every 4096 indices: a later n resumes from the
    lowest state above m and ends on its own D[m], D[m - 1] and zeros, the
    operations of one sweep, and reads its constant from position m - 2.
    """
    _check_x(x)
    n, K = cfg.n, _resolve_K(series, cfg)
    c = series.c
    value = 0.0
    # K >= n >= 1 (from _resolve_K) and m >= 2
    m = max(n, 2)
    if n <= 1:
        value += float(c[1]) * (x * x - 1.0) / 2.0
    if m <= K:
        key, entry = float(x).hex(), _SHARED.get(series)  # hex keeps -0.0 apart from 0.0
        if entry is None or entry[0] != K:
            entry = _SHARED.clear()  # None: the old entry is dropped before the new one is built
            # D[i] = (0.0 + c[i-1]/(2i)) - c[i+1]/(2i), no subtraction past K - 1,
            # is the same for every m <= i - 1, so it is kept from i = 3 on
            js = np.arange(3, K + 2, dtype=float)
            up = np.zeros(K + 2)
            up[3:] += c[2 : K + 1] / (2.0 * js)
            up[3:K] -= c[4 : K + 1] / (2.0 * js[: K - 3])
            ks = np.arange(2, K + 1, dtype=float)
            signs = np.where(np.arange(2, K + 1) % 2 == 0, 1.0, -1.0)
            consts = _SuffixSums(-c[2 : K + 1] * signs / (ks**2 - 1.0))
            entry = (K, memoryview(up), consts, None, None)  # items are Python floats
        if entry[3] != key:  # the states of one x at a time, from D[K], D[K + 1]
            entry = _SHARED[series] = entry[:3] + (key, {K: tuple(entry[1][K:])})
        _, up, consts, _, states = entry
        # _clenshaw starts from its list's last two entries: the state after D[m + 1:],
        # or at m = K, D[K] = 0.0 and D[K + 1]
        top = ([0.0 - float(c[m + 1]) / (2.0 * m), *_swept(up, states, x, m + 1)]
               if m < K else [0.0, up[K + 1]])
        low = [0.0] * (m - 1) + [0.0 - float(c[m]) / (2.0 * (m - 1))]
        value += _clenshaw(low + top, x) + consts.sum_from(m - 2)
    return value


def jump_from_chebyshev(
    series: ChebyshevSeries, x: float, cfg: ChebyshevTailConfig
) -> JumpEstimate:
    """Jump estimate -pi n / sqrt(1 - x^2) times the integrated tail.

    Rejects |x| within 1e-8 of the endpoints, where the weight factor
    vanishes and the estimator is undefined.
    """
    if abs(x) >= 1.0 - _ENDPOINT_MARGIN:
        raise ValueError("jump estimation is undefined within 1e-8 of x = +/-1")
    tail = integrated_chebyshev_tail(series, x, cfg)
    value = -math.pi * cfg.n * tail / math.sqrt(1.0 - x * x)
    return JumpEstimate(method="chebyshev_tail", x0=x, n=cfg.n, value=value, r=0)


_GRID_POINTS = 4096
_CHUNK = 1 << 16


def sawtooth_tail_bound_check(n_values: Sequence[int]) -> list[float]:
    """sup over a 4096-point theta grid of |n sum_{k=n}^{K} cos(k theta)/k^2|
    for each n, with K = max(1e5, 200 n).

    This is n times the once-integrated tail of the unit-jump sawtooth
    kernel; boundedness of the sup (empirically <= 2, attained near theta=0
    where the sum telescopes to about 1 + 1/(2n)) is what makes the
    Chebyshev estimator's error uniform over jump locations.

    On the grid theta_j = j pi / (M - 1), cos(k theta_j) has period
    P = 2 (M - 1) in k, so the weights 1/k^2 are folded into their bins
    k mod P, and the real part of one length-P real FFT of the folded
    weights gives the sum at all M grid points: O(K + M log M) work.
    """
    period = 2 * (_GRID_POINTS - 1)
    out = []
    for n in n_values:
        n = int(n)
        if n < 1:
            raise ValueError("n must be >= 1")
        K = max(10**5, 200 * n)
        folded = np.zeros(period)
        for k0 in range(n, K + 1, _CHUNK):
            k = np.arange(k0, min(k0 + _CHUNK, K + 1))
            folded += np.bincount(k % period, 1.0 / k.astype(float) ** 2, period)
        total = np.fft.rfft(folded).real
        out.append(float(n * np.max(np.abs(total))))
    return out
