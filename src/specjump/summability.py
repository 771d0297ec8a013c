"""Cesaro summation and concentration-based jump estimators.

Differentiating a Fourier partial sum concentrates mass at jump points:
the (C,1) mean of the differentiated terms at x, scaled by pi, converges
to the jump f(x+0) - f(x-0).  Higher alpha smooths harder, lower alpha
localizes harder; alpha = 1 reproduces the Fejer estimator exactly.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .coefficients import FourierSeries, _conjugate_terms
from .tails import JumpEstimate, _SuffixSums

__all__ = [
    "cesaro_weights",
    "cesaro_mean",
    "diff_series_terms",
    "fejer_jump",
    "cesaro_jump",
]


@lru_cache(maxsize=64)
def cesaro_weights(N: int, alpha: float) -> tuple[tuple[float, ...], float]:
    """Weights and normalizer of the (C, alpha) mean of s_0..s_N.

    Returns (W, denom) with W[i] the weight of s_i, so the mean is
    fsum(W[i] * s[i]) / denom.  W[i] is the binomial coefficient
    C(N - i + alpha - 1, N - i), built by the product recurrence (never
    factorials, which overflow), and denom = C(N + alpha, N), which equals
    sum(W) exactly in exact arithmetic (the Vandermonde identity).
    Cached per (N, alpha); the weight tables are reused across x values.
    """
    if not alpha > -1.0:
        raise ValueError("alpha must be > -1")
    if N < 0:
        raise ValueError("N must be >= 0")
    # wt[m] = C(m + alpha - 1, m); m counts distance from the sequence end
    wt = [1.0] * (N + 1)
    for m in range(1, N + 1):
        wt[m] = wt[m - 1] * ((alpha - 1.0 + m) / m)
    if float(alpha).is_integer() and alpha >= 0:
        # integer alpha: C(N + alpha, N) as a short product, exact at alpha = 1
        denom = 1.0
        for j in range(1, int(alpha) + 1):
            denom *= (N + j) / j
    else:
        denom = 1.0
        for m in range(1, N + 1):
            denom *= (alpha + m) / m
    wt.reverse()
    return tuple(wt), denom


def cesaro_mean(s: Sequence[float], alpha: float) -> float:
    """(C, alpha) mean of the sequence s_0..s_N, alpha > -1.

    alpha = 0 is the identity (returns s_N), alpha = 1 the arithmetic mean.
    alpha <= 0 is permitted but lies outside the range the convergence
    theory uses, so treat it as experimental.
    """
    vals = [float(v) for v in s]
    if not vals:
        raise ValueError("cannot average an empty sequence")
    W, denom = cesaro_weights(len(vals) - 1, alpha)
    return math.fsum(w * v for w, v in zip(W, vals)) / denom


def diff_series_terms(series: FourierSeries, x: float, n: int) -> list[float]:
    """Terms k*(b_k cos kx - a_k sin kx) of the differentiated series, k=1..n."""
    if not (1 <= n <= series.K):
        raise ValueError(f"n={n} outside stored range 1..{series.K}")
    return (-(np.arange(1, n + 1, dtype=float) * _conjugate_terms(series, x, n))).tolist()


def _fejer_mean(series: FourierSeries, x: float, n: int) -> float:
    """The mean of the first n differentiated terms at x, which estimates
    the jump over pi: their exact sum rounded once, math.fsum's value
    wherever fsum returns one, divided by n."""
    return _SuffixSums(diff_series_terms(series, x, n)).sum_from(0) / n


def fejer_jump(series: FourierSeries, x: float, n: int) -> JumpEstimate:
    """Jump estimate pi/n * sum of the first n differentiated terms at x."""
    value = math.pi * _fejer_mean(series, x, n)
    return JumpEstimate(method="fejer", x0=x, n=n, value=value)


def cesaro_jump(series: FourierSeries, x: float, alpha: float, n: int) -> JumpEstimate:
    """Jump estimate pi times the (C, alpha) mean of the differentiated terms.

    At alpha = 1 this is bit-for-bit the Fejer estimate: the weights are
    exactly 1.0 and the normalizer is exactly n, so the arithmetic agrees
    operation for operation.
    """
    terms = diff_series_terms(series, x, n)
    value = math.pi * cesaro_mean(terms, alpha)
    return JumpEstimate(method="cesaro", x0=x, n=n, value=value, alpha=alpha)
