"""Generalized-variation functionals on sampled data, and a growth classifier.

All functionals are suprema over index partitions of a finite sample
sequence.  Samples are expected to contain every local extremum and both
one-sided values at jumps (the CLI sampler arranges this), so the grid
supremum is the functional of the underlying function.

p_variation ranges over chains (consecutive links sharing endpoints).
lambda_variation, with harmonic weights, and modulus_of_variation range over
families of index intervals with disjoint interiors; sharing an endpoint is
allowed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .tails import PrecisionWarning

__all__ = [
    "SampleSequence",
    "VariationReport",
    "ClassLabel",
    "p_variation",
    "lambda_variation",
    "modulus_of_variation",
    "classify",
]


@dataclass(frozen=True)
class SampleSequence:
    """Finite samples of f at increasing points; jump points contribute the
    left value and the right value as adjacent entries."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("empty sample sequence")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("samples must be finite")

    @property
    def n_points(self) -> int:
        return len(self.values)


def _values(s) -> list[float]:
    if not isinstance(s, SampleSequence):
        s = SampleSequence(tuple(float(v) for v in s))
    return list(s.values)


# ---------------------------------------------------------------------------
# Chain functionals
# ---------------------------------------------------------------------------

# most link lengths |v_j - v_i| a variation DP builds at once
_CELLS = 1 << 16


def _chain_sum(rows, ps) -> list[float]:
    """Per row v of samples and its p: sup over chains i_0<...<i_m of sum
    |v_{i_{j+1}} - v_{i_j}|^p, by one O(n^2) DP over chain endpoints.

    A block d[j - j0, i] = |v_j - v_i| is raised to p in place (the diagonal
    keeps its +0.0); entries i > j are not read."""
    # rows equal up to the signs of zeros have the same link lengths
    index = {}
    inv = [index.setdefault(tuple(v), len(index)) for v in rows]
    u = np.array(list(index), dtype=float)
    best = np.zeros((len(inv), u.shape[1]))
    step = max(1, _CELLS // best.size)
    for j0 in range(1, best.shape[1], step):
        c = np.abs(u[:, j0:j0 + step, None] - u[:, None, :j0 + step])[inv]
        for d, q in zip(c, ps):
            d **= q
        best[:, j0:j0 + step] = (best[:, None, :j0] + c[:, :, :j0]).max(axis=2)
        for j in range(j0 + 1, j0 + c.shape[1]):
            best[:, j] = (best[:, j0:j + 1] + c[:, j - j0, j0:j + 1]).max(axis=1)
    return best.max(axis=1).tolist()


def p_variation(s, p):
    """sup over chains i_0<...<i_m of (sum |v_{i_{j+1}} - v_{i_j}|^p)^(1/p).

    A sequence of p gives the list of values, from one DP over all of them.

    If r^p, for the sample range r, is below the normal doubles or above
    2^1000 (where a chain's sum could overflow), the samples are first
    scaled by the power of two that puts r in [1, 2), which is exact.
    Unscaled, the powers lost their digits or overflowed: [0, 1.9e-162] gave
    2.2e-162 at p = 2, above its total variation, and [0, 1e200] gave inf."""
    ps = [p] if np.ndim(p) == 0 else list(p)
    if not all(q >= 1.0 for q in ps):
        raise ValueError("p must be >= 1")
    vals = _values(s)
    r = max(vals) - min(vals)
    es = [1 - math.frexp(r)[1] if 0 < r < math.inf and not -1022 <= q * math.log2(r) <= 1000 else 0
          for q in ps]
    rows = [[math.ldexp(v, e) for v in vals] if e else vals for e in es]
    sums = _chain_sum(rows, ps) if ps else []
    out = [math.ldexp(t ** (1.0 / q), -e) for t, q, e in zip(sums, ps, es)]
    return out[0] if np.ndim(p) == 0 else out


# ---------------------------------------------------------------------------
# Interval-family machinery
# ---------------------------------------------------------------------------

def _reduce_extrema(v: list[float]) -> list[float]:
    """Collapse plateaus and monotone interior points.

    Any interval family's oscillation multiset is weakly majorized by one
    on the local extrema, so every family functional is preserved.
    """
    out = [v[0]]
    for x in v[1:]:
        if x == out[-1]:
            continue
        if len(out) >= 2 and (out[-1] - out[-2]) * (x - out[-1]) > 0:
            out[-1] = x
        else:
            out.append(x)
    return out


def _candidates_undominated(v: list[float]) -> list[tuple[float, int, int]]:
    """Index pairs whose oscillation equals the range of their window.

    A pair whose |v_b - v_a| falls short of max-min over [a, b] is dominated
    by a pair inside the window and can never enter an optimal family.
    Sorted by descending oscillation (ties keep (a, b) generation order).
    """
    n = len(v)
    cands = []
    for a in range(n):
        wmin = wmax = v[a]
        for b in range(a + 1, n):
            if v[b] < wmin:
                wmin = v[b]
            if v[b] > wmax:
                wmax = v[b]
            o = abs(v[b] - v[a])
            if o > 0.0 and o == wmax - wmin:
                cands.append((o, a, b))
    cands.sort(key=lambda t: -t[0])
    return cands


def _maxsum_table(v: list[float], m_max: int, backtrack: bool):
    """nu(m) table for m = 1..m_max: max total oscillation of m interval
    families with disjoint interiors; optionally the chosen oscillations."""
    arr = np.asarray(v)
    n = len(v)
    E = np.zeros((m_max + 1, n))
    # start[m-1, j]: start index of the interval ending at j in the best
    # m-family on v[:j+1], or -1 when that family skips j
    start = np.full((m_max, n), -1)
    for j0 in range(1, n, max(1, _CELLS // n)):
        j1 = min(n, j0 + max(1, _CELLS // n))
        D = np.abs(arr[j0:j1, None] - arr[:j1])
        upper = ~np.tri(j1 - j0, dtype=bool, k=-1)  # i >= j
        D[:, j0:][upper] = -np.inf
        for m in range(1, m_max + 1):
            C = E[m - 1, :j1] + D
            if E[m - 1, j1 - 1] == math.inf:  # inf + -inf gave nan
                C[:, j0:][upper] = -np.inf
            i = C.argmax(axis=1)  # the first maximal i
            top = C[np.arange(len(C)), i]
            E[m, j0 - 1:j1] = np.maximum.accumulate(np.concatenate((E[m, j0 - 1:j0], top)))
            start[m - 1, j0:j1] = np.where(top > E[m, j0 - 1:j1 - 1], i, -1)
    nu = E[1:, n - 1].tolist()
    if not backtrack:
        return nu, None
    starts = start.tolist()
    fams = []
    for m in range(1, m_max + 1):
        osc, mm, jj = [], m, n - 1
        while mm > 0 and jj > 0:
            i = starts[mm - 1][jj]
            if i < 0:
                jj -= 1
            else:
                osc.append(abs(v[jj] - v[i]))
                jj = i
                mm -= 1
        fams.append(osc)
    return nu, fams


def _weighted(osc, W: list[float]) -> float:
    """sum_t W[t-1] times the t-th largest oscillation."""
    return math.fsum(o * w for o, w in zip(sorted(osc, reverse=True), W))


# largest W x oscs table the Lambda search builds (8 MiB of float64)
_REST_CAP = 1 << 20


def _pruned(
    acc: float, limit: float, q: int, i: int, W: list[float], oscs: list[float],
    rest: Optional[memoryview],
) -> bool:
    """Whether the search's rank bound at node (i, q) is <= limit: acc plus
    W[q + r] * oscs[i + r] for r = 0, 1, ..., summed in order up to a
    negligible term.  Candidates are sorted descending, so rank weights apply
    in order."""
    if rest is not None:
        # The table sums the same float products, all >= 0 and at most 2^20
        # of them: its rounding differs from the in-order sum's by under 3e-10
        # relative, and the terms that sum drops as negligible add up to at
        # most 1.1e-10 max(limit, 1).  Outside this band the table decides.
        est = acc + rest[q * len(oscs) + i]
        band = 1e-9 * (est if est > 1.0 else 1.0)
        if est + band <= limit:
            return True
        if est - band > limit:
            return False
    bound = acc
    for r in range(min(len(W) - q, len(oscs) - i)):
        t = W[q + r] * oscs[i + r]
        bound += t
        # every term is >= 0: once past limit the sum stays past it
        if bound > limit:
            return False
        if t < 1e-16 * (bound if bound > 1.0 else 1.0):
            break
    return bound <= limit


def _rest_table(W: list[float], oscs: list[float]) -> Optional[memoryview]:
    """rest[q * len(oscs) + i]: every term of the rank bound at node (i, q),
    summed from the far end; None above _REST_CAP entries."""
    if len(W) * len(oscs) > _REST_CAP:
        return None
    tab = np.outer(W, oscs)
    for q in range(len(W) - 2, -1, -1):
        tab[q, :-1] += tab[q + 1, 1:]
    return memoryview(tab.ravel())


# search nodes lambda_variation visits before it settles for a bound
_NODE_BUDGET = 200_000


def lambda_variation(s) -> float:
    """sup over interval families of sum |v_b - v_a| / t, the t-th largest
    oscillation weighted 1/t: the harmonic variation.

    Exact branch-and-bound over undominated candidate intervals, seeded by
    the per-count max-sum families.  If the search visits more than
    _NODE_BUDGET nodes (very irregular data) the best value found is returned
    and a PrecisionWarning reports the gap to an upper bound; a completed
    search is exact.
    """
    v = _reduce_extrema(_values(s))
    n = len(v)
    if n < 2:
        return 0.0
    cands = _candidates_undominated(v)
    ncand = len(cands)
    if ncand == 0:
        return 0.0
    mcap = min(ncand, n - 1)
    W = [1.0 / t for t in range(1, mcap + 1)]
    oscs = [c[0] for c in cands]

    # incumbent: best max-sum family per interval count, canonically valued
    t_seed = min(mcap, 64)
    nu, fams = _maxsum_table(v, t_seed, backtrack=True)
    best = max([0.0] + [_weighted(osc, W) for osc in fams])

    # Interval (a, b) covers the unit steps a..b-1; two intervals have
    # disjoint interiors exactly when their step masks do not meet.
    masks = [((1 << (b - a)) - 1) << a for _, a, b in cands]
    rest = _rest_table(W, oscs)

    # Depth-first search, taking candidate i before skipping it.  A node is
    # (i, q, acc, used): next candidate, intervals chosen, their weighted sum
    # and the union of their masks; the inner loop walks down the take
    # branches and stacks the skip branches.
    chosen: list[tuple[int, int]] = []
    stack = [(0, 0, 0.0, 0)]
    nodes = 0
    complete = True
    slack = 1e-12
    while stack and complete:
        i, q, acc, used = stack.pop()
        del chosen[q:]
        while True:
            nodes += 1
            if nodes > _NODE_BUDGET:
                complete = False
                break
            if acc > best:
                best = max(best, _weighted((abs(v[b] - v[a]) for a, b in chosen), W))
            if i >= ncand or q >= mcap:
                break
            if _pruned(acc, best + slack, q, i, W, oscs, rest):
                break
            if used & masks[i]:
                i += 1
            else:
                o, a, b = cands[i]
                stack.append((i + 1, q, acc, used))
                chosen.append((a, b))
                used |= masks[i]
                i, q, acc = i + 1, q + 1, acc + o * W[q]

    if not complete:
        # Abel bound: sum_t (w_t - w_{t+1}) nu(t), tail controlled by the
        # total variation, which bounds nu from above
        tv = math.fsum(abs(y - x) for x, y in zip(v, v[1:]))
        ub = 0.0
        for t in range(1, t_seed + 1):
            w_next = W[t] if t < mcap else 0.0
            ub += (W[t - 1] - w_next) * nu[t - 1]
        if t_seed < mcap:
            ub += W[t_seed] * tv
        warnings.warn(
            f"variation search hit the node budget ({_NODE_BUDGET}); "
            f"returning {best:.6g}, upper bound {ub:.6g} "
            f"(gap {max(ub - best, 0.0):.3g})",
            PrecisionWarning,
            stacklevel=2,
        )
    return best


def modulus_of_variation(s, n_max: int) -> list[float]:
    """nu(m) for m = 1..n_max: max total oscillation over m index intervals
    with disjoint interiors.  Nondecreasing and concave in m."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    v = _values(s)
    if len(v) < 2:
        return [0.0] * n_max
    nu, _ = _maxsum_table(v, n_max, backtrack=False)
    return nu


# ---------------------------------------------------------------------------
# Classification against growth templates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassLabel:
    """A function class with an optional fitted parameter."""

    name: str  # BV | V_p | V[n^alpha] | HBV | W | inconclusive
    parameter: Optional[float] = None

    def __str__(self):
        if self.name == "V_p":
            return f"V_p(p={self.parameter:.3g})"
        if self.name == "V[n^alpha]":
            return f"V[n^alpha](alpha={self.parameter:.3g})"
        return self.name


@dataclass(frozen=True)
class VariationReport:
    """Functional values computed on one sample grid."""

    p_variation: dict[float, float]
    harmonic_variation: float
    modulus: tuple[float, ...]
    grid_density: Optional[int] = None

    def to_json_obj(self) -> dict:
        return {
            "grid_density": self.grid_density,
            "p_variation": {repr(p): val for p, val in self.p_variation.items()},
            "harmonic_variation": self.harmonic_variation,
            "lambda_variation": {"harmonic": self.harmonic_variation},
            "modulus": list(self.modulus),
        }


def _fit_loglog(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope and R^2 of log y against log x; flat data counts
    as slope 0 with a perfect fit."""
    ys = [max(y, 0.0) for y in ys]
    if max(ys) <= 0.0:
        return 0.0, 1.0
    floor = max(ys) * 1e-15
    ly = np.log([max(y, floor) for y in ys])
    lx = np.log(np.asarray(xs, dtype=float))
    if np.ptp(ly) < 1e-3:
        return 0.0, 1.0
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = ly - A @ coef
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(ly - ly.mean(), ly - ly.mean()))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), r2


# the battery of build_report: p-variation exponents and the largest modulus count
_P_GRID = (1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0, 3.25, 3.5, 3.75, 4.0)
_MODULUS_N_MAX = 32

# classify's tolerances: a functional counts as bounded under refinement when
# its log-log growth slope against grid density is at most _SLOPE_TOL; a
# template fit needs R^2 >= _R2_MIN, and a power modulus an exponent of at
# most _ALPHA_MAX
_SLOPE_TOL = 0.08
_R2_MIN = 0.9
_ALPHA_MAX = 0.95


def classify(reports: Sequence[VariationReport]) -> ClassLabel:
    """Fit functional growth across a refinement family of reports and name
    the smallest class in BV, V_p, V[n^alpha], HBV, W that stays bounded.

    Each report must carry grid_density; at least two densities are needed
    for any growth fit.  The p-variation scan walks _P_GRID and skips any p
    that some report lacks.  Returns ClassLabel("inconclusive") when no
    template fits within tolerance.  The classifier is a labeled heuristic,
    not a membership proof.
    """
    reports = sorted(reports, key=lambda r: r.grid_density or 0)
    if len(reports) < 2 or any(r.grid_density is None for r in reports):
        return ClassLabel("inconclusive")
    densities = [float(r.grid_density) for r in reports]

    def series_for(p: float) -> Optional[list[float]]:
        if all(p in r.p_variation for r in reports):
            return [r.p_variation[p] for r in reports]
        return None

    tv = series_for(1.0)
    if tv is not None:
        slope, _ = _fit_loglog(densities, tv)
        if slope <= _SLOPE_TOL:
            return ClassLabel("BV")

    # scan the p-grid for the boundedness crossover
    prev_p, prev_slope = None, None
    for p in _P_GRID:
        pv = series_for(p)
        if pv is None:
            continue
        slope, _ = _fit_loglog(densities, pv)
        if p > 1.0 and slope <= _SLOPE_TOL:
            if prev_slope is not None and prev_slope > slope:
                frac = (prev_slope - _SLOPE_TOL) / (prev_slope - slope)
                fitted = prev_p + frac * (p - prev_p)
            else:
                fitted = p
            return ClassLabel("V_p", round(fitted, 4))
        prev_p, prev_slope = p, slope

    # power modulus of variation: nu(m) ~ m^alpha with alpha < 1
    finest = reports[-1]
    if len(finest.modulus) >= 3:
        ms = list(range(1, len(finest.modulus) + 1))
        alpha, r2 = _fit_loglog(ms, finest.modulus)
        if r2 >= _R2_MIN and 0.0 < alpha <= _ALPHA_MAX:
            return ClassLabel("V[n^alpha]", round(alpha, 4))

    harm = [r.harmonic_variation for r in reports]
    slope, r2 = _fit_loglog(densities, harm)
    if slope <= _SLOPE_TOL:
        return ClassLabel("HBV")
    if r2 >= _R2_MIN:
        return ClassLabel("W")
    return ClassLabel("inconclusive")


def build_report(s, grid_density: Optional[int] = None) -> VariationReport:
    """Compute the standard functional battery on one sample grid."""
    vals = _values(s)
    return VariationReport(
        p_variation=dict(zip(_P_GRID, p_variation(vals, _P_GRID))),
        harmonic_variation=lambda_variation(vals),
        modulus=tuple(modulus_of_variation(vals, min(_MODULUS_N_MAX, max(1, len(vals) - 1)))),
        grid_density=grid_density,
    )
