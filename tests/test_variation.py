"""Variation functionals: DP correctness against exhaustive search, examples,
the interval-family searcher, and the growth classifier."""

import math
import random
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import specjump as sj
from specjump import variation as var
from specjump.cli import sample_for_variation
from specjump.tails import PrecisionWarning
from specjump.funcspec import PiecewiseFunction
from specjump.variation import (
    ClassLabel,
    SampleSequence,
    VariationReport,
    build_report,
    classify,
    lambda_variation,
    modulus_of_variation,
    p_variation,
)

from conftest import (
    SAWTOOTH_SPEC,
    SIGN_SPEC,
    SIGN_X_SPEC,
    brute_lambda_variation,
    brute_modulus,
    brute_p_variation,
)
from reference import evaluate, one_sided_limits, sample_per_point

finite_samples = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    min_size=2,
    max_size=10,
)

# a few levels and a free float: plateaus, exact ties between oscillations
# and between families, and generic data; levels 1e-12 apart (the search's
# slack) put rank bounds within rounding of the pruning limit
_tied_samples = st.integers(min_value=1, max_value=60).flatmap(
    lambda n: st.lists(
        st.one_of(
            st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.0 + 1e-12, 2.0, 2.0 - 1e-12]),
            st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        ),
        min_size=n,
        max_size=n,
    )
)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def test_sample_sequence_validation():
    s = SampleSequence((1.0, 2.0))
    assert s.n_points == 2
    with pytest.raises(ValueError, match="empty sample sequence"):
        SampleSequence(())
    with pytest.raises(ValueError, match="must be finite"):
        SampleSequence((1.0, math.inf))


def test_functionals_accept_sequences_and_sample_objects():
    v = [0.0, 1.0, 0.5]
    assert p_variation(SampleSequence(tuple(v)), 2.0) == p_variation(v, 2.0)


# ---------------------------------------------------------------------------
# Chain functionals
# ---------------------------------------------------------------------------

def test_p_variation_examples():
    zig = [0.0, 1.0, 0.0, 1.0]
    assert p_variation([0.0, 0.3, 0.7, 1.0], 2.0) == 1.0
    assert p_variation(zig, 2.0) == math.sqrt(3.0)
    assert p_variation(zig, 1.0) == 3.0
    assert p_variation([4.0], 3.0) == 0.0


def test_p_variation_rejects_p_below_one():
    with pytest.raises(ValueError, match="p must be >= 1"):
        p_variation([0.0, 1.0], 0.5)


def test_phi_variation_examples():
    # the phi-variation for phi(u) = u^p: the chain sum p_variation roots
    zig = [0.0, 1.0, 0.0, 1.0]
    assert var._chain_sum([zig], [2.0]) == [3.0]
    assert var._chain_sum([zig], [1.0]) == [p_variation(zig, 1.0)]
    assert var._chain_sum([[0.0, 1.0]], [3.0]) == [1.0]


def test_chain_dp_matches_exhaustive_search():
    rng = random.Random(1207)
    for _ in range(60):
        m = rng.randint(2, 10)
        v = [rng.uniform(-3.0, 3.0) for _ in range(m)]
        for p in (1.0, 1.5, 2.0, 3.0):
            assert p_variation(v, p) == brute_p_variation(v, p)


@settings(max_examples=80, deadline=None)
@given(finite_samples, st.sampled_from([1.0, 1.5, 2.0]))
def test_chain_dp_matches_exhaustive_search_property(v, p):
    assert p_variation(v, p) == brute_p_variation(v, p)


@settings(max_examples=60, deadline=None)
@given(finite_samples, st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
def test_appending_a_sample_never_decreases_p_variation(v, extra):
    assert p_variation(v + [extra], 2.0) >= p_variation(v, 2.0)


@settings(max_examples=60, deadline=None)
@given(finite_samples)
def test_subsequences_never_increase_p_variation(v):
    sub = v[::2]
    if len(sub) >= 2:
        assert p_variation(sub, 2.0) <= p_variation(v, 2.0)


@settings(max_examples=60, deadline=None)
@given(finite_samples)
def test_p_variation_bounded_by_total_variation(v):
    assert p_variation(v, 2.0) <= p_variation(v, 1.0) * (1.0 + 1e-12)


def test_p_variation_keeps_its_digits_when_the_powers_underflow_or_overflow():
    # unscaled, 1.907e-162 squared rounds to the smallest subnormal and the
    # root was 2.2e-162 (hypothesis found that example for the test above);
    # 1e200 squared overflowed to inf
    v = [0.0, 1.90708602865674e-162]
    assert p_variation(v, 2.0) == p_variation(v, 1.0) == 1.90708602865674e-162
    assert p_variation([0.0, 5e-324, 0.0], 3.0) == 5e-324
    assert p_variation([0.0, 1e200], 2.0) == 1e200
    for w in (v, [0.0, 1e200, -3e199]):
        assert p_variation(w, 1.5) == brute_p_variation(w, 1.5)


def _chain_sum_by_columns(vals, cost):
    """The chain DP one column at a time, as it was before the row blocks: the
    reference for their bits.  cost maps the link lengths |v_j - v[:j]| to
    their costs."""
    v = np.asarray(vals, dtype=float)
    best = np.zeros(len(v))
    for j in range(1, len(v)):
        best[j] = np.max(best[:j] + cost(np.abs(v[j] - v[:j])))
    return float(np.max(best))


def _p_variation_by_columns(vals, p):
    """One p through the column DP, with p_variation's power-of-two scaling."""
    r = max(vals) - min(vals)
    outside = 0.0 < r < math.inf and not -1022 <= p * math.log2(r) <= 1000
    e = 1 - math.frexp(r)[1] if outside else 0
    scaled = [math.ldexp(v, e) for v in vals]
    return math.ldexp(_chain_sum_by_columns(scaled, lambda d: d**p) ** (1.0 / p), -e)


def _cells_for(n):
    """Block sizes from one row per block up to one block for all rows."""
    return sorted({1, 2, 3, 7, max(1, n - 1), 2 * n, 3 * n + 1, 7 * n, var._CELLS})


def _assert_p_grid_matches_the_columns(v):
    want = [_p_variation_by_columns(v, p) for p in var._P_GRID]
    assert [p_variation(v, p) for p in var._P_GRID] == want
    for cells in _cells_for(len(v) * len(var._P_GRID)):
        with mock.patch.object(var, "_CELLS", cells):
            assert p_variation(v, var._P_GRID) == want


@settings(max_examples=60, deadline=None)
@given(v=_tied_samples)
def test_the_p_grid_in_one_call_matches_the_column_dp_bit_for_bit(v):
    _assert_p_grid_matches_the_columns(v)


def test_the_p_grid_matches_the_column_dp_where_scaling_applies_to_some_p():
    # r = 2^-400: r^p underflows for p >= 2.75, which are scaled, and not for
    # p <= 2.5, which are not; the other cases scale every p > 1 or none
    tiny = [0.0, 2.0**-400, 2.0**-402, 3 * 2.0**-403, 0.0]
    assert [q * -400 < -1022 for q in var._P_GRID] == [q >= 2.75 for q in var._P_GRID]
    for v in (tiny, [0.0, 1.90708602865674e-162], [0.0, 1e200, -3e199], [4.0], [2.5] * 6):
        _assert_p_grid_matches_the_columns(v)
    assert p_variation([4.0], var._P_GRID) == [0.0] * len(var._P_GRID)
    assert p_variation([2.5] * 6, [1.0, 3.0]) == [0.0, 0.0]
    assert p_variation([0.0, 1.0], []) == []


def test_the_p_grid_rejects_any_p_below_one():
    for ps in ([0.5], [1.0, 0.5, 2.0], [2.0, math.nan]):
        with pytest.raises(ValueError, match="p must be >= 1"):
            p_variation([0.0, 1.0], ps)


def test_the_p_grid_raises_each_p_with_its_own_scalar_pow():
    # numpy computes d ** 2.0 with its square loop, and an exponent array
    # that varies along the loop with its pow loop.  Where the two differ (as
    # numpy's AVX-512 pow does), links of those lengths tell a batched
    # exponent from the scalar one; where they agree there is nothing to tell.
    x = np.random.default_rng(0).uniform(1.0, 2.0, 200_000)
    odd = x[np.power(x, np.full_like(x, 2.0)) != x**2.0][:64].tolist()
    for t in odd:
        _assert_p_grid_matches_the_columns([0.0, t, 0.0])


# ---------------------------------------------------------------------------
# Interval-family functionals
# ---------------------------------------------------------------------------

def _harmonic(m):
    return [1.0 / t for t in range(1, m + 1)]


def test_lambda_variation_examples():
    zig = [0.0, 1.0, 0.0, 1.0]
    assert lambda_variation(zig) == math.fsum([1.0, 0.5, 1.0 / 3.0])
    assert lambda_variation([0.0, 1.0]) == 1.0


def test_lambda_variation_matches_exhaustive_search():
    rng = random.Random(2304)
    for _ in range(60):
        m = rng.randint(2, 10)
        v = [rng.uniform(-3.0, 3.0) for _ in range(m)]
        assert lambda_variation(v) == brute_lambda_variation(v, _harmonic(m - 1))


def test_lambda_variation_budget_exhaustion_warns_with_upper_bound(monkeypatch):
    rng = random.Random(11)
    v = [rng.uniform(-1.0, 1.0) for _ in range(40)]
    exact = lambda_variation(v)
    monkeypatch.setattr(var, "_NODE_BUDGET", 50)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        val = lambda_variation(v)
    assert [w.category for w in caught] == [PrecisionWarning]
    msg = str(caught[0].message)
    assert "node budget" in msg and "upper bound" in msg
    assert val <= exact * (1.0 + 1e-12)


def test_lambda_variation_pins_budget_bound_searches_on_a_chirp(monkeypatch):
    # x sin(x^-2) oscillates too fast for the search to finish: each budget
    # returns the incumbent it reached, and the same upper bound
    f = sj.parse_function_spec("domain [0.02, 1]; piece x*sin(1/x^2)")
    s = sample_for_variation(f, 128)
    pins = {
        2000: (2.8708539223432012, "returning 2.87085, upper bound 3.00955 (gap 0.139)"),
        20000: (2.8726861688970775, "returning 2.87269, upper bound 3.00955 (gap 0.137)"),
    }
    for budget, (value, tail) in pins.items():
        monkeypatch.setattr(var, "_NODE_BUDGET", budget)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert lambda_variation(s) == value
        assert [str(w.message) for w in caught] == [
            f"variation search hit the node budget ({budget}); {tail}"
        ]
        assert caught[0].category is PrecisionWarning


def _lambda_variation_by_scan(s, node_budget=200_000):
    """The Lambda search written plainly, the reference for its bit masks and
    suffix table: at every node an O(q) scan of the chosen intervals for
    overlap and the whole rank bound, summed term by term."""
    v = var._reduce_extrema(var._values(s))
    n = len(v)
    if n < 2:
        return 0.0
    cands = var._candidates_undominated(v)
    ncand = len(cands)
    if ncand == 0:
        return 0.0
    mcap = min(ncand, n - 1)
    W = _harmonic(mcap)
    oscs = [c[0] for c in cands]
    t_seed = min(mcap, 64)
    nu, fams = var._maxsum_table(v, t_seed, backtrack=True)
    best = max([0.0] + [var._weighted(osc, W) for osc in fams])
    chosen = []
    stack = [(0, 0, 0.0)]
    nodes = 0
    complete = True
    slack = 1e-12
    while stack and complete:
        i, q, acc = stack.pop()
        del chosen[q:]
        while True:
            nodes += 1
            if nodes > node_budget:
                complete = False
                break
            if acc > best:
                best = max(best, var._weighted((abs(v[b] - v[a]) for a, b in chosen), W))
            if i >= ncand or q >= mcap:
                break
            bound = acc
            r = 0
            while q + r < mcap and i + r < ncand:
                t = W[q + r] * oscs[i + r]
                bound += t
                r += 1
                if t < 1e-16 * max(bound, 1.0):
                    break
            if bound <= best + slack:
                break
            o, a, b = cands[i]
            for x, y in chosen:
                if a < y and x < b:
                    i += 1
                    break
            else:
                stack.append((i + 1, q, acc))
                chosen.append((a, b))
                i, q, acc = i + 1, q + 1, acc + o * W[q]
    if not complete:
        tv = math.fsum(abs(y - x) for x, y in zip(v, v[1:]))
        ub = 0.0
        for t in range(1, t_seed + 1):
            w_next = W[t] if t < mcap else 0.0
            ub += (W[t - 1] - w_next) * nu[t - 1]
        if t_seed < mcap:
            ub += W[t_seed] * tv
        warnings.warn(
            f"variation search hit the node budget ({node_budget}); "
            f"returning {best:.6g}, upper bound {ub:.6g} "
            f"(gap {max(ub - best, 0.0):.3g})",
            PrecisionWarning,
        )
    return best


def _lambda_at_budget(s, node_budget=None):
    """lambda_variation with its node budget set to node_budget (None: the default)."""
    with mock.patch.object(var, "_NODE_BUDGET", node_budget or var._NODE_BUDGET):
        return lambda_variation(s)


def _value_and_warnings(search, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = search(*args, **kwargs)
    return value, [(w.category, str(w.message)) for w in caught]


@settings(max_examples=150, deadline=None)
@given(v=_tied_samples, budget=st.sampled_from([5, 50, 2000, None]))
@example(v=[0.0, 1.0] * 15, budget=None)
@example(v=[0.0, 1.0, 1.0, 0.0, 2.0, 2.0, -1.0] * 8, budget=2000)
def test_lambda_variation_matches_the_scan_search_bit_for_bit(v, budget):
    if budget is None:
        # at the default budget the scan search takes seconds on 60 samples;
        # 30 keep it complete and quick
        v = v[:30]
    kwargs = {} if budget is None else {"node_budget": budget}
    want = _value_and_warnings(_lambda_variation_by_scan, v, **kwargs)
    # nodes are decided from the suffix table, and with no table (cap 0)
    # from the rank bound alone
    for cap in (var._REST_CAP, 0):
        with mock.patch.object(var, "_REST_CAP", cap):
            assert _value_and_warnings(_lambda_at_budget, v, **kwargs) == want


def test_the_suffix_table_prunes_as_the_in_order_rank_bound_does():
    # at limits a few ulps around the bound, where the table's own rounding
    # alone could not tell which side the in-order sum falls on
    rng = random.Random(5)
    levels = [-1.0, 0.0, 0.1, 0.3, 0.5, 0.5 + 1e-12, 0.7, 1.0, 1.0 + 1e-12, 2.0, 3.0 - 1e-12]
    # the rank weights of harmonic, square-root and constant lambda
    for weight in (lambda t: 1.0 / t, lambda t: 1.0 / t**0.5, lambda t: 1.0):
        for _ in range(6):
            v = var._reduce_extrema([rng.choice(levels) for _ in range(40)])
            oscs = [c[0] for c in var._candidates_undominated(v)]
            W = [weight(t) for t in range(1, min(len(oscs), len(v) - 1) + 1)]
            rest = var._rest_table(W, oscs)
            assert rest is not None
            for q in range(len(W)):
                for i in range(len(oscs)):
                    acc = rng.choice([0.0, 1.0, rng.uniform(0.0, 5.0)])
                    bound = acc
                    for w, o in zip(W[q:], oscs[i:]):
                        t = w * o
                        bound += t
                        if t < 1e-16 * max(bound, 1.0):
                            break
                    below, above = math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)
                    for limit in (bound, below, above, math.nextafter(below, -math.inf)):
                        want = bound <= limit
                        assert var._pruned(acc, limit, q, i, W, oscs, rest) is want
                        assert var._pruned(acc, limit, q, i, W, oscs, None) is want


def test_lambda_variation_matches_the_scan_search_on_budget_bound_chirps():
    f = sj.parse_function_spec("domain [0.02, 1]; piece x*sin(1/x^2)")
    for density in (40, 64):
        s = sample_for_variation(f, density)
        for budget in (5_000, 20_000):
            want = _value_and_warnings(_lambda_variation_by_scan, s, node_budget=budget)
            assert want[1], "the chirp search must stay budget-bound"
            assert _value_and_warnings(_lambda_at_budget, s, node_budget=budget) == want


def test_modulus_examples():
    assert modulus_of_variation([0.0, 1.0, 0.0, 1.0], 3) == [1.0, 2.0, 3.0]
    assert modulus_of_variation([0.0, 1.0], 3) == [1.0, 1.0, 1.0]
    assert modulus_of_variation([5.0, 5.0, 5.0], 2) == [0.0, 0.0]
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        modulus_of_variation([0.0, 1.0], 0)


def test_modulus_matches_exhaustive_search():
    rng = random.Random(3409)
    for _ in range(60):
        m = rng.randint(2, 10)
        v = [rng.uniform(-3.0, 3.0) for _ in range(m)]
        assert modulus_of_variation(v, m - 1) == brute_modulus(v, m - 1)


def test_modulus_is_nondecreasing_and_concave_on_dyadic_samples():
    # dyadic-rational samples keep every oscillation sum exact in floats,
    # so concavity of the increments holds with equality semantics
    rng = random.Random(4402)
    for _ in range(200):
        m = rng.randint(2, 12)
        v = [rng.randint(-(1 << 20), 1 << 20) / 256.0 for _ in range(m)]
        nu = modulus_of_variation(v, m - 1)
        assert all(y >= x for x, y in zip(nu, nu[1:]))
        for j in range(1, len(nu) - 1):
            assert nu[j + 1] - nu[j] <= nu[j] - nu[j - 1]


@settings(max_examples=60, deadline=None)
@given(finite_samples)
# nu equals brute force here, but its increments 2.5206704308746453 and
# 2.520670430874816 differ by 1.7e-13: rounding at the scale of nu (about
# 290), not of the samples (at most 57)
@example(v=[0.0, 55.0, 0.0, 2.5206704308747163, 0.0, 57.0, -30.360971844744796, 0.0])
def test_modulus_concavity_within_rounding_on_arbitrary_floats(v):
    nu = modulus_of_variation(v, len(v) - 1)
    scale = max(1.0, max(map(abs, v)))
    for j in range(1, len(nu) - 1):
        # the second difference of three rounded nu values, nu nondecreasing
        tol = 16 * math.ulp(max(scale, nu[j + 1]))
        assert nu[j + 1] - nu[j] <= nu[j] - nu[j - 1] + tol


def _maxsum_table_by_rows(v, m_max, backtrack):
    """The max-sum table one row j at a time, as it was before the row blocks:
    the reference for their bits, families included."""
    arr = np.asarray(v)
    n = len(v)
    E_prev = np.zeros(n)
    nu = []
    starts = []
    for _ in range(m_max):
        E = np.zeros(n)
        start = [-1] * n
        for jj in range(1, n):
            b = E[jj - 1]
            cand = E_prev[:jj] + np.abs(arr[jj] - arr[:jj])
            i = int(np.argmax(cand))
            if cand[i] > b:
                b, start[jj] = cand[i], i
            E[jj] = b
        nu.append(float(E[n - 1]))
        starts.append(start)
        E_prev = E
    if not backtrack:
        return nu, None
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


def _assert_maxsum_matches_the_rows(v, m_max, cells_list):
    want = _maxsum_table_by_rows(v, m_max, True)
    for cells in cells_list:
        with mock.patch.object(var, "_CELLS", cells):
            assert var._maxsum_table(v, m_max, backtrack=True) == want
            assert var._maxsum_table(v, m_max, backtrack=False) == (want[0], None)


# small integers, repeated values, plateaus and ties between oscillations
_levels = st.lists(
    st.one_of(
        st.integers(min_value=-3, max_value=3).map(float),
        st.sampled_from([0.5, 1.0 + 1e-12, 2.0 - 1e-12]),
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    ),
    min_size=2,
    max_size=40,
).flatmap(lambda v: st.tuples(st.just(v + v[:: 3]), st.integers(1, len(v + v[::3]) + 3)))


@settings(max_examples=120, deadline=None)
@given(case=_levels)
@example(case=([0.0, 1.0, 1.0, 0.0, 2.0, 2.0, -1.0] * 4, 30))
@example(case=([1.0, 1.0, 1.0], 6))
def test_the_maxsum_table_matches_the_row_scan_bit_for_bit(case):
    v, m_max = case
    _assert_maxsum_matches_the_rows(v, m_max, _cells_for(len(v)))


def test_the_maxsum_table_matches_the_row_scan_on_chirp_samples():
    f = sj.parse_function_spec("domain [0.02, 1]; piece x*sin(1/x^2)")
    for density in (128, 256):
        v = list(sample_for_variation(f, density).values)
        _assert_maxsum_matches_the_rows(v, var._MODULUS_N_MAX, [7 * len(v), var._CELLS])
        ext = var._reduce_extrema(v)
        _assert_maxsum_matches_the_rows(ext, 64, [3, 7 * len(ext), var._CELLS])


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_the_maxsum_table_keeps_an_overflowing_sum():
    # differences of +-6e307 are finite and their sums are not: inf must not
    # meet the -inf that masks the pairs i >= j
    v = [6e307, -6e307, 6e307, -6e307, 6e307]
    _assert_maxsum_matches_the_rows(v, 6, _cells_for(len(v)))
    assert modulus_of_variation(v, 3) == [1.2e308, math.inf, math.inf]


# ---------------------------------------------------------------------------
# Classifier
# ---------------------------------------------------------------------------

P_GRID = [1.0 + 0.25 * i for i in range(13)]


def _report(density, pv, harm, mod):
    return VariationReport(
        p_variation=pv,
        harmonic_variation=harm,
        modulus=tuple(mod),
        grid_density=density,
    )


def test_classify_needs_two_densities():
    r = _report(8, {p: 5.0 for p in P_GRID}, 3.0, (1.0, 1.5))
    assert classify([r]) == ClassLabel("inconclusive")


def test_classify_flat_growth_is_bv():
    reps = [_report(d, {p: 5.0 for p in P_GRID}, 3.0, (1.0, 1.5, 1.75)) for d in (16, 64, 256)]
    assert classify(reps) == ClassLabel("BV")


def test_classify_interpolates_the_boundedness_crossover():
    reps = [
        _report(d, {p: d ** max(0.0, (2.0 - p) / 2.0) for p in P_GRID}, 3.0, (1.0,) * 3)
        for d in (16, 64, 256)
    ]
    label = classify(reps)
    assert label.name == "V_p"
    # slopes cross the tolerance between p = 1.75 and p = 2
    assert abs(label.parameter - 1.84) <= 0.005
    assert str(label) == f"V_p(p={label.parameter:.3g})"


def test_classify_power_modulus_template():
    reps = [
        _report(d, {p: d**0.3 for p in P_GRID}, 3.0, tuple((m + 1.0) ** 0.5 for m in range(8)))
        for d in (16, 64, 256)
    ]
    label = classify(reps)
    assert label.name == "V[n^alpha]"
    assert abs(label.parameter - 0.5) <= 0.01


def test_classify_harmonic_bounded_template():
    reps = [
        _report(d, {p: d**0.3 for p in P_GRID}, 3.0, tuple(float(m + 1) for m in range(8)))
        for d in (16, 64, 256)
    ]
    assert classify(reps) == ClassLabel("HBV")


def test_classify_unbounded_but_regular_growth():
    reps = [
        _report(d, {p: d**0.3 for p in P_GRID}, float(d) ** 0.4, tuple(float(m + 1) for m in range(8)))
        for d in (16, 64, 256)
    ]
    assert classify(reps) == ClassLabel("W")


def test_classify_gives_up_on_erratic_growth():
    harm = {16: 1.0, 64: 10.0, 256: 2.0}
    reps = [_report(d, {p: d**0.3 for p in P_GRID}, harm[d], (1.0, 2.0)) for d in (16, 64, 256)]
    assert classify(reps) == ClassLabel("inconclusive")


def test_classify_sign_function_as_bv():
    f = sj.parse_function_spec(SIGN_SPEC)
    reps = [build_report(sample_for_variation(f, d), grid_density=d) for d in (8, 16, 32)]
    assert classify(reps) == ClassLabel("BV")


def test_classify_chirp_in_the_p_variation_scale():
    # x sin(x^-2) near 0 has finite 2-variation but unbounded 1-variation;
    # the fitted exponent lands near the crossover
    f = sj.parse_function_spec("domain [0.02, 1]; piece x*sin(1/x^2)")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionWarning)
        reps = [build_report(sample_for_variation(f, d), grid_density=d) for d in (50, 100, 200, 400)]
    label = classify(reps)
    assert label.name == "V_p"
    assert 1.55 <= label.parameter <= 2.25
    assert abs(label.parameter - 1.8024) <= 0.01


def _classify_by_accumulation(reports):
    """classify with its tolerances spelled out and its p-grid rebuilt by
    adding 0.25 from 1.0 up to 4.0 and rounding: the reference for the scan
    over the module's p-grid."""
    slope_tol, r2_min, alpha_max = 0.08, 0.9, 0.95
    reports = sorted(reports, key=lambda r: r.grid_density or 0)
    if len(reports) < 2 or any(r.grid_density is None for r in reports):
        return ClassLabel("inconclusive")
    densities = [float(r.grid_density) for r in reports]

    def series_for(p):
        if all(p in r.p_variation for r in reports):
            return [r.p_variation[p] for r in reports]
        return None

    tv = series_for(1.0)
    if tv is not None:
        slope, _ = var._fit_loglog(densities, tv)
        if slope <= slope_tol:
            return ClassLabel("BV")
    p_vals = []
    p = 1.0
    while p <= 4.0 + 1e-9:
        if series_for(round(p, 6)) is not None:
            p_vals.append(round(p, 6))
        p += 0.25
    prev_p, prev_slope = None, None
    for p in p_vals:
        slope, _ = var._fit_loglog(densities, series_for(p))
        if p > 1.0 and slope <= slope_tol:
            if prev_slope is not None and prev_slope > slope:
                frac = (prev_slope - slope_tol) / (prev_slope - slope)
                fitted = prev_p + frac * (p - prev_p)
            else:
                fitted = p
            return ClassLabel("V_p", round(fitted, 4))
        prev_p, prev_slope = p, slope
    finest = reports[-1]
    if len(finest.modulus) >= 3:
        ms = list(range(1, len(finest.modulus) + 1))
        alpha, r2 = var._fit_loglog(ms, finest.modulus)
        if r2 >= r2_min and 0.0 < alpha <= alpha_max:
            return ClassLabel("V[n^alpha]", round(alpha, 4))
    harm = [r.harmonic_variation for r in reports]
    slope, r2 = var._fit_loglog(densities, harm)
    if slope <= slope_tol:
        return ClassLabel("HBV")
    if r2 >= r2_min:
        return ClassLabel("W")
    return ClassLabel("inconclusive")


# the grid and p's off it (which the scan must skip) or past its ends
_P_POOL = P_GRID + [0.5, 1.1, 1.3, 2.6, 3.999999, 4.25, 5.0]


@st.composite
def _report_families(draw):
    """Reports whose functionals grow like density^slope, with a slope per
    functional and a jitter per value; some reports lack some p's."""
    growth = st.one_of(st.just(0.0), st.floats(min_value=-0.2, max_value=0.8))
    jitter = st.one_of(st.just(1.0), st.floats(min_value=0.8, max_value=1.25))
    densities = draw(
        st.lists(st.integers(min_value=2, max_value=4096), min_size=2, max_size=5, unique=True)
    )
    ps = draw(st.lists(st.sampled_from(_P_POOL), unique=True))
    slopes = {p: draw(growth) for p in ps}
    harm_slope = draw(growth)
    alpha = draw(st.floats(min_value=-0.2, max_value=1.2))
    modulus = [
        (m + 1.0) ** alpha * draw(st.floats(min_value=0.97, max_value=1.03))
        for m in range(draw(st.integers(min_value=0, max_value=8)))
    ]
    reports = []
    for d in densities:
        missing = draw(st.lists(st.sampled_from(ps), max_size=2)) if ps else []
        pv = {p: 3.0 * d ** slopes[p] * draw(jitter) for p in ps if p not in missing}
        harm = 2.0 * d ** harm_slope * draw(jitter)
        reports.append(_report(d, pv, harm, modulus))
    return reports


@settings(max_examples=300, deadline=None)
@given(_report_families())
@example([_report(8, {1.0: 1.0, 1.1: 2.0}, 1.0, ())])
@example([_report(8, {2.0: 1.0}, 1.0, ()), _report(None, {2.0: 1.0}, 1.0, ())])
def test_classify_matches_the_accumulated_p_grid(reports):
    got, want = classify(reports), _classify_by_accumulation(reports)
    assert (got.name, got.parameter) == (want.name, want.parameter)


def test_report_json_shape():
    rep = _report(8, {1.0: 2.0}, 2.0, (1.0, 2.0))
    obj = rep.to_json_obj()
    assert obj["grid_density"] == 8
    assert obj["p_variation"] == {"1.0": 2.0}
    assert "suggested_class" not in obj
    assert obj["modulus"] == [1.0, 2.0]


def test_sampler_straddles_each_breakpoint():
    f = sj.parse_function_spec(SIGN_X_SPEC)
    seq = sample_for_variation(f, 4)
    assert seq.values == (-1.0, -1.0, -1.0, 1.0, 1.0, 1.0)

    saw = sj.parse_function_spec(SAWTOOTH_SPEC)
    seq = sample_for_variation(saw, 10)
    assert len(seq.values) == 12
    assert (-math.pi / 2, math.pi / 2) == (min(seq.values), max(seq.values))
    # one-sided limits at the interior jump appear as adjacent samples
    vals = list(seq.values)
    i = vals.index(math.pi / 2)
    assert vals[i - 1] == -1.5707963267948966 or vals[i + 1] == -1.5707963267948966


def test_sampler_density_validation():
    f = sj.parse_function_spec(SIGN_X_SPEC)
    with pytest.raises(ValueError, match="density must be >= 2"):
        sample_for_variation(f, 1)


_BODIES = ("x", "x^3 - x^2 + 0.5", "sin(7*x) + cos(3*x)", "exp(-x/3)*cos(5*x)", "sign(x - 0.1)",
           "sqrt(abs(x))", "1/(x + 3)", "x*sin(x^-2)", "-2.5", "abs(x)^3 - x")
_DOMAINS = ((-math.pi, math.pi), (-1.0, 1.0), (0.02, 1.0), (-0.0, 2.5), (1e-3, 1e-3 + 2.0**-20))


@st.composite
def _piecewise(draw):
    lo, hi = draw(st.sampled_from(_DOMAINS))
    inner = st.floats(lo, hi, exclude_min=True, exclude_max=True, allow_subnormal=False)
    bps = sorted(set(draw(st.lists(inner, max_size=3))))
    bodies = draw(st.lists(st.sampled_from(_BODIES), min_size=len(bps) + 1, max_size=len(bps) + 1))
    pieces = tuple(sj.parse_function_spec(f"domain [0, 1]; piece {b}").pieces[0] for b in bodies)
    return PiecewiseFunction((lo, hi), tuple(bps), pieces, draw(st.booleans()))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ArithmeticError, ValueError):
        return "raises"


@settings(max_examples=200, deadline=None)
@given(f=_piecewise(), density=st.one_of(st.integers(2, 40), st.sampled_from([64, 257, 2000])))
# a periodic lo of -0.0, which linspace turns into 0.0: the piece is evaluated at lo itself
@example(f=sj.parse_function_spec("domain [-0, 2.5] periodic; piece x"), density=5)
def test_the_sampler_has_the_bits_of_the_per_point_sampler(f, density):
    # one array call per piece against one scalar evaluation per point; the
    # entries at a breakpoint are its left and right limits, in that order
    want = _outcome(sample_per_point, f, density)
    got = _outcome(sample_for_variation, f, density)
    if want == "raises":  # a pole or a negative sqrt argument: one ValueError names them
        assert got == "raises"
        with pytest.raises(ValueError, match=r"^piece \d+ \(.*\) is not finite at x = "):
            sample_for_variation(f, density)
        return
    assert np.array(got.values).tobytes() == np.array(want.values).tobytes()
    lo, hi = f.domain
    span = hi - lo
    for x0 in (*f.breakpoints, lo, hi, (lo + hi) / 2.0):
        # the same point a period or three away: wrapped on a periodic
        # domain, outside a non-periodic one
        for x in (x0, x0 - span, x0 + span, x0 - 3.0 * span, x0 + 3.0 * span):
            for scalar, array in ((one_sided_limits, sj.one_sided_limits), (evaluate, sj.evaluate)):
                want_x, got_x = _outcome(scalar, f, x), _outcome(array, f, x)
                assert np.array(got_x).tobytes() == np.array(want_x).tobytes() or want_x == got_x, x


def test_the_sampler_names_the_piece_and_x_where_a_value_is_not_finite():
    f = sj.parse_function_spec("domain [-1, 1]; piece x on [-1, 0.5); piece 1/x - 2 on (0.5, 1]")
    assert sample_for_variation(f, 5).values == (-1.0, -0.5, 0.0, 0.5, 0.0, -1.0)
    g = sj.parse_function_spec("domain [-1, 1]; piece 1/x on [-1, 0.5); piece 2 on (0.5, 1]")
    with pytest.raises(ValueError, match=r"^piece 1 \(1.0 / x\) is not finite at x = 0.0$"):
        sample_for_variation(g, 5)
