"""Variation functionals: DP correctness against exhaustive search, examples,
the interval-family searcher, and the growth classifier."""

import math
import random
import warnings
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import specjump as sj
from specjump import variation as var
from specjump.cli import sample_for_variation
from specjump.tails import PrecisionWarning
from specjump.variation import (
    ClassLabel,
    LambdaSequence,
    PowerPhi,
    SampleSequence,
    Thresholds,
    VariationReport,
    build_report,
    classify,
    lambda_variation,
    modulus_of_variation,
    p_variation,
    phi_variation,
)

from conftest import (
    SAWTOOTH_SPEC,
    SIGN_SPEC,
    SIGN_X_SPEC,
    brute_lambda_variation,
    brute_modulus,
    brute_p_variation,
)

finite_samples = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    min_size=2,
    max_size=10,
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
    zig = [0.0, 1.0, 0.0, 1.0]
    assert phi_variation(zig, PowerPhi(2.0)) == 3.0
    assert phi_variation(zig, lambda u: u) == p_variation(zig, 1.0)
    assert phi_variation([0.0, 1.0], PowerPhi(3.0)) == 1.0


def test_phi_variation_general_callable_guards():
    with pytest.raises(ValueError, match="exceed the cap of 18"):
        phi_variation([float(i) for i in range(19)], lambda u: u)
    with pytest.raises(ValueError, match=r"phi\(0\) must be 0"):
        phi_variation([0.0, 1.0], lambda u: u + 1.0)
    with pytest.raises(ValueError, match="exponent must be >= 1"):
        PowerPhi(0.5)


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


# ---------------------------------------------------------------------------
# Weight sequences
# ---------------------------------------------------------------------------

def test_lambda_sequence_builders():
    assert LambdaSequence.harmonic().weights(3) == [1.0, 0.5, 1.0 / 3.0]
    assert LambdaSequence.power(0.0).weights(3) == [1.0, 1.0, 1.0]
    assert LambdaSequence.constant().weights(2) == [1.0, 1.0]


def test_lambda_sequence_validation():
    with pytest.raises(ValueError, match=r"power exponent must lie in \[0, 1\]"):
        LambdaSequence.power(1.5)
    with pytest.raises(ValueError, match="decreases at t=2"):
        LambdaSequence("dec", lambda t: 4.0 - t).weights(3)
    with pytest.raises(ValueError, match="not positive and finite"):
        LambdaSequence("zero", lambda t: 0.0).weights(2)


# ---------------------------------------------------------------------------
# Interval-family functionals
# ---------------------------------------------------------------------------

def test_lambda_variation_examples():
    zig = [0.0, 1.0, 0.0, 1.0]
    harm = LambdaSequence.harmonic()
    assert lambda_variation(zig, harm) == math.fsum([1.0, 0.5, 1.0 / 3.0])
    assert lambda_variation(zig, LambdaSequence.power(0.5)) == math.fsum(
        [1.0, 2.0**-0.5, 3.0**-0.5]
    )
    assert lambda_variation([0.0, 1.0], harm) == 1.0
    # capped at one interval the search reduces to the plain oscillation
    assert lambda_variation(zig, LambdaSequence.constant(), max_intervals=1) == 1.0


def test_lambda_variation_matches_exhaustive_search():
    rng = random.Random(2304)
    harm = LambdaSequence.harmonic()
    for _ in range(60):
        m = rng.randint(2, 10)
        v = [rng.uniform(-3.0, 3.0) for _ in range(m)]
        assert lambda_variation(v, harm) == brute_lambda_variation(v, harm.weights(m - 1))


def test_lambda_variation_budget_exhaustion_warns_with_upper_bound():
    rng = random.Random(11)
    v = [rng.uniform(-1.0, 1.0) for _ in range(40)]
    harm = LambdaSequence.harmonic()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        val = lambda_variation(v, harm, node_budget=50)
    assert [w.category for w in caught] == [PrecisionWarning]
    msg = str(caught[0].message)
    assert "node budget" in msg and "upper bound" in msg
    exact = lambda_variation(v, harm)
    assert val <= exact * (1.0 + 1e-12)


def test_lambda_variation_pins_budget_bound_searches_on_a_chirp():
    # x sin(x^-2) oscillates too fast for the search to finish: each budget
    # returns the incumbent it reached, and the same upper bound
    f = sj.parse_function_spec("domain [0.02, 1]; piece x*sin(1/x^2)")
    s = sample_for_variation(f, 128)
    harm = LambdaSequence.harmonic()
    pins = {
        2000: (2.8708539223432012, "returning 2.87085, upper bound 3.00955 (gap 0.139)"),
        20000: (2.8726861688970775, "returning 2.87269, upper bound 3.00955 (gap 0.137)"),
    }
    for budget, (value, tail) in pins.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert lambda_variation(s, harm, node_budget=budget) == value
        assert [str(w.message) for w in caught] == [
            f"variation search hit the node budget ({budget}); {tail}"
        ]
        assert caught[0].category is PrecisionWarning


def _lambda_variation_by_scan(s, lam, node_budget=200_000):
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
    W = lam.weights(mcap)
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


def _value_and_warnings(search, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = search(*args, **kwargs)
    return value, [(w.category, str(w.message)) for w in caught]


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
_LAMBDAS = {
    "harmonic": LambdaSequence.harmonic(),
    "power_0.5": LambdaSequence.power(0.5),
    "constant": LambdaSequence.constant(),
}


@settings(max_examples=150, deadline=None)
@given(
    v=_tied_samples,
    lam=st.sampled_from(sorted(_LAMBDAS)),
    budget=st.sampled_from([5, 50, 2000, None]),
)
@example(v=[0.0, 1.0] * 15, lam="constant", budget=None)
@example(v=[0.0, 1.0, 1.0, 0.0, 2.0, 2.0, -1.0] * 8, lam="harmonic", budget=2000)
def test_lambda_variation_matches_the_scan_search_bit_for_bit(v, lam, budget):
    if budget is None:
        # at the default budget the scan search takes seconds on 60 samples;
        # 30 keep it complete and quick
        v = v[:30]
    kwargs = {} if budget is None else {"node_budget": budget}
    want = _value_and_warnings(_lambda_variation_by_scan, v, _LAMBDAS[lam], **kwargs)
    # nodes are decided from the suffix table, and with no table (cap 0)
    # from the rank bound alone
    for cap in (var._REST_CAP, 0):
        with mock.patch.object(var, "_REST_CAP", cap):
            assert _value_and_warnings(lambda_variation, v, _LAMBDAS[lam], **kwargs) == want


def test_the_suffix_table_prunes_as_the_in_order_rank_bound_does():
    # at limits a few ulps around the bound, where the table's own rounding
    # alone could not tell which side the in-order sum falls on
    rng = random.Random(5)
    levels = [-1.0, 0.0, 0.1, 0.3, 0.5, 0.5 + 1e-12, 0.7, 1.0, 1.0 + 1e-12, 2.0, 3.0 - 1e-12]
    for lam in _LAMBDAS.values():
        for _ in range(6):
            v = var._reduce_extrema([rng.choice(levels) for _ in range(40)])
            oscs = [c[0] for c in var._candidates_undominated(v)]
            W = lam.weights(min(len(oscs), len(v) - 1))
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
    harm = LambdaSequence.harmonic()
    for density in (40, 64):
        s = sample_for_variation(f, density)
        for budget in (5_000, 20_000):
            want = _value_and_warnings(_lambda_variation_by_scan, s, harm, node_budget=budget)
            assert want[1], "the chirp search must stay budget-bound"
            assert _value_and_warnings(lambda_variation, s, harm, node_budget=budget) == want


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


def test_report_json_shape():
    rep = _report(8, {1.0: 2.0}, 2.0, (1.0, 2.0))
    obj = rep.to_json_obj()
    assert obj["grid_density"] == 8
    assert obj["p_variation"] == {"1.0": 2.0}
    assert obj["suggested_class"] is None
    assert obj["modulus"] == [1.0, 2.0]


def test_thresholds_defaults():
    th = Thresholds()
    assert th.slope_tol == 0.08
    assert th.r2_min == 0.9
    assert th.p_max == 4.0


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
