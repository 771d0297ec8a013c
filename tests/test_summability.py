"""Cesaro weights and means, and the concentration jump estimators."""

import math
import random
from fractions import Fraction
from math import exp, lgamma

import numpy as np
import pytest

from specjump.coefficients import FourierSeries
from specjump.summability import (
    _fejer_mean,
    cesaro_jump,
    cesaro_mean,
    cesaro_weights,
    diff_series_terms,
    fejer_jump,
)

from conftest import sign_fourier_series
from reference import A_k, jump_part_series, s_n_diagnostic, sawtooth_series


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

def test_weights_small_half_order_case():
    W, denom = cesaro_weights(3, 0.5)
    assert W == (0.3125, 0.375, 0.5, 1.0)
    assert denom == 2.1875


def test_alpha_zero_is_the_identity_mean():
    W, denom = cesaro_weights(4, 0.0)
    assert W == (0.0, 0.0, 0.0, 0.0, 1.0)
    assert denom == 1.0
    assert cesaro_mean([9.0, 8.0, 7.0, 3.5], 0.0) == 3.5


def test_alpha_one_weights_are_exactly_flat():
    W, denom = cesaro_weights(5, 1.0)
    assert W == (1.0,) * 6
    assert denom == 6.0


def test_integer_alpha_weights_are_exact_binomials():
    # alpha = 2: weight of s_i is N - i + 1, normalizer C(N + 2, N)
    W, denom = cesaro_weights(3, 2.0)
    assert W == (4.0, 3.0, 2.0, 1.0)
    assert denom == 10.0
    for N in range(0, 40):
        W, denom = cesaro_weights(N, 2.0)
        assert denom == float(math.comb(N + 2, N))
        # the product recurrence rounds at each ratio, so ulp-level only
        for i in range(N + 1):
            assert abs(W[i] - (N - i + 1)) <= 1e-14 * (N - i + 1)


def test_weights_match_gamma_ratios():
    alpha = 0.5
    N = 60
    W, denom = cesaro_weights(N, alpha)
    for i, w in enumerate(W):
        m = N - i
        ref = exp(lgamma(m + alpha) - lgamma(alpha) - lgamma(m + 1.0))
        assert abs(w - ref) <= 1e-12 * ref
    dref = exp(lgamma(N + 1 + alpha) - lgamma(alpha + 1.0) - lgamma(N + 1.0))
    assert abs(denom - dref) <= 1e-12 * dref


def test_weight_sum_equals_normalizer():
    for alpha in (-0.5, 0.5, 1.0, 2.0):
        for N in (0, 1, 2, 6, 49, 332, 999):
            W, denom = cesaro_weights(N, alpha)
            assert abs(math.fsum(W) - denom) <= 1e-12 * abs(denom)


def test_weights_are_cached():
    assert cesaro_weights(17, 0.5) is cesaro_weights(17, 0.5)


def test_weights_validate_their_order_and_length():
    with pytest.raises(ValueError, match="alpha must be > -1"):
        cesaro_weights(5, -1.0)
    with pytest.raises(ValueError, match="N must be >= 0"):
        cesaro_weights(-1, 1.0)
    assert cesaro_weights(0, -0.5) == ((1.0,), 1.0)


# ---------------------------------------------------------------------------
# Means
# ---------------------------------------------------------------------------

def test_mean_of_constant_sequence():
    for alpha in (-0.5, 0.5, 1.0, 2.0):
        assert abs(cesaro_mean([2.5] * 8, alpha) - 2.5) <= 1e-12
    assert cesaro_mean([2.5] * 8, -0.5) == 2.5


def test_mean_of_empty_sequence_rejected():
    with pytest.raises(ValueError, match="cannot average an empty sequence"):
        cesaro_mean([], 1.0)


def test_alternating_mean_cancels_exactly():
    s = [1.0 if i % 2 == 0 else -1.0 for i in range(100)]
    assert cesaro_mean(s, 1.0) == 0.0


def test_alpha_one_is_the_arithmetic_mean_bitwise():
    rng = random.Random(5)
    for _ in range(300):
        v = [rng.uniform(-9.0, 9.0) for _ in range(rng.randint(1, 300))]
        assert cesaro_mean(v, 1.0) == math.fsum(v) / len(v)


def test_regularity_on_a_convergent_sequence():
    s = [2.0 - 0.5**i for i in range(200)]
    for alpha in (0.5, 1.0, 2.0):
        errs = [abs(cesaro_mean(s[: n + 1], alpha) - 2.0) for n in (9, 39, 159)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.03


def test_prepending_a_zero_term_keeps_the_sum_and_rescales_the_mean():
    # averaging over n+1 slots instead of n: identical fsum, n/(n+1) factor
    n = 300
    terms = diff_series_terms(sawtooth_series(n), 0.0, n)
    assert math.fsum([0.0] + terms) == math.fsum(terms)
    padded = cesaro_mean([0.0] + terms, 1.0)
    plain = cesaro_mean(terms, 1.0)
    assert math.isclose(padded * (n + 1.0), plain * n, rel_tol=1e-14)


# ---------------------------------------------------------------------------
# Differentiated-series terms
# ---------------------------------------------------------------------------

def test_sawtooth_terms_are_unit_height():
    terms = diff_series_terms(sawtooth_series(2048), 0.0, 2048)
    # k * (1/k) is exact below the first rounding case at k = 49
    assert terms[:48] == [1.0] * 48
    assert all(abs(t - 1.0) <= math.ulp(1.0) for t in terms)


def test_sign_terms_alternate():
    terms = diff_series_terms(sign_fourier_series(64), 0.0, 64)
    four_over_pi = 4.0 / math.pi
    for k, t in enumerate(terms, start=1):
        if k % 2:
            assert abs(t - four_over_pi) <= 5e-16
        else:
            assert t == 0.0


def test_terms_index_validation():
    s = sawtooth_series(10)
    with pytest.raises(ValueError, match="n=0 outside stored range 1..10"):
        diff_series_terms(s, 0.0, 0)
    with pytest.raises(ValueError, match="n=11 outside stored range 1..10"):
        diff_series_terms(s, 0.0, 11)


def test_zero_series_gives_zero_terms():
    z = FourierSeries(5, 0.0, (0.0,) * 5, (0.0,) * 5, provenance="synthetic")
    assert diff_series_terms(z, 0.7, 5) == [0.0] * 5


# ---------------------------------------------------------------------------
# Jump estimators
# ---------------------------------------------------------------------------

def test_fejer_sawtooth_is_exact_at_every_length():
    s = sawtooth_series(2048)
    for n in (1, 2, 3, 7, 100, 377, 1024, 2048):
        e = fejer_jump(s, 0.0, n)
        assert e.method == "fejer"
        assert e.n == n and e.x0 == 0.0
        assert e.value == math.pi


def test_fejer_sign_even_lengths():
    s = sign_fourier_series(256)
    assert fejer_jump(s, 0.0, 100).value == 2.0
    for n in range(2, 257, 2):
        assert abs(fejer_jump(s, 0.0, n).value - 2.0) <= math.ulp(2.0)


def test_fejer_sign_odd_lengths_carry_the_extra_term():
    s = sign_fourier_series(128)
    assert fejer_jump(s, 0.0, 3).value == 2.6666666666666665
    assert abs(fejer_jump(s, 0.0, 101).value - 2.0 * 102.0 / 101.0) <= 1e-12


def test_fejer_vanishes_for_a_smooth_series():
    s = FourierSeries(64, 0.0, (0.0,) * 64, (1.0,) + (0.0,) * 63, provenance="synthetic")
    v = fejer_jump(s, 0.0, 64).value
    assert v == 0.04908738521234052
    assert abs(v) <= 0.05


def test_cesaro_alpha_one_equals_fejer_bitwise():
    rng = random.Random(5)
    for _ in range(50):
        K = rng.randint(3, 60)
        n = rng.randint(1, K)
        a = tuple(rng.uniform(-1, 1) for _ in range(K))
        b = tuple(rng.uniform(-1, 1) for _ in range(K))
        ser = FourierSeries(K, rng.uniform(-1, 1), a, b, provenance="synthetic")
        x = rng.uniform(-math.pi, math.pi)
        fe = fejer_jump(ser, x, n)
        ce = cesaro_jump(ser, x, 1.0, n)
        assert ce.value == fe.value
        assert ce.alpha == 1.0 and fe.alpha is None
        # the average of the differentiated terms is the same diagnostic
        assert math.pi * s_n_diagnostic(ser, x, n) == fe.value


@pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, -1e-310, 1e5, -7e7, math.pi, 0.3, -1.0])
def test_differentiated_terms_and_the_fejer_mean_have_the_bits_of_the_scalar_code(x):
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((2, 257))
    a[::4] = -0.0
    for s in (sawtooth_series(257), jump_part_series([(-1.0, 2.0), (0.3, -1.0)], 257),
              FourierSeries(257, 0.0, a, b), FourierSeries(257, 0.0, [0.0] * 257, [0.0] * 257)):
        for n in (1, 2, 100, 257):
            terms = diff_series_terms(s, x, n)
            assert np.array(terms).tobytes() == np.array([-(k * A_k(s, x, k)) for k in range(1, n + 1)]).tobytes()
            assert all(type(t) is float for t in terms)
            # s_n = -(1/n) sum k A_k: the mean, but for the sign of an exact zero
            want = s_n_diagnostic(s, x, n)
            assert _fejer_mean(s, x, n) == want and (want != 0.0 or repr(want) == "-0.0")
            assert fejer_jump(s, x, n).value == math.pi * (math.fsum(terms) / n)


def test_the_fejer_mean_keeps_a_finite_sum_past_an_intermediate_overflow():
    # terms -1e308, -1e308, 1e308: fsum's running sum overflows, the exact sum does not
    s = FourierSeries(3, 0.0, [0.0] * 3, [-1e308, -1e308 / 2, 1e308 / 3])
    terms = diff_series_terms(s, 0.0, 3)
    with pytest.raises(OverflowError):
        math.fsum(terms)
    exact = float(sum(map(Fraction, terms)))
    assert math.isfinite(exact)
    assert _fejer_mean(s, 0.0, 3) == exact / 3
    assert fejer_jump(s, 0.0, 3).value == math.pi * (exact / 3)


def test_cesaro_sawtooth_alpha_one_is_exact():
    assert cesaro_jump(sawtooth_series(200), 0.0, 1.0, 200).value == math.pi


def test_cesaro_low_order_localizes_harder():
    v = cesaro_jump(sign_fourier_series(1100), 0.0, 0.5, 512).value
    assert v == 1.9455743318645382
    assert abs(v - 2.0) / 2.0 <= 0.03
