"""Integrated and conjugate tail sums, their jump inversions, and the
series-side diagnostics."""

import math
import random
import warnings

import pytest
from scipy.integrate import quad
from scipy.special import zeta

import specjump as sj
from specjump.coefficients import (
    AccuracyError,
    FourierSeries,
    fourier_coefficients,
    sawtooth_series,
)
from specjump.tails import (
    JumpEstimate,
    PrecisionWarning,
    TailSumConfig,
    conjugate_tail,
    integrated_tail,
    jump_from_conjugate,
    jump_from_integrated,
    parseval_increment_check,
    s_n_diagnostic,
    v2_tail_diagnostic,
)

from conftest import SAWTOOTH_SPEC, SIGN_SPEC, SIGN_X_SPEC, sign_fourier_series

SAW_1M = sawtooth_series(10**6)
CFG_1M = TailSumConfig(K_cap=10**6)


def hurwitz_range(s, lo, hi):
    """Oracle: sum of k**-s over lo <= k <= hi."""
    return float(zeta(s, lo) - zeta(s, hi + 1))


# ---------------------------------------------------------------------------
# Estimate container and config
# ---------------------------------------------------------------------------

def test_jump_estimate_validation():
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        JumpEstimate(method="bogus", x0=0.0, n=1, value=1.0)
    with pytest.raises(ValueError, match="n must be >= 1"):
        JumpEstimate(method="fejer", x0=0.0, n=0, value=1.0)


def test_k_cap_clamps_to_the_stored_length():
    s = sawtooth_series(500)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionWarning)
        huge = integrated_tail(s, 0.0, 0, 100, TailSumConfig(K_cap=10**9))
        full = integrated_tail(s, 0.0, 0, 100, TailSumConfig(K_cap=500))
    assert huge == full


def test_k_cap_below_n_rejected():
    with pytest.raises(ValueError, match="K_cap=50 smaller than tail start n=100"):
        jump_from_integrated(SAW_1M, 0.0, 0, 100, TailSumConfig(K_cap=50))


def test_r_must_be_a_nonnegative_integer():
    for r in (-1, 1.5):
        with pytest.raises(ValueError, match="r must be a nonnegative integer"):
            integrated_tail(SAW_1M, 0.0, r, 10, CFG_1M)


def test_conjugate_requires_positive_r():
    with pytest.raises(ValueError, match="conjugate tails require r >= 1"):
        conjugate_tail(SAW_1M, 0.0, 0, 10, CFG_1M)


# ---------------------------------------------------------------------------
# Tail sums against the Hurwitz zeta oracle
# ---------------------------------------------------------------------------

def test_integrated_tail_of_sawtooth_r0():
    v = integrated_tail(SAW_1M, 0.0, 0, 100, CFG_1M)
    assert v == -0.010049166663833571
    assert math.isclose(v, -hurwitz_range(2, 100, 10**6), rel_tol=1e-13)


def test_integrated_tail_of_sawtooth_r1():
    # r = 1 flips the sign twice: (-1)^r times the tail of A_k / k^3,
    # and A_k = -1/k here, so the result is the positive zeta tail
    v = integrated_tail(SAW_1M, 0.0, 1, 10, CFG_1M)
    assert v == 0.0003866502173816444
    assert math.isclose(v, hurwitz_range(4, 10, 10**6), rel_tol=1e-13)


def test_conjugate_tail_of_sawtooth():
    v = conjugate_tail(SAW_1M, 0.0, 1, 50, CFG_1M)
    assert v == 0.00020403999416879895
    assert math.isclose(v, hurwitz_range(3, 50, 10**6), rel_tol=1e-13)


def test_tail_sign_convention_on_a_small_series():
    rng = random.Random(99)
    K = 30
    a = tuple(rng.uniform(-1, 1) for _ in range(K))
    b = tuple(rng.uniform(-1, 1) for _ in range(K))
    s = FourierSeries(K, 0.0, a, b, provenance="synthetic")
    x = 0.7
    cfg = TailSumConfig(K_cap=K)
    with warnings.catch_warnings():
        # random coefficients carry no decay model; the warning is noise here
        warnings.simplefilter("ignore", PrecisionWarning)
        for r in (0, 1, 2):
            manual = math.fsum(
                (a[k - 1] * math.sin(k * x) - b[k - 1] * math.cos(k * x)) / float(k) ** (2 * r + 1)
                for k in range(5, K + 1)
            )
            got = integrated_tail(s, x, r, 5, cfg)
            assert math.isclose(got, (-1.0) ** r * manual, rel_tol=1e-12, abs_tol=1e-15)
        for r in (1, 2):
            manual = math.fsum(
                (a[k - 1] * math.sin(k * x) - b[k - 1] * math.cos(k * x)) / float(k) ** (2 * r)
                for k in range(5, K + 1)
            )
            got = conjugate_tail(s, x, r, 5, cfg)
            assert math.isclose(got, (-1.0) ** r * manual, rel_tol=1e-12, abs_tol=1e-15)


def test_tail_sums_are_linear_in_the_series():
    rng = random.Random(17)
    K = 40
    cfg = TailSumConfig(K_cap=K)

    def rand_series():
        return FourierSeries(
            K,
            rng.uniform(-1, 1),
            tuple(rng.uniform(-1, 1) for _ in range(K)),
            tuple(rng.uniform(-1, 1) for _ in range(K)),
            provenance="synthetic",
        )

    for _ in range(10):
        s, t = rand_series(), rand_series()
        al, be = rng.uniform(-2, 2), rng.uniform(-2, 2)
        combo = FourierSeries(
            K,
            al * s.a0_half + be * t.a0_half,
            tuple(al * x + be * y for x, y in zip(s.a, t.a)),
            tuple(al * x + be * y for x, y in zip(s.b, t.b)),
            provenance="synthetic",
        )
        with warnings.catch_warnings():
            # random coefficients carry no decay model; the warning is noise here
            warnings.simplefilter("ignore", PrecisionWarning)
            lhs = integrated_tail(combo, 0.3, 1, 4, cfg)
            rhs = al * integrated_tail(s, 0.3, 1, 4, cfg) + be * integrated_tail(t, 0.3, 1, 4, cfg)
        assert math.isclose(lhs, rhs, rel_tol=1e-11, abs_tol=1e-14)


def test_raising_the_cutoff_moves_less_than_the_declared_bound():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionWarning)
        for r in (0, 1):
            coarse = jump_from_integrated(SAW_1M, 0.0, r, 100, TailSumConfig(K_cap=10**4))
            fine = jump_from_integrated(SAW_1M, 0.0, r, 100, TailSumConfig(K_cap=10**5))
            assert abs(coarse.value - fine.value) <= coarse.remainder_bound


def test_truncation_warning_fires_when_the_bound_dominates():
    with pytest.warns(PrecisionWarning, match="truncation remainder bound"):
        v = integrated_tail(SAW_1M, 0.0, 0, 100, TailSumConfig(K_cap=150))
    assert v == -0.003405672836612021


# ---------------------------------------------------------------------------
# Jump inversion
# ---------------------------------------------------------------------------

def test_jump_from_integrated_sawtooth_r0():
    e = jump_from_integrated(SAW_1M, 0.0, 0, 100, CFG_1M)
    assert e.method == "integrated_tail"
    assert (e.x0, e.n, e.r) == (0.0, 100, 0)
    assert e.value == 3.1570388165799
    assert abs(e.value - math.pi) / math.pi <= 0.005
    assert e.remainder_bound == 0.0003141592653589793


def test_jump_from_integrated_all_orders_agree():
    vals = [jump_from_integrated(SAW_1M, 0.0, r, 200, CFG_1M).value for r in (0, 1, 2)]
    assert vals == [3.14883140691115, 3.165233137301209, 3.181058906719271]
    for v in vals:
        assert abs(v - math.pi) / math.pi <= 0.02
    assert max(vals) - min(vals) <= 0.02 * math.pi


def test_jump_from_conjugate_sawtooth():
    e = jump_from_conjugate(SAW_1M, 0.0, 1, 50, CFG_1M)
    assert e.value == 3.2050527335960153
    assert e.method == "conjugate_tail"
    e = jump_from_conjugate(SAW_1M, 0.0, 1, 100, CFG_1M)
    assert e.value == 3.1731656231070113
    assert abs(e.value - math.pi) / math.pi <= 0.015


def test_jump_from_conjugate_sign_series():
    e = jump_from_conjugate(sign_fourier_series(4096), 0.0, 1, 128, TailSumConfig(K_cap=4096))
    assert e.value == 1.9979248221839063
    assert abs(e.value - 2.0) / 2.0 <= 0.03


def test_estimates_vanish_at_a_continuity_point():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionWarning)
        e = jump_from_integrated(SAW_1M, math.pi / 2, 0, 200, CFG_1M)
    assert e.value == 0.007932513912848285
    assert abs(e.value) <= 0.1


def test_euler_factor_limits():
    # the inversion constants come from n^{2r+1} sum k^{-(2r+2)} -> 1/(2r+1)
    n = 10**4
    for r in (0, 1, 2):
        lim = float(n) ** (2 * r + 1) * float(zeta(2 * r + 2, n))
        assert abs(lim - 1.0 / (2 * r + 1)) <= 1e-3 / (2 * r + 1)


# ---------------------------------------------------------------------------
# Partial-sum diagnostics
# ---------------------------------------------------------------------------

def test_s_n_diagnostic_sawtooth_is_exactly_one():
    for n in (1, 7, 100, 377, 1024, 2048):
        assert s_n_diagnostic(SAW_1M, 0.0, n) == 1.0


def test_s_n_diagnostic_telescopes():
    # n d_n - (n-1) d_{n-1} recovers the n-th differentiated term
    prev = None
    for n in range(1, 1001):
        d = s_n_diagnostic(SAW_1M, 0.0, n)
        if prev is not None:
            term = n * (1.0 / n)
            assert abs(n * d - (n - 1) * prev - term) <= 64 * math.ulp(float(n))
        prev = d


def test_v2_diagnostic_sawtooth_is_order_one():
    us = v2_tail_diagnostic(SAW_1M, (10, 50, 100, 1000))
    assert us == [
        1.0516533568218576,
        1.0100166613598558,
        1.0049166663833569,
        0.9995001671666355,
    ]
    assert all(0.9 <= u <= 1.2 for u in us)


def test_v2_diagnostic_flags_unbounded_growth():
    K = 10**5
    b = tuple(1.0 / math.sqrt(k) / math.log(k + 1.0) for k in range(1, K + 1))
    s = FourierSeries(K, 0.0, (0.0,) * K, b, provenance="synthetic")
    with pytest.warns(PrecisionWarning, match="discarded-tail bound"):
        us = v2_tail_diagnostic(s, (10, 100, 1000))
    assert us[0] < us[1] < us[2]
    assert us[2] > 10.0


def test_v2_diagnostic_of_zero_series():
    z = FourierSeries(50, 0.0, (0.0,) * 50, (0.0,) * 50, provenance="synthetic")
    assert v2_tail_diagnostic(z, (5, 10)) == [0.0, 0.0]


def test_v2_diagnostic_range_validation():
    with pytest.raises(ValueError, match="outside stored range"):
        v2_tail_diagnostic(sawtooth_series(100), (200,))


# ---------------------------------------------------------------------------
# Parseval increment identity
# ---------------------------------------------------------------------------

def test_parseval_requires_a_periodic_full_period_function():
    f = sj.parse_function_spec(SIGN_X_SPEC)
    s = sawtooth_series(8)
    with pytest.raises(ValueError, match="2 pi periodic function"):
        parseval_increment_check(f, s, 2)


def test_parseval_constant_function_is_degenerate():
    f = sj.parse_function_spec("domain [-pi, pi] periodic; piece 1")
    s = fourier_coefficients(f, 64)
    lhs, rhs = parseval_increment_check(f, s, 4)
    assert lhs == 0.0
    assert abs(rhs) <= 1e-25


def test_parseval_sawtooth_increments():
    f = sj.parse_function_spec(SAWTOOTH_SPEC)
    s = sawtooth_series(200000)
    expected = {2: 3.701101650408509, 4: 2.158975962738297}
    for n, lhs_pin in expected.items():
        lhs, rhs = parseval_increment_check(f, s, n)
        assert math.isclose(lhs, lhs_pin, rel_tol=1e-12)
        assert abs(lhs - rhs) <= 1e-4 * lhs


def test_parseval_sign_increments():
    f = sj.parse_function_spec(SIGN_SPEC)
    s = sign_fourier_series(200000)
    for n, lhs_pin in ((2, 4.0), (4, 2.0), (8, 1.0)):
        lhs, rhs = parseval_increment_check(f, s, n)
        assert math.isclose(lhs, lhs_pin, rel_tol=1e-12)
        assert abs(lhs - rhs) <= 1e-4 * lhs


@pytest.mark.parametrize("n", [2, 3, 8])
def test_parseval_lhs_matches_scipy_quad(n):
    # scipy's adaptive QAGS, split at the kinks of the increment, is an
    # oracle independent of the panel-doubled Gauss-Legendre engine
    f = sj.parse_function_spec(
        "domain [-pi, pi] periodic; "
        "piece exp(x/3)*sin(x) on [-pi, 0); piece cos(2*x) - x on (0, pi]"
    )
    h = math.pi / n
    integral, _ = quad(
        lambda x: (sj.evaluate(f, x + h) - sj.evaluate(f, x)) ** 2,
        -math.pi, math.pi, points=[-h, 0.0, math.pi - h],
        epsabs=1e-14, epsrel=1e-13, limit=200,
    )
    lhs, _ = parseval_increment_check(f, sawtooth_series(8), n)
    assert math.isclose(lhs, integral / math.pi, rel_tol=1e-12)


def test_parseval_cusp_stops_at_the_quadrature_doubling_cap():
    # sqrt(|x|) has a cusp inside its piece, so no panel rule settles
    f = sj.parse_function_spec("domain [-pi, pi] periodic; piece sqrt(abs(x))")
    with pytest.raises(AccuracyError, match="increment quadrature .* after 8 doublings"):
        parseval_increment_check(f, sawtooth_series(8), 2)
