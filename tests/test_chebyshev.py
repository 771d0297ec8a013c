"""Chebyshev tail sums, the two integration routes, and the jump estimator
on [-1, 1]."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specjump as sj
from specjump.chebyshev import (
    ChebyshevTailConfig,
    _clenshaw,
    integrated_chebyshev_tail,
    jump_from_chebyshev,
    sawtooth_tail_bound_check,
)
from specjump.coefficients import ChebyshevSeries, chebyshev_coefficients

from conftest import SIGN_X_SPEC, routes_agree, theta_route_integrated_tail

SIGN_X = sj.parse_function_spec(SIGN_X_SPEC)
SIGN_CHEB_4096 = chebyshev_coefficients(SIGN_X, 4096)


def single_mode(k, K=16):
    """Series with c_k = 1 and every other coefficient zero."""
    c = [0.0] * (K + 1)
    c[k] = 1.0
    return ChebyshevSeries(K, tuple(c), provenance="synthetic")


# ---------------------------------------------------------------------------
# Config and argument validation
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="n must be >= 1"):
        ChebyshevTailConfig(n=0)


def test_endpoints_are_rejected():
    cfg = ChebyshevTailConfig(n=1)
    for x in (1.0, -1.0, 1.5):
        with pytest.raises(ValueError, match=r"strictly inside \(-1, 1\)"):
            integrated_chebyshev_tail(SIGN_CHEB_4096, x, cfg)
    with pytest.raises(ValueError, match=r"within 1e-8 of x = \+/-1"):
        jump_from_chebyshev(SIGN_CHEB_4096, 1.0 - 1e-9, cfg)


def test_k_cap_below_n_rejected():
    with pytest.raises(ValueError, match="K_cap=5 smaller than tail start n=8"):
        integrated_chebyshev_tail(SIGN_CHEB_4096, 0.0, ChebyshevTailConfig(n=8, K_cap=5))


# ---------------------------------------------------------------------------
# Tail sums
# ---------------------------------------------------------------------------

def test_tail_beyond_the_last_mode_is_zero():
    s = single_mode(2)
    assert integrated_chebyshev_tail(s, 0.3, ChebyshevTailConfig(n=3)) == 0.0


def test_tail_at_cos_theta_matches_the_cosine_sum():
    # the Clenshaw sum of sum_{k>=n} c_k T_k at x = cos theta
    c = SIGN_CHEB_4096.c
    worst = 0.0
    for n in (1, 5, 32):
        for theta in (0.4, 1.1, 2.2):
            direct = math.fsum(c[k] * math.cos(k * theta) for k in range(n, 4097))
            got = _clenshaw([0.0] * n + c[n:].tolist(), math.cos(theta))
            worst = max(worst, abs(got - direct))
    assert worst <= 1e-12


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=64),
    st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_clenshaw_has_the_bits_of_numpy_chebval(c, x):
    # numpy's chebval is what the tails evaluated with before the float loop;
    # hex tells -0.0 from 0.0
    with np.errstate(all="ignore"):  # overflow to inf and nan is compared too
        want = float(np.polynomial.chebyshev.chebval(x, np.array(c)))
    assert _clenshaw(c, x).hex() == want.hex()


def test_power_of_two_scaling_is_exact():
    doubled = ChebyshevSeries(
        SIGN_CHEB_4096.K,
        tuple(2.0 * v for v in SIGN_CHEB_4096.c),
        provenance="synthetic",
    )
    for x in (-0.6, 0.1, 0.77):
        cfg = ChebyshevTailConfig(n=3)
        assert integrated_chebyshev_tail(doubled, x, cfg) == 2.0 * (
            integrated_chebyshev_tail(SIGN_CHEB_4096, x, cfg)
        )
        assert theta_route_integrated_tail(doubled, x, 3) == 2.0 * (
            theta_route_integrated_tail(SIGN_CHEB_4096, x, 3)
        )


# ---------------------------------------------------------------------------
# Integrated tails, against the theta-domain route of conftest
# ---------------------------------------------------------------------------

def test_single_mode_integral_against_the_antiderivative():
    # int_{-1}^{0} T_5 = -1/6 from the exact antiderivative
    s = single_mode(5)
    vx = integrated_chebyshev_tail(s, 0.0, ChebyshevTailConfig(n=1))
    vt = theta_route_integrated_tail(s, 0.0, 1)
    assert vx == -1.0 / 6.0
    assert vt == -0.16666666666666669
    assert routes_agree(vx, vt)


def test_first_mode_integral_is_exact():
    # int_{-1}^{x} T_1 = (x^2 - 1)/2; n = 1 exercises the special-cased mode
    s = single_mode(1)
    for x, want in ((-0.7, -0.255), (0.2, -0.48), (0.9, -0.09499999999999997)):
        vx = integrated_chebyshev_tail(s, x, ChebyshevTailConfig(n=1))
        vt = theta_route_integrated_tail(s, x, 1)
        assert vx == want
        assert abs(vt - want) <= 5e-16


def test_routes_agree_on_random_series():
    rng = random.Random(20260815)
    worst = 0.0
    for _ in range(100):
        n = rng.randint(1, 40)
        K = n + rng.randint(5, 120)
        c = tuple(rng.uniform(-1, 1) / (1 + j) ** 2 for j in range(K + 1))
        s = ChebyshevSeries(K, c, provenance="synthetic")
        x = rng.uniform(-0.95, 0.95)
        vx = integrated_chebyshev_tail(s, x, ChebyshevTailConfig(n=n))
        vt = theta_route_integrated_tail(s, x, n)
        worst = max(worst, abs(vx - vt))
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# Jump estimation
# ---------------------------------------------------------------------------

def test_jump_of_sign_at_the_origin():
    s = chebyshev_coefficients(SIGN_X, 200000)
    assert s.provenance == "closed_form"
    e = jump_from_chebyshev(s, 0.0, ChebyshevTailConfig(n=128))
    assert e.method == "chebyshev_tail"
    assert (e.x0, e.n, e.r) == (0.0, 128, 0)
    assert e.value == 1.9985979669127307
    assert abs(e.value - 2.0) / 2.0 <= 0.05
    e = jump_from_chebyshev(s, 0.0, ChebyshevTailConfig(n=256))
    assert e.value == 1.997409484749809
    assert abs(e.value - 2.0) / 2.0 <= 0.025


def test_jump_with_a_starved_cutoff_degrades():
    e = jump_from_chebyshev(SIGN_CHEB_4096, 0.0, ChebyshevTailConfig(n=128, K_cap=300))
    assert e.value == 1.14655411453417
    assert e.remainder_bound is None


def test_jump_of_an_interior_step():
    f = sj.parse_function_spec(
        "domain [-1, 1]; piece 0 on [-1, 0.5); piece 1 on (0.5, 1]"
    )
    s = chebyshev_coefficients(f, 200000)
    at_jump = jump_from_chebyshev(s, 0.5, ChebyshevTailConfig(n=256))
    assert at_jump.value == 1.002631282829501
    assert abs(at_jump.value - 1.0) <= 0.05
    away = jump_from_chebyshev(s, 0.2, ChebyshevTailConfig(n=256))
    assert away.value == -0.005104592116613188
    assert abs(away.value) <= 0.05


def test_jump_of_a_smooth_function_is_negligible():
    f = sj.parse_function_spec("domain [-1, 1]; piece exp(x)")
    s = chebyshev_coefficients(f, 64)
    e = jump_from_chebyshev(s, 0.3, ChebyshevTailConfig(n=32))
    assert e.value == 1.587852854281996e-16
    assert abs(e.value) <= 1e-12


# ---------------------------------------------------------------------------
# Open-question probe
# ---------------------------------------------------------------------------

def test_sawtooth_tail_bound_stays_order_one():
    vals = sawtooth_tail_bound_check((1, 10, 100, 1000))
    assert vals == [
        1.6449240668982266,
        1.051563357316856,
        1.0040166713333405,
        0.9955001791666124,
    ]
    assert all(0.5 <= v <= 2.0 for v in vals)


def _sawtooth_sup_by_blocks(n):
    """The check's sup summed directly: cos(k theta) over 512-wide blocks of
    k from cos/sin tables on the grid, cos((k0+j) t) = cos(k0 t) cos(j t) -
    sin(k0 t) sin(j t), accumulated by einsum.  O(K M) work."""
    thetas = np.linspace(0.0, math.pi, 4096)
    js = np.arange(512, dtype=float)
    cos_j = np.cos(np.outer(thetas, js))
    sin_j = np.sin(np.outer(thetas, js))
    K = max(10**5, 200 * n)
    total = np.zeros(thetas.size)
    for k0 in range(n, K + 1, 512):
        width = min(512, K + 1 - k0)
        w = 1.0 / np.arange(k0, k0 + width, dtype=float) ** 2
        total += np.cos(k0 * thetas) * np.einsum("ij,j->i", cos_j[:, :width], w)
        total -= np.sin(k0 * thetas) * np.einsum("ij,j->i", sin_j[:, :width], w)
    return float(n * np.max(np.abs(total)))


def test_sawtooth_tail_bound_fold_matches_the_direct_block_sum():
    ns = (1, 5, 10, 100, 1000)
    for n, v in zip(ns, sawtooth_tail_bound_check(ns)):
        ref = _sawtooth_sup_by_blocks(n)
        assert abs(v - ref) <= 1e-14 * ref, (n, v, ref)


def test_sawtooth_tail_bound_at_n_1_is_the_basel_partial_sum():
    # at n = 1 the sup sits at theta = 0, where every cosine is 1
    exact = math.fsum(1.0 / k**2 for k in range(1, 10**5 + 1))
    (v,) = sawtooth_tail_bound_check((1,))
    assert abs(v - exact) <= 1e-15 * exact


def test_sawtooth_tail_bound_rejects_n_below_1():
    with pytest.raises(ValueError, match="n must be >= 1"):
        sawtooth_tail_bound_check((10, 0))
