"""Shared fixtures: canonical spec texts, analytic series, brute-force oracles.

The brute-force searches below enumerate every chain / interval family
explicitly.  They share the scalar term arithmetic with the library (numpy
column pow, left-to-right accumulation, fsum over descending oscillations)
so that agreement can be asserted bitwise; what they do NOT share is the
search structure, which is the part under test.
"""

import math

import numpy as np

SAWTOOTH_SPEC = (
    "domain [-pi, pi] periodic; "
    "piece (-pi - x)/2 on [-pi, 0); piece (pi - x)/2 on (0, pi]; "
    "jumps {0: pi}"
)
SIGN_SPEC = "domain [-pi, pi] periodic; piece -1 on [-pi, 0); piece 1 on (0, pi]"
SIGN_X_SPEC = "domain [-1, 1]; piece -1 on [-1, 0); piece 1 on (0, 1]"
SIGN_COS_SPEC = (
    "domain [-pi, pi] periodic; "
    "piece -1 on [-pi, -pi/2); piece 1 on (-pi/2, pi/2); piece -1 on (pi/2, pi]"
)


def sign_fourier_series(K):
    """sign(x) on [-pi, pi]: b_k = 4/(pi k) for odd k, zero otherwise."""
    from specjump.coefficients import FourierSeries

    b = tuple(4.0 / (math.pi * k) if k % 2 else 0.0 for k in range(1, K + 1))
    return FourierSeries(K, 0.0, (0.0,) * K, b, provenance="closed_form")


def theta_route_integrated_tail(series, x, n):
    """Reference for integrated_chebyshev_tail with K_cap = series.K, by an
    independent route: with eta = arccos x and g(theta) = f(cos theta), the
    integral from -1 equals -sin(eta) R(eta) - int_eta^pi R(theta) cos theta
    dtheta, where R is the once-integrated trigonometric tail of g.  The
    theta integral is a sum of exact per-mode integrals of
    sin(k theta) cos(theta); quadrature cannot resolve k ~ K oscillations.
    """
    K = series.K
    eta = math.acos(x)
    ks = np.arange(n, K + 1, dtype=float)
    cs = series.c[n : K + 1]
    r1 = math.fsum((cs * np.sin(ks * eta) / ks).tolist())
    kp, km = ks + 1.0, ks - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        # int_eta^pi sin(k t) cos t dt, exact for k != 1
        end = -np.where(np.arange(n, K + 1) % 2 == 0, -1.0, 1.0) * (1.0 / kp + 1.0 / km)
        J = 0.5 * (end + np.cos(kp * eta) / kp + np.cos(km * eta) / km)
    if n == 1:
        J[0] = (math.cos(2.0 * eta) - 1.0) / 4.0
    theta_int = math.fsum((cs / ks * J).tolist())
    return -math.sin(eta) * r1 - theta_int


def routes_agree(vx, vt):
    """The two integrated-tail routes agree within combined rounding."""
    return abs(vx - vt) <= max(1e-10, 1e-8 * max(abs(vx), abs(vt)))


# ---------------------------------------------------------------------------
# Brute-force references for the variation functionals
# ---------------------------------------------------------------------------

def chain_terms(v, p):
    """|v_j - v_i|^p for i < j, via the same numpy column pow the DP uses."""
    a = np.asarray(v, dtype=float)
    n = len(a)
    t = [[0.0] * n for _ in range(n)]
    for j in range(1, n):
        col = np.abs(a[j] - a[:j]) ** p
        for i in range(j):
            t[i][j] = float(col[i])
    return t


def brute_p_variation(v, p):
    # the power-of-two scaling p_variation applies when the range r has r^p
    # outside [2^-1022, 2^1000]; it is exact, and e = 0 leaves v as it is
    r = max(v) - min(v) if len(v) else 0.0
    e = 1 - math.frexp(r)[1] if 0.0 < r < math.inf and not -1022 <= p * math.log2(r) <= 1000 else 0
    v = [math.ldexp(x, e) for x in v]
    t = chain_terms(v, p)
    n = len(v)
    best = 0.0

    def rec(i, acc):
        nonlocal best
        if acc > best:
            best = acc
        for j in range(i + 1, n):
            rec(j, acc + t[i][j])

    for i in range(n):
        rec(i, 0.0)
    return math.ldexp(best ** (1.0 / p), -e)


def interval_families(n):
    """Every family of index intervals (a, b), a < b, with disjoint
    interiors; sharing an endpoint is allowed."""

    def rec(start, fam):
        yield fam
        for a in range(start, n):
            for b in range(a + 1, n):
                yield from rec(b, fam + [(a, b)])

    yield from rec(0, [])


def brute_lambda_variation(v, weights):
    best = 0.0
    for fam in interval_families(len(v)):
        osc = sorted((abs(v[b] - v[a]) for a, b in fam), reverse=True)
        val = math.fsum(o * w for o, w in zip(osc, weights))
        if val > best:
            best = val
    return best


def brute_modulus(v, n_max):
    out = [0.0] * n_max
    for fam in interval_families(len(v)):
        if not fam or len(fam) > n_max:
            continue
        acc = 0.0
        for a, b in fam:
            acc = acc + abs(v[b] - v[a])
        for j in range(len(fam) - 1, n_max):
            if acc > out[j]:
                out[j] = acc
    return out
