"""Fourier and Chebyshev coefficient computation, access helpers, and JSON."""

import copy
import json
import math
import os
import pickle
import random
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

import specjump as sj
from specjump import coefficients
from specjump.coefficients import (
    A_k,
    _CF_CHUNK,
    _closed_form_chebyshev,
    _closed_form_fourier,
    _phase,
    ChebyshevSeries,
    FourierSeries,
    chebyshev_coefficients,
    fourier_coefficients,
    jump_part_series,
    partial_sum,
    rho,
    sawtooth_series,
    series_from_json,
    series_to_json,
)
from specjump.funcspec import eval_expr
from specjump.tails import AccuracyError

from conftest import SAWTOOTH_SPEC, SIGN_COS_SPEC, SIGN_SPEC, SIGN_X_SPEC


# ---------------------------------------------------------------------------
# Container validation
# ---------------------------------------------------------------------------

def test_fourier_series_requires_matching_lengths():
    with pytest.raises(ValueError, match="need exactly K=3 entries"):
        FourierSeries(3, 0.0, (1.0,), (1.0, 2.0, 3.0))


def test_chebyshev_series_requires_k_plus_one_entries():
    with pytest.raises(ValueError, match=r"need K\+1=4 entries"):
        ChebyshevSeries(3, (1.0, 2.0))


def test_series_store_read_only_float64_copies():
    src = np.array([1.0, -0.0, 2.5])
    s = FourierSeries(3, np.float64(0.5), src, [1, 2, 3], provenance="synthetic")
    c = ChebyshevSeries(2, (0.5, 1.0, -2.0))
    for field in (s.a, s.b, c.c):
        assert field.dtype == np.float64 and field.ndim == 1
        with pytest.raises(ValueError, match="read-only"):
            field[0] = 7.0
    assert type(s.a0_half) is float
    src[0] = 9.0  # the caller's array stays the caller's, and writable
    assert s.a[0] == 1.0
    assert s.b.tolist() == [1.0, 2.0, 3.0]
    for t in (copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert t == s and not t.a.flags.writeable and not t.b.flags.writeable
    with pytest.raises(ValueError, match="c must be a 1-D sequence"):
        ChebyshevSeries(1, [[0.5], [1.0]])


def test_series_equality_is_elementwise_and_hash_agrees():
    s = FourierSeries(2, 0.0, (0.0, 1.0), (-0.0, 2.0), provenance="synthetic")
    assert s == FourierSeries(2, -0.0, (-0.0, 1.0), (0.0, 2.0), provenance="synthetic")
    assert s != FourierSeries(2, 0.0, (0.0, 1.0), (0.0, 2.5), provenance="synthetic")
    assert s != FourierSeries(3, 0.0, (0.0, 1.0, 0.0), (0.0, 2.0, 0.0), provenance="synthetic")
    assert s != FourierSeries(2, 0.0, (0.0, 1.0), (0.0, 2.0), provenance="closed_form")
    c = ChebyshevSeries(1, (0.5, -0.0))
    assert c == ChebyshevSeries(1, (0.5, 0.0))
    assert c != ChebyshevSeries(2, (0.5, 0.0, 0.0))
    assert c != s
    for series in (s, c, sawtooth_series(50)):
        back = series_from_json(series_to_json(series))
        assert hash(back) == hash(series)
        assert back in {series} and len({series, back}) == 1


def test_fourier_coefficients_require_full_period_domain():
    f = sj.parse_function_spec(SIGN_X_SPEC)
    with pytest.raises(ValueError, match="domain of length 2 pi"):
        fourier_coefficients(f, 4)


def test_chebyshev_coefficients_require_unit_domain():
    f = sj.parse_function_spec(SAWTOOTH_SPEC)
    with pytest.raises(ValueError, match=r"require domain \[-1, 1\]"):
        chebyshev_coefficients(f, 4)


def test_k_must_be_positive():
    f = sj.parse_function_spec(SAWTOOTH_SPEC)
    with pytest.raises(ValueError, match="K must be >= 1"):
        fourier_coefficients(f, 0)


# ---------------------------------------------------------------------------
# Fourier coefficients of the canonical functions
# ---------------------------------------------------------------------------

def test_constant_function_coefficients():
    f = sj.parse_function_spec("domain [-pi, pi] periodic; piece 1")
    s = fourier_coefficients(f, 64)
    assert s.provenance == "closed_form"
    assert s.a0_half == 1.0
    assert max(abs(x) for x in s.a) <= 1e-15
    assert all(x == 0.0 for x in s.b)


def test_sawtooth_coefficients_match_reciprocal_law():
    f = sj.parse_function_spec(SAWTOOTH_SPEC)
    s = fourier_coefficients(f, 1000)
    assert s.a0_half == 0.0
    assert all(x == 0.0 for x in s.a)
    for k in range(1, 1001):
        assert abs(s.b[k - 1] - 1.0 / k) * k <= 1e-13


def test_sign_coefficients_odd_harmonics_only():
    f = sj.parse_function_spec(SIGN_SPEC)
    s = fourier_coefficients(f, 600)
    assert s.a0_half == 0.0
    assert all(x == 0.0 for x in s.a)
    for k in range(1, 601):
        if k % 2:
            assert abs(s.b[k - 1] - 4.0 / (math.pi * k)) * k <= 1e-13
        else:
            assert s.b[k - 1] == 0.0


def _by_quadrature(monkeypatch, build, f, K):
    """build(f, K) with the closed forms switched off: the quadrature oracle
    for polynomial pieces."""
    with monkeypatch.context() as m:
        m.setattr(coefficients, "_closed_form_polys", lambda f: None)
        return build(f, K)


def test_quadrature_agrees_with_closed_form(monkeypatch):
    f = sj.parse_function_spec(SAWTOOTH_SPEC)
    for K in (64, 4096):  # 4096 is the CLI default for quadrature
        q = _by_quadrature(monkeypatch, fourier_coefficients, f, K)
        c = fourier_coefficients(f, K)
        assert q.provenance == "quadrature"
        assert c.provenance == "closed_form"
        for p, r in zip(np.concatenate((q.a, q.b)), np.concatenate((c.a, c.b))):
            assert abs(p - r) <= 1e-11
        assert abs(q.a0_half - c.a0_half) <= 1e-11


_SMOOTH_PIECES = ("exp(x/3)*sin(x)", "x^3 - x^2 + cos(2*x)")


@pytest.mark.parametrize("basis", ["fourier", "chebyshev"])
def test_quadrature_matches_scipy_quad_up_to_k_4096(basis):
    # the same two non-polynomial pieces on each basis's domain; scipy's QAWO
    # rule integrates piece * cos(kx) (and sin) with its own method
    K = 4096
    if basis == "fourier":
        bp, lo, hi, head = 0.0, -math.pi, math.pi, "domain [-pi, pi] periodic"
    else:
        bp, lo, hi, head = 0.3, -1.0, 1.0, "domain [-1, 1]"
    f = sj.parse_function_spec(
        f"{head}; piece {_SMOOTH_PIECES[0]} on [{lo!r}, {bp!r}); "
        f"piece {_SMOOTH_PIECES[1]} on ({bp!r}, {hi!r}]"
    )

    def integral(weight, k):
        total = 0.0
        for expr, (a, b) in zip(f.pieces, zip(f.edges, f.edges[1:])):
            if basis == "fourier":
                g = lambda x, expr=expr: eval_expr(expr, x)  # noqa: E731
            else:  # in theta = arccos x, which reverses the interval
                g = lambda t, expr=expr: eval_expr(expr, math.cos(t))  # noqa: E731
                a, b = math.acos(b), math.acos(a)
            total += quad(g, a, b, weight=weight, wvar=k, epsabs=1e-15, epsrel=1e-15, limit=200)[0]
        return total

    ks = (1, 100, 1000, 2500, 4000, 4096)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        if basis == "fourier":
            s = fourier_coefficients(f, K)
            assert s.provenance == "quadrature"
            assert abs(s.a0_half - integral("cos", 0) / (2 * math.pi)) <= 1e-14
            for k in ks:
                assert abs(s.a[k - 1] - integral("cos", k) / math.pi) <= 1e-14, k
                assert abs(s.b[k - 1] - integral("sin", k) / math.pi) <= 1e-14, k
        else:
            s = chebyshev_coefficients(f, K)
            assert s.provenance == "quadrature"
            assert abs(s.c[0] - integral("cos", 0) / math.pi) <= 1e-14
            for k in ks:
                assert abs(s.c[k] - integral("cos", k) * 2 / math.pi) <= 1e-14, k


_PI = Fraction("3.14159265358979323846264338327950288419716939937510582097494459230781640628620899")


def test_chirp_phase_reduction_is_exact_to_a_few_ulp():
    # x * n^2 modulo 2 pi, against exact rational arithmetic, for n up to
    # 2**20 and steps x like the panel half-widths h; x * n^2 reaches 4e8
    def off(approx, x, n):
        d = Fraction(approx) - Fraction(x) * n * n
        return abs(float(d - round(d / (2 * _PI)) * 2 * _PI))

    rng = random.Random(20)
    ns = sorted({rng.randrange(1 << 20) for _ in range(200)} | {0, 1, (1 << 20) - 1, 1 << 20})
    n2 = np.array(ns, dtype=float) ** 2
    worst = worst_plain = 0.0
    for x in (math.pi / 2**21, 2.4231859299916517e-05, 3e-4, math.pi / 8190, -2.9e-4):
        got = _phase(x, n2)
        for n, g, plain in zip(ns, got, x * n2):
            worst = max(worst, off(g, x, n))
            worst_plain = max(worst_plain, off(plain, x, n))
    assert worst <= 4 * math.ulp(2 * math.pi)
    assert worst_plain > 1e-8  # what the reduction is for


# Quadrature bits, and those of the sawtooth tail-bound sup, must not depend
# on the BLAS kernel or on numpy's CPU dispatch.  Each run is a child
# interpreter, because OpenBLAS and numpy read these variables once, at load
# time.  Without AVX512 the numpy variable changes nothing and the runs agree
# trivially.
_DETERMINISM_RUN = """
import numpy as np
import specjump as sj
from specjump.chebyshev import (
    ChebyshevTailConfig, jump_from_chebyshev, sawtooth_tail_bound_check,
)
from specjump.coefficients import chebyshev_coefficients, fourier_coefficients

s = chebyshev_coefficients(sj.parse_function_spec("domain [-1, 1]; piece exp(x)"), 64)
print(repr(jump_from_chebyshev(s, 0.3, ChebyshevTailConfig(n=32)).value))
print(np.array(s.c).tobytes().hex())
f = sj.parse_function_spec(
    "domain [-pi, pi] periodic; piece exp(x/3)*sin(x) on [-pi, 0); "
    "piece x^3 - x^2 + cos(2*x) on (0, pi]"
)
q = fourier_coefficients(f, 160)
print(np.concatenate(([q.a0_half], q.a, q.b)).tobytes().hex())
print(repr(sawtooth_tail_bound_check((5,))))
"""

_NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def _quadrature_bits(settings):
    """Output of _DETERMINISM_RUN; settings=None keeps the caller's
    environment, a dict replaces both variables (absent means unset)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sj.__file__)))
    env = dict(os.environ)
    if settings is not None:
        env.pop("OPENBLAS_CORETYPE", None)
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        env.update(settings)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _DETERMINISM_RUN],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_quadrature_bits_do_not_depend_on_blas_kernel_or_cpu_dispatch():
    default = _quadrature_bits(None)
    for settings in (
        {"OPENBLAS_CORETYPE": "Haswell"},
        {"OPENBLAS_CORETYPE": "Sandybridge", "NPY_DISABLE_CPU_FEATURES": _NO_AVX512},
        {"OPENBLAS_CORETYPE": "Prescott", "NPY_DISABLE_CPU_FEATURES": _NO_AVX512},
    ):
        assert _quadrature_bits(settings) == default, settings


def test_quadrature_diverges_on_a_cusp_inside_a_piece():
    # sqrt(|x|) has an interior cusp; panel doubling cannot reach tolerance
    f = sj.parse_function_spec("domain [-pi, pi] periodic; piece sqrt(abs(x))")
    with pytest.raises(AccuracyError, match="did not converge after 8 doublings"):
        fourier_coefficients(f, 8)


def test_parseval_identity_on_linear_ramp():
    # f(x) = x: mean square 2 pi^2 / 3; truncation shortfall is below 4/K
    f = sj.parse_function_spec("domain [-pi, pi] periodic; piece x")
    K = 2000
    s = fourier_coefficients(f, K)
    lhs = 2.0 * math.pi**2 / 3.0
    rhs = 2.0 * s.a0_half**2 + math.fsum(rho(s, k) ** 2 for k in range(1, K + 1))
    assert 0.0 < lhs - rhs <= 4.0 / K * 1.05


# The per-term closed forms as they were before the antiderivatives were
# shared between the terms of a chunk: the reference for bit equality.

def _reference_int_tm_cos(m, ks, t):
    s, c = np.sin(ks * t), np.cos(ks * t)
    if m == 0:
        return s / ks
    if m == 1:
        return t * s / ks + c / ks**2
    if m == 2:
        return t**2 * s / ks + 2 * t * c / ks**2 - 2 * s / ks**3
    return t**3 * s / ks + 3 * t**2 * c / ks**2 - 6 * t * s / ks**3 - 6 * c / ks**4


def _reference_int_tm_sin(m, ks, t):
    s, c = np.sin(ks * t), np.cos(ks * t)
    if m == 0:
        return -c / ks
    if m == 1:
        return -t * c / ks + s / ks**2
    if m == 2:
        return -(t**2) * c / ks + 2 * t * s / ks**2 + 2 * c / ks**3
    return -(t**3) * c / ks + 3 * t**2 * s / ks**2 + 6 * t * c / ks**3 - 6 * s / ks**4


def _reference_fourier(polys, edges, K):
    terms = [
        (c, m, lo, hi)
        for p, (lo, hi) in zip(polys, zip(edges, edges[1:]))
        for m, c in enumerate(p)
        if c != 0.0
    ]
    half = (edges[-1] - edges[0]) / 2.0
    a, b = np.zeros(K), np.zeros(K)
    for start in range(0, K, _CF_CHUNK):
        stop = min(start + _CF_CHUNK, K)
        ks = np.arange(start + 1, stop + 1, dtype=float)
        acc_a, acc_b = np.zeros(len(ks)), np.zeros(len(ks))
        for c, m, lo, hi in terms:
            acc_a += c * (_reference_int_tm_cos(m, ks, hi) - _reference_int_tm_cos(m, ks, lo))
            acc_b += c * (_reference_int_tm_sin(m, ks, hi) - _reference_int_tm_sin(m, ks, lo))
        a[start:stop] = acc_a / half
        b[start:stop] = acc_b / half
    return a, b


def _reference_int_cos_cos(j, ks, t):
    # the closed form's per-(j, edge) antiderivative, with its own two sines
    dif = ks - j
    sm = ks + j
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sin(dif * t) / (2.0 * dif) + np.sin(sm * t) / (2.0 * sm)
    eq = dif == 0.0
    if eq.any():
        out[eq] = t if j == 0 else t / 2.0 + math.sin(2 * j * t) / (4 * j)
    return out


def _reference_chebyshev(polys, edges, K):
    thetas = [math.acos(max(-1.0, min(1.0, x))) for x in reversed(edges)]
    qs = [sj.coefficients._poly_to_cos_poly(p) for p in reversed(polys)]
    terms = [
        (coef, j, lo, hi)
        for q, (lo, hi) in zip(qs, zip(thetas, thetas[1:]))
        for j, coef in enumerate(q)
        if coef != 0.0
    ]
    c = np.zeros(K + 1)
    for start in range(0, K + 1, _CF_CHUNK):
        stop = min(start + _CF_CHUNK, K + 1)
        ks = np.arange(start, stop, dtype=float)
        acc = np.zeros(len(ks))
        for coef, j, lo, hi in terms:
            acc += coef * (_reference_int_cos_cos(j, ks, hi) - _reference_int_cos_cos(j, ks, lo))
        c[start:stop] = acc * (2.0 / math.pi)
    c[0] /= 2.0
    return c


def _random_cubics(rng, lo, hi):
    """Four pieces on [lo, hi], each a cubic with some coefficients zero."""
    edges = [lo] + sorted(rng.uniform(lo, hi) for _ in range(3)) + [hi]
    polys = [
        [0.0 if rng.random() < 0.25 else rng.uniform(-2.0, 2.0) for _ in range(rng.randint(1, 4))]
        for _ in range(4)
    ]
    return polys, edges


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_closed_forms_have_the_bits_of_the_per_term_formulas(seed):
    # K = 2^16 + 3 crosses a chunk boundary, and k = 0, 1, 2, 3 hit the
    # k = j branch of the Chebyshev antiderivative
    rng = random.Random(seed)
    K = _CF_CHUNK + 3
    polys, edges = _random_cubics(rng, -math.pi, math.pi)
    s = _closed_form_fourier(polys, edges, K)
    a, b = _reference_fourier(polys, edges, K)
    assert s.a.tobytes() == a.tobytes() and s.b.tobytes() == b.tobytes()
    polys, edges = _random_cubics(rng, -1.0, 1.0)
    c = _closed_form_chebyshev(polys, edges, K).c
    assert c.tobytes() == _reference_chebyshev(polys, edges, K).tobytes()


# ---------------------------------------------------------------------------
# Chebyshev coefficients
# ---------------------------------------------------------------------------

def test_chebyshev_of_t2_polynomial():
    f = sj.parse_function_spec("domain [-1, 1]; piece 2*x^2 - 1")
    s = chebyshev_coefficients(f, 6)
    assert abs(s.c[2] - 1.0) <= 1e-13
    for k in (0, 1, 3, 4, 5, 6):
        assert abs(s.c[k]) <= 1e-13


def test_chebyshev_of_x_squared():
    f = sj.parse_function_spec("domain [-1, 1]; piece x^2")
    s = chebyshev_coefficients(f, 6)
    assert abs(s.c[0] - 0.5) <= 1e-13
    assert abs(s.c[2] - 0.5) <= 1e-13


def test_sign_chebyshev_closed_form_alternating_law():
    f = sj.parse_function_spec(SIGN_X_SPEC)
    s = chebyshev_coefficients(f, 4096)
    assert s.provenance == "closed_form"
    for j in range(300):
        k = 2 * j + 1
        ref = (4.0 / math.pi) * (-1.0) ** j / k
        assert abs(s.c[k] - ref) <= 1e-12 * abs(ref) * k
    assert max(abs(s.c[k]) for k in range(0, 600, 2)) <= 1e-15


def test_chebyshev_quadrature_agrees_with_closed_form(monkeypatch):
    f = sj.parse_function_spec(SIGN_X_SPEC)
    q = _by_quadrature(monkeypatch, chebyshev_coefficients, f, 32)
    c = chebyshev_coefficients(f, 32)
    assert (q.provenance, c.provenance) == ("quadrature", "closed_form")
    assert max(abs(p - r) for p, r in zip(q.c, c.c)) <= 1e-10


def test_chebyshev_equals_cosine_coefficients_after_substitution():
    # c_k of f on [-1, 1] equal the cosine coefficients of f(cos theta)
    cheb = chebyshev_coefficients(sj.parse_function_spec(SIGN_X_SPEC), 4096)
    four = fourier_coefficients(sj.parse_function_spec(SIGN_COS_SPEC), 4096)
    assert cheb.c[0] == four.a0_half
    assert max(abs(x) for x in four.b) == 0.0
    for k in range(1, 65):
        assert abs(cheb.c[k] - four.a[k - 1]) <= 1e-12


def test_zero_function_gives_exact_zeros():
    f = sj.parse_function_spec("domain [-1, 1]; piece 0")
    s = chebyshev_coefficients(f, 8)
    assert all(x == 0.0 for x in s.c)


# ---------------------------------------------------------------------------
# Series access helpers
# ---------------------------------------------------------------------------

def test_a_k_of_sawtooth_at_zero():
    s = sawtooth_series(100)
    for k in range(1, 101):
        assert A_k(s, 0.0, k) == -(1.0 / k)


def test_a_k_bounded_by_rho():
    s = fourier_coefficients(sj.parse_function_spec(SAWTOOTH_SPEC), 50)
    for k in range(1, 51):
        r = rho(s, k)
        for x in (-2.0, -0.3, 0.0, 1.1, 3.0):
            assert abs(A_k(s, x, k)) <= r * (1.0 + 1e-15)


def test_rho_is_the_amplitude():
    s = FourierSeries(1, 0.0, (3.0,), (4.0,), provenance="synthetic")
    assert rho(s, 1) == 5.0
    assert rho(sawtooth_series(10), 5) == 0.2


def test_index_out_of_range_rejected():
    s = sawtooth_series(10)
    with pytest.raises(ValueError, match="k=11 outside stored range 1..10"):
        A_k(s, 0.0, 11)
    with pytest.raises(ValueError, match="outside stored range"):
        rho(s, 0)


def test_partial_sum_values():
    s = sawtooth_series(200)
    assert partial_sum(s, math.pi / 2, 1) == 1.0
    assert abs(partial_sum(s, math.pi / 2, 50) - math.pi / 4) <= 0.02
    zero = FourierSeries(3, 0.0, (0.0,) * 3, (0.0,) * 3, provenance="synthetic")
    assert partial_sum(zero, 1.2, 3) == 0.0


def test_sawtooth_series_is_the_single_jump_series():
    assert jump_part_series([(0.0, math.pi)], 50) == sawtooth_series(50)


def test_jump_part_series_combines_jumps_linearly():
    s = jump_part_series([(0.5, 2.0), (-1.0, -1.0)], 30)
    t1 = jump_part_series([(0.5, 2.0)], 30)
    t2 = jump_part_series([(-1.0, -1.0)], 30)
    for k in range(30):
        assert math.isclose(s.a[k], t1.a[k] + t2.a[k], rel_tol=0, abs_tol=1e-16)
        assert math.isclose(s.b[k], t1.b[k] + t2.b[k], rel_tol=0, abs_tol=1e-16)


def _series_three_ways(basis):
    """A closed-form series, a quadrature series and the quadrature series
    read back from JSON, each on two pieces, by label."""
    if basis == "fourier":
        head, lo, bp, hi = "domain [-pi, pi] periodic", "-pi", 0.0, "pi"
        build = fourier_coefficients
    else:
        head, lo, bp, hi = "domain [-1, 1]", -1, 0.3, 1
        build = chebyshev_coefficients

    def on_pieces(first, second):
        return sj.parse_function_spec(
            f"{head}; piece {first} on [{lo}, {bp}); piece {second} on ({bp}, {hi}]"
        )

    closed = build(on_pieces("x^2 - 1", "2 - x"), 256)
    quad = build(on_pieces(*_SMOOTH_PIECES), 64)
    assert (closed.provenance, quad.provenance) == ("closed_form", "quadrature")
    back = series_from_json(series_to_json(quad))
    return {"closed form": closed, "quadrature": quad, "JSON": back}


def test_public_values_are_python_floats():
    # a numpy scalar's repr is not a float literal, and the CLI writes repr
    from specjump.chebyshev import ChebyshevTailConfig as Cfg

    got = []  # (function, series label, value)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sj.PrecisionWarning)
        for label, s in _series_three_ways("fourier").items():
            got += [
                ("A_k", label, A_k(s, 0.3, 5)),
                ("rho", label, rho(s, 5)),
                ("partial_sum", label, partial_sum(s, 0.3, 10)),
                ("s_n_diagnostic", label, sj.s_n_diagnostic(s, 0.3, 10)),
                ("integrated_tail", label, sj.integrated_tail(s, 0.3, 0, 10)),
                ("conjugate_tail", label, sj.conjugate_tail(s, 0.3, 1, 10)),
            ]
            got += [("v2_tail_diagnostic", label, u) for u in sj.v2_tail_diagnostic(s, [1, 10])]
            for e in (sj.fejer_jump(s, 0.3, 10), sj.cesaro_jump(s, 0.3, 0.5, 10)):
                assert e.remainder_bound is None
                got.append((e.method, label, e.value))
            for jump, r in ((sj.jump_from_integrated, 0), (sj.jump_from_conjugate, 1)):
                e = jump(s, 0.3, r, 10)
                got += [(e.method, label, e.value), (e.method + " bound", label, e.remainder_bound)]
        for label, s in _series_three_ways("chebyshev").items():
            got.append(("chebyshev_tail", label, sj.chebyshev_tail(s, 0.5, Cfg(n=10))))
            for n in (1, 10):
                tail = sj.integrated_chebyshev_tail(s, 0.5, Cfg(n=n))
                e = sj.jump_from_chebyshev(s, 0.5, Cfg(n=n))
                assert e.remainder_bound is None
                got.append((f"integrated_chebyshev_tail n={n}", label, tail))
                got.append((f"jump_from_chebyshev n={n}", label, e.value))
    assert len(got) == 3 * 14 + 3 * 5
    assert [(what, label, type(v).__name__) for what, label, v in got if type(v) is not float] == []


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _assert_same_bits(s, t):
    # == lets -0.0 pass for 0.0; the bytes and the sign of a0_half do not
    assert t == s
    assert t.a.tobytes() == s.a.tobytes() and t.b.tobytes() == s.b.tobytes()
    assert math.copysign(1.0, t.a0_half) == math.copysign(1.0, s.a0_half)


def test_fourier_json_round_trip_preserves_every_bit():
    s = FourierSeries(3, 0.25, (1.0, 5e-324, -0.0), (0.1, 2.5e298, 3.0), provenance="quadrature")
    _assert_same_bits(s, series_from_json(series_to_json(s)))


def test_chebyshev_json_round_trip():
    s = chebyshev_coefficients(sj.parse_function_spec("domain [-1, 1]; piece x^2"), 6)
    obj = json.loads(series_to_json(s))
    assert obj["kind"] == "chebyshev"
    assert obj["provenance"] == "closed_form"
    assert series_from_json(series_to_json(s)) == s


_ODD_FLOATS = (-0.0, 5e-324, float("nan"), float("inf"), float("-inf"), 0.1, -1.5e300)


@pytest.mark.parametrize(
    "series",
    [
        FourierSeries(len(_ODD_FLOATS), -0.0, _ODD_FLOATS, _ODD_FLOATS[::-1]),
        FourierSeries(0, float("nan"), (), ()),
        ChebyshevSeries(len(_ODD_FLOATS) - 1, _ODD_FLOATS, provenance='a "quoted" \u00e9'),
        ChebyshevSeries(0, (5e-324,)),
    ],
    ids=["fourier", "fourier-K0", "chebyshev", "chebyshev-K0"],
)
def test_series_json_has_the_bytes_of_indented_json_dumps(series):
    # json.dumps(obj, indent=2) is what the writer wrote before it built the
    # list bodies with json's C encoder
    if isinstance(series, FourierSeries):
        obj = {"kind": "fourier", "K": series.K, "a0_half": series.a0_half,
               "a": series.a.tolist(), "b": series.b.tolist(), "provenance": series.provenance}
    else:
        obj = {"kind": "chebyshev", "K": series.K, "c": series.c.tolist(),
               "provenance": series.provenance}
    assert series_to_json(series) == json.dumps(obj, indent=2)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=8,
    ),
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=8,
    ),
    st.floats(allow_nan=False, allow_infinity=False),
)
def test_json_round_trip_on_arbitrary_floats(a, b, a0):
    k = min(len(a), len(b))
    s = FourierSeries(k, a0, tuple(a[:k]), tuple(b[:k]), provenance="synthetic")
    _assert_same_bits(s, series_from_json(series_to_json(s)))


# The numpy writer of the coefficient lists against two oracles: json.dumps
# with indent=2, and the writer it replaced (json's C encoder, which writes
# floats as repr, NaN and Infinity, split into lines).

def _reference_json_array(values):
    if len(values) == 0:
        return "[]"
    body = json.dumps(values.tolist())[1:-1].replace(", ", ",\n    ")
    return "[\n    " + body + "\n  ]"


def _assert_written_as_json_dumps(values):
    values = np.asarray(values, dtype=float)
    series = FourierSeries(len(values), 0.0, values, values[::-1])
    obj = {"kind": "fourier", "K": series.K, "a0_half": 0.0, "a": values.tolist(),
           "b": values[::-1].tolist(), "provenance": "unknown"}
    # line by line, so that a failure shows the first few wrong lines
    for got, want in [
        (series_to_json(series), json.dumps(obj, indent=2)),
        (coefficients._json_array(series.a), _reference_json_array(series.a)),
    ]:
        got, want = got.split("\n"), want.split("\n")
        assert (len(got), [(g, w) for g, w in zip(got, want) if g != w][:3]) == (len(want), [])


def _bits(values):
    return np.array(values, dtype=np.uint64).view(np.float64)


_BIT_PATTERNS = st.one_of(
    st.integers(0, 2**64 - 1),
    # subnormals and +-0, then the infinities and NaNs with any payload, either sign
    st.builds(lambda sign, m: sign << 63 | m, st.integers(0, 1), st.integers(0, 2**52 - 1)),
    st.builds(lambda sign, m: sign << 63 | 0x7FF << 52 | m,
              st.integers(0, 1), st.integers(0, 2**52 - 1)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_BIT_PATTERNS, max_size=40))
def test_writer_prints_repr_of_any_bit_pattern(bits):
    _assert_written_as_json_dumps(_bits(bits))


def test_writer_prints_repr_at_every_binary_exponent():
    # mantissa 0 at an exponent above 1 has the narrower gap below; at the
    # exponent of 2^50, mantissas 1 and 2^52 - 1 give ties at the 17th digit
    patterns = [s << 63 | e << 52 | m for s in (0, 1) for e in range(2048)
                for m in (0, 1, 2, 2**51, 2**52 - 1)]
    _assert_written_as_json_dumps(_bits(patterns))


def test_writer_prints_repr_at_powers_of_ten_and_the_layout_switches():
    tens = [float(f"1e{e}") for e in range(-323, 309)]
    switches = [1e-5, 1e-4, 1e16, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, 5e-324, 1e-323, 1.5e-323,
                2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 0.3, 2.0**50 + 0.25]
    with np.errstate(over="ignore"):  # the largest double's neighbour above is inf
        near = [np.nextafter(x, to) for x in tens + switches for to in (0.0, np.inf)]
    rng = np.random.default_rng(5)
    integers = [float(v) for j in range(17) for v in (10**j - 1, 10**j, 10**j + 1)]
    integers += list(range(-1000, 1001)) + rng.integers(0, 10**16, 1000).tolist()
    values = np.array(tens + switches + near + integers, dtype=float)
    _assert_written_as_json_dumps(np.concatenate([values, -values]))


@pytest.mark.parametrize("n", [0, 1] + [coefficients._CHUNK + i for i in (-1, 0, 1)])
def test_writer_prints_repr_across_chunk_edges(n):
    rng = np.random.default_rng(n)
    _assert_written_as_json_dumps(rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n))
