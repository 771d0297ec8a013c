"""The tail work one point shares across its n-schedule: the Fourier tail
terms and the Chebyshev antiderivative sweep are built once per point and
reused for every n, so each value must keep the bits of a build at its own
n.  The oracles below are the per-(x, n) code those memos replaced."""

import gc
import math
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specjump as sj
from specjump import chebyshev, tails
from specjump.chebyshev import ChebyshevTailConfig, _clenshaw, integrated_chebyshev_tail
from specjump.cli import main
from specjump.coefficients import ChebyshevSeries, FourierSeries
from specjump.tails import (
    PrecisionWarning,
    TailSumConfig,
    conjugate_tail,
    integrated_tail,
)

from conftest import SAWTOOTH_SPEC, SIGN_SPEC, SIGN_X_SPEC
from reference import sawtooth_series

CHEB_SAW_SPEC = "domain [-1, 1]; piece (x + 1)/2 on [-1, 0); piece (x - 1)/2 on (0, 1]"


# ---------------------------------------------------------------------------
# Oracles: one build per (x, n), as before the memos
# ---------------------------------------------------------------------------

def oracle_tail_sum(a, b, x0, n, power):
    """fsum of (a_k sin k x0 - b_k cos k x0) / k^power over k = n, n+1, ...;
    the arrays a, b start at k = n."""
    ks = np.arange(n, n + len(a), dtype=float)
    A = a * np.sin(ks * x0) - b * np.cos(ks * x0)
    return math.fsum((A / ks**power).tolist())


def oracle_fourier_tail(series, x0, r, n, cfg, conjugate):
    """The value of integrated_tail / conjugate_tail through _tail_sum."""
    p = 2 * r + (0 if conjugate else 1)
    K = tails._resolve_K(series, n, cfg)
    raw = oracle_tail_sum(series.a[n - 1 : K], series.b[n - 1 : K], x0, n, p)
    return raw if r % 2 == 0 else -raw


def oracle_chebyshev_tail(series, x, cfg):
    """integrated_chebyshev_tail with D and its constant rebuilt per call."""
    n, K = cfg.n, chebyshev._resolve_K(series, cfg)
    c = series.c
    value = 0.0
    m = max(n, 2)
    if n <= 1:
        value += float(c[1]) * (x * x - 1.0) / 2.0
    if m <= K:
        D = np.zeros(K + 2)
        js = np.arange(m + 1, K + 2, dtype=float)
        D[m + 1 : K + 2] += c[m : K + 1] / (2.0 * js)
        js = np.arange(m - 1, K, dtype=float)
        D[m - 1 : K] -= c[m : K + 1] / (2.0 * js)
        ks = np.arange(m, K + 1, dtype=float)
        signs = np.where(np.arange(m, K + 1) % 2 == 0, 1.0, -1.0)
        const = math.fsum((-c[m : K + 1] * signs / (ks**2 - 1.0)).tolist())
        value += _clenshaw(D.tolist(), x) + const
    return value


def same_bits(got, want):
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-310, -1.5e-315)


@st.composite
def coefficients(draw, count):
    """count coefficients decaying like 1/k, some of them signed zeros and
    subnormals."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(-1.0, 1.0, count) / np.arange(1, count + 1)
    if draw(st.integers(0, 9)) == 0:  # all zeros: only the signs of zero are left
        values = rng.choice([0.0, -0.0], count)
    for _ in range(draw(st.integers(0, 8))):
        values[draw(st.integers(0, count - 1))] = draw(st.sampled_from(SPECIALS))
    if draw(st.booleans()):  # a stretch of exact zeros, as in odd/even series
        values[draw(st.integers(0, count - 1)) :: 2] = draw(st.sampled_from((0.0, -0.0)))
    return values


K_VALUES = st.one_of(st.integers(1, 64), st.integers(4000, 5000))  # across one 4096 stride


@st.composite
def schedules(draw, K):
    """Calls (series index, x index, n) over two series and two points, in
    an ascending, descending, repeated or drawn order of n, interleaved or
    grouped."""
    ns = draw(st.lists(st.integers(1, K), min_size=1, max_size=6))
    order = draw(st.sampled_from(("ascending", "descending", "repeated", "drawn")))
    if order == "ascending":
        ns.sort()
    elif order == "descending":
        ns.sort(reverse=True)
    elif order == "repeated":
        ns = [ns[0]] * 3 + ns
    pairs = [(s, x) for s in (0, 1) for x in (0, 1)]
    if draw(st.booleans()):  # each n for each (series, x): interleaved
        return [(s, x, n) for n in ns for s, x in pairs]
    return [(s, x, n) for s, x in pairs for n in ns]  # grouped, as the CLI calls


def x_values(lo, hi):
    return st.one_of(st.sampled_from((0.0, -0.0)), st.floats(lo, hi, allow_nan=False))


# ---------------------------------------------------------------------------
# Bitwise agreement with the oracles
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fourier_tails_have_the_bits_of_a_build_per_n(data):
    K = data.draw(K_VALUES)
    series = [
        FourierSeries(K, 0.0, data.draw(coefficients(K)), data.draw(coefficients(K)))
        for _ in range(2)
    ]
    xs = [data.draw(x_values(-7.0, 7.0)) for _ in range(2)]
    conjugate = data.draw(st.booleans())
    r = data.draw(st.integers(1 if conjugate else 0, 3))
    tail = conjugate_tail if conjugate else integrated_tail
    K_cap = data.draw(st.one_of(st.none(), st.integers(1, K)))
    cfg = TailSumConfig(K_cap=K_cap)
    for s, x, n in data.draw(schedules(min(K, K_cap or K))):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PrecisionWarning)
            got = tail(series[s], xs[x], r, n, cfg)
        want = oracle_fourier_tail(series[s], xs[x], r, n, cfg, conjugate)
        assert same_bits(got, want), (s, x, n, got, want)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_chebyshev_integrated_tails_have_the_bits_of_a_build_per_n(data):
    K = data.draw(K_VALUES)
    series = [ChebyshevSeries(K, data.draw(coefficients(K + 1))) for _ in range(2)]
    xs = [data.draw(x_values(-0.999, 0.999)) for _ in range(2)]
    K_cap = data.draw(st.one_of(st.none(), st.integers(1, K)))
    for s, x, n in data.draw(schedules(min(K, K_cap or K))):
        cfg = ChebyshevTailConfig(n=n, K_cap=K_cap)
        got = integrated_chebyshev_tail(series[s], xs[x], cfg)
        want = oracle_chebyshev_tail(series[s], xs[x], cfg)
        assert same_bits(got, want), (s, x, n, got, want)


def test_the_memos_do_not_keep_a_series_alive():
    K = 300
    fourier = sawtooth_series(K)
    cheb = ChebyshevSeries(K, [1.0 / (1 + k) for k in range(K + 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionWarning)
        integrated_tail(fourier, 0.5, 0, 10)
    integrated_chebyshev_tail(cheb, 0.5, ChebyshevTailConfig(n=10))
    assert (len(tails._TERMS), len(chebyshev._SHARED)) == (1, 1)
    refs = [weakref.ref(fourier), weakref.ref(cheb)]
    del fourier, cheb
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    assert (len(tails._TERMS), len(chebyshev._SHARED)) == (0, 0)


@pytest.mark.parametrize(
    "ns", [(400, 200, 100, 50, 25), (50, 50, 50, 100, 100)], ids=["descending", "repeated"]
)
@pytest.mark.parametrize("conjugate", [False, True])
def test_one_point_builds_its_fourier_terms_once_for_any_schedule(ns, conjugate):
    series, cfg = sawtooth_series(5000), TailSumConfig()
    tail = conjugate_tail if conjugate else integrated_tail
    build = tails._SuffixSums.__init__
    with mock.patch.object(tails._SuffixSums, "__init__", autospec=True, side_effect=build) as init:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PrecisionWarning)
            got = [tail(series, 1.0, 1, n, cfg) for n in ns]
    assert init.call_count == 1
    want = [oracle_fourier_tail(series, 1.0, 1, n, cfg, conjugate) for n in ns]
    assert all(map(same_bits, got, want)), (got, want)


def test_a_memo_lookup_compares_no_arrays():
    # a lookup finds its series by identity, not by comparing 5000 entries with themselves
    fourier = sawtooth_series(5000)
    cheb = ChebyshevSeries(5000, [1.0 / (1 + k) for k in range(5001)])
    with mock.patch.object(np, "array_equal", wraps=np.array_equal) as compare:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PrecisionWarning)
            for n in (25, 50, 100):
                integrated_tail(fourier, 0.5, 0, n)
                integrated_chebyshev_tail(cheb, 0.5, ChebyshevTailConfig(n=n))
    assert compare.call_count == 0


def test_a_series_holding_nan_equals_itself_and_not_a_copy():
    for make in (lambda: FourierSeries(2, 0.0, [math.nan, 0.0], [0.0, 1.0]),
                 lambda: ChebyshevSeries(1, [math.nan, 1.0])):
        series = make()
        assert series == series and series != make()


# ---------------------------------------------------------------------------
# The CLI scan: every row has the oracle's value
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "spec, flags",
    [
        (SAWTOOTH_SPEC, ("--method", "integrated", "--r", "0")),
        (SAWTOOTH_SPEC, ("--method", "integrated", "--r", "1")),
        (SAWTOOTH_SPEC, ("--method", "conjugate")),
        (SIGN_SPEC, ("--method", "integrated", "--r", "0")),
        (SIGN_SPEC, ("--method", "integrated", "--r", "1")),
        (SIGN_SPEC, ("--method", "conjugate")),
        (CHEB_SAW_SPEC, ("--method", "chebyshev")),
        (SIGN_X_SPEC, ("--method", "chebyshev")),
    ],
)
def test_a_grid_scan_prints_the_oracle_estimate_at_every_row(capsys, tmp_path, spec, flags):
    K = 5000
    path = tmp_path / "f.spec"
    path.write_text(spec + "\n", encoding="utf-8")
    rc = main(["--command", "detect", "--input", str(path), "--grid", "7",
               "--Kcap", str(K), *flags])
    out = capsys.readouterr().out
    assert rc == 0
    f = sj.parse_function_spec(spec)
    method = flags[1]
    if method == "chebyshev":
        series = sj.chebyshev_coefficients(f, K)
    else:
        series = sj.fourier_coefficients(f, K)
        conjugate = method == "conjugate"
        r = int(flags[3]) if len(flags) > 2 else 1
        cfg = TailSumConfig(K_cap=K)
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 7 * 5  # the default schedule 25, 50, ..., 400
    for row in rows:
        x, n = float(row[0]), int(row[1])
        if method == "chebyshev":
            tail = oracle_chebyshev_tail(series, x, ChebyshevTailConfig(n=n, K_cap=K))
            want = -math.pi * n * tail / math.sqrt(1.0 - x * x)
        else:
            tail = oracle_fourier_tail(series, x, r, n, cfg, conjugate)
            p = 2 * r + (0 if conjugate else 1)
            want = tails._jump(method + "_tail", x, r, n, tail, 0.0, p).value
        assert row[2] == repr(want), row
