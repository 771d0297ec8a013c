"""The exact suffix-sum engine under every tail: tails._SuffixSums must give
the sum of terms[s:] with math.fsum's bits, for every start s, wherever fsum
returns a value, and fsum's value or exception type for non-finite terms.

fsum adds into partials and raises OverflowError as soon as one of them
overflows, even when the exact sum is representable.  The engine keeps the
exact sum in that case: it returns it, correctly rounded, when it is finite
(or, with a non-finite term, the value fsum gives without the overflow), and
raises OverflowError only when the exact sum rounds past the float range."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specjump import tails
from specjump.tails import _SuffixSums

MAX = 1.7976931348623157e308
SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
            1.5e-315, MAX, -MAX, 1.0, -1.0)
NON_FINITE = (math.inf, -math.inf, math.nan)


def same_bits(got, want):
    if math.isnan(want):
        return math.isnan(got)
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def exact_sum(terms):
    """The value the engine keeps where fsum overflows on an intermediate
    sum: fsum's rule for non-finite terms, else the exact sum of the terms
    (integers scaled by 2^1074) divided once, raising OverflowError past
    the float range."""
    odd = [t for t in terms if not math.isfinite(t)]
    if odd:
        if math.inf in odd and -math.inf in odd:
            raise ValueError("-inf + inf")
        return math.nan if any(map(math.isnan, odd)) else odd[0]
    scaled = 0
    for t in terms:
        num, den = t.as_integer_ratio()
        scaled += num * ((1 << 1074) // den)
    return scaled / (1 << 1074)


def outcome(total, terms):
    """('value', v) or ('raises', exception type) of total(terms)."""
    try:
        return "value", total(terms)
    except (OverflowError, ValueError) as exc:
        return "raises", type(exc)


def check_start(engine, terms, s):
    """The engine's sum from s against fsum's, or the exact sum where fsum
    overflowed on an intermediate sum."""
    suffix = terms[s:]
    want = outcome(math.fsum, suffix)
    if want == ("raises", OverflowError):
        want = outcome(exact_sum, suffix)
    got = outcome(lambda _: engine.sum_from(s), suffix)
    if want[0] == "value":
        assert got[0] == "value" and same_bits(got[1], want[1]), (s, got, want)
    else:
        assert got == want, (s, got, want)


@st.composite
def term_lists(draw, lengths):
    """Floats with exponents across the whole range, cancellation, signed
    zeros, subnormals and, sometimes, infinities and nans."""
    n = draw(lengths)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("wide", "moderate", "cancelling", "subnormal", "zeros", "huge")))
    mantissas = rng.uniform(-1.0, 1.0, n)
    if kind == "wide":  # every binary exponent the floats have
        terms = np.ldexp(mantissas, rng.integers(-1074, 1025, n))
    elif kind == "moderate":
        terms = np.ldexp(mantissas, rng.integers(-60, 61, n))
    elif kind == "cancelling":  # pairs t, -t in a random order, plus a few small terms
        half = np.ldexp(mantissas[: n // 2], rng.integers(-60, 61, n // 2))
        terms = np.concatenate([half, -half, np.ldexp(mantissas[: n % 2], -80)])
        rng.shuffle(terms)
    elif kind == "subnormal":  # multiples of 5e-324 up to the smallest normal
        terms = rng.integers(-(2**52), 2**52, n) * 5e-324
    elif kind == "zeros":
        terms = rng.choice([0.0, -0.0], n)
    else:  # near the top of the range: sums that overflow, now and then only in partials
        terms = np.ldexp(mantissas, rng.integers(1018, 1025, n))
    terms = terms.tolist()
    for _ in range(draw(st.integers(0, 4))):
        if terms:
            terms[draw(st.integers(0, n - 1))] = draw(st.sampled_from(SPECIALS))
    if draw(st.integers(0, 5)) == 0 and terms:
        for _ in range(draw(st.integers(1, 3))):
            terms[draw(st.integers(0, n - 1))] = draw(st.sampled_from(NON_FINITE))
    return terms


@settings(max_examples=400, deadline=None)
@given(st.sampled_from((1, 2, 3, 8)), term_lists(st.integers(0, 40)))
def test_every_start_of_a_short_list_sums_as_fsum_does(block, terms):
    # a block of a few terms puts the block edges, and both sides of them,
    # everywhere in a list short enough to check every start
    with mock.patch.object(tails, "_BLOCK", block):
        engine = _SuffixSums(np.array(terms, dtype=float))
        for s in range(len(terms) + 1):
            check_start(engine, terms, s)


EDGES = (4096, 8192)


@settings(max_examples=40, deadline=None)
@given(term_lists(st.sampled_from([e + d for e in EDGES for d in (-2, -1, 0, 1, 2)])),
       st.lists(st.integers(0, 8194), max_size=4))
def test_starts_around_the_block_edges_sum_as_fsum_does(terms, drawn):
    engine = _SuffixSums(np.array(terms, dtype=float))
    near_edges = {e + d for e in (0, *EDGES) for d in (-2, -1, 0, 1, 2)}
    for s in sorted({s for s in near_edges | set(drawn) | {len(terms)} if 0 <= s <= len(terms)}):
        check_start(engine, terms, s)


def test_an_intermediate_overflow_keeps_the_exact_sum():
    terms = [MAX, MAX, -MAX]
    with pytest.raises(OverflowError):
        math.fsum(terms)
    assert _SuffixSums(np.array(terms)).sum_from(0) == MAX
    with pytest.raises(OverflowError):  # the exact sum itself is past the range
        _SuffixSums(np.array([MAX, MAX])).sum_from(0)
    # a non-finite term decides the sum, as it does for fsum without the overflow
    assert _SuffixSums(np.array([math.inf, MAX, MAX])).sum_from(0) == math.inf


def test_an_exact_zero_is_positive_and_an_empty_suffix_is_zero():
    for terms in ([-0.0, -0.0], [1.5, -1.5, -0.0], [5e-324, -5e-324]):
        got = _SuffixSums(np.array(terms)).sum_from(0)
        assert same_bits(got, 0.0) and same_bits(math.fsum(terms), 0.0)
    assert same_bits(_SuffixSums(np.array([-2.0, 3.0])).sum_from(2), 0.0)
    assert same_bits(_SuffixSums(np.array([], dtype=float)).sum_from(0), 0.0)


def test_the_real_tails_sum_as_fsum_does():
    # the K = 200000 sawtooth tails the CLI sums at x = 1, p = 1 and p = 3
    ks = np.arange(1, 200_001, dtype=float)
    series_b = 1.0 / ks  # the sawtooth's b_k
    for p in (1, 3):
        terms = (0.0 * np.sin(ks) - series_b * np.cos(ks)) / ks**p
        engine = _SuffixSums(terms)
        for s in (0, 99, 4095, 4096, 199_999):
            assert same_bits(engine.sum_from(s), math.fsum(terms[s:].tolist()))
