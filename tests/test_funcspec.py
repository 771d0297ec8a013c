"""Parsing, evaluation, and round-trip behavior of piecewise function specs."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specjump as sj
from specjump.funcspec import (
    BinOp,
    Call,
    DomainError,
    Neg,
    Num,
    PiecewiseFunction,
    SpecArityError,
    SpecSyntaxError,
    Var,
    _FUNCTIONS,
    _tokenize,
    eval_expr_array,
)

from conftest import SAWTOOTH_SPEC, SIGN_SPEC, SIGN_X_SPEC
from reference import eval_expr, format_function_spec, tokenize_per_character


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_single_piece_spans_domain_without_on():
    f = sj.parse_function_spec("domain [-pi, pi]; piece x")
    assert f.domain == (-math.pi, math.pi)
    assert f.breakpoints == ()
    assert not f.periodic
    assert sj.evaluate(f, 0.25) == 0.25


def test_sawtooth_spec_structure():
    f = sj.parse_function_spec(SAWTOOTH_SPEC)
    assert f.periodic
    assert f.domain == (-math.pi, math.pi)
    assert f.breakpoints == (0.0,)


def test_pi_literal_and_constant_arithmetic_in_endpoints():
    f = sj.parse_function_spec("domain [0, 2*pi] periodic; piece (pi - x)/2")
    assert f.domain == (0.0, 2.0 * math.pi)


def test_interval_brackets_do_not_affect_assembly():
    a = sj.parse_function_spec("domain [0, 1]; piece 0 on [0, 0.5); piece 1 on (0.5, 1]")
    b = sj.parse_function_spec("domain [0, 1]; piece 0 on (0, 0.5); piece 1 on (0.5, 1)")
    assert a.breakpoints == b.breakpoints == (0.5,)


def test_pieces_sorted_by_interval_start():
    f = sj.parse_function_spec("domain [0, 1]; piece 1 on (0.5, 1]; piece 0 on [0, 0.5)")
    assert sj.evaluate(f, 0.1) == 0.0
    assert sj.evaluate(f, 0.9) == 1.0


# ---------------------------------------------------------------------------
# Evaluation semantics
# ---------------------------------------------------------------------------

def test_sawtooth_values():
    f = sj.parse_function_spec(SAWTOOTH_SPEC)
    assert sj.evaluate(f, math.pi / 2) == math.pi / 4
    # value at the jump is the midpoint of the one-sided limits, here 0
    assert sj.evaluate(f, 0.0) == 0.0


def test_sign_midpoint_at_jump_is_zero():
    f = sj.parse_function_spec(SIGN_SPEC)
    assert sj.evaluate(f, 0.0) == 0.0


def test_breakpoint_value_is_exact_midpoint():
    f = sj.parse_function_spec("domain [0, 1]; piece 0.1 on [0, 0.5); piece 0.3 on (0.5, 1]")
    left, right = sj.one_sided_limits(f, 0.5)
    assert sj.evaluate(f, 0.5) == (left + right) / 2.0


def test_one_sided_limits_interior_jump():
    f = sj.parse_function_spec(SAWTOOTH_SPEC)
    assert sj.one_sided_limits(f, 0.0) == (-math.pi / 2, math.pi / 2)
    s = sj.parse_function_spec(SIGN_SPEC)
    assert s.breakpoints == (0.0,)
    assert sj.one_sided_limits(s, 0.0) == (-1.0, 1.0)


def test_one_sided_limits_at_continuity_point():
    s = sj.parse_function_spec(SIGN_SPEC)
    assert sj.one_sided_limits(s, 0.5) == (1.0, 1.0)
    assert sj.true_jump(s, 0.5) == 0.0


def test_periodic_domain_edge_wraps():
    s = sj.parse_function_spec(SIGN_SPEC)
    # left limit comes from the last piece at hi, right from the first at lo
    assert sj.one_sided_limits(s, -math.pi) == (1.0, -1.0)
    assert sj.one_sided_limits(s, math.pi) == (1.0, -1.0)
    assert sj.true_jump(s, math.pi) == -2.0
    # one piece: both sides come from it, f(hi) on the left and f(lo) on the right
    f = sj.parse_function_spec("domain [0, 2*pi] periodic; piece (pi - x)/2")
    two_pi = 2.0 * math.pi
    for x in (0.0, two_pi, -two_pi, 2.0 * two_pi):
        assert sj.one_sided_limits(f, x) == (-math.pi / 2, math.pi / 2)
        assert sj.true_jump(f, x) == math.pi


def test_true_jump_pins():
    f = sj.parse_function_spec(SAWTOOTH_SPEC)
    assert sj.true_jump(f, 0.0) == math.pi
    assert sj.true_jump(f, math.pi / 2) == 0.0
    # sawtooth is continuous across the wrap point
    assert abs(sj.true_jump(f, math.pi)) == 0.0


def test_periodic_evaluation_wraps_a_full_period():
    f = sj.parse_function_spec(SAWTOOTH_SPEC)
    for i in range(100):
        x = -math.pi + 2.0 * math.pi * (i + 0.5) / 101.0
        assert abs(sj.evaluate(f, x) - sj.evaluate(f, x + 2.0 * math.pi)) <= 1e-12


def test_non_periodic_edges_use_the_closing_piece():
    f = sj.parse_function_spec(SIGN_X_SPEC)
    assert sj.evaluate(f, -1.0) == -1.0
    assert sj.evaluate(f, 1.0) == 1.0


@pytest.mark.parametrize(
    "spec, query, message",
    [
        ("domain [-1, 1]; piece 1/x", (sj.evaluate, 0.0), "piece 1 (1.0 / x) is not finite at x = 0.0"),
        ("domain [-1, 1]; piece 0 on [-1, 0); piece 1/x on (0, 1]", (sj.one_sided_limits, 0.0),
         "piece 2 (1.0 / x) is not finite at x = 0.0"),
        ("domain [-1, 1]; piece sqrt(x) on [-1, 0.5); piece 1 on (0.5, 1]", (sj.true_jump, -0.5),
         "piece 1 (sqrt(x)) is not finite at x = -0.5"),
        ("domain [0, 1]; piece exp(1000*x)", (sj.evaluate, 1.0),
         "piece 1 (exp(1000.0 * x)) is not finite at x = 1.0"),
    ],
)
def test_a_point_value_that_is_not_finite_raises_naming_the_piece_and_x(spec, query, message):
    fn, x = query
    with pytest.raises(ValueError) as ei:
        fn(sj.parse_function_spec(spec), x)
    assert str(ei.value) == message


def test_a_constant_that_is_not_finite_is_a_syntax_error():
    for text, col in (("domain [0, 1/0]; piece x", 12), ("domain [0, 1e308*10]; piece x", 12),
                      ("domain [-exp(800), 1]; piece x", 9)):
        with pytest.raises(SpecSyntaxError, match="is not finite") as ei:
            sj.parse_function_spec(text)
        assert (ei.value.line, ei.value.col) == (1, col), text


def test_non_periodic_out_of_domain_raises():
    f = sj.parse_function_spec(SIGN_X_SPEC)
    with pytest.raises(DomainError, match=r"outside domain"):
        sj.evaluate(f, 2.0)


def test_an_infinite_point_on_a_periodic_domain_lies_inside_no_piece():
    # the nan form: no period wraps an infinity back into the domain
    f = sj.parse_function_spec(SAWTOOTH_SPEC)
    for x in (math.inf, -math.inf, math.nan):
        for query in (sj.evaluate, sj.one_sided_limits, sj.true_jump):
            with pytest.raises(DomainError, match=f"^{x} does not lie inside any piece$"):
                query(f, x)


def test_one_sided_limits_need_an_interior_point():
    f = sj.parse_function_spec(SIGN_X_SPEC)
    with pytest.raises(DomainError, match="interior point"):
        sj.one_sided_limits(f, 1.0)


def test_sign_function_is_zero_at_zero():
    f = sj.parse_function_spec("domain [-1, 1]; piece sign(x)")
    assert sj.evaluate(f, 0.0) == 0.0
    assert sj.evaluate(f, -0.5) == -1.0
    assert sj.evaluate(f, 0.5) == 1.0


def test_eval_expr_array_matches_scalar_eval():
    # exp and integer powers are where numpy's SIMD code (AVX512 exp, pow)
    # and libm part ways; array evaluation must not take numpy's route
    xs = np.linspace(-0.99, 0.99, 41)
    for body in ("sign(x) * sqrt(abs(x)) + cos(x)^2", "exp(-x) + cos(x)^3", "x^3 - x^2"):
        expr = sj.parse_function_spec(f"domain [-1, 1]; piece {body}").pieces[0]
        vec = eval_expr_array(expr, xs)
        assert vec.shape == xs.shape
        for x, v in zip(xs.tolist(), vec.tolist()):
            assert v == eval_expr(expr, x), (body, x)


def test_eval_expr_array_gives_non_finite_values_instead_of_raising():
    # where scalar evaluation raises, array evaluation returns what IEEE
    # arithmetic gives, so quadrature and sampling see inf/nan, not errors
    cases = [
        ("exp(x)", [800.0, -800.0, math.inf, 1.0], [math.inf, 0.0, math.inf, math.e]),
        ("sqrt(x)", [-1.0, 4.0, math.inf], [math.nan, 2.0, math.inf]),
        ("sin(x) + cos(x)", [math.inf, -math.inf, 0.0], [math.nan, math.nan, 1.0]),
        ("x^-2", [0.0, -0.0, 2.0], [math.inf, math.inf, 0.25]),
        ("x^-3", [0.0, -0.0, 2.0], [math.inf, -math.inf, 0.125]),
        ("x^3", [1e200, -1e200, 2.0], [math.inf, -math.inf, 8.0]),
        ("sign(x)", [math.nan, -0.0, -3.0], [math.nan, 0.0, -1.0]),
    ]
    for body, xs, want in cases:
        expr = sj.parse_function_spec(f"domain [-1, 1]; piece {body}").pieces[0]
        got = eval_expr_array(expr, np.array(xs)).tolist()
        assert [repr(v) for v in got] == [repr(v) for v in want], body


_EDGE_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                1e-310, -1e-310, -1.0, -4.0, 4.0, 2.0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS)), max_size=40),
    st.sampled_from(["abs", "sign", "sqrt"]),
)
def test_numpy_abs_sign_and_sqrt_have_the_bits_of_scalar_evaluation(xs, name):
    # elementwise, bit for bit, nan payloads and signed zeros included;
    # where math.sqrt raises, at a negative argument, arrays give +nan
    expr = Call(name, Var())
    want = []
    for x in xs:
        try:
            want.append(eval_expr(expr, x))
        except ValueError:
            want.append(math.nan)
    got = eval_expr_array(expr, np.array(xs, dtype=float))
    assert got.tobytes() == np.array(want, dtype=float).tobytes(), name


def _bits(*words):
    return [float(v) for v in np.array(words, dtype=np.uint64).view(float)]


# nan payloads (quiet, negative, signalling), subnormals, the arguments
# where exp leaves numpy's complex route (|x| >= 700) or overflows (709.78),
# and three above 709 where the complex exp's scaled path is off by an ulp
_LIBM_FLOATS = (
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
    *_bits(0x7FF8000000000123, 0xFFF80000000ABCDE, 0x7FF0000000000001, 0xFFF4000000000001),
    5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
    700.0, -700.0, math.nextafter(700.0, 0.0), -math.nextafter(700.0, 0.0),
    math.nextafter(700.0, math.inf), 709.78, 709.8, -709.8, 710.0, -745.2, -746.0,
    *map(float.fromhex, ("0x1.628090fc27419p+9", "0x1.62b9f64b67d03p+9", "0x1.62d8bee33a9afp+9")),
    1e6, -1e22, 2.0**1023,
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.floats(), st.floats(-750.0, 750.0), st.sampled_from(_LIBM_FLOATS)),
             max_size=40),
    st.sampled_from(["sin", "cos", "exp"]),
)
def test_numpy_sin_cos_and_exp_have_the_bits_of_scalar_evaluation(xs, name):
    # elementwise, bit for bit; where math raises, arrays give +nan (sin
    # or cos of an infinity) or +inf (exp past overflow)
    expr = Call(name, Var())
    want = []
    for x in xs:
        try:
            want.append(eval_expr(expr, x))
        except ValueError:
            want.append(math.nan)
        except OverflowError:
            want.append(math.inf)
    got = eval_expr_array(expr, np.array(xs, dtype=float))
    assert got.tobytes() == np.array(want, dtype=float).tobytes(), name


# ---------------------------------------------------------------------------
# Errors carry position information
# ---------------------------------------------------------------------------

def test_syntax_error_position_at_end_of_input():
    with pytest.raises(SpecSyntaxError) as ei:
        sj.parse_function_spec("domain [0, 1]; piece x +")
    assert ei.value.line == 1 and ei.value.col == 25
    assert "(line 1, column 25)" in str(ei.value)


def test_a_jumps_block_is_a_syntax_error_at_the_word_jumps():
    # jump sizes come from the pieces, so the language has no block to declare them
    text = "domain [-pi, pi] periodic;\npiece x/2 on [-pi, 0); piece x/2 on (0, pi]; jumps {0: 7}"
    with pytest.raises(SpecSyntaxError) as ei:
        sj.parse_function_spec(text)
    assert str(ei.value) == "expected 'piece', found 'jumps' (line 2, column 46)"
    assert (ei.value.line, ei.value.col) == (2, 46)


def test_trailing_input_rejected():
    with pytest.raises(SpecSyntaxError, match=r"unexpected trailing input 'y'"):
        sj.parse_function_spec("domain [0, 1]; piece x y")


def test_missing_domain_clause():
    with pytest.raises(SpecSyntaxError, match=r"expected 'domain'"):
        sj.parse_function_spec("piece x")


def test_line_and_column_track_newlines():
    with pytest.raises(SpecSyntaxError) as ei:
        sj.parse_function_spec("domain [0, 1]\npiece x q")
    assert (ei.value.line, ei.value.col) == (2, 1)


_SPACES = " \t\r\n\x0b\x0c\x1c\x85\xa0\u2003\u2028\u3000"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.sampled_from(["domain", "piece", "x", "pi", "sin", "1", "2.5e-3", ".5", "7.", "(", ")", "[",
                     "]", ";", ",", ":", "{", "}", "^", "-", "+", "*", "/", "\r\n", "\n\n\n"]),
    st.text(alphabet=_SPACES, min_size=1, max_size=6),
    st.text(alphabet="#$@!?\u00e9\u0663\u00b2\x00", min_size=1, max_size=2),
    st.text(max_size=3),
), max_size=30).map("".join))
def test_the_tokenizer_matches_the_per_character_one(text):
    # whitespace is str.isspace(), Unicode spaces and line separators
    # included; only "\n" starts a new line
    def outcome(tokenize):
        try:
            return [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]
        except SpecSyntaxError as exc:
            return ("error", str(exc), exc.line, exc.col)

    assert outcome(_tokenize) == outcome(tokenize_per_character)


def test_unknown_function_is_an_arity_error():
    with pytest.raises(SpecArityError, match="unknown function 'foo'"):
        sj.parse_function_spec("domain [0, 1]; piece foo(x)")


def test_readme_lists_exactly_the_parser_functions():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"arity-1 functions (.*?)\. Syntax", readme, re.S).group(1)
    names = re.findall(r"`(\w+)`", listed)
    assert sorted(names) == sorted(_FUNCTIONS)


def test_readme_quickstart_runs_and_gives_its_commented_results():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S).group(1)
    lines = block.splitlines()
    namespace, results = {}, {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            # a bare expression's value is shown in the comment on its last line
            comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
            results[comment] = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    pi = results["the float pi, exactly"]
    assert (type(pi), pi) == (float, math.pi)
    assert results['ClassLabel("BV")'] == sj.ClassLabel("BV")


def test_extra_call_argument_rejected():
    with pytest.raises(SpecSyntaxError, match=r"expected '\)'"):
        sj.parse_function_spec("domain [0, 1]; piece sin(x, 1)")


def test_exponent_must_be_integer_literal():
    with pytest.raises(SpecSyntaxError, match="integer literal"):
        sj.parse_function_spec("domain [0, 1]; piece x^x")
    with pytest.raises(SpecSyntaxError, match="integer literal"):
        sj.parse_function_spec("domain [0, 1]; piece x^2.5")


def test_negative_integer_exponent_allowed():
    f = sj.parse_function_spec("domain [1, 2]; piece x^-2")
    assert sj.evaluate(f, 2.0) == 0.25


def test_gap_between_pieces_rejected():
    with pytest.raises(DomainError, match="gap or overlap"):
        sj.parse_function_spec("domain [0, 1]; piece x on [0, 0.4); piece 1 on (0.6, 1]")


def test_overlap_between_pieces_rejected():
    with pytest.raises(DomainError, match="gap or overlap"):
        sj.parse_function_spec("domain [0, 1]; piece x on [0, 0.6); piece 1 on (0.4, 1]")


def test_piece_interval_outside_domain_rejected():
    with pytest.raises(DomainError, match="span the domain"):
        sj.parse_function_spec("domain [0, 1]; piece x on [0, 2]")


def test_multi_piece_specs_need_on_intervals():
    with pytest.raises(DomainError, match="'on' intervals for every piece"):
        sj.parse_function_spec("domain [0, 1]; piece x; piece 1")


def test_interval_endpoints_must_be_constant():
    with pytest.raises(SpecSyntaxError, match="must be constant"):
        sj.parse_function_spec("domain [0, x]; piece 1")


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text",
    [
        "domain [-pi, pi]; piece x",
        SAWTOOTH_SPEC,
        SIGN_SPEC,
        SIGN_X_SPEC,
        "domain [0.02, 1]; piece x*sin(1/x^2)",
        "domain [1, 2]; piece exp(-x) + sqrt(x)/3 - 4*x^-3",
        "domain [1, 2]; piece (x^2)^3 + (-x)^2",
    ],
)
def test_named_specs_round_trip(text):
    f = sj.parse_function_spec(text)
    printed = format_function_spec(f)
    again = sj.parse_function_spec(printed)
    assert again == f
    assert format_function_spec(again) == printed


def _expr_strategy():
    # only parser-reachable trees: literals are nonnegative (a leading minus
    # parses to Neg), and an exponent is an integer-valued literal
    nums = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(
        lambda v: Num(abs(v))
    )
    leaves = st.one_of(nums, st.just(Var()))

    def extend(children):
        unary = st.one_of(
            children.map(Neg),
            st.builds(
                Call,
                st.sampled_from(["sin", "cos", "exp", "abs", "sign", "sqrt"]),
                children,
            ),
        )
        powers = st.builds(
            lambda b, e: BinOp("^", b, Num(float(e))),
            st.one_of(leaves, children),
            st.integers(min_value=-6, max_value=6),
        )
        binops = st.builds(
            BinOp,
            st.sampled_from(["+", "-", "*", "/"]),
            children,
            children,
        )
        return st.one_of(unary, powers, binops)

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(_expr_strategy())
def test_expression_print_parse_round_trip(expr):
    g = PiecewiseFunction(domain=(0.0, 1.0), breakpoints=(), pieces=(expr,))
    printed = format_function_spec(g)
    assert sj.parse_function_spec(printed) == g
