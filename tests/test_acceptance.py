"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

Each test states the guarantee it locks, runs the library end to end, and
asserts both the contractual tolerance and the frozen value the current
implementation produces, so any drift is visible immediately.
"""

import math
import random
import time

import specjump as sj
from specjump.chebyshev import (
    ChebyshevTailConfig,
    integrated_chebyshev_tail,
    jump_from_chebyshev,
)
from specjump.cli import main
from specjump.coefficients import (
    ChebyshevSeries,
    FourierSeries,
    chebyshev_coefficients,
    jump_part_series,
    sawtooth_series,
    series_to_json,
)
from specjump.summability import cesaro_jump, cesaro_weights, cesaro_mean, fejer_jump
from specjump.tails import (
    TailSumConfig,
    conjugate_tail,
    jump_from_conjugate,
    jump_from_integrated,
    parseval_increment_check,
    v2_tail_diagnostic,
)
from specjump.variation import (
    LambdaSequence,
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
    routes_agree,
    sign_fourier_series,
    theta_route_integrated_tail,
)


def test_criterion_01_integrated_jump_converges_at_desk_scale():
    """Integrated-tail inversion on the sawtooth (true jump pi at 0):
    relative error <= 1% at n=100 and <= 0.5% at n=200, total runtime
    under one second including the coefficient build."""
    t0 = time.perf_counter()
    saw = sawtooth_series(10**6)
    cfg = TailSumConfig(K_cap=10**6)
    e100 = jump_from_integrated(saw, 0.0, 0, 100, cfg)
    e200 = jump_from_integrated(saw, 0.0, 0, 200, cfg)
    elapsed = time.perf_counter() - t0

    assert e100.value == 3.1570388165799
    assert e200.value == 3.14883140691115
    rel100 = abs(e100.value - math.pi) / math.pi
    rel200 = abs(e200.value - math.pi) / math.pi
    print(f"rel error: n=100 {rel100:.6f}  n=200 {rel200:.6f}  time {elapsed:.3f}s")
    assert rel100 <= 0.01
    assert rel200 <= 0.005
    assert elapsed < 1.0


def test_criterion_02_integration_order_robustness():
    """The estimate is stable in the integration order: r in {0, 1, 2}
    all land within 2% of pi at n=200 on the sawtooth."""
    saw = sawtooth_series(10**6)
    cfg = TailSumConfig(K_cap=10**6)
    vals = [jump_from_integrated(saw, 0.0, r, 200, cfg).value for r in (0, 1, 2)]
    assert vals == [3.14883140691115, 3.165233137301209, 3.181058906719271]
    for r, v in enumerate(vals):
        rel = abs(v - math.pi) / math.pi
        print(f"r={r}: estimate {v:.9f}  rel {rel:.6f}")
        assert rel <= 0.02


def test_criterion_03_conjugate_jump_and_its_normalizing_constant():
    """Conjugate-tail inversion with r=1 on the sawtooth is within 1.5%
    of pi at n=100, and the constant it divides by is right:
    n^2 sum_{k>=n} k^-3 -> 1/2, verified to 1e-3 relative at n=1e4."""
    saw = sawtooth_series(10**6)
    cfg = TailSumConfig(K_cap=10**6)
    e = jump_from_conjugate(saw, 0.0, 1, 100, cfg)
    rel = abs(e.value - math.pi) / math.pi
    print(f"conjugate estimate {e.value:.9f}  rel {rel:.6f}")
    assert e.value == 3.1731656231070113
    assert rel <= 0.015

    n = 10**4
    scaled = float(n) ** 2 * conjugate_tail(saw, 0.0, 1, n, cfg)
    print(f"n^2 * tail at n={n}: {scaled!r}")
    assert scaled == 0.50000000255
    assert abs(scaled - 0.5) / 0.5 <= 1e-3


def test_criterion_04_exact_cancellation_in_the_fejer_estimator():
    """The differentiated-Fejer estimator cancels analytically on signal
    classes where every term is representable: the sawtooth returns the
    float pi bit-for-bit at every n up to 2048.  For the sign function the
    closed-form coefficients already round 4/(pi k), so literal equality
    with 2.0 at every even n is not an IEEE-representable target; the
    machine-true form is asserted instead: every even n lands within one
    ulp of 2.0, the vast majority exactly, including all of n <= 24 and
    n = 100."""
    saw = sawtooth_series(2048)
    for n in range(1, 2049):
        assert fejer_jump(saw, 0.0, n).value == math.pi

    sign = sign_fourier_series(2048)
    exact = 0
    worst = 0.0
    for n in range(2, 2049, 2):
        v = fejer_jump(sign, 0.0, n).value
        err = abs(v - 2.0)
        assert err <= math.ulp(2.0)
        if v == 2.0:
            exact += 1
        worst = max(worst, err)
        if n <= 24 or n == 100:
            assert v == 2.0
    print(f"sign: {exact}/1024 even n bit-exact, worst |err| {worst!r}")
    assert exact == 926
    assert worst == 4.440892098500626e-16


def test_criterion_05_cesaro_detector_on_a_staircase():
    """(C,1) detection on the staircase with jumps 1/m at x=1/m (m <= 50),
    a function of harmonic bounded variation but not bounded variation.
    Every sampled discontinuity m=1..8 is recovered within 5% at n=1024;
    beyond m=8 neighboring jumps sit inside each other's kernel width, so
    they are not part of the sampled set."""
    s = jump_part_series([(1.0 / m, 1.0 / m) for m in range(1, 51)], 2048)
    rels = []
    for m in range(1, 9):
        est = cesaro_jump(s, 1.0 / m, 1.0, 1024).value
        rel = abs(est - 1.0 / m) * m
        rels.append(rel)
        print(f"m={m}: estimate {est:.8f}  true {1.0 / m:.8f}  rel {rel:.6f}")
        assert rel <= 0.05
    assert max(rels) == 0.04095092656006985


def test_criterion_06_chebyshev_jump_and_dual_route_agreement():
    """Chebyshev tail inversion for sign(x) at 0: within 5% of 2 at n=128
    and within 2.5% at n=256; the x-domain and theta-domain integration
    routes agree within combined rounding on 100 random series."""
    s = chebyshev_coefficients(sj.parse_function_spec(SIGN_X_SPEC), 200000)
    e128 = jump_from_chebyshev(s, 0.0, ChebyshevTailConfig(n=128))
    e256 = jump_from_chebyshev(s, 0.0, ChebyshevTailConfig(n=256))
    print(f"n=128: {e128.value!r}  n=256: {e256.value!r}")
    assert e128.value == 1.9985979669127307
    assert abs(e128.value - 2.0) / 2.0 <= 0.05
    assert e256.value == 1.997409484749809
    assert abs(e256.value - 2.0) / 2.0 <= 0.025

    rng = random.Random(20260815)
    worst = 0.0
    for _ in range(100):
        n = rng.randint(1, 40)
        K = n + rng.randint(5, 120)
        c = tuple(rng.uniform(-1, 1) / (1 + j) ** 2 for j in range(K + 1))
        series = ChebyshevSeries(K, c, provenance="synthetic")
        x = rng.uniform(-0.95, 0.95)
        vx = integrated_chebyshev_tail(series, x, ChebyshevTailConfig(n=n))
        vt = theta_route_integrated_tail(series, x, n)
        assert routes_agree(vx, vt)
        worst = max(worst, abs(vx - vt))
    print(f"dual-route worst |diff| over 100 cases: {worst!r}")
    assert worst <= 1e-12


def test_criterion_07_series_side_diagnostics():
    """The scaled tail-energy diagnostic stays in [0.9, 1.2] on the
    sawtooth for n = 10, 100, 1000, and the increment identity holds to
    1e-4 relative at n = 2, 4, 8 for both the sawtooth and the sign
    function."""
    saw = sawtooth_series(10**6)
    us = v2_tail_diagnostic(saw, (10, 100, 1000))
    print(f"u_n: {us}")
    assert us == [1.0516533568218576, 1.0049166663833569, 0.9995001671666355]
    assert all(0.9 <= u <= 1.2 for u in us)

    cases = (
        (SAWTOOTH_SPEC, sawtooth_series(200000)),
        (SIGN_SPEC, sign_fourier_series(200000)),
    )
    for spec, series in cases:
        f = sj.parse_function_spec(spec)
        for n in (2, 4, 8):
            lhs, rhs = parseval_increment_check(f, series, n)
            rel = abs(lhs - rhs) / lhs
            print(f"n={n}: lhs {lhs:.12f}  rhs {rhs:.12f}  rel {rel:.3g}")
            assert rel <= 1e-4


def test_criterion_08_variation_functionals_match_brute_force():
    """The dynamic programs for p-variation, weighted-oscillation
    variation, and the modulus of variation return exactly the exhaustive
    brute-force optimum on 500 random sequences of up to 12 points, and
    the modulus is concave (exactly) on 1000 random dyadic-rational
    sequences."""
    rng = random.Random(20260815)
    lam = LambdaSequence.harmonic()
    for case in range(500):
        m = rng.randint(2, 12)
        vals = [rng.uniform(-3.0, 3.0) for _ in range(m)]
        p = rng.choice([1.0, 1.5, 2.0, 3.0])
        assert p_variation(vals, p) == brute_p_variation(vals, p), f"case {case}"
        assert lambda_variation(vals, lam) == brute_lambda_variation(
            vals, lam.weights(m - 1)
        ), f"case {case}"
        assert modulus_of_variation(vals, m - 1) == brute_modulus(vals, m - 1), (
            f"case {case}"
        )
    print("500/500 sequences: all three functionals equal brute force exactly")

    rng = random.Random(4402)
    for case in range(1000):
        m = rng.randint(3, 30)
        vals = [rng.randint(-2048, 2048) / 256.0 for _ in range(m)]
        nu = modulus_of_variation(vals, m - 1)
        steps = [nu[0]] + [b - a for a, b in zip(nu, nu[1:])]
        for a, b in zip(steps, steps[1:]):
            assert b <= a, f"case {case}: concavity violated"
    print("1000/1000 dyadic sequences: modulus exactly concave")


def test_criterion_09_cesaro_weight_normalization():
    """The (C, alpha) weights sum to the normalizing denominator to 1e-12
    relative for alpha in {-0.5, 0.5, 1, 2} and every n <= 1000, and
    alpha = 1 reproduces the arithmetic mean bit-for-bit."""
    worst = 0.0
    for alpha in (-0.5, 0.5, 1.0, 2.0):
        for n in range(0, 1001):
            w, denom = cesaro_weights(n, alpha)
            rel = abs(math.fsum(w) - denom) / denom
            worst = max(worst, rel)
    print(f"worst normalization error: {worst!r}")
    assert worst <= 1e-12

    rng = random.Random(5)
    for _ in range(300):
        terms = [rng.uniform(-10.0, 10.0) for _ in range(rng.randint(1, 60))]
        assert cesaro_mean(terms, 1.0) == math.fsum(terms) / len(terms)


def test_criterion_10_cli_guards_against_misuse(tmp_path, capsys):
    """The command-line front end refuses conjugate inversion with r=0 and
    flags estimator divergence on a synthetic coefficient sequence whose
    partial sums grow like n log n instead of staying bounded."""
    spec = tmp_path / "saw.spec"
    spec.write_text(SAWTOOTH_SPEC + "\n", encoding="utf-8")
    rc = main([
        "--command", "detect", "--input", str(spec),
        "--method", "conjugate", "--r", "0",
    ])
    err = capsys.readouterr().err
    print(f"conjugate r=0: rc={rc}  stderr={err.strip()!r}")
    assert rc == 1
    assert "conjugate tails require r >= 1" in err

    K = 512
    b = tuple(-(math.log(k) + 1.0) / k for k in range(1, K + 1))
    div = tmp_path / "div.json"
    div.write_text(
        series_to_json(FourierSeries(K, 0.0, (0.0,) * K, b, provenance="synthetic")),
        encoding="utf-8",
    )
    rc = main([
        "--command", "detect", "--input", str(div),
        "--method", "fejer", "--points", "0.0",
    ])
    err = capsys.readouterr().err
    print(f"divergent series: rc={rc}  stderr={err.strip()!r}")
    assert rc == 0
    assert "grow with n instead of converging" in err

    rc = main([
        "--command", "detect", "--input", str(div),
        "--method", "fejer", "--points", "0.0", "--strict",
    ])
    capsys.readouterr()
    assert rc == 2
