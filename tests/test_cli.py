"""End-to-end runs of the command-line front end via main(argv)."""

import json
import math
import os
import subprocess
import sys
from unittest import mock

import pytest

import specjump
from specjump import cli, tails
from specjump.cli import main
from specjump.coefficients import FourierSeries, sawtooth_series, series_to_json

from conftest import SAWTOOTH_SPEC, SIGN_SPEC


@pytest.fixture()
def saw_spec(tmp_path):
    p = tmp_path / "saw.spec"
    p.write_text(SAWTOOTH_SPEC + "\n", encoding="utf-8")
    return str(p)


@pytest.fixture()
def sign_spec(tmp_path):
    p = tmp_path / "sign.spec"
    p.write_text(SIGN_SPEC + "\n", encoding="utf-8")
    return str(p)


@pytest.fixture()
def divergent_json(tmp_path):
    # partial sums at the jump of -(log k + 1)/k grow like log^2 n: a series
    # outside the regulated class the estimators assume
    K = 512
    b = tuple(-(math.log(k) + 1.0) / k for k in range(1, K + 1))
    s = FourierSeries(K, 0.0, (0.0,) * K, b, provenance="synthetic")
    p = tmp_path / "div.json"
    p.write_text(series_to_json(s), encoding="utf-8")
    return str(p)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

def test_detect_sawtooth_integrated(capsys, saw_spec):
    rc, out, err = run_cli(
        capsys, "--command", "detect", "--input", saw_spec, "--method", "integrated"
    )
    assert rc == 0
    # the continuity point -pi has a near-zero tail, so the relative
    # truncation bound fires there; the estimates themselves are fine
    for line in err.strip().splitlines():
        assert "truncation remainder bound" in line
    lines = out.strip().splitlines()
    assert lines[0] == "x,n,estimate,true_jump,abs_error"
    assert len(lines) == 11  # 2 candidate points x 5 doubling steps
    assert lines[-1] == (
        "0.0,400,3.139239747295795,3.141592653589793,0.0023529062939982026"
    )


def test_detect_sign_fejer(capsys, sign_spec):
    rc, out, err = run_cli(
        capsys, "--command", "detect", "--input", sign_spec, "--method", "fejer"
    )
    assert rc == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[1] == "-3.141592653589793,25,-2.08,-2.0,0.08000000000000007"
    assert lines[-1] == "0.0,400,2.0,2.0,0.0"


def test_detect_rejects_conjugate_without_r(capsys, saw_spec):
    rc, out, err = run_cli(
        capsys,
        "--command", "detect", "--input", saw_spec,
        "--method", "conjugate", "--r", "0",
    )
    assert rc == 1
    assert err.strip() == f"error: {saw_spec}: conjugate tails require r >= 1"


def test_detect_flags_divergent_estimates(capsys, divergent_json):
    rc, out, err = run_cli(
        capsys,
        "--command", "detect", "--input", divergent_json,
        "--method", "fejer", "--points", "0.0",
    )
    assert rc == 0
    assert "warning: estimates at x=0.0 grow with n instead of converging" in err
    assert "may not come from a regulated function" in err


def test_strict_turns_the_divergence_warning_into_exit_2(capsys, divergent_json):
    rc, out, err = run_cli(
        capsys,
        "--command", "detect", "--input", divergent_json,
        "--method", "fejer", "--points", "0.0", "--strict",
    )
    assert rc == 2
    assert "grow with n" in err


def test_detect_rejects_n_schedule_beyond_the_stored_coefficients(capsys, divergent_json):
    rc, out, err = run_cli(
        capsys,
        "--command", "detect", "--input", divergent_json,
        "--points", "0.0", "--n-list", "300,600",
    )
    assert rc == 1
    assert "n-schedule reaches 600 but the series stores only K=512 coefficients" in err


def test_malformed_n_list_is_a_usage_error(capsys, saw_spec):
    rc, out, err = run_cli(
        capsys,
        "--command", "detect", "--input", saw_spec, "--n-list", "10,abc",
    )
    assert rc == 1


@pytest.mark.parametrize(
    "command, flag",
    [
        ("detect", "--grid=0"),
        ("detect", "--points="),
        ("detect", "--n-list="),
        ("variation", "--densities="),
    ],
)
def test_a_zero_or_empty_flag_is_an_error_not_a_default(capsys, saw_spec, command, flag):
    rc, out, err = run_cli(capsys, "--command", command, "--input", saw_spec, flag)
    assert rc == 1
    assert out == ""
    assert "error:" in err
    if flag.endswith("="):
        # the flag parser passes an empty list on, and run() rejects it
        assert err == f"error: {flag[:-1]} is an empty list\n"


@pytest.mark.parametrize(
    "command, flag, text",
    [
        ("detect", "--points", "1,,2"),
        ("detect", "--points", "1,2,"),
        ("detect", "--n-list", "10,,20"),
        ("variation", "--densities", "64, ,128"),
    ],
)
def test_an_empty_entry_inside_a_list_is_an_error_not_a_shorter_list(
    capsys, saw_spec, command, flag, text
):
    rc, out, err = run_cli(capsys, "--command", command, "--input", saw_spec, f"{flag}={text}")
    assert (rc, out) == (1, "")
    assert err.splitlines()[-1] == f"specjump: error: argument {flag}: empty entry in {text!r}"


@pytest.mark.parametrize("point", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command, flags",
    [
        ("detect", ("--method", "fejer")),
        ("detect", ("--method", "integrated")),
        ("table", ("--method", "integrated")),
        ("diagnose", ("--check", "sn")),
    ],
)
def test_a_non_finite_point_is_an_error_not_a_nan_row(capsys, tmp_path, point, command, flags):
    series = tmp_path / "saw.json"
    series.write_text(series_to_json(specjump.sawtooth_series(1000)), encoding="utf-8")
    rc, out, err = run_cli(
        capsys, "--command", command, "--input", str(series), f"--points={point}", *flags
    )
    assert (rc, out) == (1, "")
    assert err == f"error: --points must be finite, got {float(point)!r}\n"
    # library callers too, whatever the other points
    config = specjump.RunConfig(command, input=str(series), points=[0.0, float(point)])
    assert specjump.run(config) == 1
    assert capsys.readouterr() == ("", err)


HUGE_FOURIER = {"kind": "fourier", "a0_half": 0.0, "a": [1e308] * 50, "b": [-1e308] * 50}


@pytest.mark.parametrize(
    "method, series",
    [
        ("integrated", HUGE_FOURIER),
        ("conjugate", HUGE_FOURIER),
        ("chebyshev", {"kind": "chebyshev", "c": [(-1) ** i * 1e308 for i in range(51)]}),
    ],
)
@pytest.mark.parametrize("command", ["detect", "table"])
def test_a_non_finite_estimate_is_an_error_not_an_inf_row(
    capsys, tmp_path, method, series, command
):
    # coefficients near the float limit: the first estimate, at n = 5, overflows
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"K": 50, "provenance": "unknown", **series}), encoding="utf-8")
    rc, out, err = run_cli(capsys, "--command", command, "--input", str(path),
                           "--method", method, "--points=0.5", "--n-list", "5,10")
    assert (rc, out) == (1, "")
    assert err == "error: the estimate at x=0.5, n=5 is inf, not finite\n"


@pytest.mark.parametrize(
    "command, field, flag",
    [
        ("detect", "n_list", "--n-list"),
        ("detect", "points", "--points"),
        ("table", "points", "--points"),
        ("variation", "densities", "--densities"),
        ("diagnose", "n_list", "--n-list"),
        ("diagnose", "points", "--points"),
    ],
)
def test_an_empty_list_through_run_is_an_error_not_a_default(
    capsys, saw_spec, command, field, flag
):
    config = specjump.RunConfig(command, input=saw_spec, **{field: []})
    if command == "diagnose":
        config.check = "sn"
    assert specjump.run(config) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {flag} is an empty list\n"


_SERIES = '{"kind": "fourier", "K": 2, "a0_half": 0.0, "a": [0.0, 0.0], "b": [1.0, B]}'


@pytest.mark.parametrize(
    "text",
    [
        _SERIES.replace("B", "NaN"),
        _SERIES.replace("B", "Infinity"),
        _SERIES.replace("B", "-Infinity"),
        _SERIES.replace("B", '"1.5"'),
        _SERIES.replace("B", "true"),
        _SERIES.replace("B", "null"),
        _SERIES.replace("B", "1e400"),
        _SERIES.replace("B", "0.5").replace('"a0_half": 0.0', '"a0_half": NaN'),
        _SERIES.replace("B", "0.5").replace('"a": [0.0, 0.0], ', ""),
        _SERIES.replace("B", "0.5").replace('"a": [0.0, 0.0]', '"a": 0.0'),
        _SERIES.replace("B", "0.5").replace('"K": 2', '"K": null'),
        '{"kind": "chebyshev", "K": 1, "c": [0.0, NaN]}',
    ],
    ids=["nan", "inf", "-inf", "string", "bool", "null", "overflow", "nan-a0", "no-a",
         "scalar-a", "null-K", "chebyshev-nan"],
)
def test_malformed_series_json_exits_1_with_one_error_line(capsys, tmp_path, text):
    p = tmp_path / "bad.json"
    p.write_text(text, encoding="utf-8")
    # coeffs reads the series and writes it back, whatever its kind
    rc, out, err = run_cli(capsys, "--command", "coeffs", "--input", str(p))
    assert rc == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "spec, flags",
    [
        # the remainder bound's power of K overflows a float at K = 200000
        (SAWTOOTH_SPEC, ("--method", "integrated", "--r", "40")),
        (SAWTOOTH_SPEC, ("--method", "conjugate", "--r", "40")),
        # 1/x has a pole inside its piece, so Chebyshev quadrature does not
        # converge under panel doubling (AccuracyError)
        ("domain [-1, 1]; piece 1/x", ("--method", "chebyshev", "--points=0.0", "--Kcap", "64")),
    ],
    ids=["integrated-overflow", "conjugate-overflow", "chebyshev-pole"],
)
def test_arithmetic_failure_exits_1_with_one_error_line(capsys, tmp_path, spec, flags):
    p = tmp_path / "f.spec"
    p.write_text(spec + "\n", encoding="utf-8")
    rc, out, err = run_cli(
        capsys, "--command", "detect", "--input", str(p), "--nmax", "50", *flags
    )
    assert rc == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("method, p", [("integrated", 61), ("conjugate", 60)])
@pytest.mark.parametrize("command", ["detect", "table"])
def test_an_r_whose_powers_overflow_exits_1_naming_r(capsys, saw_spec, command, method, p):
    # at K = 200000, K^(p - 1) overflows a float from r = 30 on; no tail is summed
    with mock.patch.object(tails, "_tail") as tail:
        rc, out, err = run_cli(capsys, "--command", command, "--input", saw_spec,
                               "--method", method, "--r", "30", "--points=1.0", "--nmax", "50")
    tail.assert_not_called()
    assert (rc, out) == (1, "")
    assert err == f"error: --r 30 is too large: 25^{p} or 200000^{p - 1} overflows a float\n"


_LARGEST_R_ROWS = {
    ("detect", "integrated"): "x,n,estimate,true_jump,abs_error\n"
    "1.0,25,7.774823996003111,0.0,7.774823996003111\n"
    "1.0,50,4.229676546788785,0.0,4.229676546788785\n",
    ("detect", "conjugate"): "x,n,estimate,true_jump,abs_error\n"
    "1.0,25,7.658245949720651,0.0,7.658245949720651\n"
    "1.0,50,4.164332831143478,0.0,4.164332831143478\n",
    ("table", "integrated"): "n,r,method,estimate,true_jump,abs_error,remainder_bound\n"
    "25,29,integrated_tail,7.774823996003111,0.0,7.774823996003111,0.0\n"
    "50,29,integrated_tail,4.229676546788785,0.0,4.229676546788785,0.0\n",
    ("table", "conjugate"): "n,r,method,estimate,true_jump,abs_error,remainder_bound\n"
    "25,29,conjugate_tail,7.658245949720651,0.0,7.658245949720651,1.3119903090624536e-226\n"
    "50,29,conjugate_tail,4.164332831143478,0.0,4.164332831143478,3.7815546028847155e-209\n",
}


@pytest.mark.parametrize("command, method", list(_LARGEST_R_ROWS))
def test_the_largest_r_that_fits_prints_its_pinned_rows(capsys, saw_spec, command, method):
    rc, out, _ = run_cli(capsys, "--command", command, "--input", saw_spec,
                         "--method", method, "--r", "29", "--points=1.0", "--nmax", "50")
    assert (rc, out) == (0, _LARGEST_R_ROWS[command, method])


@pytest.mark.parametrize(
    "spec, method, piece",
    [
        ("domain [-1, 1]; piece sqrt(x)", "chebyshev", "piece 1 (sqrt(x))"),
        ("domain [-pi, pi] periodic; piece x on [-pi, 0); piece sqrt(x - 1) on (0, pi]",
         "integrated", "piece 2 (sqrt(x - 1.0))"),
    ],
    ids=["chebyshev", "fourier"],
)
def test_non_finite_integrand_exits_1_at_the_first_panel_rule(capsys, tmp_path, spec, method, piece):
    # the piece is nan on part of its interval: quadrature stops at its first
    # rule, naming the piece, instead of doubling panels 8 times
    p = tmp_path / "f.spec"
    p.write_text(spec + "\n", encoding="utf-8")
    rc, out, err = run_cli(
        capsys, "--command", "detect", "--input", str(p),
        "--method", method, "--Kcap", "512", "--points=0.5",
    )
    assert rc == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert f"{piece} is not finite" in lines[0]


def test_cusp_hits_the_quadrature_work_bound_and_exits_1_in_time(tmp_path):
    # panel doubling converges only algebraically across the cusp of
    # sqrt(|x|); the per-rule node cap stops it after about 5 s (it used to
    # double on for 21 s and 307 MB).  A child process, so the time box can
    # kill a run that does not stop.
    p = tmp_path / "cusp.spec"
    p.write_text("domain [-pi, pi] periodic; piece sqrt(abs(x))\n", encoding="utf-8")
    src = os.path.dirname(os.path.dirname(os.path.abspath(specjump.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = "import sys; from specjump.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", run, "--command", "detect", "--input", str(p),
         "--method", "integrated", "--nmax", "100", "--points=1.0"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "more than the cap of 4194304" in lines[0]


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def test_table_fejer_row(capsys, saw_spec):
    rc, out, err = run_cli(
        capsys,
        "--command", "table", "--input", saw_spec,
        "--method", "fejer", "--points", "0.0",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,method,alpha,estimate,true_jump,abs_error"
    assert "50,fejer,,3.141592653589793,3.141592653589793,0.0" in lines


def test_table_tail_methods_report_the_remainder_bound(capsys, saw_spec):
    rc, out, err = run_cli(
        capsys,
        "--command", "table", "--input", saw_spec,
        "--method", "integrated", "--r", "1", "--points", "0.0",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,r,method,estimate,true_jump,abs_error,remainder_bound"
    assert (
        "100,1,integrated_tail,3.189030686560433,3.141592653589793,"
        "0.04743803297064009,3.9269908169872435e-10"
    ) in lines


def test_table_wants_exactly_one_point(capsys, saw_spec):
    rc, out, err = run_cli(
        capsys,
        "--command", "table", "--input", saw_spec, "--points", "0.0,1.0",
    )
    assert rc == 1
    assert "table reports one location; give exactly one point" in err


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------

def test_coeffs_emits_series_json(capsys, saw_spec):
    rc, out, err = run_cli(
        capsys, "--command", "coeffs", "--input", saw_spec, "--Kcap", "8"
    )
    assert rc == 0
    obj = json.loads(out)
    assert sorted(obj) == ["K", "a", "a0_half", "b", "kind", "provenance"]
    assert obj["K"] == 8
    assert obj["b"][0] == 1.0
    assert obj["provenance"] == "closed_form"


_READBACK_SPECS = {
    "fourier": "domain [-pi, pi] periodic; piece x^2/4 - 1 on [-pi, 1); piece 2 - x on (1, pi]",
    "chebyshev": "domain [-1, 1]; piece x^3 - x on [-1, 0.25); piece 1 + x/2 on (0.25, 1]",
}


@pytest.mark.parametrize(
    "method, flags, basis, points",
    [
        ("integrated", ["--r", "0"], "fourier", "--points=-3.141592653589793,1.0"),
        ("conjugate", ["--r", "1"], "fourier", "--points=-3.141592653589793,1.0"),
        ("fejer", [], "fourier", "--points=-3.141592653589793,1.0"),
        ("chebyshev", [], "chebyshev", "--points=0.25"),
    ],
)
def test_detect_on_an_exported_series_gives_the_spec_estimates(
    capsys, tmp_path, method, flags, basis, points
):
    spec = tmp_path / "f.spec"
    spec.write_text(_READBACK_SPECS[basis] + "\n", encoding="utf-8")
    exported = tmp_path / "series.json"
    rc, _, _ = run_cli(
        capsys, "--command", "coeffs", "--input", str(spec), "--basis", basis,
        "--Kcap", "4096", "--out", str(exported),
    )
    assert rc == 0

    def estimates(source):
        rc, out, _ = run_cli(
            capsys, "--command", "detect", "--input", source, "--method", method, points,
            "--n-list", "32,64,128", "--Kcap", "4096", *flags,
        )
        assert rc == 0
        # x, n, estimate; true_jump is unknown to a series file
        return [line.split(",")[:3] for line in out.strip().splitlines()[1:]]

    from_spec = estimates(str(spec))
    assert len(from_spec) == 3 * len(points.split(","))  # three n per point
    assert estimates(str(exported)) == from_spec


def test_coeffs_default_cutoff(capsys, saw_spec):
    rc, out, err = run_cli(capsys, "--command", "coeffs", "--input", saw_spec)
    assert rc == 0
    assert json.loads(out)["K"] == 1000


# ---------------------------------------------------------------------------
# variation
# ---------------------------------------------------------------------------

def test_variation_report_and_suggested_class(capsys, sign_spec):
    rc, out, err = run_cli(capsys, "--command", "variation", "--input", sign_spec)
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# suggested_class=BV"
    assert lines[1] == "functional,parameter,grid_density,value"
    assert lines[2] == "lambda_variation,harmonic,8,2.0"
    assert "p_variation,1.0,64,2.0" in lines
    assert "modulus,1,8,2.0" in lines


def test_variation_json_reports_the_harmonic_value_twice(capsys, sign_spec):
    rc, out, err = run_cli(
        capsys, "--command", "variation", "--input", sign_spec, "--format", "json"
    )
    assert rc == 0
    reports = json.loads(out)["reports"]
    assert [r["grid_density"] for r in reports] == [8, 16, 32, 64]
    for r in reports:
        assert r["lambda_variation"] == {"harmonic": r["harmonic_variation"]}


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

def test_diagnose_v2(capsys, saw_spec):
    rc, out, err = run_cli(capsys, "--command", "diagnose", "--input", saw_spec)
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,u_n"
    assert lines[1] == "10,1.0516133569418573"
    assert lines[2] == "100,1.0045166675833548"


def test_diagnose_parseval(capsys, saw_spec):
    rc, out, err = run_cli(
        capsys,
        "--command", "diagnose", "--input", saw_spec,
        "--check", "parseval", "--n-list", "2,4",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,lhs,rhs,abs_diff"
    assert lines[1] == "2,3.70110165040851,3.7011016504085097,4.440892098500626e-16"
    assert lines[2] == "4,2.158975962738296,2.158975962738298,1.7763568394002505e-15"


def test_diagnose_partial_sums(capsys, saw_spec):
    rc, out, err = run_cli(
        capsys,
        "--command", "diagnose", "--input", saw_spec,
        "--check", "sn", "--n-list", "10",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,s_n,pi_s_n"
    assert lines[1] == "10,1.0,3.141592653589793"


def test_diagnose_partial_sums_want_exactly_one_point(capsys, saw_spec):
    rc, out, err = run_cli(
        capsys,
        "--command", "diagnose", "--input", saw_spec,
        "--check", "sn", "--n-list", "10", "--points=0,1,2",
    )
    assert (rc, out) == (1, "")
    assert err == "error: --check sn reports one location; give exactly one point\n"
    rc, out, err = run_cli(
        capsys,
        "--command", "diagnose", "--input", saw_spec,
        "--check", "sn", "--n-list", "10", "--points=1.0",
    )
    assert rc == 0
    assert out.splitlines()[1] != "10,1.0,3.141592653589793"


@pytest.mark.parametrize(
    "check, flag",
    [
        ("v2", "--points=0"),
        ("v2", "--grid=5"),
        ("parseval", "--points=0"),
        ("parseval", "--grid=5"),
        ("sawtooth_bound", "--points=0"),
        ("sawtooth_bound", "--grid=5"),
        ("sn", "--grid=5"),
    ],
)
def test_diagnose_rejects_a_location_flag_its_check_ignores(capsys, saw_spec, check, flag):
    rc, out, err = run_cli(
        capsys,
        "--command", "diagnose", "--input", saw_spec,
        "--check", check, "--n-list", "2,4", flag,
    )
    assert (rc, out) == (1, "")
    assert err == f"error: --check {check} does not use {flag.split('=')[0]}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("diagnose", "JSON", "--check", "v2", "--method", "chebyshev"),
         "--check v2 does not use --method"),
        (("diagnose", "JSON", "--check", "v2", "--method", "fejer"),
         "--check v2 does not use --method"),
        (("diagnose", "JSON", "--check", "v2", "--r", "3", "--alpha", "0.5"),
         "--check v2 does not use --r"),
        (("diagnose", "JSON", "--check", "sn", "--alpha", "0.5"),
         "--check sn does not use --alpha"),
        (("diagnose", "SAW", "--check", "parseval", "--r", "1"),
         "--check parseval does not use --r"),
        (("coeffs", "SAW", "--format", "csv"),
         "coeffs writes series JSON; it has no --format csv"),
        (("coeffs", "JSON", "--basis", "chebyshev"),
         "input series is not a Chebyshev series"),
        (("detect", "JSON", "--points=0", "--n-list", "10", "--r", "5", "--alpha", "3"),
         "--method fejer does not use --r"),
        (("detect", "JSON", "--points=0", "--method", "chebyshev", "--alpha", "3"),
         "--method chebyshev does not use --alpha"),
        (("table", "SAW", "--points=0", "--method", "cesaro", "--r", "2"),
         "--method cesaro does not use --r"),
        (("detect", "SAW", "--method", "integrated", "--alpha", "2"),
         "--method integrated does not use --alpha"),
        (("table", "SAW", "--points=0", "--method", "conjugate", "--r", "1", "--alpha", "2"),
         "--method conjugate does not use --alpha"),
        (("coeffs", "JSON", "--Kcap", "3"),
         "coeffs on a series input does not use --Kcap"),
        (("coeffs", "SAW", "--method", "integrated", "--r", "2", "--Kcap", "2"),
         "coeffs does not use --method"),
        (("coeffs", "SAW", "--r", "2"), "coeffs does not use --r"),
        (("coeffs", "JSON", "--alpha", "1"), "coeffs does not use --alpha"),
    ],
)
def test_flags_a_command_does_not_use_exit_1(capsys, tmp_path, saw_spec, argv, message):
    # given flags that would be silently ignored are errors, not no-ops
    saw_json = tmp_path / "saw.json"
    saw_json.write_text(series_to_json(sawtooth_series(64)), encoding="utf-8")
    command, source, *flags = argv
    source = saw_spec if source == "SAW" else str(saw_json)
    rc, out, err = run_cli(capsys, "--command", command, "--input", source, *flags)
    assert (rc, out, err) == (1, "", f"error: {message}\n")


def test_diagnose_sawtooth_bound(capsys, saw_spec):
    rc, out, err = run_cli(
        capsys,
        "--command", "diagnose", "--input", saw_spec,
        "--check", "sawtooth_bound", "--n-list", "5",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,sup_n_times_tail"
    assert lines[1] == "5,1.1065647789355757"


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

def test_out_file_reruns_are_byte_identical(capsys, saw_spec, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for target in (a, b):
        rc, out, err = run_cli(
            capsys,
            "--command", "detect", "--input", saw_spec, "--out", str(target),
        )
        assert rc == 0 and out == ""
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().startswith(b"x,n,estimate")


def test_json_format_mirrors_the_csv_columns(capsys, saw_spec):
    rc, out, err = run_cli(
        capsys,
        "--command", "detect", "--input", saw_spec, "--format", "json",
    )
    assert rc == 0
    obj = json.loads(out)
    assert sorted(obj) == ["columns", "rows"]
    assert obj["columns"] == ["x", "n", "estimate", "true_jump", "abs_error"]
    assert len(obj["rows"]) == 10


@pytest.mark.parametrize(
    "command, method, columns",
    [
        ("detect", "fejer", ["x", "n", "estimate", "true_jump", "abs_error"]),
        ("table", "integrated", ["n", "r", "method", "estimate", "true_jump",
                                 "abs_error", "remainder_bound"]),
    ],
)
def test_json_format_writes_null_for_an_unknown_true_jump(
    capsys, divergent_json, command, method, columns
):
    argv = ("--command", command, "--input", divergent_json, "--method", method,
            "--points=1.0", "--n-list", "16,32")

    def no_constants(name):
        raise AssertionError(f"invalid JSON token {name}")

    rc, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert rc == 0
    obj = json.loads(out, parse_constant=no_constants)
    assert obj["columns"] == columns
    truth, error = columns.index("true_jump"), columns.index("abs_error")
    assert [(row[truth], row[error]) for row in obj["rows"]] == [(None, None)] * 2
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert all(line.split(",")[truth:error + 1] == ["nan", "nan"]
               for line in out.strip().splitlines()[1:])


def test_flag_defaults_are_the_run_config_defaults(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run", lambda config: seen.append(config) or 0)
    assert main(["--command", "detect"]) == 0
    assert seen == [cli.RunConfig("detect")]


@pytest.mark.parametrize(
    "argv",
    [
        ("--command", "detect", "--input", "SAW", "--nmax", "50"),
        ("--command", "detect"),
    ],
)
def test_python_m_specjump_cli_runs_main(capsys, saw_spec, argv):
    argv = [saw_spec if a == "SAW" else a for a in argv]
    rc, out, err = run_cli(capsys, *argv)
    src = os.path.dirname(os.path.dirname(os.path.abspath(specjump.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "specjump.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (rc, out, err)
    assert "RuntimeWarning" not in proc.stderr


def test_importing_the_package_leaves_the_cli_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(specjump.__file__)))
    code = (
        "import sys, specjump; loaded = 'specjump.cli' in sys.modules; "
        "run = specjump.run; print(loaded, 'specjump.cli' in sys.modules, "
        "run is sys.modules['specjump.cli'].run)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False True True\n", "")


def test_usage_exit_codes(capsys, saw_spec):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "--command", "bogus")[0] == 1
    rc, out, err = run_cli(capsys, "--command", "detect")
    assert rc == 1
    assert "error:" in err
