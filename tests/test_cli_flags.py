"""Which flags each command reads, and the one-line errors for the rest.

The expected reads are written out here, not taken from the parser's flag
table, so a change to the table shows up as a failing row.
"""

import math
import os

import pytest

import specjump
from specjump import cli
from specjump.cli import main
from specjump.coefficients import fourier_coefficients, series_to_json
from specjump.funcspec import parse_function_spec
from specjump.summability import cesaro_jump

from conftest import SAWTOOTH_SPEC
from reference import sawtooth_series

_METHODS = ("fejer", "cesaro", "integrated", "conjugate", "chebyshev")
_CHECKS = ("v2", "parseval", "sn", "sawtooth_bound")

# Columns: coeffs | the five methods (detect and table alike) | variation |
# the four checks of diagnose.  x reads the flag, . does not.
_READS = {
    "--input":     "x|xxxxx|x|xxxx",
    "--command":   "x|xxxxx|x|xxxx",
    "--method":    ".|xxxxx|.|....",
    "--basis":     "x|xxxxx|.|....",
    "--r":         ".|..xx.|.|....",
    "--alpha":     ".|.x...|.|....",
    "--n0":        ".|xxxxx|.|....",
    "--nmax":      ".|xxxxx|.|....",
    "--points":    ".|xxxxx|.|..x.",
    "--grid":      ".|xxxxx|.|....",
    "--Kcap":      "x|xxxxx|.|xxx.",
    "--out":       "x|xxxxx|x|xxxx",
    "--format":    "x|xxxxx|x|xxxx",
    "--strict":    "x|xxxxx|x|xxxx",
    "--check":     ".|.....|.|xxxx",
    "--n-list":    ".|xxxxx|.|xxxx",
    "--densities": ".|.....|x|....",
}
_COLUMNS = ("coeffs", *_METHODS, "variation", *_CHECKS)

# a value for each flag a run adds on top of its base arguments
_VALUES = {
    "--method": "fejer", "--basis": "fourier", "--r": "1", "--alpha": "2", "--n0": "8",
    "--nmax": "16", "--points": "0.5", "--grid": "3", "--Kcap": "64", "--format": "json",
    "--check": "v2", "--n-list": "8,16", "--densities": "4",
}

_CASES = ([("coeffs", None)] + [(c, m) for c in ("detect", "table") for m in _METHODS]
          + [("variation", None)] + [("diagnose", c) for c in _CHECKS])


@pytest.fixture()
def saw_spec(tmp_path):
    p = tmp_path / "saw.spec"
    p.write_text(SAWTOOTH_SPEC + "\n", encoding="utf-8")
    return str(p)


@pytest.fixture()
def saw_json(tmp_path):
    p = tmp_path / "saw.json"
    p.write_text(series_to_json(sawtooth_series(1000)), encoding="utf-8")
    return str(p)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def _base(command, selector, source, flag):
    """Arguments that keep a run small; each is one the command reads."""
    argv = ["--command", command, "--input", source]
    if command == "coeffs":
        argv += ["--Kcap", "64"]
    elif command == "variation":
        argv += ["--densities", "4"]
    elif command == "diagnose":
        argv += ["--check", selector, "--n-list", "8,16"]
        argv += [] if selector == "sawtooth_bound" else ["--Kcap", "64"]
    else:
        argv += ["--method", selector, "--Kcap", "64"]
        # a flag that may not join another replaces it
        argv += [] if flag in ("--n0", "--nmax") else ["--n-list", "8,16"]
        argv += [] if flag == "--grid" else ["--points=0.5"]
    return argv


@pytest.mark.parametrize("command, selector", _CASES)
def test_each_flag_is_read_or_rejected_as_the_matrix_says(
    capsys, tmp_path, saw_spec, command, selector
):
    column = _COLUMNS.index(selector or command)
    what = {"detect": "--method", "table": "--method", "diagnose": "--check"}.get(command)
    what = f"{what} {selector}" if what else command
    for flag, row in _READS.items():
        reads = row.replace("|", "")[column] == "x"
        argv = _base(command, selector, saw_spec, flag)
        if flag not in argv:
            if flag == "--strict":
                argv.append(flag)
            elif flag == "--out":
                argv += [flag, str(tmp_path / "out.txt")]
            else:
                argv.append(f"{flag}={_VALUES[flag]}")
        rc, out, err = run_cli(capsys, *argv)
        if reads:
            assert "does not use" not in err, (flag, err)
            # a read flag may still fail later, on one error line
            assert rc != 1 or len(err.splitlines()) == 1, (flag, err)
        else:
            assert (rc, out, err) == (1, "", f"error: {what} does not use {flag}\n"), flag


@pytest.mark.parametrize(
    "command, selector, message",
    [
        ("coeffs", None, "coeffs on a series input does not use --Kcap"),
        ("detect", "fejer", "--method fejer on a series input does not use --Kcap"),
        ("table", "cesaro", "--method cesaro on a series input does not use --Kcap"),
        ("detect", "integrated", None),
        ("table", "conjugate", None),
        ("detect", "chebyshev", "input series is not a Chebyshev series"),
        ("variation", None, "variation does not use --Kcap"),
        ("diagnose", "v2", "--check v2 on a series input does not use --Kcap"),
        ("diagnose", "sn", "--check sn on a series input does not use --Kcap"),
        ("diagnose", "parseval", "the increment check needs a function spec input"),
        ("diagnose", "sawtooth_bound", "--check sawtooth_bound does not use --Kcap"),
    ],
)
def test_on_a_series_input_only_the_tail_methods_read_kcap(
    capsys, saw_json, command, selector, message
):
    argv = _base(command, selector, saw_json, "--Kcap")
    argv = [a for a in argv if a not in ("--Kcap", "64")] + ["--Kcap", "500"]
    rc, out, err = run_cli(capsys, *argv)
    if message is None:
        assert rc == 0 and "does not use" not in err
    else:
        assert (rc, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ("--command", "coeffs"),
    ("--command", "detect", "--method", "fejer", "--points=0.5", "--n-list", "8,16"),
    ("--command", "diagnose", "--check", "v2", "--n-list", "8,16"),
])
def test_a_kcap_equal_to_the_stored_k_changes_nothing(capsys, saw_json, argv):
    expected = run_cli(capsys, *argv, "--input", saw_json)
    assert expected[0] == 0
    assert run_cli(capsys, *argv, "--input", saw_json, "--Kcap", "1000") == expected


@pytest.mark.parametrize(
    "argv, message",
    [
        # flags that used to be ignored
        (("coeffs", "SPEC", "--Kcap", "8", "--points=1", "--n-list", "5", "--grid", "4"),
         "coeffs does not use --points"),
        (("variation", "SPEC", "--densities", "8", "--method", "integrated", "--r", "2",
          "--Kcap", "3", "--points=1"),
         "variation does not use --method"),
        (("detect", "SPEC", "--method", "integrated", "--points=1", "--n-list", "10",
          "--densities", "8", "--check", "parseval"),
         "--method integrated does not use --check"),
        (("diagnose", "SPEC", "--check", "v2", "--basis", "chebyshev"),
         "--check v2 does not use --basis"),
        # flags that used to override each other
        (("detect", "SPEC", "--points=1", "--grid", "5"), "give --points or --grid, not both"),
        (("table", "SPEC", "--grid", "5", "--points=1"), "give --points or --grid, not both"),
        (("detect", "SPEC", "--n-list", "10", "--n0", "7", "--nmax", "3"),
         "give --n-list or --n0, not both"),
        (("detect", "SPEC", "--n-list", "10", "--nmax", "30"),
         "give --n-list or --nmax, not both"),
        # a --Kcap no one reads
        (("detect", "JSON", "--method", "fejer", "--points=1", "--n-list", "10", "--Kcap", "5"),
         "--method fejer on a series input does not use --Kcap"),
        (("diagnose", "JSON", "--check", "v2", "--n-list", "10", "--Kcap", "5"),
         "--check v2 on a series input does not use --Kcap"),
        (("diagnose", None, "--check", "sawtooth_bound", "--n-list", "5", "--Kcap", "5"),
         "--check sawtooth_bound does not use --Kcap"),
        # the n-schedule, the basis, the evaluation points
        (("detect", "SPEC", "--n-list", "20,10"), "--n-list must be strictly increasing"),
        (("detect", "SPEC", "--n-list", "0,10"), "n values must be >= 1"),
        (("detect", "SPEC", "--n0", "0"), "--n0 must be >= 1"),
        (("detect", "SPEC", "--n0", "50", "--nmax", "10"), "--nmax must be >= --n0"),
        (("detect", "SPEC", "--method", "chebyshev", "--basis", "fourier"),
         "--method chebyshev requires --basis chebyshev"),
        (("detect", "SPEC", "--method", "fejer", "--basis", "chebyshev"),
         "--method fejer requires Fourier coefficients"),
        (("detect", "LINE", "--Kcap", "64", "--n-list", "8"),
         "no breakpoints declared; give --points or --grid to choose evaluation locations"),
        (("detect", "JSON", "--n-list", "8"),
         "series input carries no breakpoints; give --points or --grid"),
        # the kind of input, the grid densities
        (("variation", "JSON"), "variation analysis needs a function spec, not a series"),
        (("variation", "SPEC", "--densities", "1,8"), "densities must be >= 2"),
        (("diagnose", "JSON", "--check", "parseval", "--n-list", "2"),
         "the increment check needs a function spec input"),
    ],
)
def test_bad_flags_and_inputs_exit_1_with_one_line(
    capsys, tmp_path, saw_spec, saw_json, argv, message
):
    command, source, *flags = argv
    line = tmp_path / "line.spec"
    line.write_text("domain [-pi, pi]; piece x\n", encoding="utf-8")
    inputs = {"SPEC": saw_spec, "JSON": saw_json, "LINE": str(line)}
    source = ("--input", inputs[source]) if source else ()
    rc, out, err = run_cli(capsys, "--command", command, *source, *flags)
    assert (rc, out, err) == (1, "", f"error: {message}\n")


def test_an_unreadable_input_exits_1_with_one_line(capsys, tmp_path):
    missing = str(tmp_path / "missing.spec")
    rc, out, err = run_cli(capsys, "--command", "detect", "--input", missing)
    reason = f"[Errno 2] No such file or directory: {missing!r}"
    assert (rc, out, err) == (1, "", f"error: cannot read {missing}: {reason}\n")


@pytest.mark.parametrize(
    "config, message",
    [
        (specjump.RunConfig("bogus"), "unknown command 'bogus'"),
        (specjump.RunConfig("detect", method="bogus"), "unknown method 'bogus'"),
    ],
)
def test_run_rejects_an_unknown_command_or_method(capsys, config, message):
    assert specjump.run(config) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_run_rejects_an_unread_field_as_the_command_line_does(capsys, saw_spec):
    config = specjump.RunConfig("diagnose", input=saw_spec, check="sn", n0=5)
    assert specjump.run(config) == 1
    assert capsys.readouterr() == ("", "error: --check sn does not use --n0\n")


def test_detect_cesaro_rows_are_cesaro_jump_bit_for_bit(capsys, saw_spec):
    rc, out, err = run_cli(
        capsys, "--command", "detect", "--input", saw_spec, "--method", "cesaro",
        "--alpha", "2", "--Kcap", "256", "--n-list", "16,32", "--points=0.0",
    )
    assert (rc, err) == (0, "")
    series = fourier_coefficients(parse_function_spec(SAWTOOTH_SPEC), 256)
    expected = [f"0.0,{n},{cesaro_jump(series, 0.0, 2.0, n).value!r}" for n in (16, 32)]
    assert [",".join(line.split(",")[:3]) for line in out.splitlines()[1:]] == expected
    assert all(math.isfinite(float(line.split(",")[2])) for line in out.splitlines()[1:])


def test_the_readme_flag_table_matches_the_parser():
    # the README is a copy of the table; this keeps the two from drifting
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    header = "| flag | " + " | ".join(cli._COMMANDS) + " |"
    rows = text[text.index(header):].split("\n\n")[0].splitlines()[2:]
    documented = {}
    for row in rows:
        cells = [c.strip() for c in row.strip("|").split("|")]
        documented[cells[0].strip("`")] = cells[1:]
    selectors = {"detect": ("--method", cli._METHODS), "table": ("--method", cli._METHODS),
                 "diagnose": ("--check", cli._CHECKS)}
    parsed = {}
    for option, _, readers in cli._FLAGS:
        cells = []
        for command in cli._COMMANDS:
            if readers is None or command in readers:
                cells.append("yes")
                continue
            prefix, names = selectors.get(command, ("", ()))
            cells.append(", ".join(n for n in names if f"{prefix} {n}" in readers))
        parsed[option] = cells
    assert list(documented) == list(parsed)
    assert documented == parsed
