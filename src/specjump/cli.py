"""Batch front end: parse inputs, run detectors and diagnostics, emit tables.

Input is either a function-spec text file (funcspec grammar) or a series
JSON file (coefficients module).  Output is CSV or JSON with repr-formatted
floats and sorted rows, so identical inputs produce byte-identical files.

Exit codes: 0 success, 1 validation, parse, arithmetic or accuracy error,
2 precision failure (PrecisionWarning raised anywhere and --strict given).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import chebyshev as chebmod
from .coefficients import (
    AccuracyError,
    ChebyshevSeries,
    FourierSeries,
    _closed_form_polys,
    chebyshev_coefficients,
    fourier_coefficients,
    series_from_json,
    series_to_json,
)
from .funcspec import PiecewiseFunction, _limits, _one_sided, eval_expr_array, parse_function_spec
from .summability import _fejer_mean, cesaro_jump, fejer_jump
from .tails import (
    _METHODS as _ESTIMATORS,
    PrecisionWarning,
    TailSumConfig,
    _resolve_K,
    jump_from_conjugate,
    jump_from_integrated,
    parseval_increment_check,
    v2_tail_diagnostic,
)
from .variation import SampleSequence, build_report, classify

__all__ = ["RunConfig", "run", "sample_for_variation", "main", "entry"]

_COMMANDS = ("coeffs", "detect", "table", "variation", "diagnose")
_METHODS = tuple(m.removesuffix("_tail") for m in _ESTIMATORS)
_CHECKS = ("v2", "parseval", "sn", "sawtooth_bound")
_JUMP = ("detect", "table")


class _ValidationError(ValueError):
    """Bad configuration or input; maps to exit status 1."""


@dataclass
class RunConfig:
    """Everything one invocation needs; the flag parser fills one of these.

    None means not given, for every field; the code that reads a field supplies
    its default (method fejer, basis auto, n0 25, nmax 400, check v2, alpha 1.0, fmt csv).
    """

    command: str
    input: Optional[str] = None
    method: Optional[str] = None
    basis: Optional[str] = None  # auto | fourier | chebyshev
    r: Optional[int] = None
    alpha: Optional[float] = None
    n0: Optional[int] = None
    nmax: Optional[int] = None
    points: Optional[list[float]] = None
    grid: Optional[int] = None
    K_cap: Optional[int] = None
    out: Optional[str] = None
    fmt: Optional[str] = None
    strict: bool = False
    check: Optional[str] = None
    n_list: Optional[list[int]] = None
    densities: Optional[list[int]] = None


# ---------------------------------------------------------------------------
# Input loading and series construction
# ---------------------------------------------------------------------------

def _load(config: RunConfig):
    """Returns (f, series) with f None for JSON input, series None for specs."""
    if config.input is None:
        raise _ValidationError("--input is required for this command")
    try:
        with open(config.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _ValidationError(f"cannot read {config.input}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return None, series_from_json(text)
    return parse_function_spec(text), None


def _n_schedule(config: RunConfig) -> list[int]:
    if config.n_list is not None:
        ns = list(config.n_list)
        for other in ("n0", "nmax"):
            if getattr(config, other) is not None:
                raise _ValidationError(f"give --n-list or --{other}, not both")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise _ValidationError("--n-list must be strictly increasing")
        if ns[0] < 1:
            raise _ValidationError("n values must be >= 1")
        return ns
    n0 = 25 if config.n0 is None else config.n0
    nmax = 400 if config.nmax is None else config.nmax
    if n0 < 1:
        raise _ValidationError("--n0 must be >= 1")
    if nmax < n0:
        raise _ValidationError("--nmax must be >= --n0")
    ns = [n0]
    while ns[-1] * 2 <= nmax:
        ns.append(ns[-1] * 2)
    return ns


def _resolve_basis(config: RunConfig, series) -> str:
    method, basis = config.method or "fejer", config.basis or "auto"
    if basis == "auto":
        if isinstance(series, ChebyshevSeries) or method == "chebyshev":
            basis = "chebyshev"
        else:
            basis = "fourier"
    if method == "chebyshev" and basis != "chebyshev":
        raise _ValidationError("--method chebyshev requires --basis chebyshev")
    if method != "chebyshev" and basis == "chebyshev":
        raise _ValidationError(f"--method {method} requires Fourier coefficients")
    return basis


def _default_K(f: PiecewiseFunction, config: RunConfig, nmax: int) -> int:
    if config.K_cap is not None:
        return config.K_cap
    # closed forms are cheap; quadrature cost grows with K, so cap it harder
    if _closed_form_polys(f) is not None:
        return max(200_000, 4 * nmax)
    return max(4096, 4 * nmax)


def _series_for(config: RunConfig, f, series, basis: Optional[str], nmax: int):
    if series is not None:
        # a stored series keeps its own K; only the tail sums read another cutoff
        if config.K_cap not in (None, series.K) and config.method in (None, "fejer", "cesaro"):
            raise _ValidationError(f"{_reader(config)} on a series input does not use --Kcap")
        if basis == "chebyshev" and not isinstance(series, ChebyshevSeries):
            raise _ValidationError("input series is not a Chebyshev series")
        if basis == "fourier" and not isinstance(series, FourierSeries):
            raise _ValidationError("input series is not a Fourier series")
        return series
    K = _default_K(f, config, nmax)
    if basis == "chebyshev":
        return chebyshev_coefficients(f, K)
    return fourier_coefficients(f, K)


def _eval_points(config: RunConfig, f, series, basis: str) -> list[float]:
    if config.points is not None and config.grid is not None:
        raise _ValidationError("give --points or --grid, not both")
    if config.points is not None:
        pts = sorted(set(config.points))
    elif config.grid is not None:
        if config.grid < 2:
            raise _ValidationError("--grid must be >= 2")
        if f is not None:
            lo, hi = f.domain
        elif basis == "chebyshev":
            lo, hi = -1.0, 1.0
        else:
            lo, hi = 0.0, 2.0 * math.pi
        span = hi - lo
        margin = 1e-6 * span
        pts = np.linspace(lo + margin, hi - margin, config.grid).tolist()
    elif f is not None:
        pts = list(f.breakpoints)
        if f.periodic and basis == "fourier":
            pts = [f.domain[0]] + pts
        if not pts:
            raise _ValidationError(
                "no breakpoints declared; give --points or --grid to choose "
                "evaluation locations"
            )
    else:
        raise _ValidationError("series input carries no breakpoints; give --points or --grid")
    return pts


def _estimator(config: RunConfig, series, basis: str, ns: Sequence[int]):
    method = config.method or "fejer"
    if method == "fejer":
        return lambda x, n: fejer_jump(series, x, n)
    if method == "cesaro":
        alpha = 1.0 if config.alpha is None else config.alpha
        return lambda x, n: cesaro_jump(series, x, alpha, n)
    if method in ("integrated", "conjugate"):
        conjugate = method == "conjugate"
        jump = jump_from_conjugate if conjugate else jump_from_integrated
        # by default the least order each tail admits
        r = config.r if config.r is not None else int(conjugate)
        cfg = TailSumConfig(K_cap=config.K_cap)
        p = 2 * r + (0 if conjugate else 1)
        try:  # n^p and K^(p - 1) must be floats; an n past K_cap stops here, its tail says so
            for n in ns:
                K = _resolve_K(series, n, cfg)
                float(n) ** p, float(K) ** (p - 1)
        except ValueError:
            pass
        except OverflowError:
            msg = f"--r {r} is too large: {n}^{p} or {K}^{p - 1} overflows a float"
            raise _ValidationError(msg) from None
        return lambda x, n: jump(series, x, r, n, cfg)
    # chebyshev
    return lambda x, n: chebmod.jump_from_chebyshev(
        series, x, chebmod.ChebyshevTailConfig(n=n, K_cap=config.K_cap)
    )


def _flag_divergence(x: float, estimates: Sequence[float]) -> None:
    mags = [abs(v) for v in estimates]
    if len(mags) < 3 or mags[0] <= 0.0 or mags[-1] < 1e-9:
        return
    if mags[-1] >= 1.25 * mags[0]:
        increases = sum(1 for a, b in zip(mags, mags[1:]) if b > a)
        if increases >= 0.7 * (len(mags) - 1):
            warnings.warn(
                f"estimates at x={x!r} grow with n instead of converging; the "
                "series may not come from a regulated function or the method "
                "assumptions fail here",
                PrecisionWarning,
                stacklevel=2,
            )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_coeffs(config: RunConfig) -> str:
    if config.fmt == "csv":
        raise _ValidationError("coeffs writes series JSON; it has no --format csv")
    f, series = _load(config)
    if series is not None:
        # a given --basis must match the series, as it must for detect
        series = _series_for(config, f, series, config.basis, 0)
    else:
        K = config.K_cap if config.K_cap is not None else 1000
        build = chebyshev_coefficients if config.basis == "chebyshev" else fourier_coefficients
        series = build(f, K)
    return series_to_json(series) + "\n"


def _jump_setup(config: RunConfig):
    """The set-up detect and table share, in the order its errors surface:
    input, basis, n-schedule, series, schedule against K, estimator and --r,
    points (one for table), true jumps.  Returns (ns, estimator, points,
    truths); the estimator rejects a non-finite estimate, naming its x and n,
    and a truth is nan for a series input."""
    f, series_in = _load(config)
    basis = _resolve_basis(config, series_in)
    ns = _n_schedule(config)
    series = _series_for(config, f, series_in, basis, ns[-1])
    if ns[-1] > series.K:
        raise _ValidationError(
            f"n-schedule reaches {ns[-1]} but the series stores only K={series.K} "
            "coefficients"
        )
    estimator = _estimator(config, series, basis, ns)

    def finite(x: float, n: int):
        est = estimator(x, n)
        if not math.isfinite(est.value):
            raise _ValidationError(f"the estimate at x={x!r}, n={n} is {est.value!r}, not finite")
        return est

    points = _eval_points(config, f, series_in, basis)
    if config.command == "table" and len(points) != 1:
        raise _ValidationError("table reports one location; give exactly one point")
    if f is None:  # a series file does not know its jumps
        truths = [math.nan] * len(points)
    else:
        left, right = _one_sided(f, points)
        truths = (right - left).tolist()
    return ns, finite, points, truths


def _cmd_detect(config: RunConfig) -> str:
    ns, estimator, points, truths = _jump_setup(config)
    rows = []
    for x, truth in zip(points, truths):
        ests = [estimator(x, n).value for n in ns]
        _flag_divergence(x, ests)
        for n, est in zip(ns, ests):
            rows.append((x, n, est, truth, abs(est - truth)))
    rows.sort(key=lambda row: (row[0], row[1]))
    return _table_text(config, ("x", "n", "estimate", "true_jump", "abs_error"), rows)


def _cmd_table(config: RunConfig) -> str:
    ns, estimator, points, truths = _jump_setup(config)
    x, truth = points[0], truths[0]
    ests = [estimator(x, n) for n in ns]
    _flag_divergence(x, [e.value for e in ests])
    method = config.method or "fejer"
    if method in ("fejer", "cesaro"):
        rows = [
            (n, method, e.alpha, e.value, truth, abs(e.value - truth))
            for n, e in zip(ns, ests)
        ]
        headers = ("n", "method", "alpha", "estimate", "true_jump", "abs_error")
    else:
        rows = [
            (n, e.r, e.method, e.value, truth, abs(e.value - truth), e.remainder_bound)
            for n, e in zip(ns, ests)
        ]
        headers = ("n", "r", "method", "estimate", "true_jump", "abs_error", "remainder_bound")
    return _table_text(config, headers, rows)


def sample_for_variation(f: PiecewiseFunction, density: int) -> SampleSequence:
    """Sample f for the variation analyzer: a uniform grid of `density`
    points, both one-sided values at every breakpoint (adjacent entries),
    and grid-detected local extrema of each piece.

    The values come from one funcspec._limits call: a domain edge takes the
    closure value of the edge piece (on a periodic domain as well, not the
    wrap-around), so lo takes its right value and every other point its left
    one, and a breakpoint gives its left value, then its right one.  A value
    that is not finite raises ValueError naming the piece and x.
    """
    if density < 2:
        raise ValueError("density must be >= 2")
    lo, hi = f.domain
    xs = set(np.linspace(lo, hi, density).tolist()) | set(f.breakpoints)
    for i, expr in enumerate(f.pieces):
        a, b = f.edges[i], f.edges[i + 1]
        scan = np.linspace(a, b, 32 * density + 2)[1:-1]
        ys = eval_expr_array(expr, scan)
        d = np.diff(ys)
        xs.update(scan[np.nonzero(d[:-1] * d[1:] < 0.0)[0] + 1].tolist())

    xs = np.array(sorted(xs))
    _, left, right = _limits(f, xs)
    at = np.searchsorted(xs, f.breakpoints)  # every breakpoint is a sample
    values = np.insert(np.where(xs == lo, right, left), at + 1, right[at])
    return SampleSequence(tuple(values.tolist()))


def _cmd_variation(config: RunConfig) -> str:
    f, series_in = _load(config)
    if f is None:
        raise _ValidationError("variation analysis needs a function spec, not a series")
    densities = config.densities if config.densities is not None else [8, 16, 32, 64]
    if any(d < 2 for d in densities):
        raise _ValidationError("densities must be >= 2")
    reports = []
    for d in sorted(set(densities)):
        s = sample_for_variation(f, d)
        reports.append(build_report(s, grid_density=d))
    label = classify(reports)
    rows = []
    for rep in reports:
        for p, val in rep.p_variation.items():
            rows.append(("p_variation", repr(float(p)), rep.grid_density, val))
        rows.append(("lambda_variation", "harmonic", rep.grid_density, rep.harmonic_variation))
        for m, val in enumerate(rep.modulus, start=1):
            rows.append(("modulus", str(m), rep.grid_density, val))
    rows.sort(key=lambda row: (row[0], row[1], row[2]))
    if config.fmt == "json":
        obj = {
            "suggested_class": str(label),
            "reports": [rep.to_json_obj() for rep in reports],
        }
        return json.dumps(obj, indent=2) + "\n"
    return _csv_text(
        ("functional", "parameter", "grid_density", "value"),
        rows,
        comments=[f"suggested_class={label}"],
    )


def _cmd_diagnose(config: RunConfig) -> str:
    ns = config.n_list if config.n_list is not None else [10, 100, 1000]
    check = config.check or "v2"
    if check == "sawtooth_bound":
        sups = chebmod.sawtooth_tail_bound_check(ns)
        return _table_text(config, ("n", "sup_n_times_tail"), list(zip(ns, sups)))
    f, series_in = _load(config)
    if check == "v2":
        series = _series_for(config, f, series_in, "fourier", max(ns))
        u = v2_tail_diagnostic(series, ns)
        return _table_text(config, ("n", "u_n"), list(zip(ns, u)))
    if check == "sn":
        if config.points is not None and len(set(config.points)) != 1:
            raise _ValidationError("--check sn reports one location; give exactly one point")
        x = 0.0 if config.points is None else config.points[0]
        series = _series_for(config, f, series_in, "fourier", max(ns))
        rows = []
        for n in ns:
            # s_n = -(1/n) sum k A_k: the Fejer mean, but an exact zero is -0.0
            s = _fejer_mean(series, x, n) or -0.0
            rows.append((n, s, math.pi * s))
        return _table_text(config, ("n", "s_n", "pi_s_n"), rows)
    # parseval
    if f is None:
        raise _ValidationError("the increment check needs a function spec input")
    series = _series_for(config, f, series_in, "fourier", max(ns))
    rows = []
    for n in ns:
        lhs, rhs = parseval_increment_check(f, series, n)
        rows.append((n, lhs, rhs, abs(lhs - rhs)))
    return _table_text(config, ("n", "lhs", "rhs", "abs_diff"), rows)


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------

def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _csv_text(headers, rows, comments: Optional[list[str]] = None) -> str:
    buf = io.StringIO()
    for c in comments or []:
        buf.write(f"# {c}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow([_fmt_cell(v) for v in row])
    return buf.getvalue()


def _json_cell(v):
    # JSON has no NaN or infinity; a non-finite cell is null
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _json_text(headers, rows) -> str:
    obj = {"columns": list(headers), "rows": [[_json_cell(v) for v in row] for row in rows]}
    return json.dumps(obj, indent=2) + "\n"


def _table_text(config: RunConfig, headers, rows) -> str:
    if config.fmt == "json":
        return _json_text(headers, rows)
    return _csv_text(headers, rows)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def _reader(config: RunConfig) -> str:
    """What reads the flags: the selector of detect, table and diagnose, else the command."""
    if config.command == "diagnose":
        return f"--check {config.check or 'v2'}"
    return f"--method {config.method or 'fejer'}" if config.command in _JUMP else config.command


def _check(config: RunConfig) -> None:
    """Rejects an unknown command or method, an empty list, a non-finite point,
    then the first flag (in _FLAGS order) given to what does not read it."""
    if config.command not in _COMMANDS:
        raise _ValidationError(f"unknown command {config.command!r}")
    if config.method is not None and config.method not in _METHODS:
        raise _ValidationError(f"unknown method {config.method!r}")
    # None means not given; an empty list is an error, as it is on the command line
    for flag, values in (("--points", config.points), ("--n-list", config.n_list),
                         ("--densities", config.densities)):
        if values is not None and not values:
            raise _ValidationError(f"{flag} is an empty list")
    bad = [x for x in config.points or () if not math.isfinite(x)]
    if bad:
        raise _ValidationError(f"--points must be finite, got {bad[0]!r}")
    reader = _reader(config)
    for option, kwargs, readers in _FLAGS:
        if readers is None or config.command in readers or reader in readers:
            continue
        if getattr(config, kwargs.get("dest", option[2:])) is not None:
            raise _ValidationError(f"{reader} does not use {option}")


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    handlers = {"coeffs": _cmd_coeffs, "detect": _cmd_detect, "table": _cmd_table,
                "variation": _cmd_variation, "diagnose": _cmd_diagnose}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            _check(config)
            text = handlers[config.command](config)
        except _ValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except (ValueError, ArithmeticError, AccuracyError) as exc:
            # an arithmetic error's message may not say what failed; its class does
            where = f"{config.input}: " if config.input else ""
            kind = "" if isinstance(exc, ValueError) else f"{type(exc).__name__}: "
            print(f"error: {where}{kind}{exc}", file=sys.stderr)
            return 1
    if config.out:
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    precision = [w for w in caught if issubclass(w.category, PrecisionWarning)]
    for w in precision:
        print(f"warning: {w.message}", file=sys.stderr)
    if config.strict and precision:
        return 2
    return 0


def _list(text: str, kind) -> list:
    # an empty list gets through; run() rejects it as it does a RunConfig's
    if not text.strip():
        return []
    tokens = text.split(",")
    if not all(tok.strip() for tok in tokens):
        raise argparse.ArgumentTypeError(f"empty entry in {text!r}")
    return [kind(tok) for tok in tokens]


def _float_list(text: str) -> list[float]:
    return _list(text, float)


def _int_list(text: str) -> list[int]:
    return _list(text, int)


# (option, argparse keywords, readers), in the order run() checks them: readers
# names commands and "--method m" or "--check c" selectors; None is every command.
_FLAGS = (
    ("--input", dict(help="function-spec file or series JSON file"), None),
    ("--command", dict(required=True, choices=_COMMANDS), None),
    ("--method", dict(choices=_METHODS), _JUMP),
    ("--basis", dict(choices=("auto", "fourier", "chebyshev")), ("coeffs", *_JUMP)),
    ("--r", dict(type=int, help="integration order"),
     ("--method integrated", "--method conjugate")),
    ("--alpha", dict(type=float, help="Cesaro order"), ("--method cesaro",)),
    ("--n0", dict(type=int, help="n-schedule start"), _JUMP),
    ("--nmax", dict(type=int, help="n-schedule cap (doubling)"), _JUMP),
    ("--points", dict(type=_float_list, help="comma-separated x values"),
     (*_JUMP, "--check sn")),
    ("--grid", dict(type=int, help="uniform x-grid size"), _JUMP),
    ("--Kcap", dict(type=int, dest="K_cap", help="coefficient cutoff"),
     ("coeffs", *_JUMP, "--check v2", "--check parseval", "--check sn")),
    ("--out", dict(help="output path (default stdout)"), None),
    ("--format", dict(choices=("csv", "json"), dest="fmt"), None),
    ("--strict", dict(action="store_true", help="precision warnings exit 2"), None),
    ("--check", dict(choices=_CHECKS, help="diagnose selector"), ("diagnose",)),
    ("--n-list", dict(type=_int_list, dest="n_list", help="explicit n values"),
     (*_JUMP, "diagnose")),
    ("--densities", dict(type=_int_list, help="variation grid densities"), ("variation",)),
)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser as it was.
    # RunConfig holds every default: a flag not given stays out of the namespace
    p = argparse.ArgumentParser(
        prog="specjump",
        description="Jump detection and variation analysis from coefficient data.",
        argument_default=argparse.SUPPRESS,
    )
    for option, kwargs, _ in _FLAGS:
        p.add_argument(option, **kwargs)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; usage errors are
        # validation failures here
        return 0 if exc.code == 0 else 1
    # every argparse dest is a RunConfig field
    return run(RunConfig(**vars(args)))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
