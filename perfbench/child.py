"""Runs one workload plan in this process and prints one JSON line per pass.

    python perfbench/child.py PLAN_JSON

The plan (see workloads.py) is executed from its work directory. The child
builds the plan's series files, runs one untimed warm-up pass, then timed
passes while one more pass, as long as the last, fits in `seconds` (so a run
ends on time whatever the pass length). With `trace` set, traced and untraced
passes alternate. Every pass is checked: the warm-up pass in full, and a
later pass in full only when its output bytes differ from the warm-up's (the
checks read nothing else, so equal bytes get the same verdict, without
re-parsing an 11 MB series file per pass). The last line is a summary with the
BLAS set-up found and the peak RSS through the warm-up pass, taken before
the checks (which hold whole outputs in memory) can raise it.

Invocations call `specjump.cli.main` in-process, one after another: a closed
loop with one client and no threads of its own.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import gc
import hashlib
import io
import json
import math
import os
import resource
import signal
import sys
import time

import tracing

ERROR_LIMIT = 5  # failure messages kept per pass


class InvocationTimeout(BaseException):
    """One invocation ran past its time limit (a BaseException, so the CLI's
    own handlers cannot swallow it)."""


class Deadline:
    """Interrupts the body with InvocationTimeout after `seconds`."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.armed = False

    def _fire(self, signum, frame):
        if self.armed:
            raise InvocationTimeout

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._fire)
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        return False


def run_invocation(cli, argv, limit):
    """Runs one CLI call; returns its outputs, time and any hard error."""
    out, err = io.StringIO(), io.StringIO()
    status, error = None, None
    start = time.perf_counter()
    try:
        with Deadline(limit), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    except InvocationTimeout:
        error = f"ran longer than the {limit:g} s limit"
    except Exception as exc:  # a CLI user would see a traceback
        error = f"traceback: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return {"argv": argv, "status": status, "error": error, "seconds": elapsed,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_pass(cli, plan, limit):
    gc.collect()
    start = time.perf_counter()
    results = [run_invocation(cli, inv["argv"], limit) for inv in plan["invocations"]]
    wall = time.perf_counter() - start
    for inv, res in zip(plan["invocations"], results):
        path = inv["expect"].get("out")
        res["file"] = _read(path) if path and os.path.exists(path) else ""
    return wall, results


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _table(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0] if rows else [], rows[1:]


def _finite(cell):
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def check_detect(expect, res, results):
    header, rows = _table(res["stdout"])
    if header != ["x", "n", "estimate", "true_jump", "abs_error"]:
        return [f"unexpected header {header}"]
    problems = []
    if len(rows) != expect["rows"]:
        problems.append(f"{len(rows)} rows, expected {expect['rows']}")
    numeric = range(5) if expect["truth"] else range(3)
    if any(not _finite(row[i]) for row in rows for i in numeric):
        problems.append("non-finite number in the output")
        return problems
    nmax = max((int(row[1]) for row in rows), default=0)
    last = {float(row[0]): row for row in rows if int(row[1]) == nmax}
    for x, jump, tol in expect["jumps"]:
        row = last.get(x)
        if row is None:
            problems.append(f"no row at declared jump x={x!r}")
            continue
        if abs(float(row[3]) - jump) > 1e-9 * (1.0 + abs(jump)):
            problems.append(f"true_jump {row[3]} at x={x!r}, generated {jump!r}")
        if abs(float(row[2]) - jump) > tol:
            problems.append(f"estimate {row[2]} at x={x!r}, n={nmax} misses {jump:.6g} by more than {tol:.3g}")
    if "same_as" in expect:
        _, ref = _table(results[expect["same_as"]]["stdout"])
        want = {(r[0], r[1]): r[2] for r in ref}
        if any(want.get((r[0], r[1])) != r[2] for r in rows):
            problems.append("estimates from the series file differ from those from the spec")
    return problems


def check_coeffs(expect, res, specjump):
    text = res["file"] if "out" in expect else res["stdout"]
    try:
        obj = json.loads(text)
        series = specjump.series_from_json(text)
    except ValueError as exc:
        return [f"series JSON does not load: {exc}"]
    values = obj.get("a", []) + obj.get("b", []) + obj.get("c", [])
    if "a0_half" in obj:
        values.append(obj["a0_half"])
    problems = []
    if len(values) != expect["rows"]:
        problems.append(f"{len(values)} coefficients, expected {expect['rows']}")
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite coefficient")
    if specjump.series_to_json(series) + "\n" != text:
        problems.append("series JSON does not round-trip bit-exact")
    if "equals" in expect and _read(expect["equals"]) != text:
        problems.append(f"export differs from {expect['equals']}")
    return problems


def check_variation(expect, res):
    text = res["stdout"]
    first = text.split("\n", 1)[0]
    header, rows = _table(text)
    problems = []
    if header != ["functional", "parameter", "grid_density", "value"]:
        return [f"unexpected header {header}"]
    if len(rows) != expect["rows"]:
        problems.append(f"{len(rows)} rows, expected {expect['rows']}")
    if not all(_finite(row[3]) for row in rows):
        problems.append("non-finite number in the output")
    label = first.removeprefix("# suggested_class=")
    name, *bounds = expect["label"]
    got_name, _, param = label.partition("(p=")
    if got_name != name:
        problems.append(f"suggested_class {label}, expected {name}")
    elif bounds and not bounds[0] <= float(param.rstrip(")")) <= bounds[1]:
        problems.append(f"suggested_class {label} outside p in {bounds}")
    return problems


def check(plan, results, specjump):
    """Failure messages per invocation; an empty list means it passed."""
    failures = []
    for inv, res in zip(plan["invocations"], results):
        expect = inv["expect"]
        if res["error"]:
            problems = [res["error"]]
        elif res["status"] != 0:
            problems = [f"exit status {res['status']}: {res['stderr'].strip()[-200:]}"]
        elif "Traceback" in res["stderr"]:
            problems = ["traceback on stderr"]
        elif expect["kind"] == "detect":
            problems = check_detect(expect, res, results)
        elif expect["kind"] == "coeffs":
            problems = check_coeffs(expect, res, specjump)
        else:
            problems = check_variation(expect, res)
        failures.append(problems)
    return failures


def digest(res):
    """Everything `check` reads of one invocation's result."""
    fields = (str(res["status"]), res["error"] or "", res["stdout"], res["stderr"], res["file"])
    return hashlib.sha256("\0".join(fields).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------

def blas_record():
    """Library, thread count and core type of the OpenBLAS numpy loaded."""
    import numpy

    record = {"numpy": numpy.__version__, "library": None, "threads": None, "corename": None,
              "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE")}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if threads is None:
                continue
            threads.restype, threads.argtypes = ctypes.c_int, []
            corename = getattr(lib, f"{prefix}_get_corename{suffix}")
            corename.restype, corename.argtypes = ctypes.c_char_p, []
            record.update(library=os.path.basename(path), threads=threads(),
                          corename=corename().decode())
            return record
    return record


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(plan_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    os.chdir(plan["workdir"])
    import specjump
    from specjump import cli

    for item in plan["series"]:
        f = specjump.parse_function_spec(_read(item["spec"]))
        build = getattr(specjump, f"{item['basis']}_coefficients")
        with open(item["path"], "w", encoding="utf-8") as fh:
            fh.write(specjump.series_to_json(build(f, item["K"])) + "\n")

    tracer = tracing.Tracer()
    reference = None
    elapsed, index, wall = 0.0, 0, 0.0
    while index < 1 + plan["min_passes"] or elapsed + wall <= plan["seconds"]:
        traced = plan["trace"] and index % 2 == 0 and index > 0
        with tracer.installed() if traced else contextlib.nullcontext():
            wall, results = run_pass(cli, plan, plan["limit"])
        if index > 0:
            elapsed += wall
        else:
            # the program's own peak: set-up and one pass, before any check
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        digests = [digest(r) for r in results]
        if reference is None:
            reference, verdicts = digests, check(plan, results, specjump)
        if digests == reference:
            failures = [list(ps) for ps in verdicts]
        else:
            failures = check(plan, results, specjump)
            for problems, got, want in zip(failures, digests, reference):
                if not problems and got != want:
                    problems.append("output bytes differ from the warm-up pass")
        messages = [f"{' '.join(r['argv'][:6])}: {p}" for r, ps in zip(results, failures) for p in ps]
        line = {
            "warmup": index == 0,
            "traced": traced,
            "wall": wall,
            "times": [r["seconds"] for r in results],
            # output data rows: estimates, coefficients or functional values
            "rows": sum(i["expect"]["rows"] for i, r in zip(plan["invocations"], results)
                        if not r["error"] and r["status"] == 0),
            "attempted": len(results),
            "failed": sum(1 for ps in failures if ps),
            "failures": messages[:ERROR_LIMIT],
        }
        if traced:
            line["layers"] = tracing.pass_metrics(tracer.take(), results, wall)
        emit(line)
        index += 1
    emit({"done": True, "peak_rss_kb": peak_rss_kb, "blas": blas_record()})


if __name__ == "__main__":
    main(sys.argv[1])
