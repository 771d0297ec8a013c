"""The specjump benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload tail_scan --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src. The run:

1. with --trace 0, times `import specjump` in SETUP_RUNS fresh
   interpreters before the workload and as many after it (setup_s is the
   median of all of them, so that the host's drift over the run averages
   out);
2. writes the workload's seeded inputs into a scratch directory under
   .perfbench_work/ (workloads.py);
3. runs the workload in one child process (child.py): one untimed warm-up
   pass, then timed passes over the invocation list for --seconds, every
   output checked. With --trace 1, traced passes alternate with untraced
   ones and the per-layer metrics come from the traced passes (tracing.py);
4. prints a record line (machine, BLAS set-up, per-pass times), then, as
   the last line, one JSON object with `correct`, `attempted`, `failed` and
   the metrics named in BENCHMARK.json (end_to_end with --trace 0, per_layer
   with --trace 1). The end-to-end times are means over the timed passes,
   not medians: the host's speed jumps between plateaus that last tens of
   seconds, and over a run's four to eight passes the mean varied less from
   run to run than the median did. The per-layer metrics are medians over
   the traced passes.

Exits 2 without a result when ./src/specjump is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 8  # imports timed before the workload, and again after it
SETUP_RESERVE_S = 20.0  # run time kept for the imports after the workload
INVOCATION_LIMIT_S = 30.0  # one CLI call past this counts as failed
RUN_LIMIT_S = 170.0  # the whole run, set-up included, ends before this
MODULES = ("__init__", "chebyshev", "cli", "coefficients", "funcspec", "summability",
           "tails", "variation")


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    # one BLAS thread, whatever the caller's environment: a second thread made
    # no pass faster, but spun a second core of the shared host after every
    # call. The count found is recorded.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


_IMPORT = "import time; t = time.perf_counter(); import specjump; print(time.perf_counter() - t)"


def time_import(env: dict) -> float:
    """Seconds a fresh interpreter spends in `import specjump` (numpy and the
    BLAS set-up included; interpreter start-up, which the package cannot
    change, left out)."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"import specjump failed:\n{proc.stderr}")
    return float(proc.stdout)


def run_child(plan_path: str, env: dict, timeout: float) -> tuple[list[dict], str]:
    """Lines the child printed, and why it stopped early ("" if it did not)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), plan_path]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
        out, problem = proc.stdout, "" if proc.returncode == 0 else f"exit status {proc.returncode}"
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout or ""
        out = out.decode() if isinstance(out, bytes) else out
        problem = f"killed after {timeout:.0f} s"
    return [json.loads(ln) for ln in out.splitlines() if ln.startswith("{")], problem


def src_lines(root: str) -> dict:
    pkg = os.path.join(root, "src", "specjump")

    def count(name):
        path = os.path.join(pkg, name)
        if not os.path.exists(path):
            return 0
        with open(path, "rb") as fh:
            return fh.read().count(b"\n")

    out = {f"{'specjump' if m == '__init__' else m}.src_lines": count(f"{m}.py") for m in MODULES}
    out["src.total_lines"] = sum(count(n) for n in os.listdir(pkg) if n.endswith(".py"))
    return out


def end_to_end(timed, setup, summary, attempted, failed) -> dict:
    walls = [p["wall"] for p in timed]
    return {
        "wall_s": statistics.fmean(walls),
        # the invocation whose mean time over the passes is longest
        "slowest_invocation_s": max(statistics.fmean(t) for t in zip(*(p["times"] for p in timed))),
        "results_per_s": sum(p["rows"] for p in timed) / sum(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": summary.get("peak_rss_kb", 0) / 1024.0,
        "passed_frac": 1.0 - failed / attempted,
    }


def per_layer(timed, summary, root) -> dict:
    traced = [p for p in timed if p["traced"]]
    plain = [p for p in timed if not p["traced"]]
    m = tracing.median_metrics([p["layers"] for p in traced])
    m["trace.overhead_frac"] = (
        statistics.median(p["wall"] for p in traced) / statistics.median(p["wall"] for p in plain) - 1.0
    )
    m["machine.nproc"] = len(os.sched_getaffinity(0))
    m["machine.blas_threads"] = summary.get("blas", {}).get("threads") or 0
    m.update(src_lines(root))
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = ap.parse_args(argv)
    started = time.perf_counter()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "specjump", "__init__.py")):
        print("error: run from the repository root; src/specjump is missing", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    env = child_env(root)
    setup = [] if args.trace else [time_import(env) for _ in range(SETUP_RUNS)]

    plan = workloads.make_plan(args.workload, args.seed, args.size)
    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for name, text in plan["files"].items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        plan.update(workdir=workdir, seconds=args.seconds, trace=bool(args.trace),
                    limit=INVOCATION_LIMIT_S, min_passes=2 if args.trace else 1)
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        lines, stopped = run_child(
            plan_path, env, RUN_LIMIT_S - SETUP_RESERVE_S - (time.perf_counter() - started)
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        setup += [time_import(env) for _ in range(SETUP_RUNS)]

    passes = [ln for ln in lines if "wall" in ln]
    summary = next((ln for ln in lines if ln.get("done")), {})
    if not passes:
        print(f"error: the workload produced no pass ({stopped or 'no output'})", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes) + (1 if stopped else 0)
    failed = sum(p["failed"] for p in passes) + (1 if stopped else 0)
    timed = [p for p in passes if not p["warmup"]] or passes
    for message in dict.fromkeys(m for p in passes for m in p["failures"]):
        print(f"failed: {message}", file=sys.stderr)
    if stopped:
        print(f"failed: workload process {stopped}", file=sys.stderr)

    if args.trace and any(p["traced"] for p in timed) and any(not p["traced"] for p in timed):
        values = per_layer(timed, summary, root)
    elif args.trace:
        print("error: the traced run needs a traced and an untraced pass", file=sys.stderr)
        return 1
    else:
        values = end_to_end(timed, setup, summary, attempted, failed)

    record = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
              **summary.get("blas", {}), "pass_walls": [p["wall"] for p in timed],
              "pass_times": [p["times"] for p in timed]}
    print(json.dumps({"record": record}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
