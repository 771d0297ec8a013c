"""Tests of the benchmark itself, at the smoke size.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(capsys, monkeypatch, *args):
    monkeypatch.chdir(ROOT)
    status = run.main(["--size", "smoke", "--seconds", "0.1", *args])
    out = capsys.readouterr().out.strip().splitlines()
    return status, json.loads(out[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_size_runs_every_workload(capsys, monkeypatch, workload):
    status, result = bench(capsys, monkeypatch, "--workload", workload, "--seed", "4")
    assert status == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_one_command_prints_every_declared_metric_with_its_unit(capsys, monkeypatch, trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    _, result = bench(capsys, monkeypatch, "--workload", "quadrature", "--seed", "1", "--trace", trace)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_a_wrong_expected_value_counts_as_failed(capsys, monkeypatch):
    make_plan = workloads.make_plan

    def wrong_plan(*args):
        plan = make_plan(*args)
        x, jump, tol = plan["invocations"][0]["expect"]["jumps"][0]
        plan["invocations"][0]["expect"]["jumps"][0] = [x, jump + 10 * tol, tol]
        return plan

    monkeypatch.setattr(workloads, "make_plan", wrong_plan)
    status, result = bench(capsys, monkeypatch, "--workload", "tail_scan", "--seed", "2")
    assert status == 0 and not result["correct"]
    assert result["failed"] == result["attempted"] // 5  # the first of five calls, every pass
    assert result["metrics"]["passed_frac"]["value"] == pytest.approx(0.8)


def _pass(tmp_path, monkeypatch, workload, traced):
    from specjump import cli

    plan = workloads.make_plan(workload, 3, "smoke")
    monkeypatch.chdir(tmp_path)
    for name, text in plan["files"].items():
        (tmp_path / name).write_text(text)
    tracer = tracing.Tracer()
    if traced:
        with tracer.installed():
            _, results = child.run_pass(cli, plan, 30.0)
    else:
        _, results = child.run_pass(cli, plan, 30.0)
    return results, tracer.take()


@pytest.mark.parametrize("workload", ["quadrature", "variation"])
def test_traced_output_bytes_equal_untraced(tmp_path, monkeypatch, workload):
    plain, no_spans = _pass(tmp_path, monkeypatch, workload, traced=False)
    traced, spans = _pass(tmp_path, monkeypatch, workload, traced=True)
    assert not no_spans and spans
    assert [child.digest(r) for r in traced] == [child.digest(r) for r in plain]
    assert all(r["status"] == 0 for r in traced)


def test_an_invocation_past_its_limit_fails_without_hanging(tmp_path, monkeypatch):
    from specjump import cli

    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.spec").write_text("domain [-pi, pi] periodic; piece exp(sin(x))\n")
    res = child.run_invocation(cli, ["--command", "coeffs", "--input", "f.spec", "--Kcap", "100000"], 0.2)
    assert res["error"] == "ran longer than the 0.2 s limit"
    assert res["seconds"] < 5.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tail_scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_a_traced_name_the_package_lacks_fails_the_traced_run(monkeypatch):
    monkeypatch.setattr(tracing, "TRACED", tracing.TRACED + (("tails", "no_such_function", "tails"),))
    with pytest.raises(AttributeError):
        with tracing.Tracer().installed():
            pass
    from specjump import cli

    assert not hasattr(cli.jump_from_integrated, "__wrapped__")  # the others were restored
