"""Self-tests of the benchmark: ``python -m pytest bench -q``."""

from __future__ import annotations

import inspect
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import metrics
import run
import tracer

BENCH = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = metrics.load_benchmark()
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
TINY = "0.01"


def _run(*argv, cwd=BENCH.parent):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc, proc.stdout.splitlines()


def test_names_follow_the_naming_rule():
    names = WORKLOADS + [
        m["name"] for key in ("end_to_end", "per_layer")
        for m in BENCHMARK[key]
    ]
    assert len(names) == len(set(names))
    for name in names + list(metrics.REPORT_ONLY):
        assert NAME.fullmatch(name), name
    assert sorted(WORKLOADS) == sorted(child.WORKLOADS)


def test_per_layer_list_matches_what_a_traced_round_reports():
    reported = set(tracer.Tracer().layer_metrics(1.0))
    reported |= {f"setup.{step}_ms" for step in child.SETUP_STEPS}
    reported.add("bench.trace_overhead")
    assert reported == {m["name"] for m in BENCHMARK["per_layer"]}
    for name in reported:
        assert name.split(".")[0] in metrics.LAYER_MOVES, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_workload_runs_at_a_tiny_size(workload, tmp_path):
    out = tmp_path / "result.json"
    proc, lines = _run("--workload", workload, "--scale", TINY,
                       "--seconds", "0", "--json", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(lines[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert set(line["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(v["value"] > 0 for v in line["metrics"].values())
    summary = json.loads(out.read_text())["workloads"][workload]
    assert summary["rounds"] >= run.MIN_ROUNDS
    assert summary["reference"] == "unchecked (scale≠1)"


@pytest.mark.parametrize("workload", ["table2-reg", "fig7-open"])
def test_traced_and_untraced_rounds_give_the_same_outputs(workload, tmp_path):
    out = tmp_path / "result.json"
    proc, lines = _run("--workload", workload, "--scale", TINY,
                       "--seconds", "0", "--trace", "1", "--json", str(out),
                       "--trace-dir", str(tmp_path / "spans"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(lines[-1])
    assert set(line["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    summary = json.loads(out.read_text())["workloads"][workload]
    assert summary["traced_rounds"] >= 1
    assert summary["rounds"] - summary["traced_rounds"] >= 1
    # One digest for all rounds, traced or not; a difference is a problem.
    assert summary["outputs_digest"] and not summary["problems"]
    assert list((tmp_path / "spans").glob(f"{workload}-*.jsonl"))


@pytest.mark.parametrize("workload", ["table2-idl", "fig7-closed"])
def test_tracing_restores_every_wrapped_function(workload):
    originals = [
        tracer._resolve(module, attribute)
        for module, attribute, __ in tracer.BOUNDARIES
    ]
    recorder = tracer.Tracer()
    recorder.install()
    try:
        for owner, name, raw in originals:
            assert inspect.getattr_static(owner, name) is not raw
        result = child.run_round(workload, 1, float(TINY), recorder)
    finally:
        recorder.uninstall()
    for owner, name, raw in originals:
        assert inspect.getattr_static(owner, name) is raw, name
    assert result["layers"]["bench.span_coverage"] > 0
    assert result["layers"]["system.acquire.count"] >= result["runs"]


def test_repro_variables_are_removed_from_child_environments(monkeypatch):
    monkeypatch.setenv("REPRO_TAIL_REPLAY", "0")
    monkeypatch.setenv("REPRO_SYSTEM_POOL", "0")
    env, removed = run.child_env()
    assert removed == ["REPRO_SYSTEM_POOL", "REPRO_TAIL_REPLAY"]
    assert not [name for name in env if name.startswith("REPRO_")]


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".trace"))
    proc, lines = _run("--workload", "table2-reg", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def test_verdicts_apply_bound_and_direction():
    assert metrics.verdict(100.0, 95.0, "higher", 0.10) == "within bound"
    assert metrics.verdict(100.0, 85.0, "higher", 0.10) == "REGRESSED"
    assert metrics.verdict(100.0, 85.0, "lower", 0.10) == "improved"
    assert metrics.verdict(0.5, 0.5, "higher", "exact") == "identical"
    assert metrics.verdict(0.5, 0.5000001, "higher", "exact") == "CHANGED"
    assert metrics.verdict(0.0, 0.01, "lower", "zero") == "REGRESSED"
