"""Metric definitions shared by ``run.py`` and ``compare.py``.

The end-to-end and per-layer lists live in ``BENCHMARK.json`` at the
repository root.  This module adds what that file has no field for:

* :data:`REPORT_ONLY` — end-to-end metrics that ``run.py`` prints and
  ``compare.py`` checks, but that stay out of ``BENCHMARK.json``: they
  exist on only some workloads, can read 0, or (the p90 and p99 tails)
  vary between seeds by more than a bound can absorb while the host
  drifts.  ``sim_*`` metrics are virtual time: pure functions of
  ``(spec, seed)``, so they must not move at all (``"exact"``).
* :data:`LAYER_MOVES` — for each layer, the end-to-end metric and
  workload its per-layer metrics should move, and where the layer does
  almost no work.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


#: Floats of virtual-time outcomes may differ in the last bit across libm
#: builds; anything larger is a behaviour change.
REL_EPS = 1e-9

#: name -> (unit, better, bound, clock).  A bound is a share of the base
#: value, ``"exact"`` (equal within :data:`REL_EPS`) or ``"zero"``.
REPORT_ONLY = {
    "run_wall_p90_ms": ("ms", "lower", 0.25, "host"),
    "run_wall_p99_ms": ("ms", "lower", 0.25, "host"),
    "failed_run_share": ("ratio", "lower", "zero", "-"),
    "sim_activation_ratio": ("ratio", "higher", "exact", "virtual"),
    "sim_recovery_rate": ("ratio", "higher", "exact", "virtual"),
    "sim_throughput_rps": ("req/s", "higher", "exact", "virtual"),
    "sim_goodput_rps": ("req/s", "higher", "exact", "virtual"),
    "sim_latency_p99_us": ("us", "lower", "exact", "virtual"),
    "sim_latency_p999_us": ("us", "lower", "exact", "virtual"),
}

#: Layer (first part of a per-layer metric name) -> (should move ...,
#: ~no work on).
LAYER_MOVES = {
    "setup": ("setup_s on fig7-*", "-"),
    "system": ("runs_per_s on table2-idl, table2-reg", "fig7-*"),
    "memory": ("runs_per_s on table2-idl, table2-reg", "fig7-*"),
    "workloads": ("runs_per_s on table2-*", "fig7-*"),
    "swifi": ("runs_per_s on table2-*", "fig7-*"),
    "kernel": ("runs_per_s on fig7-closed", "table2-reg"),
    "supertrace": (
        "runs_per_s, run_wall_p99_ms, peak_rss_mb on table2-reg",
        "fig7-* (no tails)",
    ),
    "stubs": ("runs_per_s on table2-reg, fig7-closed", "table2-idl"),
    "booter": ("runs_per_s on table2-reg", "table2-idl"),
    "component": ("runs_per_s on fig7-*", "table2-idl"),
    "fastpath": (
        "runs_per_s on fig7-*; compiles: run_wall_p99_ms on table2-reg",
        "table2-idl",
    ),
    "machine": ("runs_per_s on fig7-*", "table2-idl"),
    "trace_cache": ("runs_per_s on fig7-*", "-"),
    "webserver": ("runs_per_s on fig7-open", "table2-*"),
    "bench": ("- (tracing itself)", "-"),
}


def rule(name: str, benchmark: dict):
    """``(unit, better, bound, clock)`` of an end-to-end metric.

    Metrics of ``BENCHMARK.json`` are all host time.
    """
    for metric in benchmark["end_to_end"]:
        if metric["name"] == name:
            return metric["unit"], metric["better"], metric["bound"], "host"
    return REPORT_ONLY[name]


def verdict(base: float, new: float, better: str, bound) -> str:
    """Judge ``new`` against ``base`` under one metric's rule."""
    if bound == "exact":
        same = math.isclose(new, base, rel_tol=REL_EPS, abs_tol=REL_EPS)
        return "identical" if same else "CHANGED"
    if bound == "zero":
        return "within bound" if new == 0 else "REGRESSED"
    worse = (new - base) if better == "lower" else (base - new)
    share = worse / abs(base) if base else (math.inf if worse > 0 else 0.0)
    if share > bound:
        return "REGRESSED"
    if share < -bound:
        return "improved"
    return "within bound"
