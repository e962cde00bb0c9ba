"""Cold, paper-scale benchmark of the Table II and Fig. 7 campaigns.

Usage::

    python bench/run.py [--workload NAME] [--seed S] [--seconds N]
                        [--trace [0|1]] [--json OUT] [--scale F]

Every round of a workload is one fresh child process (``child.py``)
that sets the campaign up and runs it serially, the way a user runs it.
Rounds rotate across the selected workloads, and each workload takes
rounds until one more would exceed its ``--seconds`` budget (at least
:data:`MIN_ROUNDS`).  Throughput, setup and memory are medians over
rounds; per-run percentiles pool the per-run samples of all rounds.

With ``--trace`` the workload's rounds alternate untraced and traced
(``tracer.py``), and the per-layer metrics of the traced rounds are
printed instead of the end-to-end ones.

Outputs are checked three ways: every round must produce the same
outputs (a run whose output differs between rounds counts as failed),
the program's invariants must hold, and at seed 1 the outputs must
match ``bench/expected/``.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 0 only when the outputs are correct and no run failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import child
from metrics import LAYER_MOVES, REL_EPS, load_benchmark, rule

BENCH = Path(__file__).resolve().parent
EXPECTED = BENCH / "expected"

#: Fewest rounds per workload: outputs are compared between rounds.
MIN_ROUNDS = 2

#: Wall-clock limit for one invocation, children included.
DEADLINE_S = 170.0

#: Fewest pooled per-run samples for a p99 with ten samples beyond it.
P99_MIN_SAMPLES = 1000


def child_env():
    """The environment for children, without ``REPRO_*`` variables.

    Results always describe the program's default engine; returns the
    environment and the sorted names removed.
    """
    env = dict(os.environ)
    removed = sorted(name for name in env if name.startswith("REPRO_"))
    for name in removed:
        del env[name]
    return env, removed


def percentile(samples, q):
    """Nearest-rank percentile of ``samples`` (``0 < q <= 1``)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[rank - 1]


def run_child(argv, env, deadline):
    """Run one child to completion; its JSON result or ``{"error": ...}``."""
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        return {"error": "no time left before the deadline"}
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), *argv],
            env=env, stdout=subprocess.PIPE, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    if proc.returncode != 0:
        return {"error": f"child exited with code {proc.returncode}"}
    if "--import-only" in argv:
        return {}
    return json.loads(proc.stdout.splitlines()[-1])


def run_rounds(workloads, args, env, deadline):
    """Rotate rounds across ``workloads`` within each one's budget."""
    kinds = (False, True) if args.trace else (False,)
    min_rounds = max(MIN_ROUNDS, len(kinds))
    rounds = {name: [] for name in workloads}
    spent = dict.fromkeys(workloads, 0.0)
    active = list(workloads)
    while active:
        for name in list(active):
            traced = kinds[len(rounds[name]) % len(kinds)]
            argv = [
                "--workload", name, "--seed", str(args.seed),
                "--scale", str(args.scale), "--round", str(len(rounds[name])),
            ]
            if traced:
                argv += ["--trace", "--trace-dir", str(args.trace_dir)]
            start = time.monotonic()
            result = run_child(argv, env, deadline)
            wall = time.monotonic() - start
            result.setdefault("traced", traced)
            rounds[name].append(result)
            spent[name] += wall
            done = len(rounds[name]) >= min_rounds and (
                spent[name] + wall > args.seconds
            )
            if done or "error" in result:
                active.remove(name)
            elif time.monotonic() + wall > deadline:
                active = []
                break
    return rounds


def _same(got, want) -> bool:
    """Structural equality; floats within :data:`REL_EPS`."""
    if isinstance(want, dict):
        return (
            isinstance(got, dict) and got.keys() == want.keys()
            and all(_same(got[k], want[k]) for k in want)
        )
    if isinstance(want, list):
        return (
            isinstance(got, list) and len(got) == len(want)
            and all(_same(g, w) for g, w in zip(got, want))
        )
    if isinstance(want, float) and isinstance(got, (int, float)):
        return abs(got - want) <= REL_EPS * max(abs(want), 1.0)
    return type(got) is type(want) and got == want


def reference(name, result, seed, scale) -> str:
    if seed != 1:
        return "unchecked (seed≠1)"
    if scale != 1:
        return "unchecked (scale≠1)"
    path = EXPECTED / f"{name}.json"
    if not path.exists():
        return "unchecked (no reference file)"
    with open(path, encoding="utf-8") as handle:
        want = json.load(handle)
    if result["outputs_digest"] == want["outputs_digest"]:
        return "match"
    if _same(result["summary"], want["summary"]):
        return "match (floats within epsilon; digest differs)"
    return "MISMATCH"


def summarize(name, rounds, args):
    """End-to-end (and, traced, per-layer) metrics of one workload."""
    planned = child.planned_runs(name, args.scale)
    ok = [r for r in rounds if "error" not in r]
    attempted = planned * len(rounds)
    failed = planned * (len(rounds) - len(ok))
    problems = [f"round {i}: {r['error']}" for i, r in enumerate(rounds)
                if "error" in r]
    if ok:
        base = ok[0]["run_keys"]
        for r in ok[1:]:
            keys = r["run_keys"]
            failed += sum(a != b for a, b in zip(base, keys))
            failed += abs(len(base) - len(keys))
        for r in ok:
            problems += [f"invariant: {v}" for v in r["violations"]]
    digests = sorted({r["outputs_digest"] for r in ok})
    if len(digests) > 1:
        problems.append("outputs differ between rounds")
    summary = {
        "rounds": len(rounds),
        "traced_rounds": sum(1 for r in ok if r["traced"]),
        "attempted": attempted,
        "failed": failed,
        "outputs_digest": digests[0] if len(digests) == 1 else None,
        "reference": reference(name, ok[0], args.seed, args.scale)
        if ok else "unchecked (no round finished)",
        "problems": problems,
    }
    if summary["reference"] == "MISMATCH":
        problems.append("outputs differ from bench/expected")
    summary["correct"] = not problems
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    metrics = {}
    if untraced:
        walls_ms = [w * 1e3 for r in untraced for w in r["walls_s"]]
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
            "runs_per_s": statistics.median(
                r["runs"] / r["run_wall_s"] for r in untraced
            ),
            "run_wall_p50_ms": percentile(walls_ms, 0.50),
            "run_wall_p90_ms": percentile(walls_ms, 0.90),
            "peak_rss_mb": statistics.median(
                r["peak_rss_mb"] for r in untraced
            ),
        }
        if len(walls_ms) >= P99_MIN_SAMPLES:
            metrics["run_wall_p99_ms"] = percentile(walls_ms, 0.99)
        metrics.update(untraced[0]["sim"])
        summary["samples"] = len(walls_ms)
    metrics["failed_run_share"] = failed / attempted if attempted else 0.0
    summary["metrics"] = metrics
    if traced:
        layers = {
            key: statistics.median(r["layers"][key] for r in traced)
            for key in traced[0]["layers"]
        }
        if untraced:
            traced_rate = statistics.median(
                r["runs"] / r["run_wall_s"] for r in traced
            )
            layers["bench.trace_overhead"] = (
                metrics["runs_per_s"] / traced_rate
            )
        summary["layers"] = layers
    summary["setup_steps_s"] = {
        step: statistics.median(r["setup_steps_s"][step] for r in untraced)
        for step in child.SETUP_STEPS
    } if untraced else {}
    return summary


def _fmt(value) -> str:
    if isinstance(value, int):
        return f"{value:,}"
    return f"{value:,.6g}" if abs(value) < 1e6 else f"{value:,.0f}"


def print_report(name, summary, benchmark, trace):
    print(f"== {name}: {summary['rounds']} rounds "
          f"({summary['traced_rounds']} traced), "
          f"{summary['attempted']:,} runs attempted, "
          f"{summary.get('samples', 0):,} per-run samples")
    for metric, value in summary["metrics"].items():
        unit, better, bound, clock = rule(metric, benchmark)
        if isinstance(bound, float):
            bound = f"{bound:.0%}"
        print(f"  {metric:<22} {_fmt(value):>14} {unit:<7} "
              f"{clock:<8} {better:<6} bound {bound}")
    if "sim_recovery_rate" in summary["metrics"]:
        paper = 2665 / 2850
        error = summary["metrics"]["sim_recovery_rate"] - paper
        print(f"  {'':<22} paper Table II: {paper:.4f} "
              f"(2665/2850); model error {error * 100:+.2f} pp")
    steps = summary["setup_steps_s"]
    if steps:
        print("  setup steps (s): " + "  ".join(
            f"{step}={value:.4f}" for step, value in steps.items()))
    if trace and "layers" in summary:
        layer_units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        print("  per-layer metrics of the traced round(s):")
        layer = None
        for metric, value in summary["layers"].items():
            if metric.split(".")[0] != layer:
                layer = metric.split(".")[0]
                moves, idle = LAYER_MOVES[layer]
                print(f"   [{layer}] should move {moves}; "
                      f"~no work on {idle}")
            print(f"    {metric:<40} {_fmt(value):>14} "
                  f"{layer_units[metric]}")
    print(f"  outputs_digest: {summary['outputs_digest']}")
    print(f"  reference: {summary['reference']}")
    for problem in summary["problems"]:
        print(f"  PROBLEM: {problem}")


def result_line(summaries, benchmark, trace):
    """The final JSON line: one workload flat, several keyed by name."""
    wanted = benchmark["per_layer" if trace else "end_to_end"]

    def metrics_of(summary):
        values = summary.get("layers" if trace else "metrics", {})
        return {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in values
        }

    per_workload = {name: metrics_of(s) for name, s in summaries.items()}
    complete = all(
        len(metrics) == len(wanted) for metrics in per_workload.values()
    )
    return {
        "correct": complete and all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": (
            next(iter(per_workload.values())) if len(per_workload) == 1
            else per_workload
        ),
    }


def write_expected(summaries, rounds):
    """Record seed-1 outputs as the reference (``--update-expected``)."""
    EXPECTED.mkdir(exist_ok=True)
    for name, summary in summaries.items():
        if not summary["correct"] or summary["failed"]:
            sys.exit(f"not recording {name}: its outputs failed a check")
        first = next(r for r in rounds[name] if "error" not in r)
        with open(EXPECTED / f"{name}.json", "w", encoding="utf-8") as out:
            json.dump({
                "seed": 1,
                "outputs_digest": summary["outputs_digest"],
                "summary": first["summary"],
            }, out, indent=1, sort_keys=True)
            out.write("\n")


def parse_args(argv, benchmark):
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="workloads:\n" + "\n".join(
            f"  {w['name']}: {w['why']}" for w in benchmark["workloads"]
        ),
    )
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"],
                        help="time budget per workload (default: %(default)s)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="traced run: per-layer metrics")
    parser.add_argument("--trace-dir", type=Path, default=BENCH / ".trace",
                        help="where traced rounds write their spans")
    parser.add_argument("--json", type=Path, help="write all results here")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="round size factor (outputs unchecked if not 1)")
    parser.add_argument("--update-expected", action="store_true",
                        help="record this seed-1 run as bench/expected/")
    args = parser.parse_args(argv)
    args.workloads = [args.workload] if args.workload else names
    if args.update_expected and (args.seed != 1 or args.scale != 1):
        parser.error("--update-expected needs --seed 1 --scale 1")
    return args


def main(argv=None) -> int:
    benchmark = load_benchmark()
    args = parse_args(argv, benchmark)
    deadline = time.monotonic() + DEADLINE_S
    env, removed = child_env()
    print(f"# nproc={os.cpu_count()} python={platform.python_version()} "
          f"loadavg_before={os.getloadavg()}")
    print(f"# removed from child environment: {', '.join(removed) or 'none'}")
    # Untimed: compiles bytecode so that round 1 does not pay for it.
    if "error" in run_child(["--import-only"], env, deadline):
        print("error: the program under test does not import",
              file=sys.stderr)
        return 2
    rounds = run_rounds(args.workloads, args, env, deadline)
    summaries = {name: summarize(name, rounds[name], args)
                 for name in args.workloads}
    for name, summary in summaries.items():
        print_report(name, summary, benchmark, args.trace)
    print(f"# loadavg_after={os.getloadavg()}")
    if args.update_expected:
        write_expected(summaries, rounds)
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as out:
            json.dump({
                "seed": args.seed, "scale": args.scale,
                "seconds": args.seconds, "trace": bool(args.trace),
                "removed_env": removed, "workloads": summaries,
            }, out, indent=1)
            out.write("\n")
    line = result_line(summaries, benchmark, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] and line["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
