#!/usr/bin/env python3
"""Check a throughput benchmark artifact against its committed baseline.

Usage:  python scripts/check_perf_baseline.py ARTIFACT BASELINE
                [--tolerance FRACTION]

ARTIFACT is the ``--json`` output of one of the throughput benchmarks,
BASELINE its committed baseline:

* ``benchmarks/bench_interp_throughput.py`` —
  ``benchmarks/baselines/interp_throughput.json``;
* ``benchmarks/bench_campaign_throughput.py`` —
  ``benchmarks/baselines/campaign_throughput.json``;
* ``benchmarks/bench_fig7_webserver.py`` (without ``--openloop``) —
  ``benchmarks/baselines/fig7_webserver.json``.

Two kinds of gate, both read from the baseline:

* **absolute rates** (its ``recorded`` values) must stay within
  ``tolerance`` below the recorded values.  The tolerance is wide
  (default: the baseline's ``default_tolerance``) because absolute
  throughput varies across machines and CI runners; the gate catches
  order-of-magnitude regressions, not noise.
* **ratio floors** (every ``min_<metric>`` key, e.g.
  ``min_fast_over_slow``, ``min_pooled_over_fresh``,
  ``min_rungs_over_boot``) are machine-independent: both sides of a
  ratio run the same work on the same host, so a collapsing ratio
  means the faster path (compiled residuals, system pooling, starting
  runs at their injection rung) broke or stopped being used.

Exits 1 naming every metric that is below its floor or missing from
the artifact.
"""

from __future__ import annotations

import argparse
import json
import sys


def check(artifact_path: str, baseline_path: str,
          tolerance: float | None) -> int:
    with open(artifact_path, "r", encoding="utf-8") as handle:
        results = json.load(handle)
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    if tolerance is None:
        tolerance = baseline.get("default_tolerance", 0.40)

    floors = {
        metric: (recorded * (1.0 - tolerance), f"recorded {recorded:,.1f}")
        for metric, recorded in baseline["recorded"].items()
    }
    floors.update(
        (key[len("min_"):], (floor, "ratio floor"))
        for key, floor in baseline.items()
        if key.startswith("min_")
    )
    failures = []
    for metric, (floor, source) in floors.items():
        value = results.get(metric)
        if value is None:
            print(f"{metric:22s} {'missing':>14s}  FAIL")
            failures.append(f"{metric}: missing from artifact")
            continue
        status = "ok" if value >= floor else "FAIL"
        print(f"{metric:22s} {value:14,.2f}  "
              f"(floor {floor:14,.2f}, {source})  {status}")
        if value < floor:
            failures.append(
                f"{metric}: {value:,.2f} below floor {floor:,.2f} ({source})"
            )

    if failures:
        print(f"\nBASELINE CHECK FAILED (tolerance {tolerance:.0%}):",
              file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nbaseline check passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifact", help="a throughput benchmark's --json output")
    parser.add_argument("baseline", help="its benchmarks/baselines/ file")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="allowed fractional drop below recorded rates "
                             "(default: baseline file's default_tolerance)")
    args = parser.parse_args(argv)
    return check(args.artifact, args.baseline, args.tolerance)


if __name__ == "__main__":
    raise SystemExit(main())
