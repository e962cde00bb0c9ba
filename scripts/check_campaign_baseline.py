#!/usr/bin/env python3
"""Check a campaign-throughput artifact against the committed baseline.

Usage:  python scripts/check_campaign_baseline.py ARTIFACT [BASELINE]
                [--tolerance FRACTION]

ARTIFACT is the ``--json`` output of
``benchmarks/bench_campaign_throughput.py`` (Table II runs/s); BASELINE
defaults to ``benchmarks/baselines/campaign_throughput.json``.

Two kinds of gate:

* **absolute rates** (the baseline's ``recorded`` values) must stay
  within ``tolerance`` below the recorded values.  The tolerance is
  wide (default from the baseline file) because absolute throughput
  varies across machines and CI runners; the gate catches
  order-of-magnitude regressions, not noise.
* **ratio floors** (every ``min_<metric>`` key of the baseline, e.g.
  ``min_pooled_over_fresh``, ``min_rungs_over_boot``) are
  machine-independent: the sweeps execute the same runs on the same
  host, so a collapsing pooled/fresh ratio always means system pooling
  broke or stopped being used, and a collapsing rungs/boot ratio means
  Table II runs stopped starting at their injection rung.  The
  rungs/boot ratio is the median over paired rounds (see
  ``measure_campaign``), so one slow spell cannot sink it.

Exits non-zero on any violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = (
    Path(__file__).resolve().parents[1]
    / "benchmarks" / "baselines" / "campaign_throughput.json"
)


def check(artifact_path: str, baseline_path: str,
          tolerance: float | None) -> int:
    with open(artifact_path, "r", encoding="utf-8") as handle:
        results = json.load(handle)
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    if tolerance is None:
        tolerance = baseline.get("default_tolerance", 0.40)

    failures = []
    for metric, recorded in baseline["recorded"].items():
        value = results.get(metric)
        if value is None:
            failures.append(f"{metric}: missing from artifact")
            continue
        floor = recorded * (1.0 - tolerance)
        status = "ok" if value >= floor else "FAIL"
        print(
            f"{metric:22s} {value:14,.0f}  "
            f"(recorded {recorded:14,.0f}, floor {floor:14,.0f})  {status}"
        )
        if value < floor:
            failures.append(
                f"{metric}: {value:,.0f} below floor {floor:,.0f} "
                f"(recorded {recorded:,.0f}, tolerance {tolerance:.0%})"
            )

    for baseline_key, ratio_floor in baseline.items():
        if not baseline_key.startswith("min_"):
            continue
        metric = baseline_key[len("min_"):]
        ratio = results.get(metric, 0.0)
        status = "ok" if ratio >= ratio_floor else "FAIL"
        print(f"{metric:22s} {ratio:14.2f}  "
              f"(floor {ratio_floor:14.2f})  {status}")
        if ratio < ratio_floor:
            failures.append(
                f"{metric}: {ratio:.2f} below floor {ratio_floor:.2f}"
            )

    if failures:
        print("\nCAMPAIGN BASELINE CHECK FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\ncampaign baseline check passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifact",
                        help="bench_campaign_throughput.py --json output")
    parser.add_argument("baseline", nargs="?", default=str(DEFAULT_BASELINE))
    parser.add_argument("--tolerance", type=float, default=None,
                        help="allowed fractional drop below recorded rates "
                             "(default: baseline file's default_tolerance)")
    args = parser.parse_args(argv)
    return check(args.artifact, args.baseline, args.tolerance)


if __name__ == "__main__":
    raise SystemExit(main())
