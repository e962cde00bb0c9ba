"""Compare two ``bench/run.py --json`` result files.

Usage::

    python bench/compare.py BASE.json NEW.json

Prints one row per (workload, end-to-end metric) with both values and
a verdict: ``within bound``, ``REGRESSED`` or ``improved`` for host
metrics (bound and direction from ``BENCHMARK.json``), ``identical`` or
``CHANGED`` for virtual-time metrics, which must not move at all.  When
both files come from traced runs, the per-layer metrics follow, with
their change but no verdict: they have no bound.

A difference in any workload's ``outputs_digest`` is flagged loudly.
Exits 1 when a metric regressed or changed, or outputs differ.
"""

from __future__ import annotations

import argparse
import json
import sys

from metrics import load_benchmark, rule, verdict


def _change(base, new) -> str:
    return f"{(new - base) / abs(base):+.1%}" if base else "n/a"


def compare(base: dict, new: dict, benchmark: dict) -> bool:
    """Print the comparison; True when nothing regressed or changed."""
    ok = True
    print(f"{'workload':<12} {'metric':<24} {'base':>14} {'new':>14} "
          f"{'change':>8}  verdict")
    shared = [w for w in base["workloads"] if w in new["workloads"]]
    for name in sorted(set(base["workloads"]) ^ set(new["workloads"])):
        print(f"{name:<12} (only in one file; not compared)")
    for name in shared:
        a, b = base["workloads"][name], new["workloads"][name]
        for metric, value in a["metrics"].items():
            if metric not in b["metrics"]:
                print(f"{name:<12} {metric:<24} missing from NEW")
                ok = False
                continue
            __, better, bound, __ = rule(metric, benchmark)
            other = b["metrics"][metric]
            judged = verdict(value, other, better, bound)
            ok = ok and judged not in ("REGRESSED", "CHANGED")
            print(f"{name:<12} {metric:<24} {value:>14.6g} {other:>14.6g} "
                  f"{_change(value, other):>8}  {judged}")
    for name in shared:
        a, b = base["workloads"][name], new["workloads"][name]
        if a["outputs_digest"] != b["outputs_digest"]:
            ok = False
            print(f"!!! OUTPUTS DIFFER on {name}: "
                  f"{a['outputs_digest']} vs {b['outputs_digest']}")
    for name in shared:
        a, b = base["workloads"][name], new["workloads"][name]
        if "layers" in a and "layers" in b:
            for metric, value in a["layers"].items():
                other = b["layers"].get(metric)
                if other is not None:
                    print(f"{name:<12} {metric:<40} {value:>14.6g} "
                          f"{other:>14.6g} {_change(value, other):>8}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(args.base, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(args.new, encoding="utf-8") as handle:
        new = json.load(handle)
    return 0 if compare(base, new, load_benchmark()) else 1


if __name__ == "__main__":
    sys.exit(main())
