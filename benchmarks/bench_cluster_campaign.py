#!/usr/bin/env python3
"""Cluster campaign benchmark: scenarios/sec and whole-node reboot cost.

Two measurements:

* **scenarios/sec** — the cluster smoke campaign (correlated node kills
  over a 4-node cell) executed twice through the real scenario entry
  point: pooled (each unit starts at its injection rung of the node's
  snapshot ladder, and each node whole-node-reboots via its private
  snapshot's dirty restore) and with ``REPRO_SYSTEM_POOL=0`` (every
  unit builds a fresh system and runs from boot).  Rows are asserted
  identical across both sweeps — the speedup is only meaningful because
  it is bit-exact.
* **whole-node reboot cost** — wall time of one ``Node.reboot()`` after
  real injected units dirtied the node's images, which is the pool's
  dirty-restore path the cell charges ``NODE_REBOOT_CYCLES`` (~5us) for.

Standalone: ``python benchmarks/bench_cluster_campaign.py [--json out.json]``.
The ``--json`` artifact has flat keys, so ``scripts/check_campaign_baseline.py
out.json benchmarks/baselines/cluster_throughput.json`` gates it: the
pooled/fresh ratio floor and the two scenarios/s rates.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.cluster import (  # noqa: E402
    ClusterSpec,
    Node,
    cluster_run_seeds,
    execute_scenario,
)
from repro.config import override  # noqa: E402


def _spec(units: int) -> ClusterSpec:
    return ClusterSpec(
        service="lock", n_nodes=4, n_kill=1, units=units, horizon=17
    )


def measure_scenarios(n_scenarios: int, units: int) -> dict:
    """Scenarios/sec, pooled vs fresh, with bit-exact rows asserted."""
    spec = _spec(units)
    seeds = cluster_run_seeds(7, n_scenarios)
    results = {}
    for label, pooled in (("fresh", False), ("pooled", True)):
        with override(system_pool=pooled):
            if pooled:
                # Warm every node's snapshot outside the timed region,
                # as the campaign worker initializer does.
                execute_scenario(spec, seeds[0])
            start = time.perf_counter()
            rows = [execute_scenario(spec, seed) for seed in seeds]
            elapsed = time.perf_counter() - start
        results[label] = {
            "elapsed_s": elapsed,
            "scenarios_per_s": n_scenarios / elapsed,
            "units_per_s": n_scenarios * units / elapsed,
            "rows": rows,
        }
    assert results["pooled"]["rows"] == results["fresh"]["rows"], (
        "pooled cluster scenarios diverged from fresh-build scenarios"
    )
    for label in results:
        del results[label]["rows"]
    results["speedup"] = (
        results["fresh"]["elapsed_s"] / results["pooled"]["elapsed_s"]
    )
    return results


def measure_node_reboot(samples: int = 50) -> dict:
    """Wall time of one whole-node reboot after real dirty work."""
    spec = _spec(units=4)
    run_spec = spec.run_spec()
    node = Node(99, spec.ft_mode, spec.recovery_mode)
    times = []
    with override(system_pool=True):
        node.run_unit(run_spec, 1)  # build + seal outside the timed loop
        for i in range(samples):
            node.run_unit(run_spec, 1000 + i)  # dirty the images for real
            start = time.perf_counter()
            node.reboot()
            times.append(time.perf_counter() - start)
    times.sort()
    return {
        "samples": samples,
        "median_us": times[samples // 2] * 1e6,
        "min_us": times[0] * 1e6,
        "max_us": times[-1] * 1e6,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenarios", type=int, default=16)
    parser.add_argument("--units", type=int, default=8)
    parser.add_argument("--json", metavar="PATH", default=None)
    args = parser.parse_args(argv)

    campaign = measure_scenarios(args.scenarios, args.units)
    reboot = measure_node_reboot()
    print(
        f"cluster campaign ({args.scenarios} scenarios x {args.units} units)"
    )
    for label in ("fresh", "pooled"):
        r = campaign[label]
        print(
            f"  {label:7s} {r['scenarios_per_s']:8.1f} scenarios/s "
            f"({r['units_per_s']:8.1f} units/s)"
        )
    print(f"  speedup {campaign['speedup']:.2f}x (rows bit-identical)")
    print(
        f"whole-node reboot: median {reboot['median_us']:.1f} us "
        f"(min {reboot['min_us']:.1f}, max {reboot['max_us']:.1f}, "
        f"n={reboot['samples']})"
    )
    if args.json:
        flat = {
            "scenarios": args.scenarios,
            "units": args.units,
            "fresh_scenarios_per_s": campaign["fresh"]["scenarios_per_s"],
            "pooled_scenarios_per_s": campaign["pooled"]["scenarios_per_s"],
            "fresh_units_per_s": campaign["fresh"]["units_per_s"],
            "pooled_units_per_s": campaign["pooled"]["units_per_s"],
            "pooled_over_fresh": campaign["speedup"],
            "reboot_median_us": reboot["median_us"],
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(flat, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
