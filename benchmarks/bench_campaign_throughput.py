#!/usr/bin/env python3
"""Campaign throughput benchmark: SWIFI runs/sec, pooled vs fresh-build.

Two measurements:

* **campaign runs/sec** — the lock-service smoke campaign executed
  through the real per-run driver (``_drive_run``) in three kinds of
  sweep: with ``REPRO_SYSTEM_POOL=0`` (the old build-a-system-per-run
  behaviour), pooled with the super-trace engine disabled
  (``REPRO_SUPER_TRACE=0``, the two-tier engine), and pooled with the
  tier-3 super-trace engine on, which also reports the replayed-unit
  coverage it reaches.  The last two run in alternating pairs, and
  their ratio is the median of the per-round ratios.  Outcomes are
  asserted identical across all sweeps — the speedups are only
  meaningful if the faster paths are bit-exact.
* **micro-reboot restore cost** — wall time of one ``MemoryImage``
  restore when a run dirtied a handful of pages (the SWIFI steady state)
  versus every page (the worst case, equivalent to the old whole-image
  memcpy).

Standalone: ``python benchmarks/bench_campaign_throughput.py --json out.json``.
``scripts/check_campaign_baseline.py`` gates CI on the committed baseline
in ``benchmarks/baselines/campaign_throughput.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.composite.memory import PAGE_WORDS, MemoryImage  # noqa: E402
from repro.config import override  # noqa: E402
from repro.swifi.campaign import (  # noqa: E402
    COVERAGE_KEYS, CampaignRunner, _drive_run, collect_coverage,
    coverage_ratio,
)
from repro.system import GLOBAL_POOL  # noqa: E402

BASE = 0x0100_0000


def _timed_sweep(spec, seeds, coverage=None) -> tuple:
    """Execute every seed serially in-process; returns (elapsed, outcomes).

    ``coverage`` (a dict of supertrace counters) is folded per run when
    given — the collection itself is inside the timed region, exactly as
    the campaign runner pays it.
    """
    start = time.perf_counter()
    outcomes = []
    for seed in seeds:
        outcome, system, __, __, __ = _drive_run(spec, seed)
        outcomes.append(outcome.value)
        if coverage is not None:
            collect_coverage(system.kernel, coverage)
    return time.perf_counter() - start, outcomes


#: The engine gates of each sweep.
SWEEPS = {
    "fresh": {"system_pool": False, "super_trace": False},
    "two_tier": {"system_pool": True, "super_trace": False},
    "pooled": {"system_pool": True, "super_trace": True},
}

#: Back-to-back two-tier/super-traced sweep pairs per measurement.
PAIRED_ROUNDS = 21


def measure_campaign(n_faults: int, repeat: int = 3) -> dict:
    """Runs/sec of the smoke campaign: fresh vs pooled vs super-traced.

    The fresh sweep is timed best-of-``repeat``.  The two-tier and
    super-traced sweeps run in :data:`PAIRED_ROUNDS` back-to-back pairs,
    alternating which of the two goes first, and the super-trace/two-tier
    ratio is the median of the per-round ratios: a slow spell on a shared
    host then hits both sides of a pair instead of one side's best-of.
    """
    from repro.swifi.campaign import _campaign_recording

    runner = CampaignRunner("lock", n_faults=n_faults, seed=1)
    spec = runner.spec()
    seeds = runner.run_seeds()
    times = {label: [] for label in SWEEPS}
    results = {}
    coverage = None

    def sweep(label, timed=True):
        nonlocal coverage
        sweep_coverage = (
            dict.fromkeys(COVERAGE_KEYS, 0) if label == "pooled" else None
        )
        with override(**SWEEPS[label]):
            elapsed, outcomes = _timed_sweep(spec, seeds, sweep_coverage)
        if timed:
            times[label].append(elapsed)
        if sweep_coverage is not None:
            coverage = sweep_coverage
        if results.setdefault(label, outcomes) != outcomes:
            raise AssertionError(
                f"{label} sweep outcomes changed between repeats"
            )

    for __ in range(repeat):
        sweep("fresh")
    # Boot + seal and record the clean invocation sequence outside the
    # timed region, as the campaign worker initializer does, and warm
    # both engines' caches with one untimed sweep each.
    with override(**SWEEPS["pooled"]):
        GLOBAL_POOL.acquire(
            ft_mode=spec.ft_mode, recovery_mode=spec.recovery_mode
        )
        _campaign_recording(spec)
    sweep("two_tier", timed=False)
    sweep("pooled", timed=False)
    pair = ["two_tier", "pooled"]
    for __ in range(PAIRED_ROUNDS):
        for label in pair:
            sweep(label)
        pair.reverse()
    for label in ("two_tier", "pooled"):
        if results[label] != results["fresh"]:
            raise AssertionError(
                f"{label} sweep outcomes diverge from fresh-build "
                f"outcomes; the fast path is not bit-exact — do not "
                f"trust the speedup"
            )
    ratios = [
        two_tier / pooled
        for two_tier, pooled in zip(times["two_tier"], times["pooled"])
    ]
    fresh_time, two_tier_time, pooled_time = (
        min(times[label]) for label in ("fresh", "two_tier", "pooled")
    )
    return {
        "campaign_runs": len(seeds),
        "fresh_runs_per_sec": len(seeds) / fresh_time,
        "two_tier_runs_per_sec": len(seeds) / two_tier_time,
        "pooled_runs_per_sec": len(seeds) / pooled_time,
        "pooled_over_fresh": fresh_time / pooled_time,
        "super_trace_over_two_tier": statistics.median(ratios),
        "super_trace_over_two_tier_rounds": ratios,
        "replayed_unit_coverage": coverage_ratio(coverage),
    }


def measure_restore(repeat: int = 200) -> dict:
    """Wall cost of one image restore: sparse dirtiness vs every page."""
    image = MemoryImage(BASE)
    addr = image.alloc(8)
    image.freeze_good_image()
    n_pages = len(image._dirty)

    def time_restores(dirty_pages: int) -> float:
        best = float("inf")
        for __ in range(repeat):
            for page in range(dirty_pages):
                image.write_word(
                    image.base + page * PAGE_WORDS + (addr % PAGE_WORDS), 0xD1
                )
            start = time.perf_counter()
            image.restore()
            best = min(best, time.perf_counter() - start)
        return best

    sparse = time_restores(4)       # a SWIFI run's typical footprint
    full = time_restores(n_pages)   # the old whole-image behaviour
    return {
        "image_pages": n_pages,
        "restore_sparse_us": sparse * 1e6,
        "restore_full_us": full * 1e6,
        "restore_full_over_sparse": full / sparse,
    }


def run_benchmark(n_faults: int, repeat: int) -> dict:
    return {
        **measure_campaign(n_faults, repeat=repeat),
        **measure_restore(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--faults", type=int, default=50,
                        help="injection runs per sweep (lock service)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="fresh-build timing repetitions (best-of)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes for CI smoke runs")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write results as JSON")
    args = parser.parse_args(argv)
    if args.quick:
        args.faults, args.repeat = 30, 2

    results = run_benchmark(args.faults, args.repeat)
    print(f"campaign runs/sweep    : {results['campaign_runs']}")
    print(f"fresh-build runs/sec   : {results['fresh_runs_per_sec']:,.0f}")
    print(f"two-tier pooled r/s    : {results['two_tier_runs_per_sec']:,.0f}")
    print(f"super-traced runs/sec  : {results['pooled_runs_per_sec']:,.0f}")
    print(f"pooled/fresh speedup   : {results['pooled_over_fresh']:.2f}x")
    print(f"super-trace/two-tier   : "
          f"{results['super_trace_over_two_tier']:.2f}x (median of "
          f"{len(results['super_trace_over_two_tier_rounds'])} paired "
          f"rounds)")
    print(f"replayed-unit coverage : "
          f"{results['replayed_unit_coverage']:.1%}")
    print(f"restore, sparse dirty  : {results['restore_sparse_us']:,.1f} us")
    print(f"restore, all pages     : {results['restore_full_us']:,.1f} us")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
