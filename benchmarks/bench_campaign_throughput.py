#!/usr/bin/env python3
"""Campaign throughput benchmark: SWIFI runs/sec, pooled vs fresh-build.

Two measurements:

* **campaign runs/sec** — the lock-service smoke campaign executed
  through the real per-run driver (``_drive_run``) in three kinds of
  sweep: with ``REPRO_SYSTEM_POOL=0`` (the old build-a-system-per-run
  behaviour), pooled from boot (every run restores snapshot zero,
  installs the workload and runs its whole clean prefix), and pooled
  from rungs (every run restores the rung of the spec's snapshot ladder
  at or before its injection point).  The last two run in alternating
  pairs, and their ratio is the median of the per-round ratios.
  Outcomes are asserted identical across all sweeps — the speedups are
  only meaningful if the faster paths are bit-exact.
* **micro-reboot restore cost** — wall time of one ``MemoryImage``
  restore when a run dirtied a handful of pages (the SWIFI steady state)
  versus every page (the worst case, equivalent to the old whole-image
  memcpy).

Standalone: ``python benchmarks/bench_campaign_throughput.py --json out.json``.
``scripts/check_perf_baseline.py`` gates CI on the committed baseline
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
    CampaignRunner, _drive_run, ladder_counts, warm_up,
)

BASE = 0x0100_0000


def _timed_sweep(spec, seeds, start=None, counters=None) -> tuple:
    """Execute every seed serially in-process; returns (elapsed, outcomes).

    ``start`` is the runs' ``(snapshot, ladder)`` (None: fresh builds);
    ``counters`` sums the ladder work counts, inside the timed region
    exactly as the campaign runner pays it.
    """
    begin = time.perf_counter()
    outcomes = [
        _drive_run(spec, seed, start=start, counters=counters)[0].value
        for seed in seeds
    ]
    return time.perf_counter() - begin, outcomes


#: Back-to-back from-boot/from-rungs sweep pairs per measurement.
PAIRED_ROUNDS = 21


def measure_campaign(n_faults: int, repeat: int = 3) -> dict:
    """Runs/sec of the smoke campaign: fresh vs pooled from boot vs
    pooled from rungs.

    The fresh sweep is timed best-of-``repeat``.  The from-boot and
    from-rungs sweeps run in :data:`PAIRED_ROUNDS` back-to-back pairs,
    alternating which of the two goes first, and the rungs/boot ratio
    is the median of the per-round ratios: a slow spell on a shared
    host then hits both sides of a pair instead of one side's best-of.
    """
    runner = CampaignRunner("lock", n_faults=n_faults, seed=1)
    spec = runner.spec()
    seeds = runner.run_seeds()
    times = {label: [] for label in ("fresh", "boot", "rungs")}
    results = {}
    counters = {}
    # Boot + seal and build the ladder outside the timed region, as
    # the campaign worker initializer does.
    snapshot, ladder = warm_up(spec)
    starts = {"fresh": None, "boot": (snapshot, None),
              "rungs": (snapshot, ladder)}

    def sweep(label, timed=True):
        with override(system_pool=label != "fresh"):
            elapsed, outcomes = _timed_sweep(
                spec, seeds, starts[label],
                counters if label == "rungs" else None,
            )
        if timed:
            times[label].append(elapsed)
        if results.setdefault(label, outcomes) != outcomes:
            raise AssertionError(
                f"{label} sweep outcomes changed between repeats"
            )

    for __ in range(repeat):
        sweep("fresh")
    # Warm both paths' caches with one untimed sweep each.
    sweep("boot", timed=False)
    sweep("rungs", timed=False)
    counters.clear()
    pair = ["boot", "rungs"]
    for __ in range(PAIRED_ROUNDS):
        for label in pair:
            sweep(label)
        pair.reverse()
    for label in ("boot", "rungs"):
        if results[label] != results["fresh"]:
            raise AssertionError(
                f"{label} sweep outcomes diverge from fresh-build "
                f"outcomes; the fast path is not bit-exact — do not "
                f"trust the speedup"
            )
    ratios = [boot / rungs for boot, rungs in zip(times["boot"], times["rungs"])]
    fresh_time, boot_time, rungs_time = (
        min(times[label]) for label in ("fresh", "boot", "rungs")
    )
    return {
        "campaign_runs": len(seeds),
        "fresh_runs_per_sec": len(seeds) / fresh_time,
        "boot_runs_per_sec": len(seeds) / boot_time,
        "pooled_runs_per_sec": len(seeds) / rungs_time,
        "pooled_over_fresh": fresh_time / rungs_time,
        "rungs_over_boot": statistics.median(ratios),
        "rungs_over_boot_rounds": ratios,
        "ladder": ladder_counts(counters),
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
    ladder = results["ladder"]
    print(f"campaign runs/sweep    : {results['campaign_runs']}")
    print(f"fresh-build runs/sec   : {results['fresh_runs_per_sec']:,.0f}")
    print(f"pooled from boot r/s   : {results['boot_runs_per_sec']:,.0f}")
    print(f"pooled from rungs r/s  : {results['pooled_runs_per_sec']:,.0f}")
    print(f"pooled/fresh speedup   : {results['pooled_over_fresh']:.2f}x")
    print(f"rungs/boot             : "
          f"{results['rungs_over_boot']:.2f}x (median of "
          f"{len(results['rungs_over_boot_rounds'])} paired rounds)")
    print(f"ladder                 : {ladder['rungs']} rungs, "
          f"{ladder['prefix_steps_skipped'] / max(ladder['rung_restores'], 1):.1f}"
          f" prefix steps skipped per run")
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
