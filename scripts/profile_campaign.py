#!/usr/bin/env python3
"""Profile a SWIFI campaign: the cProfile table of hot call sites.

Usage:  python scripts/profile_campaign.py [--service lock] [--faults 50]
                [--seed 0] [--sort cumulative] [--top 25]

The campaign runs single-process (workers=1, so the numbers cover the
actual work instead of pool plumbing).  The hot-call-site table is the
tool that motivated the two-tier execution engine: before it,
``execute_trace`` dominated every profile; after, the interpreter drops
below the stub/kernel bookkeeping.  For per-layer timings of the real
run loop (pool restore, install, arm, run, classify), use
``python bench/run.py --trace``.

Also available as ``make profile`` (SERVICE/FAULTS overridable).
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.swifi.campaign import CampaignRunner  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--service", default="lock",
                        help="target service (default: lock)")
    parser.add_argument("--faults", type=int, default=50,
                        help="number of injected faults (default: 50)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sort", default="cumulative",
                        choices=["cumulative", "tottime", "ncalls"])
    parser.add_argument("--top", type=int, default=25,
                        help="rows of profile output (default: 25)")
    args = parser.parse_args(argv)

    runner = CampaignRunner(
        args.service, n_faults=args.faults, seed=args.seed
    )
    profiler = cProfile.Profile()
    profiler.enable()
    result = runner.run(workers=1)
    profiler.disable()

    counts = {o.value: c for o, c in result.counter.counts.items()}
    print(f"campaign: service={args.service} faults={args.faults} "
          f"seed={args.seed} outcomes={counts}\n")
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
