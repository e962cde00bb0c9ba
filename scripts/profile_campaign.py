#!/usr/bin/env python3
"""Profile a SWIFI campaign: per-phase wall breakdown + hot call sites.

Usage:  python scripts/profile_campaign.py [--service lock] [--faults 50]
                [--seed 0] [--sort cumulative] [--top 25] [--no-phases]

Two views of the same campaign, both single-process (workers=1, so the
numbers cover the actual work instead of pool plumbing):

* a **per-phase wall breakdown** — one-time setup costs (IDL compile,
  pooled boot + seal, super-trace recording) and the per-run split
  across pool restore, SWIFI setup, workload install, arming, and the
  run itself — the view that sized the system pool and the tier-3
  super-trace engine;
* the classic **cProfile table** of hot call sites — the tool that
  motivated the two-tier execution engine: before it, ``execute_trace``
  dominated every profile; after, the interpreter drops below the
  stub/kernel bookkeeping.

Also available as ``make profile`` (SERVICE/FAULTS overridable).
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.swifi.campaign import CampaignRunner  # noqa: E402


def phase_breakdown(service: str, n_faults: int, seed: int) -> None:
    """Print setup and per-run phase wall times for one smoke campaign.

    Mirrors ``_drive_run`` step by step with a timer around each phase —
    duplicated here (not instrumented in the hot path) so the campaign
    itself pays zero overhead for the existence of this tool.
    """
    from repro.composite.supertrace import ReplaySession
    from repro.errors import (
        BlockThread, ReproError, SimulatedFault, SystemHang,
    )
    from repro.swifi.campaign import (
        MAX_STEPS,
        _arm_for_class,
        _campaign_recording,
        _campaign_system,
        classify_run,
        collect_coverage,
        coverage_ratio,
        injection_point,
    )
    from repro.swifi.injector import SwifiController
    from repro.system import (
        GLOBAL_POOL, compile_all_interfaces, pooling_enabled,
    )
    from repro.workloads import workload_for

    runner = CampaignRunner(service, n_faults=n_faults, seed=seed)
    spec = runner.spec()
    seeds = runner.run_seeds()

    setup = {}
    start = time.perf_counter()
    if spec.ft_mode == "superglue":
        compile_all_interfaces()
    setup["idl compile"] = time.perf_counter() - start
    start = time.perf_counter()
    if pooling_enabled():
        GLOBAL_POOL.acquire(
            ft_mode=spec.ft_mode, recovery_mode=spec.recovery_mode
        )
    setup["pool boot + seal"] = time.perf_counter() - start
    start = time.perf_counter()
    _campaign_recording(spec)
    setup["super-trace record"] = time.perf_counter() - start

    order = (
        "pool restore", "swifi setup", "workload install", "arm",
        "recording attach", "run", "classify",
    )
    phases = dict.fromkeys(order, 0.0)

    def tick(phase: str, since: float) -> float:
        now = time.perf_counter()
        phases[phase] += now - since
        return now

    coverage = None
    for run_seed in seeds:
        t = time.perf_counter()
        recording = _campaign_recording(spec)
        t = tick("recording attach", t)
        system = _campaign_system(spec.ft_mode, spec.recovery_mode)
        t = tick("pool restore", t)
        kernel = system.kernel
        swifi = SwifiController(kernel, seed=run_seed)
        t = tick("swifi setup", t)
        workload = workload_for(spec.service)
        handle = workload.install(system, iterations=spec.iterations)
        t = tick("workload install", t)
        _arm_for_class(swifi, spec, injection_point(run_seed, spec.horizon))
        t = tick("arm", t)
        if recording is not None and recording.kernel is kernel:
            kernel._supertrace = ReplaySession(recording)
        t = tick("recording attach", t)
        crash, steps = None, 0
        try:
            steps = system.run(max_steps=MAX_STEPS)
        except (SystemHang, SimulatedFault, ReproError, BlockThread) as exc:
            crash = exc
        finally:
            kernel._supertrace = None
        t = tick("run", t)
        coverage = collect_coverage(kernel, coverage)
        if kernel.crashed is not None and crash is None:
            crash = kernel.crashed
        classify_run(spec.ft_mode, system, swifi, handle, crash, steps)
        tick("classify", t)

    total = sum(phases.values())
    print(f"per-phase wall breakdown ({len(seeds)} runs):")
    print("  one-time setup:")
    for name, elapsed in setup.items():
        print(f"    {name:22s} {elapsed * 1e3:10.1f} ms")
    print("  per run:")
    for name in order:
        mean_us = phases[name] / len(seeds) * 1e6
        share = phases[name] / total * 100 if total else 0.0
        print(f"    {name:22s} {mean_us:10.1f} us  {share:5.1f}%")
    rate = len(seeds) / total if total else 0.0
    print(f"    {'total':22s} {total / len(seeds) * 1e6:10.1f} us  "
          f"({rate:,.0f} runs/s)")
    if coverage is not None:
        print("  supertrace coverage:")
        for key, value in coverage.items():
            print(f"    {key:28s} {value:10d}")
        print(f"    {'replayed_unit_coverage':28s} "
              f"{coverage_ratio(coverage):10.1%}")
    print()


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
    parser.add_argument("--no-phases", action="store_true",
                        help="skip the per-phase wall breakdown")
    args = parser.parse_args(argv)

    if not args.no_phases:
        phase_breakdown(args.service, args.faults, args.seed)

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
