"""Multi-seed web-server evaluation campaigns (Section V-E, Fig. 7).

The paper's end-to-end number is a *distribution*, not a point: ab is run
repeatedly while a fault is injected into a different system-level
component each period.  A single ``run_webserver`` call answers "what
happened once"; this module scales it the way ReHype's evaluation scales
VM recovery — many seeded runs, each a pure function of
``(WebRunSpec, run_seed)``, fanned out over the SWIFI campaign
machinery:

* systems come from :class:`repro.system.SystemPool` (boot + seal once
  per process, dirty-restore per run) with the web server's application
  components registered *before* sealing via the pool's ``prepare``
  hook, so ``REPRO_POOL_DEBUG=1`` verification covers them too;
* every run of a spec serves the same clean request stream until its
  first fault arms, so pooled runs start there, from one snapshot per
  spec and process (:func:`_web_recording`);
* seeds run through the seeded-campaign core
  (:func:`repro.swifi.parallel.run_seeded`) and rows are merged in seed
  order, so a campaign's JSON artifact is byte-identical serial vs
  parallel, pooled vs fresh;
* per-request latencies aggregate through
  :mod:`repro.observe.metrics` order-independent histograms (p50/p95/p99
  in virtual time), and traced runs export ``request_start`` /
  ``request_done`` / ``throughput_dip`` arcs for
  ``python -m repro trace``.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

from repro.composite.scheduler import CYCLES_PER_US
from repro.config import override
from repro.observe.metrics import (
    MetricsRegistry,
    bucket_bounds,
    canonical_metrics,
    merge_metrics,
)
from repro.errors import ReproError
from repro.swifi.campaign import (
    _campaign_system,
    _pooled,
    run_prefix,
    run_record,
    run_system,
)
from repro.swifi.injector import FAULT_CLASSES
from repro.swifi.parallel import export_trace, run_seeded
from repro.system import GLOBAL_POOL, SystemSnapshot
from repro.webserver.arrivals import ArrivalSpec
from repro.webserver.loadgen import (
    LoadResult,
    injection_gap,
    install_webserver,
    run_webserver,
)
from repro.webserver.server import (
    DIP_THRESHOLD_CYCLES,
    register_webserver_components,
)

#: Latency quantiles reported per run and per campaign.
QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))

#: Open-loop runs additionally report the extreme tail: overload and
#: recovery storms live in p999, which p99 alone can miss entirely at
#: per-run sample counts.
OPEN_QUANTILES = QUANTILES + (("p999", 0.999),)


@dataclass(frozen=True)
class WebRunSpec:
    """Everything one faulted web-server run depends on besides its seed."""

    ft_mode: str = "superglue"
    n_requests: int = 120
    concurrency: int = 10
    n_workers: int = 2
    n_faults: int = 3
    max_steps: int = 2_000_000
    recovery_mode: str = "ondemand"
    #: Injected fault model (``repro.swifi.injector.FAULT_CLASSES``).
    fault_class: str = "reg"
    #: ``"closed"`` (ab-style, bounded outstanding) or ``"open"``
    #: (arrival-schedule driven; ``concurrency`` is then ignored).
    arrivals: str = "closed"
    #: Open-loop offered-load multiplier (1.0 ~ one virtual CPU).
    load: float = 1.0
    #: Open-loop phase schedule (preset name or ``name:frac@rate,...``).
    phases: str = "steady"
    #: Open-loop SLO deadline, microseconds of virtual time from
    #: arrival to response.
    slo_us: int = 500
    #: Seed of the arrival schedule itself — deliberately separate from
    #: the SWIFI run seeds, so every seeded run of a campaign shares one
    #: arrival stream (and one first-arm snapshot).
    arrival_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ValueError("WebRunSpec needs n_requests >= 1")
        if self.concurrency < 1:
            raise ValueError("WebRunSpec needs concurrency >= 1")
        if self.fault_class not in FAULT_CLASSES:
            raise ValueError(
                f"unknown fault class {self.fault_class!r} "
                f"(expected one of {FAULT_CLASSES})"
            )
        if self.arrivals not in ("closed", "open"):
            raise ValueError("WebRunSpec.arrivals must be 'closed' or 'open'")
        if self.arrivals == "open":
            if self.slo_us < 1:
                raise ValueError("WebRunSpec needs slo_us >= 1")
            self.arrival_spec()  # fail fast on bad load/phases

    def arrival_spec(self) -> Optional[ArrivalSpec]:
        """The open-loop arrival schedule spec (None when closed-loop)."""
        if self.arrivals != "open":
            return None
        return ArrivalSpec(
            n_requests=self.n_requests,
            load=self.load,
            phases=self.phases,
            seed=self.arrival_seed,
        )

    def fingerprint(self) -> str:
        """Stable identity string (trace artifacts key on it).

        Closed-loop reg-fault specs keep their historical form; the
        open-loop / fault-class parts append only when they differ from
        the defaults, so existing artifacts and trace keys still match.
        """
        base = (
            f"webserver/{self.ft_mode}/r{self.n_requests}"
            f"/c{self.concurrency}/w{self.n_workers}/f{self.n_faults}"
            f"/{self.recovery_mode}"
        )
        if self.fault_class != "reg":
            base += f"/{self.fault_class}"
        if self.arrivals == "open":
            base += (
                f"/open-l{self.load:g}-{self.phases}"
                f"-slo{self.slo_us}-a{self.arrival_seed}"
            )
        return base


def web_run_seeds(seed: int, n_seeds: int) -> List[int]:
    """The deterministic seed schedule (same stride as SWIFI campaigns)."""
    return [seed * 1_000_003 + i for i in range(n_seeds)]


def prepare_webserver(system) -> None:
    """Pool ``prepare`` hook: give a fresh system the web server's own
    application components (httpparse, connmgr) before it is sealed.

    Module-level (stable qualname) so the pool can key snapshots on it
    and apply it to the fresh reference build under ``REPRO_POOL_DEBUG``.
    """
    register_webserver_components(system.kernel)


def _web_system(spec: WebRunSpec, at: Optional[SystemSnapshot] = None):
    """A prepared system for one campaign run (see ``_campaign_system``),
    restored to ``at`` when given."""
    return _campaign_system(
        spec.ft_mode, spec.recovery_mode, prepare=prepare_webserver, at=at
    )


def _web_recording(spec: WebRunSpec) -> Optional[SystemSnapshot]:
    """The spec's first-arm snapshot, taken once per process.

    Web faults are not seed-positioned: a faulted run arms its first
    fault when serving progress first crosses its injection period
    (see ``run_webserver``'s ``arm_on_progress``), and nothing before
    that depends on the seed.  So every run of a spec shares its clean
    prefix up to the step whose ``on_served`` arms, and a pooled run
    restores this snapshot, taken just before that step, instead of
    executing the prefix.  A fault-free spec is sealed at the end of
    its clean run.  The snapshot is one of the prepared pooled system,
    kept on that system's pooled snapshot, so a pool rebuild drops it.
    None for unpooled or traced runs, which start from boot, and when
    the clean run is not clean (a crash, a reboot, an exhausted
    budget), so the spec's runs start from boot too.
    """
    if not _pooled():
        return None
    pooled = GLOBAL_POOL.snapshot_for(
        ft_mode=spec.ft_mode, recovery_mode=spec.recovery_mode,
        prepare=prepare_webserver,
    )
    key = ("first_arm", spec.fingerprint(), spec.max_steps)
    if key in pooled.starts:
        return pooled.starts[key]
    # One whole clean pass finds the snapshot point; a second clean
    # pass runs to that point, the snapshot seals there, and the pass
    # runs on to its end.  Every trace of the clean stream has then run
    # twice, so its compiled program is attached (its trace caches are
    # warm) before the first timed run, which executes the rest of the
    # stream on this system.
    system = _web_system(spec)
    steps = _clean_prefix_steps(spec, system)
    snapshot = None
    if steps is not None:
        system = _web_system(spec)
        snapshot = SystemSnapshot(
            system, prepare=prepare_webserver,
            prefix=functools.partial(_run_prefix, spec, steps),
            roots=_run_prefix(spec, steps, system),
        )
        run_system(system, spec.max_steps - steps)
    pooled.starts[key] = snapshot
    return snapshot


def _install(spec: WebRunSpec, system):
    return install_webserver(
        system, spec.n_requests, spec.concurrency, spec.n_workers,
        spec.arrival_spec(),
    )


def _clean_prefix_steps(spec: WebRunSpec, system) -> Optional[int]:
    """Serve the spec's stream fault-free on ``system``; returns the
    steps run before the step that would arm the first fault (every
    step of a fault-free spec), or None when the run is not clean.

    The run queue counts its picks, one per kernel step, so at the
    arming ``on_served`` it reads the current step's number.
    """
    server = _install(spec, system)
    kernel = system.kernel
    picks = kernel.run_queue._rr
    first = []
    if spec.n_faults > 0:
        gap = injection_gap(spec.n_requests, spec.n_faults)

        def note(served: int) -> None:
            if not first and served >= gap:
                first.append(kernel.run_queue._rr - picks - 1)

        server.on_served = note
    crash, steps = run_system(system, spec.max_steps)
    if (
        crash is not None
        or kernel.budget_exhausted
        or server.served < spec.n_requests
        or system.booter.reboots
    ):
        return None
    return first[0] if first else steps


def _run_prefix(spec: WebRunSpec, steps: int, system) -> tuple:
    """Install the spec's server and load generator on a booted
    ``system`` and run its first ``steps`` clean steps: the snapshot's
    prefix, on the pooled system and on the debug diff's fresh build.
    Returns the server, the root the snapshot adds."""
    server = _install(spec, system)
    run_prefix(system, steps)
    if spec.n_faults > 0 and server.served >= injection_gap(
        spec.n_requests, spec.n_faults
    ):
        raise ReproError(
            f"the clean prefix of {spec.fingerprint()} did not stop "
            f"before its first arm ({server.served} served)"
        )
    return (server,)


def _serve(spec: WebRunSpec, system, run_seed: int, with_faults: bool,
           server=None) -> LoadResult:
    """Serve the spec's request stream on ``system``, resuming
    ``server`` when a snapshot restored it part-way."""
    return run_webserver(
        ft_mode=spec.ft_mode,
        n_requests=spec.n_requests,
        concurrency=spec.concurrency,
        n_workers=spec.n_workers,
        with_faults=with_faults,
        n_faults=spec.n_faults,
        seed=run_seed,
        max_steps=spec.max_steps,
        system=system,
        # Shortfalls are first-class row data (faults_armed) in a
        # campaign, not per-run stderr noise.
        warn_shortfall=False,
        arrival_spec=spec.arrival_spec(),
        slo_us=spec.slo_us if spec.arrivals == "open" else None,
        fault_class=spec.fault_class,
        server=server,
    )


# ---------------------------------------------------------------------------
# Per-run execution
# ---------------------------------------------------------------------------

def _nearest_rank(sorted_values: Sequence[int], q: float) -> Optional[int]:
    """Exact nearest-rank quantile of an already-sorted sequence."""
    if not sorted_values:
        return None
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def histogram_quantile(h: Dict[str, object], q: float) -> Optional[int]:
    """Quantile of a serialized bucketed histogram.

    Handles both shapes: power-of-two buckets (no ``sub_bits`` key) and
    log-linear sub-bucketed ones (``sub_bits`` present, bucket bounds
    via :func:`repro.observe.metrics.bucket_bounds`).  Returns the
    inclusive upper bound of the bucket holding the nearest-rank sample
    (clamped to the observed max), so merged campaign percentiles are
    order-independent: every run's samples land in the same buckets no
    matter which worker observed them.
    """
    count = h.get("count", 0)
    if not count:
        return None
    sub_bits = h.get("sub_bits")
    rank = max(1, math.ceil(q * count))
    seen = 0
    for bucket in sorted(h["buckets"], key=int):
        seen += h["buckets"][bucket]
        if seen >= rank:
            b = int(bucket)
            if sub_bits is not None:
                upper = bucket_bounds(b, sub_bits)[1]
            else:
                upper = 0 if b == 0 else (1 << b) - 1
            observed_max = h.get("max")
            return upper if observed_max is None else min(upper, observed_max)
    return h.get("max")


def _run_outcome(result: LoadResult) -> str:
    if result.crashed is not None:
        return f"crashed:{result.crashed}"
    if result.served < result.requests:
        return "degraded"
    return "ok"


def _row_from_result(run_seed: int, result: LoadResult) -> Dict[str, object]:
    """One JSON-safe campaign row, a pure function of the run's outcome.

    Everything here derives from the :class:`LoadResult` alone — never
    from kernel engine counters (trace-cache hits etc.), which warm
    caches shift between pooled and fresh systems.  That is what keeps
    campaign artifacts byte-identical pooled vs fresh.
    """
    latencies = sorted(result.latencies)
    metrics = MetricsRegistry()
    metrics.counter("runs").inc()
    metrics.counter("requests").inc(result.requests)
    metrics.counter("served").inc(result.served)
    metrics.counter("errors").inc(result.errors)
    metrics.counter("reboots").inc(result.reboots)
    metrics.counter("faults_armed").inc(result.faults_armed)
    metrics.counter("faults_delivered").inc(result.faults_injected)
    if result.crashed is not None:
        metrics.counter("crashed_runs").inc()
    if result.open_loop:
        # Tail-latency SLOs need sub-power-of-two resolution: a p999
        # read from a power-of-two bucket straddling the deadline
        # cannot tell a just-met from a badly-missed SLO.
        latency_hist = metrics.loglinear("request_latency_cycles")
        metrics.counter("slo_ok").inc(result.slo_ok)
        metrics.counter("slo_miss").inc(result.slo_miss)
    else:
        latency_hist = metrics.histogram("request_latency_cycles")
    for value in result.latencies:
        latency_hist.observe(value)
    dip_hist = metrics.histogram("dip_gap_cycles")
    gaps = [
        result.series[i + 1][0] - result.series[i][0]
        for i in range(len(result.series) - 1)
    ]
    dip_gaps = [gap for gap in gaps if gap > DIP_THRESHOLD_CYCLES]
    for gap in dip_gaps:
        dip_hist.observe(gap)
    metrics.counter("dips").inc(len(dip_gaps))
    row: Dict[str, object] = {
        "run_seed": run_seed,
        "outcome": _run_outcome(result),
        "requests": result.requests,
        "served": result.served,
        "errors": result.errors,
        "duration_cycles": result.duration_cycles,
        "reboots": result.reboots,
        "faults_armed": result.faults_armed,
        "faults_delivered": result.faults_injected,
        "steps": result.steps,
        "crashed": result.crashed,
        "throughput_rps": result.throughput_rps,
        "dips": len(dip_gaps),
        "dip_max_cycles": max(dip_gaps) if dip_gaps else None,
        "dip_recovery_cycles": result.dip_recovery_cycles(),
        "metrics": canonical_metrics(metrics.to_dict()),
    }
    quantiles = OPEN_QUANTILES if result.open_loop else QUANTILES
    for name, q in quantiles:
        row[f"latency_{name}_cycles"] = _nearest_rank(latencies, q)
    if result.open_loop:
        row["peak_outstanding"] = result.peak_outstanding
        row["slo_ok"] = result.slo_ok
        row["slo_miss"] = result.slo_miss
        row["goodput_rps"] = result.goodput_rps
    return row


def _drive_web_run(spec: WebRunSpec, run_seed: int, start):
    """Serve one run on a prepared system: restored to ``start``, the
    spec's first-arm snapshot, or without one booted (restored to boot
    when pooled).  Returns ``(row, system)``."""
    system = _web_system(spec, at=start)
    result = _serve(
        spec, system, run_seed, spec.n_faults > 0,
        None if start is None else start.roots[0],
    )
    return _row_from_result(run_seed, result), system


def execute_web_run(spec: WebRunSpec, run_seed: int) -> Dict[str, object]:
    """Execute one faulted web-server run; returns its campaign row.

    Module-level and pure (given the spec and seed), like the SWIFI
    ``execute_run``.  The run starts from the spec's first-arm
    snapshot when pooled, taken here on first use: *before* the run's
    acquire, since its clean passes run on the pooled system.
    """
    return _drive_web_run(spec, run_seed, _web_recording(spec))[0]


#: Kernel counters a traced web run folds into its metrics.
WEB_RUN_STATS = (
    "invocations", "upcalls", "faults_vectored", "micro_reboots",
    "steps", "interp_fast_runs", "interp_slow_runs",
    "trace_cache_hits", "trace_cache_misses", "budget_exhausted",
)

#: Sidecar work counts of the first-arm snapshot the runs start from.
SNAPSHOT_COUNTS = ("snapshot_steps", "snapshot_roots")


def _web_setup(spec: WebRunSpec, trace: bool):
    """Per-process setup: boot + seal the prepared pooled system and
    take the spec's first-arm snapshot; returns that snapshot, which
    every untraced run starts from (None when traced or unpooled,
    since such runs start from boot)."""
    return None if trace else _web_recording(spec)


def _web_run(spec: WebRunSpec, seed: int, trace: bool, snapshot, counters):
    """One campaign run: ``(row, record_or_None)``.

    A traced run is the same run under the flight recorder; its record
    carries the request-path arcs (``request_start`` / ``request_done``
    / ``throughput_dip``) interleaved with the injection/reboot
    events.  Event emission never feeds back into execution, so
    requesting a trace never changes the campaign artifact.
    """
    # Every run of a process starts from the same snapshot, so each
    # summed count over runs is the snapshot's count times the runs.
    if snapshot is not None:
        counts = (snapshot.steps, len(snapshot.state))
        for name, count in zip(SNAPSHOT_COUNTS, counts):
            counters[name] = counters.get(name, 0) + count
    if not trace:
        return _drive_web_run(spec, seed, snapshot)[0], None
    with override(trace=True):
        row, system = _drive_web_run(spec, seed, None)
        return row, run_record(
            spec, seed, system, WEB_RUN_STATS,
            service="webserver",
            # Web-server faults are armed on serving progress, not at a
            # seed-drawn trace execution; the horizon is the request
            # stream itself.
            injection_point=0,
            horizon=spec.n_requests,
            outcome=row["outcome"],
            steps=row["steps"],
        )


# ---------------------------------------------------------------------------
# Campaign aggregation
# ---------------------------------------------------------------------------

@dataclass
class WebCampaignResult:
    """A finished Fig. 7 campaign: per-seed rows plus the aggregate."""

    spec: WebRunSpec
    seeds: List[int]
    rows: List[Dict[str, object]]
    aggregate: Dict[str, object]
    #: Wall-clock split (sidecar-only: the artifact stays deterministic).
    setup_wall: float = 0.0
    exec_wall: float = 0.0
    #: Work counts of the first-arm snapshot the runs started from (0
    #: without one): the kernel steps it holds, which each run skips,
    #: and the roots it seals.  Sidecar fields, not outcomes.
    snapshot_steps: int = 0
    snapshot_roots: int = 0

    def to_json_dict(self) -> Dict[str, object]:
        """The deterministic campaign artifact (no wall-clock anywhere)."""
        return {
            "fingerprint": self.spec.fingerprint(),
            "spec": asdict(self.spec),
            "seeds": list(self.seeds),
            "rows": self.rows,
            "aggregate": self.aggregate,
        }

    def write_json(self, path: str) -> None:
        """Write the artifact plus a ``.timing.json`` wall-clock sidecar."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json_dict(), handle, indent=2)
            handle.write("\n")
        with open(path + ".timing.json", "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "runs": len(self.rows),
                    "setup_wall": self.setup_wall,
                    "snapshot_steps": self.snapshot_steps,
                    "snapshot_roots": self.snapshot_roots,
                    "exec_wall": self.exec_wall,
                },
                handle,
                indent=2,
            )
            handle.write("\n")


def aggregate_rows(
    spec: WebRunSpec, rows: Sequence[Dict[str, object]]
) -> Dict[str, object]:
    """Campaign aggregate from per-seed rows.

    Integer sums plus quantiles over the merged latency histogram —
    every operation is order-independent, so the aggregate is identical
    however the rows were executed.
    """
    merged: Dict[str, object] = {}
    for row in rows:
        merge_metrics(merged, row["metrics"])
    totals = {
        name: sum(row[name] for row in rows)
        for name in (
            "requests", "served", "errors", "duration_cycles", "reboots",
            "faults_armed", "faults_delivered", "dips", "steps",
        )
    }
    outcomes: Dict[str, int] = {}
    for row in rows:
        outcomes[row["outcome"]] = outcomes.get(row["outcome"], 0) + 1
    duration = totals["duration_cycles"]
    aggregate: Dict[str, object] = {
        "runs": len(rows),
        "outcomes": dict(sorted(outcomes.items())),
        **totals,
        "crashed_runs": sum(1 for row in rows if row["crashed"] is not None),
        "throughput_rps": (
            totals["served"] / (duration / (CYCLES_PER_US * 1e6))
            if duration
            else 0.0
        ),
        "metrics": canonical_metrics(merged),
    }
    open_loop = spec.arrivals == "open"
    latency_hist = merged.get("histograms", {}).get(
        "request_latency_cycles", {}
    )
    for name, q in OPEN_QUANTILES if open_loop else QUANTILES:
        aggregate[f"latency_{name}_cycles"] = (
            histogram_quantile(latency_hist, q) if latency_hist else None
        )
    if open_loop:
        slo_ok = sum(row["slo_ok"] for row in rows)
        slo_miss = sum(row["slo_miss"] for row in rows)
        aggregate["slo_ok"] = slo_ok
        aggregate["slo_miss"] = slo_miss
        aggregate["peak_outstanding"] = max(
            (row["peak_outstanding"] for row in rows), default=0
        )
        aggregate["goodput_rps"] = (
            slo_ok / (duration / (CYCLES_PER_US * 1e6)) if duration else 0.0
        )
    return aggregate


def run_webserver_campaign(
    seeds: Sequence[int],
    spec: Optional[WebRunSpec] = None,
    workers: Optional[int] = None,
    trace: Optional[str] = None,
    progress=None,
) -> WebCampaignResult:
    """Fan faulted web-server runs over ``seeds`` and aggregate them.

    ``workers=None`` uses one process per CPU; ``workers=1`` (or a
    single seed) runs in-process.  Rows are merged in ``seeds`` order
    whatever the completion order, so for a given schedule the artifact
    is byte-identical across worker counts, and — because rows derive
    from virtual-time outcomes only — across pooling modes.  ``trace``
    names a flight-recorder JSONL artifact: every run then executes
    traced (bypassing the pool) and the parent writes run records in
    seed order plus one summary line.
    """
    spec = spec or WebRunSpec()
    seeds = list(seeds)
    campaign = run_seeded(
        _web_setup, _web_run, spec, seeds, workers,
        trace=trace is not None, progress=progress,
    )
    rows = [campaign.results[seed] for seed in seeds]
    if trace is not None:
        export_trace(
            trace, spec.fingerprint(), seeds,
            [row["outcome"] for row in rows], campaign.records,
        )
    return WebCampaignResult(
        spec=spec,
        seeds=seeds,
        rows=rows,
        aggregate=aggregate_rows(spec, rows),
        setup_wall=campaign.setup_wall,
        exec_wall=campaign.exec_wall,
        **{
            name: campaign.counters.get(name, 0) // max(len(seeds), 1)
            for name in SNAPSHOT_COUNTS
        },
    )


def format_web_campaign(result: WebCampaignResult) -> str:
    """Human summary of a Fig. 7 campaign (deterministic: no wall clock)."""
    spec = result.spec
    agg = result.aggregate
    lines = [
        f"Fig. 7 campaign  {spec.fingerprint()}",
        (
            f"  runs: {agg['runs']}  requests: {agg['requests']}  "
            f"served: {agg['served']}  errors: {agg['errors']}"
        ),
        (
            f"  faults: {agg['faults_delivered']}/{agg['faults_armed']} "
            f"delivered/armed  reboots: {agg['reboots']}  "
            f"dips: {agg['dips']}  crashed runs: {agg['crashed_runs']}"
        ),
        f"  throughput: {agg['throughput_rps']:,.0f} req/s (virtual)",
    ]
    open_loop = spec.arrivals == "open"
    if open_loop:
        lines.append(
            f"  goodput: {agg['goodput_rps']:,.0f} req/s within "
            f"{spec.slo_us}us SLO  (ok: {agg['slo_ok']}  "
            f"miss: {agg['slo_miss']}  peak queue: "
            f"{agg['peak_outstanding']})"
        )
    quants = "  ".join(
        f"{name}={agg[f'latency_{name}_cycles']}"
        for name, __ in (OPEN_QUANTILES if open_loop else QUANTILES)
    )
    lines.append(f"  latency cycles: {quants}")
    lines.append("  outcomes:")
    for outcome, count in agg["outcomes"].items():
        lines.append(f"    {outcome:<24} {count}")
    return "\n".join(lines)
