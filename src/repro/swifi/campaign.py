"""Fault-injection campaign driver (Section V-D, Table II).

For each target service, a campaign injects ``n_faults`` faults, one per
run: the system is built fresh (the paper reboots the machine between
runs "to clear any residual errors"), the service's workload is
installed, a fault of the campaign's class — register SEU, memory-image
bit flip, IDL-boundary corruption, or correlated burst (see
:data:`~repro.swifi.injector.FAULT_CLASSES`) — is armed to fire at a
random point of the workload's execution against the target, and the run
is driven to completion.  Each injection is then classified per Table
II's outcome taxonomy, and a campaign aggregates activation ratio and
recovery success rate per fault class.

Every run is self-deterministic: its injection point is derived from the
run seed alone (``random.Random(run_seed).randrange(horizon)``), so a
run's outcome is a pure function of ``(service, ft_mode, iterations,
horizon, recovery_mode, run_seed)``.  That makes runs order-independent
and lets :mod:`repro.swifi.parallel` fan a campaign out across a process
pool — or resume an interrupted one — with bit-identical aggregates.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.composite.supertrace import (
    REGISTRY,
    RecordingSession,
    ReplaySession,
    super_trace_enabled,
)
from repro.errors import ReproError, SimulatedFault
from repro.observe import tracing_enabled
from repro.swifi.classify import Outcome, OutcomeCounter
from repro.swifi.injector import FAULT_CLASSES, SwifiController
from repro.system import GLOBAL_POOL, build_system, pooling_enabled
from repro.workloads import workload_for

#: Default iterations of the micro-workload per injection run: enough for
#: latent corruption to surface, small enough for 500-fault campaigns.
DEFAULT_ITERATIONS = 4

#: Step budget per run; exceeding it means the system livelocked.
MAX_STEPS = 60_000

#: Kernel counters that make up a campaign's supertrace coverage report
#: (exported to the ``.timing.json`` sidecar — engine statistics are
#: knob-dependent, so they must stay out of the main artifact).
COVERAGE_KEYS = (
    "super_trace_runs",
    "super_trace_divergences",
    "super_trace_divergent_units",
)


def collect_coverage(kernel, into: Optional[Dict[str, int]] = None):
    """Fold one finished run's supertrace counters into ``into``."""
    if into is None:
        into = dict.fromkeys(COVERAGE_KEYS, 0)
    stats = kernel.stats
    for key in COVERAGE_KEYS:
        into[key] = into.get(key, 0) + stats[key]
    return into


def coverage_ratio(coverage: Dict[str, int]) -> float:
    """Fraction of executed invocation units served by replay.

    Replayed prefix units over every unit that crossed the session —
    replayed and post-divergence authoritative units alike.
    """
    replayed = coverage["super_trace_runs"]
    total = replayed + coverage["super_trace_divergent_units"]
    return replayed / total if total else 0.0


@dataclass(frozen=True)
class RunSpec:
    """Everything a single injection run depends on, besides its seed.

    A ``RunSpec`` plus a ``run_seed`` fully determines a run's outcome,
    which is what lets :func:`execute_run` execute in a worker process
    with no shared state.  The horizon is measured once by
    :meth:`CampaignRunner.calibrate` and shared via the spec so workers
    skip the calibration pass.
    """

    service: str
    ft_mode: str
    iterations: int
    horizon: int
    recovery_mode: str = "ondemand"
    fault_class: str = "reg"

    def __post_init__(self) -> None:
        # A zero/negative horizon used to be silently masked to 1 by
        # injection_point, turning "the workload never executed in the
        # target" into "always inject at trace execution 0".  Fail loudly
        # instead: an empty horizon means the calibration was wrong.
        if self.horizon < 1:
            raise ValueError(
                f"RunSpec horizon must be >= 1 (got {self.horizon}): an "
                f"empty injection horizon means the workload never "
                f"executes in {self.service!r}"
            )
        if self.fault_class not in FAULT_CLASSES:
            raise ValueError(
                f"unknown fault class {self.fault_class!r} "
                f"(expected one of {FAULT_CLASSES})"
            )

    def fingerprint(self) -> str:
        """Stable identity string, used to match journal entries."""
        return (
            f"{self.service}/{self.ft_mode}/it{self.iterations}"
            f"/h{self.horizon}/{self.recovery_mode}/{self.fault_class}"
        )


def injection_point(run_seed: int, horizon: int) -> int:
    """Injection point for one run, a pure function of its seed.

    ``horizon`` must be at least 1; masking an empty horizon (the old
    ``max(horizon, 1)``) would silently inject at trace execution 0 of a
    workload that never runs in the target.
    """
    if horizon < 1:
        raise ValueError(f"injection horizon must be >= 1, got {horizon}")
    return random.Random(run_seed).randrange(horizon)


def execute_run(spec: RunSpec, run_seed: int) -> Outcome:
    """Run one injection and classify it.  Pure: no shared state.

    Module-level (picklable) so a :class:`ProcessPoolExecutor` worker can
    execute it from a submitted ``(spec, seeds)`` chunk.
    """
    outcome, __, __, __, __ = _drive_run(spec, run_seed)
    return outcome


#: Kernel counters a traced Table II run folds into its metrics.
RUN_STATS = (
    "invocations", "upcalls", "faults_vectored", "micro_reboots",
    "steps", "interp_fast_runs", "interp_slow_runs",
    "trace_cache_hits", "trace_cache_misses",
    "super_trace_runs", "super_trace_bypasses",
    "super_trace_divergences", "super_trace_divergent_units",
    "budget_exhausted",
)


def run_record(spec, run_seed: int, system, stats, **fields) -> dict:
    """One traced run's record, ready for
    :func:`repro.observe.export.write_run`.

    A traced run is the plain run under ``observe.tracing(True)``; this
    folds the kernel's whole-run ``stats`` counters into the run's
    metrics registry, so campaign aggregation sees engine and recovery
    statistics in one deterministic place.  The spec gives the header's
    fingerprint, ft_mode and fault class; ``fields`` carry the campaign
    kind's own header fields (service, outcome, steps, ...).
    """
    kernel = system.kernel
    recorder = kernel.recorder
    metrics = recorder.metrics
    for stat in stats:
        metrics.counter(stat).inc(kernel.stats[stat])
    metrics.counter("runs").inc()
    return {
        "fingerprint": spec.fingerprint(),
        "run_seed": run_seed,
        "ft_mode": spec.ft_mode,
        "fault_class": spec.fault_class,
        **fields,
        "events": recorder.events(),
        "dropped_events": recorder.dropped,
        "metrics": metrics.to_dict(),
    }


def _pooled() -> bool:
    """Do campaign runs execute on pooled systems right now?

    The one place that decides "traced ⇒ fresh": warm trace caches shift
    cache-hit counters that the flight recorder folds into per-run
    metrics, and trace artifacts must stay byte-identical serial vs
    parallel, so traced runs build fresh — and, since recordings bind
    pooled systems, run without a super-trace.
    """
    return pooling_enabled() and not tracing_enabled()


def _campaign_system(
    ft_mode: str, recovery_mode: str, prepare=None, instance=None, at=None
):
    """A system for one campaign run: pooled by default, fresh otherwise.

    Pooling reuses a per-process sealed system, dirty-restoring it to
    its post-boot state between runs — outcomes are bit-identical
    because a restored system is structurally indistinguishable from a
    fresh build (``REPRO_POOL_DEBUG=1`` verifies that per restore).
    ``prepare`` is the pool's post-build hook (the web server registers
    its own components with it); ``instance`` selects a private pool
    snapshot (e.g. one cluster node's) instead of the process-shared
    one; ``at`` restores a later snapshot of the pooled system instead
    (see :meth:`repro.system.SystemPool.acquire`).
    """
    if _pooled():
        return GLOBAL_POOL.acquire(
            ft_mode=ft_mode, recovery_mode=recovery_mode, prepare=prepare,
            instance=instance, at=at,
        )
    system = build_system(ft_mode=ft_mode, recovery_mode=recovery_mode)
    if prepare is not None:
        prepare(system)
    return system


def warm_up(spec: RunSpec, instance=None):
    """Boot and seal the spec's pooled system and build its recording.

    A campaign's per-process setup, so its first run pays neither.
    Returns ``(snapshot, recording)``, the pooled system's snapshot and
    the recording, for :func:`_drive_run`'s ``start`` (None without
    pooling).  ``instance`` warms a private snapshot, as each cluster
    node does.
    """
    if not _pooled():
        return None
    _campaign_system(spec.ft_mode, spec.recovery_mode, instance=instance)
    recording = _campaign_recording(spec, instance=instance)
    snapshot = GLOBAL_POOL.snapshot_for(
        ft_mode=spec.ft_mode, recovery_mode=spec.recovery_mode,
        instance=instance,
    )
    return snapshot, recording


def _arm_for_class(
    swifi: SwifiController, fault_class: str, target: str, point: int
) -> None:
    """Arm one ``fault_class`` fault against ``target`` at ``point``.

    Table II arms at the run's derived injection point; Fig. 7 arms at
    point 0 each time serving progress crosses its injection period.
    """
    if fault_class == "reg":
        swifi.arm(target, after_executions=point)
    elif fault_class == "mem":
        swifi.arm_mem(target, after_executions=point)
    elif fault_class == "idl":
        swifi.arm_idl(target, after_invocations=point)
    elif fault_class == "burst":
        swifi.arm_burst(target, after_executions=point)
    else:  # pragma: no cover - the run specs validate the class
        raise ValueError(f"unknown fault class {fault_class!r}")


def _campaign_recording(spec: RunSpec, instance=None):
    """The spec's super-trace recording, built once per process.

    Recordings exist only for pooled, untraced campaigns: a recording's
    units hold direct references into the sealed pooled system (images,
    stubs), so fresh-per-run and flight-recorder runs always execute on
    the authoritative two-tier path — which is also what makes
    ``REPRO_SUPER_TRACE=0/1 × REPRO_SYSTEM_POOL=0/1`` artifacts
    byte-identical by construction.  ``instance`` keys the recording to
    a private pool snapshot (a cluster node's), whose unit references
    bind *that* snapshot's images and stubs — the shared-pool recording
    would silently guard-fail against them every run.  A failed build
    is cached as None so the campaign never retries it.
    """
    if not (super_trace_enabled() and _pooled()):
        return None
    key = (
        spec.service, spec.ft_mode, spec.iterations, spec.recovery_mode,
        instance,
    )
    system = GLOBAL_POOL.peek(
        ft_mode=spec.ft_mode, recovery_mode=spec.recovery_mode,
        instance=instance,
    )
    if system is not None:
        found, recording = REGISTRY.lookup(key, system)
        if found:
            return recording
    recording = _build_recording(
        spec,
        lambda: _campaign_system(
            spec.ft_mode, spec.recovery_mode, instance=instance
        ),
    )
    system = GLOBAL_POOL.peek(
        ft_mode=spec.ft_mode, recovery_mode=spec.recovery_mode,
        instance=instance,
    )
    REGISTRY.store(key, system, recording)
    return recording


def _build_recording(spec: RunSpec, acquire):
    """Record the spec's clean workload run for replay; None on any
    anomaly.

    Two clean passes on systems from ``acquire()``: one warm-up pass
    brings the pooled system's trace caches and compiled fast paths to
    steady state (every trace attaches its program on its 2nd clean
    execution), so the recorded per-unit statistics match the warm
    state every pooled campaign run executes in; the second runs under
    a :class:`RecordingSession`.  Any anomaly — a crashed run, a failed
    workload check, an exhausted budget, a reboot — aborts to None: the
    campaign then runs fully authoritative, never approximated.  A
    harness error propagates.
    """
    workload = workload_for(spec.service)
    session = None
    for warm in range(2):
        system = acquire()
        kernel = system.kernel
        swifi = SwifiController(kernel, seed=0)  # never armed
        if warm == 1:
            session = RecordingSession(kernel)
            session.instrument(swifi)
            kernel._supertrace = session
        handle = workload.install(system, iterations=spec.iterations)
        crash, __ = run_system(system, None, MAX_STEPS)
        if (
            crash is not None
            or not handle.check()
            or kernel.budget_exhausted
            or system.booter.reboots
        ):
            return None
    return session.finish(
        {"service": spec.service, "ft_mode": spec.ft_mode,
         "iterations": spec.iterations, "recovery_mode": spec.recovery_mode},
    )


def run_system(system, recording, max_steps: int):
    """Run one campaign system to its end; returns ``(crash, steps)``.

    The one place a campaign run executes: Table II runs, cluster
    units, Fig. 7 runs (campaign and CLI), both clean passes of a
    Table II recording and both of a Fig. 7 first-arm snapshot.  Each
    kind installs and arms before the call and maps ``crash`` onto its
    own outcome vocabulary after it.  ``recording``'s
    prefix is replayed when it binds this kernel (see
    :func:`_campaign_recording`); the session always detaches.

    ``crash`` is the failure that ended the run: the ``SimulatedFault``
    (``SystemHang`` included) or ``ReproError`` that escaped
    ``system.run``, else ``kernel.crashed``.  ``steps`` is the delta of
    the kernel's step counter, which ``Kernel.run`` updates on every
    exit path, so a run that raised counts its steps too.
    """
    kernel = system.kernel
    if recording is not None and recording.kernel is kernel:
        kernel._supertrace = ReplaySession(recording)
    steps = kernel.stats["steps"]
    crash = None
    try:
        system.run(max_steps=max_steps)
    except (SimulatedFault, ReproError) as error:
        # Fuzzed interface values (idl) and mid-recovery re-faults
        # (burst) surface library errors too, e.g. an InvalidDescriptor
        # escaping every recovery tier: real not-recovered outcomes of
        # the fault, not harness bugs.  Anything else propagates.
        crash = error
    finally:
        kernel._supertrace = None
    if crash is None:
        crash = kernel.crashed
    return crash, kernel.stats["steps"] - steps


def _drive_run(spec: RunSpec, run_seed: int, instance=None, start=None):
    """Boot (or pool-restore) a system, inject per the spec, run it.

    Returns ``(outcome, system, swifi, steps, handle)``.  ``instance``
    routes the run through a private instance-keyed pool snapshot (a
    cluster node's) with its own instance-keyed super-trace recording,
    so node runs replay exactly like shared-pool campaign runs.
    ``start`` is :func:`warm_up`'s ``(snapshot, recording)``, looked up
    once per campaign instead of once per run.
    """
    if start is None:
        # Build the recording *before* the final acquire: the warm-up
        # passes dirty the pooled snapshot, and this run must start
        # from a clean restore of it.
        recording = _campaign_recording(spec, instance=instance)
        system = _campaign_system(
            spec.ft_mode, spec.recovery_mode, instance=instance
        )
    else:
        snapshot, recording = start
        system = GLOBAL_POOL.acquire(at=snapshot)
    swifi = SwifiController(system.kernel, seed=run_seed)
    workload = workload_for(spec.service)
    handle = workload.install(system, iterations=spec.iterations)
    _arm_for_class(
        swifi, spec.fault_class, spec.service,
        injection_point(run_seed, spec.horizon),
    )
    crash, steps = run_system(system, recording, MAX_STEPS)
    outcome = classify_run(spec.ft_mode, system, swifi, handle, crash, steps)
    return outcome, system, swifi, steps, handle


def classify_run(ft_mode, system, swifi, handle, crash, steps) -> Outcome:
    """Map one finished run onto Table II's outcome taxonomy."""
    delivered = swifi.delivered_count > 0
    if crash is not None:
        kind = getattr(crash, "kind", "fault")
        if kind == "crash" or (kind == "segfault" and ft_mode == "none"):
            return Outcome.NOT_RECOVERED_SEGFAULT
        if kind == "propagated":
            return Outcome.NOT_RECOVERED_PROPAGATED
        return Outcome.NOT_RECOVERED_OTHER
    if system.kernel.budget_exhausted:
        # Livelock: latent fault kept the system spinning past the step
        # budget with live work remaining (distinguished, since the
        # budget-exhaustion bugfix, from a run that merely *finished*
        # near the budget).
        return Outcome.NOT_RECOVERED_OTHER
    workload_ok = handle.check()
    rebooted = system.booter.reboots > 0
    if rebooted:
        return Outcome.RECOVERED if workload_ok else Outcome.NOT_RECOVERED_OTHER
    if not delivered:
        # The SEU landed where the workload no longer executed in the
        # target (e.g. after its last invocation): no effect.
        return Outcome.UNDETECTED
    if workload_ok:
        return Outcome.UNDETECTED
    return Outcome.NOT_RECOVERED_OTHER


@dataclass
class CampaignResult:
    """One Table II row."""

    service: str
    counter: OutcomeCounter
    seed: int
    ft_mode: str
    fault_class: str = "reg"
    #: Wall-clock split: calibration plus per-process setup (IDL
    #: compile, pool boot, recording) vs run execution.  Deliberately
    #: *not* part of :meth:`row` — the Table II artifact must stay
    #: bit-identical across machines and pooling modes; timings go to
    #: the ``.timing.json`` sidecar instead.
    setup_wall: float = 0.0
    exec_wall: float = 0.0
    #: Summed supertrace engine counters (:data:`COVERAGE_KEYS`).  Also
    #: sidecar-only: the counters depend on the engine knobs
    #: (``REPRO_SUPER_TRACE``/pooling), which the main artifact must be
    #: invariant to.
    coverage: Optional[Dict[str, int]] = None

    @property
    def injected(self) -> int:
        return self.counter.injected

    def row(self) -> Dict[str, object]:
        c = self.counter
        return {
            "component": self.service,
            "fault_class": self.fault_class,
            "injected": c.injected,
            "recovered": c.recovered,
            "not_recovered_segfault": c.count(Outcome.NOT_RECOVERED_SEGFAULT),
            "not_recovered_propagated": c.count(Outcome.NOT_RECOVERED_PROPAGATED),
            "not_recovered_other": c.count(Outcome.NOT_RECOVERED_OTHER),
            "undetected": c.count(Outcome.UNDETECTED),
            "activation_ratio": c.activation_ratio,
            "recovery_success_rate": c.recovery_success_rate,
        }


class CampaignRunner:
    """Runs a SWIFI campaign against one target service."""

    def __init__(
        self,
        service: str,
        ft_mode: str = "superglue",
        n_faults: int = 500,
        iterations: int = DEFAULT_ITERATIONS,
        seed: int = 0,
        recovery_mode: str = "ondemand",
        fault_class: str = "reg",
    ):
        self.service = service
        self.ft_mode = ft_mode
        self.n_faults = n_faults
        self.iterations = iterations
        self.seed = seed
        self.recovery_mode = recovery_mode
        self.fault_class = fault_class
        self.workload = workload_for(service)
        self._horizon: Optional[int] = None

    # ------------------------------------------------------------------
    def calibrate(self) -> int:
        """Dry run: measure the campaign's injection horizon.

        For trace-delivered classes (reg, mem, burst) the horizon is the
        number of trace executions inside the target component; for the
        idl class it is the number of client-stub invocations of the
        target server.  The injection point is drawn uniformly from this
        horizon, which models the paper's periodic injection timer
        landing at a uniformly random instant of the workload's
        execution against the target.  Runs once per campaign; workers
        receive the result via the RunSpec.
        """
        system = _campaign_system(self.ft_mode, self.recovery_mode)
        swifi = SwifiController(system.kernel, seed=0)
        handle = self.workload.install(system, iterations=self.iterations)
        system.run(max_steps=MAX_STEPS)
        if not handle.check():
            raise RuntimeError(
                f"workload {self.workload.name} fails without faults: "
                f"{handle.results}"
            )
        if self.fault_class == "idl":
            observed = swifi.invoke_counts.get(self.service, 1)
        else:
            observed = swifi.trace_counts.get(self.service, 1)
        self._horizon = max(observed, 1)
        return self._horizon

    def spec(self) -> RunSpec:
        """The calibrated run spec (calibrating on first use)."""
        if self._horizon is None:
            self.calibrate()
        return RunSpec(
            service=self.service,
            ft_mode=self.ft_mode,
            iterations=self.iterations,
            horizon=self._horizon,
            recovery_mode=self.recovery_mode,
            fault_class=self.fault_class,
        )

    def run_seeds(self) -> List[int]:
        """The deterministic per-run seed schedule for this campaign."""
        return [self.seed * 1_000_003 + i for i in range(self.n_faults)]

    # ------------------------------------------------------------------
    def run_one(self, run_seed: int) -> Outcome:
        """One injection run; returns its classified outcome."""
        return execute_run(self.spec(), run_seed)

    # ------------------------------------------------------------------
    def run(
        self,
        progress=None,
        workers: Optional[int] = None,
        journal: Optional[str] = None,
        trace: Optional[str] = None,
    ) -> CampaignResult:
        """Run the campaign.

        ``workers=None`` uses one worker per CPU; ``workers > 1`` fans
        runs out over a process pool (see :mod:`repro.swifi.parallel`);
        the aggregate is bit-identical to the serial path for the same
        seed.  ``journal`` names a JSONL
        checkpoint file: completed runs are appended as they finish and
        skipped on a rerun, so an interrupted campaign resumes where it
        left off.  ``trace`` names a flight-recorder JSONL artifact:
        every run executes with tracing on and its event journal +
        metrics are appended there (outcomes are unchanged by tracing).
        """
        from repro.swifi.parallel import run_campaign

        start = time.perf_counter()
        spec = self.spec()
        calibrate_wall = time.perf_counter() - start
        counter, campaign = run_campaign(
            spec,
            self.run_seeds(),
            workers=workers,
            journal=journal,
            progress=progress,
            trace=trace,
        )
        return CampaignResult(
            service=self.service,
            counter=counter,
            seed=self.seed,
            ft_mode=self.ft_mode,
            fault_class=self.fault_class,
            setup_wall=calibrate_wall + campaign.setup_wall,
            exec_wall=campaign.exec_wall,
            coverage={
                key: campaign.counters.get(key, 0) for key in COVERAGE_KEYS
            },
        )


def run_full_campaign(
    services=None,
    n_faults: int = 500,
    ft_mode: str = "superglue",
    seed: int = 0,
    workers: Optional[int] = None,
    journal: Optional[str] = None,
    trace: Optional[str] = None,
    fault_class: str = "reg",
) -> List[CampaignResult]:
    """Reproduce Table II: one campaign per target service.

    ``fault_class`` selects the injected fault model (one of
    :data:`~repro.swifi.injector.FAULT_CLASSES`) — each class is its own
    campaign column with its own outcome distribution.  One journal file
    covers the whole multi-service campaign: entries carry the run
    spec's fingerprint (which includes the fault class), so each service
    resumes only its own completed runs.  Likewise one ``trace``
    artifact accumulates the flight-recorder export of every service's
    campaign (each appends its runs and a per-campaign summary line).
    """
    from repro.idl_specs import SERVICES

    results = []
    for service in services or SERVICES:
        runner = CampaignRunner(
            service, ft_mode=ft_mode, n_faults=n_faults, seed=seed,
            fault_class=fault_class,
        )
        results.append(runner.run(workers=workers, journal=journal, trace=trace))
    return results


def format_table2(results: List[CampaignResult]) -> str:
    """Render campaign results in the shape of Table II."""
    header = (
        f"{'Component':<10}{'Injected':>9}{'Recovered':>10}"
        f"{'NR(segf)':>9}{'NR(prop)':>9}{'NR(other)':>10}{'Undetect':>9}"
        f"{'ActRatio':>10}{'SuccRate':>10}"
    )
    lines = [header, "-" * len(header)]
    for result in results:
        row = result.row()
        lines.append(
            f"{row['component']:<10}{row['injected']:>9}{row['recovered']:>10}"
            f"{row['not_recovered_segfault']:>9}"
            f"{row['not_recovered_propagated']:>9}"
            f"{row['not_recovered_other']:>10}{row['undetected']:>9}"
            f"{row['activation_ratio']:>9.2%}{row['recovery_success_rate']:>9.2%}"
        )
    return "\n".join(lines)


def write_table2_json(results: List[CampaignResult], path: str) -> None:
    """Emit the machine-readable Table II artifact: one dict per row.

    This is the format the nightly campaign workflow uploads and checks
    against ``benchmarks/baselines/table2_smoke.json``.  Wall-clock
    timings are machine-dependent, so they go to a ``.timing.json``
    sidecar — the main artifact stays bit-identical across machines,
    worker counts, and pooling modes.
    """
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([result.row() for result in results], handle, indent=2)
        handle.write("\n")
    timing = []
    for result in results:
        entry = {
            "component": result.service,
            "injected": result.injected,
            "setup_wall": result.setup_wall,
            "exec_wall": result.exec_wall,
        }
        if result.coverage is not None:
            entry["coverage"] = dict(result.coverage)
            entry["replayed_unit_coverage"] = round(
                coverage_ratio(result.coverage), 6
            )
        timing.append(entry)
    with open(path + ".timing.json", "w", encoding="utf-8") as handle:
        json.dump(timing, handle, indent=2)
        handle.write("\n")
