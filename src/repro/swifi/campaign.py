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

Every run of a spec is clean up to its injection point, so a pooled run
does not execute that prefix: it restores the last rung of the spec's
snapshot ladder (:func:`_campaign_recording`) at or before its point and
runs authoritatively from there.  Unpooled and traced runs start from
boot and are the reference.  The ladder builder (:func:`_build_ladder`)
serves every campaign kind: Fig. 7's ladder has one rung, at its first
arm.
"""

from __future__ import annotations

import bisect
import functools
import json
import random
import time
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional

from repro.config import CONFIG
from repro.errors import ReproError, SimulatedFault
from repro.observe import FlightRecorder
from repro.swifi.classify import Outcome, OutcomeCounter
from repro.swifi.injector import FAULT_CLASSES, SwifiController
from repro.system import GLOBAL_POOL, SystemSnapshot, build_system
from repro.workloads import workload_for

#: Default iterations of the micro-workload per injection run: enough for
#: latent corruption to surface, small enough for 500-fault campaigns.
DEFAULT_ITERATIONS = 4

#: Step budget per run; exceeding it means the system livelocked.
MAX_STEPS = 60_000

#: Clean steps between the checkpoints a ladder's clean pass seals
#: until its first noted step: a Fig. 7 seal costs about as much as 20
#: steps, and the replay runs at most this many steps before its first
#: rung.  Table II clean runs are shorter, so they seal none.
CHECKPOINT_STRIDE = 256

#: Sidecar work counts of the snapshot ladders the runs started from:
#: the rungs of a ladder, the runs that started at a rung, and the
#: clean-prefix steps those runs skipped.  Engine statistics, so they
#: stay out of the main artifact (unpooled runs start from boot).
LADDER_KEYS = ("rungs", "rung_restores", "prefix_steps_skipped")


def ladder_counts(counters: Dict[str, int]) -> Dict[str, int]:
    """The sidecar's ladder work counts from summed run ``counters``.

    Each run adds its ladder's rung count, so the sum over the runs
    started at a rung is that count times those runs, whatever the
    number of worker processes that built a ladder each.
    """
    restores = counters.get("rung_restores", 0)
    return {
        "rungs": counters.get("rungs", 0) // max(restores, 1),
        "rung_restores": restores,
        "prefix_steps_skipped": counters.get("prefix_steps_skipped", 0),
    }


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


#: Kernel counters a traced run (Table II, Fig. 7) folds into its
#: metrics.
RUN_STATS = (
    "invocations", "upcalls", "faults_vectored", "micro_reboots",
    "steps", "interp_fast_runs", "interp_slow_runs",
    "trace_cache_hits", "trace_cache_misses", "budget_exhausted",
)


def run_record(spec, run_seed: int, system, **fields) -> dict:
    """One traced run's record, ready for
    :func:`repro.observe.export.write_run`.

    A traced run is the plain run from boot with a live recorder (see
    :func:`attach_recorder`); this folds the kernel's whole-run
    :data:`RUN_STATS` counters into the run's metrics registry, so
    campaign aggregation sees engine and recovery statistics in one
    deterministic place.  The spec gives the header's fingerprint,
    ft_mode and fault class; ``fields`` carry the campaign kind's own
    header fields (service, outcome, steps, ...).
    """
    kernel = system.kernel
    recorder = kernel.recorder
    metrics = recorder.metrics
    for stat in RUN_STATS:
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


def attach_recorder(system) -> None:
    """Give a traced run's fresh ``system`` a live flight recorder, bound
    to its kernel's clock, before anything is installed or armed.

    Building a system emits no event, so the run records what it would
    on a kernel built traced.  A pooled system (one with an
    :attr:`~repro.system.System.origin`) raises: its run could start at
    a rung and silently lose its prefix's events.
    """
    if system.origin is not None:
        raise ReproError("a traced run needs a fresh system, not a pooled one")
    system.kernel.recorder = FlightRecorder(system.kernel.clock)


def _campaign_system(ft_mode: str, recovery_mode: str, prepare=None, at=None):
    """A system for one campaign run: pooled by default, fresh otherwise.

    Pooling reuses a per-process sealed system, dirty-restoring it to
    its post-boot state between runs — outcomes are bit-identical
    because a restored system is structurally indistinguishable from a
    fresh build (``REPRO_POOL_DEBUG=1`` verifies that per restore).
    ``prepare`` is the pool's post-build hook (the web server registers
    its own components with it); ``at`` restores a later snapshot of
    the pooled system instead (see
    :meth:`repro.system.SystemPool.acquire`).
    """
    if CONFIG.system_pool:
        return GLOBAL_POOL.acquire(
            ft_mode=ft_mode, recovery_mode=recovery_mode, prepare=prepare,
            at=at,
        )
    system = build_system(ft_mode=ft_mode, recovery_mode=recovery_mode)
    if prepare is not None:
        prepare(system)
    return system


def warm_up(spec: RunSpec):
    """Boot and seal the spec's pooled system and build its ladder.

    A campaign's per-process setup, so its first run pays neither.
    Returns ``(snapshot, ladder)`` (see :func:`ladder_start`) for
    :func:`_drive_run`'s ``start``; None without pooling.
    """
    return ladder_start(
        spec, ("ladder", spec.service, spec.iterations,
               spec.fault_class == "idl"),
        MAX_STEPS, _install_workload, _watch_eligible,
        lambda spec, roots: roots[0].check(),
    )


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


class Rung(NamedTuple):
    """One start of a snapshot ladder: the system sealed once the step
    that raises the ladder's count began (:meth:`Kernel.begin_step`),
    with the roots the kind's install returned, and the count its
    prefix reached (the target's SWIFI-eligible count for Table II, 0
    for Fig. 7's one rung)."""

    snapshot: SystemSnapshot
    eligible: int


class Ladder(NamedTuple):
    """A spec's snapshot ladder: rungs in step order, with their
    eligible counts (ascending) for the lookup."""

    rungs: tuple
    eligible: tuple

    def rung_for(self, point: int) -> Rung:
        """The last rung at or before injection point ``point``."""
        return self.rungs[bisect.bisect_right(self.eligible, point) - 1]


def ladder_start(spec, key, max_steps, install, watch, clean, prepare=None):
    """A pooled campaign's start, ``(snapshot, ladder)``: the pooled
    system's snapshot (with the pool's ``prepare`` hook, see
    :meth:`SystemPool.snapshot_for`) and the spec's ladder, built once
    on it under ``key`` (see :func:`_build_ladder`), or no ladder for a
    ``key`` of None.  None without pooling, as in a traced campaign: a
    rung is a snapshot of the pooled system itself, so
    fresh-per-run and flight-recorder runs always start from boot,
    which is what makes their artifacts byte-identical to pooled ones
    by construction.  The ladder lives and dies with the snapshot, so a
    pool rebuild drops it.
    """
    if not CONFIG.system_pool:
        return None
    snapshot = GLOBAL_POOL.snapshot_for(
        spec.ft_mode, spec.recovery_mode, prepare
    )
    if key is not None and key not in snapshot.starts:
        snapshot.starts[key] = _build_ladder(
            spec, snapshot, max_steps, install, watch, clean
        )
    return snapshot, snapshot.starts.get(key)


class _StepNotes:
    """Where a ladder's rungs go: ``points``, each step in which the
    kind's count rises (its noter calls :meth:`note` per counted event)
    with the count before it.  The run queue counts its picks, one per
    step, so during a step it reads that step's number."""

    def __init__(self, kernel):
        self._queue = kernel.run_queue
        self._start = self._queue._rr
        self.count = 0
        self.points: List[tuple] = []

    def note(self) -> None:
        steps = self._queue._rr - self._start - 1
        if not self.points or self.points[-1][0] != steps:
            self.points.append((steps, self.count))
        self.count += 1


def _build_ladder(spec, snapshot, max_steps, install, watch, clean):
    """Seal the spec's snapshot ladder on the pooled system restored to
    ``snapshot``; None on any anomaly.

    The one way a campaign run gets its start.  The campaign kind
    supplies ``install(spec, system)``, which installs a run and returns
    its roots; ``watch(spec, system, roots, notes)``, which attaches a
    noter calling ``notes.note()`` on each event that raises the kind's
    count and returns the ``(owner, attribute)`` it sits on; and
    ``clean(spec, roots)``, its own check of a clean run.

    One watched clean pass, then a replay from its last checkpoint.
    The pass runs the clean run to its end and notes the steps that
    raise the count.  Until the first of them, it seals a checkpoint
    every :data:`CHECKPOINT_STRIDE` steps, with the noter detached (a
    snapshot seals neither a controller nor a closure).  The replay
    restores the last checkpoint (``snapshot`` plus the install when
    the first note falls inside the first stride), where the count is
    still 0, and runs to each noted step.  It begins that step (a
    woken thread's stub tracking runs, as it does before any fault of
    the step can land), seals a rung there, and stops after the last
    rung.  No rung re-runs its prefix.  A crash, a failed check, an
    exhausted budget, a reboot or no noted step gives None: the spec's
    runs then start from ``snapshot``.
    """
    system = GLOBAL_POOL.acquire(at=snapshot)
    kernel = system.kernel
    roots = install(spec, system)
    notes = _StepNotes(kernel)
    owner, attribute = watch(spec, system, roots, notes)
    checkpoint = snapshot
    ran = 0
    while not notes.points and ran + CHECKPOINT_STRIDE < max_steps:
        crash, steps = _run_stride(system, CHECKPOINT_STRIDE)
        ran += steps
        if crash is not None or steps < CHECKPOINT_STRIDE:
            break  # the pass ended inside the stride
        if not notes.points:
            checkpoint = _seal_detached(
                system, owner, attribute, snapshot.prepare, roots,
                functools.partial(
                    _ladder_prefix, install, spec, ran, begin=False
                ),
            )
    else:  # a note came, or the budget is near: finish the pass
        crash, __ = run_system(system, max_steps - ran)
    if (
        crash is not None
        or not clean(spec, roots)
        or kernel.budget_exhausted
        or system.booter.reboots
        or not notes.points
    ):
        return None
    system = GLOBAL_POOL.acquire(at=checkpoint)
    # The pooled snapshot has no roots: its replay installs the run.
    roots = checkpoint.roots or install(spec, system)
    counter = _StepNotes(kernel)
    owner, attribute = watch(spec, system, roots, counter)
    rungs = []
    ran = checkpoint.steps
    for steps, count in notes.points:
        run_prefix(system, steps - ran)
        ran = steps
        kernel.begin_step()
        if counter.count != count:
            raise ReproError(
                f"beginning step {steps} of {spec.fingerprint()} moved "
                f"its count past {count}"
            )
        sealed = _seal_detached(
            system, owner, attribute, snapshot.prepare, roots,
            functools.partial(_ladder_prefix, install, spec, steps),
        )
        rungs.append(Rung(sealed, count))
    return Ladder(tuple(rungs), tuple(rung.eligible for rung in rungs))


def _seal_detached(system, owner, attribute, prepare, roots, prefix):
    """Seal ``system`` where it stands with the noter on ``owner``'s
    ``attribute`` detached for the seal."""
    noter = getattr(owner, attribute)
    setattr(owner, attribute, None)
    sealed = SystemSnapshot(system, prepare=prepare, prefix=prefix, roots=roots)
    setattr(owner, attribute, noter)
    return sealed


def _ladder_prefix(install, spec, steps: int, system, begin=True) -> tuple:
    """Install the spec's run on a booted ``system``, run its first
    ``steps`` clean steps and begin the next: a rung's prefix (a
    checkpoint's with ``begin`` false), for the debug diff's fresh
    build.  Returns the run's roots."""
    roots = install(spec, system)
    run_prefix(system, steps)
    if begin:
        system.kernel.begin_step()
    return roots


def rung_start(start: tuple, point: int, counters=None):
    """``(snapshot to restore, rung)`` for a run from ``start``: the
    last rung at or before injection point ``point``, whose ladder work
    counts (:data:`LADDER_KEYS`) go to ``counters``; without a ladder
    the pooled snapshot and no rung."""
    snapshot, ladder = start
    if ladder is None:
        return snapshot, None
    rung = ladder.rung_for(point)
    if counters is not None:
        for key, count in zip(
            LADDER_KEYS, (len(ladder.rungs), 1, rung.snapshot.steps)
        ):
            counters[key] = counters.get(key, 0) + count
    return rung.snapshot, rung


def _campaign_recording(spec: RunSpec) -> Optional[Ladder]:
    """The spec's snapshot ladder (see :func:`warm_up`): None unpooled,
    and when its clean run is not clean, so its runs start from boot."""
    start = warm_up(spec)
    return None if start is None else start[1]


def _install_workload(spec: RunSpec, system) -> tuple:
    """Install the spec's workload; its one root is the run handle."""
    return (
        workload_for(spec.service).install(system, iterations=spec.iterations),
    )


class _EligibleNoter(SwifiController):
    """A never-armed controller that notes each of the target's
    SWIFI-eligible events: trace executions in the target for reg, mem
    and burst, stub invocations of it for idl."""

    def __init__(self, kernel, spec: RunSpec, notes: _StepNotes):
        super().__init__(kernel, seed=0)
        self.target = spec.service
        self.idl = spec.fault_class == "idl"
        self.note = notes.note

    def take_injection(self, component_name: str, trace_len: int):
        if not self.idl and component_name == self.target and trace_len > 0:
            self.note()
        return super().take_injection(component_name, trace_len)

    def filter_idl_args(self, server: str, fn: str, args: tuple) -> tuple:
        if self.idl and server == self.target:
            self.note()
        return super().filter_idl_args(server, fn, args)


def _watch_eligible(spec: RunSpec, system, roots: tuple, notes) -> tuple:
    _EligibleNoter(system.kernel, spec, notes)
    return system.kernel, "swifi"


def run_prefix(system, steps: int) -> None:
    """Run exactly ``steps`` clean steps of ``system``: the prefix of a
    snapshot sealed at that step boundary.  Raises if fewer ran or the
    system crashed."""
    crash, ran = _run_stride(system, steps)
    if crash is not None or ran != steps:
        raise ReproError(
            f"a clean prefix stopped after {ran} of {steps} steps "
            f"({crash!r})"
        )


def _run_stride(system, steps: int):
    """:func:`run_system` for at most ``steps`` steps of a longer run:
    stopping on that budget is not an exhausted one, so it leaves no
    mark."""
    crash, ran = run_system(system, steps)
    kernel = system.kernel
    if kernel.last_run_exhausted:
        kernel.stats["budget_exhausted"] -= 1
        kernel.last_run_exhausted = False
    return crash, ran


def run_system(system, max_steps: int):
    """Run one campaign system to its end; returns ``(crash, steps)``.

    The one place a campaign run executes: Table II runs, Fig. 7 runs
    (campaign and CLI), and the clean pass, strides and replays that
    snapshot ladders are sealed from.  Each kind installs
    (or restores) and arms before the call and maps ``crash`` onto its
    own outcome vocabulary after it.

    ``crash`` is the failure that ended the run: the ``SimulatedFault``
    (``SystemHang`` included) or ``ReproError`` that escaped
    ``system.run``, else ``kernel.crashed``.  ``steps`` is the delta of
    the kernel's step counter, which ``Kernel.run`` updates on every
    exit path, so a run that raised counts its steps too.
    """
    kernel = system.kernel
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
    if crash is None:
        crash = kernel.crashed
    return crash, kernel.stats["steps"] - steps


def _drive_run(
    spec: RunSpec, run_seed: int, start=None, counters=None, trace=False
):
    """Restore (or boot) a system, inject per the spec, run it.

    Returns ``(outcome, system, swifi, steps, handle)``.  ``start`` is
    :func:`warm_up`'s ``(snapshot, ladder)``, which a campaign looks
    up once instead of once per run; without one the run warms the
    shared pool itself, or builds fresh when unpooled.  With
    a ladder the run restores the last rung at or before its injection
    point (:func:`rung_start`), whose prefix already ran the workload's
    install and first steps and began the next: the fault arms the rest
    of the countdown, and the run finishes that step and gets the rest
    of the step budget.  Its ``steps`` count from boot either way.
    ``counters`` sums the ladder work counts (:data:`LADDER_KEYS`).
    A ``trace`` run carries a live flight recorder
    (:func:`attach_recorder`), so it must build fresh.
    """
    if start is None:
        # Warm *before* the final acquire: the ladder's clean pass and
        # replay run on the pooled system, and this run must start
        # from a clean restore of it.
        start = warm_up(spec)
    point = injection_point(run_seed, spec.horizon)
    rung = None
    if start is None:
        system = _campaign_system(spec.ft_mode, spec.recovery_mode)
    else:
        at, rung = rung_start(start, point, counters)
        system = GLOBAL_POOL.acquire(at=at)
    if trace:
        attach_recorder(system)
    swifi = SwifiController(system.kernel, seed=run_seed)
    if rung is None:
        skipped = 0
        handle, = _install_workload(spec, system)
    else:
        skipped = rung.snapshot.steps
        handle, = rung.snapshot.roots
        point -= rung.eligible
    _arm_for_class(swifi, spec.fault_class, spec.service, point)
    crash, steps = run_system(system, MAX_STEPS - skipped)
    steps += skipped
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
    #: compile, pool boot, snapshot ladder) vs run execution.
    #: Deliberately *not* part of :meth:`row` — the Table II artifact
    #: must stay bit-identical across machines and pooling modes;
    #: timings go to the ``.timing.json`` sidecar instead.
    setup_wall: float = 0.0
    exec_wall: float = 0.0
    #: The ladder's work counts (:func:`ladder_counts`).  Also
    #: sidecar-only: they depend on pooling, which the main artifact
    #: must be invariant to.
    ladder: Optional[Dict[str, int]] = None

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
        from repro.swifi.parallel import seed_schedule

        return seed_schedule(self.seed, self.n_faults)

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
            ladder=ladder_counts(campaign.counters),
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

    This is the format ``scripts/exactness.py`` compares across engine
    configurations and, at 50 faults, with
    ``benchmarks/baselines/table2_<class>.json``.  Wall-clock
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
        if result.ladder is not None:
            entry["ladder"] = dict(result.ladder)
        timing.append(entry)
    with open(path + ".timing.json", "w", encoding="utf-8") as handle:
        json.dump(timing, handle, indent=2)
        handle.write("\n")
