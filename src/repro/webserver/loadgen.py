"""``ab``-style and open-loop load generators (Section V-E).

"During each test, ab sends 50000 requests with a maximum of 10 requests
concurrently to the server."  The closed-loop generator runs as a thread
in a *different* component than the server (requests arrive over the
event manager's global descriptors, as network interrupts would), keeps
at most ``concurrency`` requests outstanding, and measures throughput in
virtual time.

The closed-loop shape hides overload by construction: bounded
outstanding requests mean arrivals *wait* for a slow server, so a
recovery storm shows up as a throughput dip but never as queue growth.
:class:`OpenLoopGenerator` submits requests at virtual-time arrival
instants from an :class:`~repro.webserver.arrivals.ArrivalSpec` —
Poisson arrivals, phase schedules, bounded-Pareto sizes — regardless of
backlog, and the run is scored against a tail-latency SLO (goodput =
requests answered within deadline).
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.composite.scheduler import CYCLES_PER_US
from repro.composite.thread import Invoke, Sleep, Yield
from repro.errors import SimulatedFault, SystemHang
from repro.swifi import campaign as swifi_campaign
from repro.swifi.campaign import run_system
from repro.swifi.injector import SwifiController
from repro.system import build_system
from repro.webserver.arrivals import Arrival, ArrivalSpec
from repro.webserver.http import build_request
from repro.webserver.server import DEFAULT_SITE, WebServer

#: Services cycled through by the fault-injection variant ("injecting
#: faults into one system-level component every 10 seconds").  The
#: cycle deliberately differs from the full system-service list in two
#: ways; both are exposure-derived, not typos:
#:
#: * ``ramfs`` appears twice.  It is by far the hottest service on the
#:   request path (every request performs at least one tseek + tread;
#:   weighted open-loop requests multiply that), so the paper's
#:   uniform-over-*time* injection lands disproportionately often in
#:   the filesystem.  Doubling its share of the uniform-over-*cycle*
#:   schedule approximates that exposure weighting.
#: * ``sched`` is absent.  Register SEUs are delivered only to a thread
#:   *executing within* the target component, and web-path threads
#:   never execute traces inside the scheduler component (trace-count
#:   audits of the request path show lock/app/event/ramfs/mm/timer
#:   executions only) — an armed sched fault would never fire and would
#:   silently deflate ``faults_delivered``.
#:
#: ``tests/test_webserver_campaign.py`` pins both properties; change
#: them together or not at all.
FAULT_TARGET_CYCLE = ["ramfs", "lock", "event", "mm", "timer", "ramfs"]

#: The site's pages in request order: the closed loop cycles through
#: them, and open-loop schedules draw from them.
SITE_PATHS = tuple(sorted(DEFAULT_SITE))


@dataclass
class LoadResult:
    """Measured outcome of one web-server run."""

    requests: int
    served: int
    errors: int
    duration_cycles: int
    reboots: int
    ft_mode: str
    faults_injected: int = 0
    #: How many faults were actually armed.  Under stalled progress the
    #: injection schedule can arm fewer than requested; reporting only
    #: deliveries would let under-injection masquerade as a clean run.
    faults_armed: int = 0
    #: Scheduler steps consumed by the run (also when it hangs: the
    #: kernel accumulates its step counter on *every* exit path).
    steps: int = 0
    #: Terminal condition when the run did not complete cleanly:
    #: ``"hang"`` (the kernel's deadlock raise), ``"<kind>:<component>"``
    #: (unrecovered fault), ``"error:<Name>"`` (library error),
    #: ``"exhausted"`` (step budget), else ``None``.
    crashed: Optional[str] = None
    #: (clock, served) progress samples.
    series: List[Tuple[int, int]] = field(default_factory=list)
    #: Per-request latency in virtual cycles, completion order.
    latencies: List[int] = field(default_factory=list)
    #: High-water mark of submitted-but-unanswered requests.  Closed
    #: loop caps this at the concurrency; open loop grows it without
    #: bound under overload — it is the queue-growth signal.
    peak_outstanding: int = 0
    #: Open-loop runs only: True when driven by an ArrivalSpec.
    open_loop: bool = False
    #: SLO deadline in virtual cycles (None = no SLO scored).
    slo_cycles: Optional[int] = None
    #: Served requests whose arrival->response latency met the SLO.
    slo_ok: int = 0

    @property
    def throughput_rps(self) -> float:
        """Requests per virtual second."""
        if self.duration_cycles == 0:
            return 0.0
        return self.served / (self.duration_cycles / (CYCLES_PER_US * 1e6))

    @property
    def slo_miss(self) -> int:
        """Requests that arrived but missed the SLO: answered late *or*
        never answered at all (a dropped request is the worst miss)."""
        if self.slo_cycles is None:
            return 0
        return self.requests - self.slo_ok

    @property
    def goodput_rps(self) -> float:
        """SLO-meeting responses per virtual second (open-loop score).

        Falls back to raw throughput when no SLO was scored.
        """
        if self.slo_cycles is None:
            return self.throughput_rps
        if self.duration_cycles == 0:
            return 0.0
        return self.slo_ok / (self.duration_cycles / (CYCLES_PER_US * 1e6))

    def dip_recovery_cycles(self, window: int = 50) -> Optional[int]:
        """How long throughput stayed depressed around the worst dip.

        Slides a ``window``-completion window over the progress series
        and returns the widest virtual-time span any window covers — the
        recovery disturbance: a micro-reboot mid-run stretches the
        windows that straddle it.  ``window=2`` degenerates to the
        single worst inter-completion gap.  Returns ``None`` when fewer
        than ``window`` samples exist (a span over a partial window
        would understate the disturbance).
        """
        if window < 2 or len(self.series) < window:
            return None
        return max(
            self.series[i + window - 1][0] - self.series[i][0]
            for i in range(len(self.series) - window + 1)
        )


class LoadGenerator:
    """Drives a web server with a bounded-concurrency request stream.

    Installed, the generator is its thread's body: a resumable object
    with the generator ``send(reply)`` protocol, whose fields (the
    phase, requests sent, the next site path, workers nudged) a
    snapshot seals mid-run.
    """

    STATE_WIRING = ("n_requests", "concurrency", "client_home", "server")

    __slots__ = (
        "n_requests", "concurrency", "client_home", "server", "phase",
        "sent", "path", "nudged",
    )

    def __init__(
        self,
        n_requests: int = 2_000,
        concurrency: int = 10,
        client_home: str = "app1",
    ):
        self.n_requests = n_requests
        self.concurrency = concurrency
        self.client_home = client_home
        self.server: Optional[WebServer] = None
        #: 0: waiting for the connection event; 1: submitting; 2:
        #: nudging the workers after the last request.
        self.phase = 0
        self.sent = 0
        #: Index of the next request's page in :data:`SITE_PATHS`.
        self.path = 0
        self.nudged = 0

    def install(self, system, server: WebServer) -> None:
        self.server = server
        system.kernel.create_thread(
            "loadgen", prio=5, home=self.client_home,
            body_factory=lambda system, thread: self,
        )

    def send(self, reply):
        server = self.server
        if self.phase == 0:
            if server.evt_conn is None:
                return Yield()
            self.phase = 1
        if self.phase == 1:
            if self.sent < self.n_requests:
                # ab's "10 concurrent" bounds *outstanding* requests:
                # submitted and not yet responded to, whether queued or
                # in a worker.  Counting only the queue let up to
                # concurrency + n_workers requests be in flight.
                if server.outstanding >= self.concurrency:
                    return Yield()
                path = SITE_PATHS[self.path % len(SITE_PATHS)]
                self.path += 1
                server.submit(build_request("/" + path))
                self.sent += 1
                return Invoke(
                    "event", "evt_trigger", self.client_home, server.evt_conn
                )
            server.stop()
            self.phase = 2
        return _nudge(self, server)


def _nudge(generator, server):
    """A generator's next nudge of the workers still parked on the
    connection event, one per worker, then the end of its body."""
    if generator.nudged >= server.n_workers:
        raise StopIteration
    generator.nudged += 1
    return Invoke(
        "event", "evt_trigger", generator.client_home, server.evt_conn
    )


@functools.lru_cache(maxsize=16)
def _schedule(
    spec: ArrivalSpec, site_paths: Tuple[str, ...]
) -> Tuple[Arrival, ...]:
    """``spec``'s arrival schedule, built once per process and shared.

    The schedule is seed-pure and its arrivals are frozen, so every run
    of a campaign can share one immutable tuple.  Fork workers inherit
    the built schedule; spawn workers build it once each.
    """
    return tuple(spec.build(site_paths))


class OpenLoopGenerator:
    """Submits requests at their arrival instants, backlog be damned.

    The arrival schedule is a pure function of the
    :class:`~repro.webserver.arrivals.ArrivalSpec` (never of the SWIFI
    run seed), shifted so its origin is the instant the server finishes
    initializing.  Between arrivals the generator thread *sleeps* on
    the virtual clock (a kernel :class:`~repro.composite.thread.Sleep`,
    not a timer-service invocation), so pacing consumes none of the
    simulated CPU the offered load is calibrated against — the
    generator models the NIC, and arrivals are interrupts from outside
    the system.  It runs at a higher priority than the workers for the
    same reason: a busy server cannot delay an interrupt.

    Each submission is back-dated to its schedule instant
    (``server.submit(..., at=due)``), so latency — and therefore the
    SLO — is measured from *arrival*, queueing delay included.

    Installed, the generator is its thread's body, like
    :class:`LoadGenerator`; its position in the shared arrival tuple is
    a field.
    """

    STATE_WIRING = ("spec", "client_home", "arrivals", "server", "kernel")

    __slots__ = (
        "spec", "client_home", "arrivals", "server", "kernel", "phase",
        "base", "index", "slept", "nudged",
    )

    def __init__(self, spec: ArrivalSpec, client_home: str = "app1"):
        self.spec = spec
        self.client_home = client_home
        #: The shared, immutable schedule (set by :meth:`install`).
        self.arrivals: Tuple[Arrival, ...] = ()
        self.server: Optional[WebServer] = None
        self.kernel = None
        #: 0: waiting for the connection event; 1: submitting; 2:
        #: nudging the workers after the last request.
        self.phase = 0
        #: The schedule's origin: the clock when the server came up.
        self.base = 0
        #: Index of the next arrival in :attr:`arrivals`.
        self.index = 0
        #: Whether the thread already slept until the next arrival.
        self.slept = False
        self.nudged = 0

    def install(self, system, server: WebServer) -> None:
        self.arrivals = _schedule(self.spec, SITE_PATHS)
        self.server = server
        self.kernel = system.kernel
        self.kernel.create_thread(
            "loadgen-open", prio=4, home=self.client_home,
            body_factory=lambda system, thread: self,
        )

    def send(self, reply):
        server = self.server
        now = self.kernel.clock.now
        if self.phase == 0:
            if server.evt_conn is None:
                return Yield()
            self.base = now
            self.phase = 1
        if self.phase == 1:
            if self.index < len(self.arrivals):
                arrival = self.arrivals[self.index]
                due = self.base + arrival.at
                if not self.slept and now < due:
                    self.slept = True
                    return Sleep(due)
                self.slept = False
                self.index += 1
                server.submit(
                    build_request("/" + arrival.path, weight=arrival.weight),
                    at=due,
                )
                return Invoke(
                    "event", "evt_trigger", self.client_home, server.evt_conn
                )
            server.stop()
            self.phase = 2
        return _nudge(self, server)


def injection_gap(n_requests: int, n_faults: int) -> int:
    """Requests served between two arms of a faulted run."""
    return max(n_requests // (n_faults + 1), 1)


def install_webserver(
    system,
    n_requests: int = 2_000,
    concurrency: int = 10,
    n_workers: int = 2,
    arrival_spec: Optional[ArrivalSpec] = None,
) -> WebServer:
    """Install the web server and its load generator on ``system``.

    Closed loop by default; ``arrival_spec`` installs the open-loop
    generator instead (``n_requests`` and ``concurrency`` are then the
    spec's business).  Returns the server.
    """
    server = WebServer(system, home="app0", n_workers=n_workers)
    server.install()
    if arrival_spec is not None:
        generator = OpenLoopGenerator(arrival_spec, client_home="app1")
    else:
        generator = LoadGenerator(
            n_requests=n_requests, concurrency=concurrency,
            client_home="app1",
        )
    generator.install(system, server)
    return server


def _crashed(crash, kernel) -> Optional[str]:
    """:attr:`LoadResult.crashed` for the run core's crash value.

    ``"hang"`` marks a :class:`SystemHang` that escaped the run (the
    kernel's deadlock raise); a hang the kernel recorded in
    ``kernel.crashed`` reads ``"hang:<component>"`` like any fault.
    """
    if crash is None:
        return "exhausted" if kernel.budget_exhausted else None
    if not isinstance(crash, SimulatedFault):
        return f"error:{type(crash).__name__}"
    if isinstance(crash, SystemHang) and crash is not kernel.crashed:
        return "hang"
    return f"{crash.kind}:{crash.component}"


def run_webserver(
    ft_mode: str = "superglue",
    n_requests: int = 2_000,
    concurrency: int = 10,
    n_workers: int = 2,
    with_faults: bool = False,
    n_faults: int = 6,
    seed: int = 0,
    max_steps: int = 5_000_000,
    system=None,
    warn_shortfall: bool = True,
    arrival_spec: Optional[ArrivalSpec] = None,
    slo_us: Optional[int] = None,
    fault_class: str = "reg",
    server: Optional[WebServer] = None,
) -> LoadResult:
    """Build a system, serve ``n_requests``, and measure throughput.

    With ``with_faults``, ``n_faults`` faults of ``fault_class`` are
    spread across the run, each targeting the next service in
    :data:`FAULT_TARGET_CYCLE` — the paper's "one crash injected every
    10 seconds into a different system-level component", rescaled to
    the simulated run length.

    ``arrival_spec`` switches the run open-loop: requests are submitted
    at the spec's virtual-time arrival instants (``n_requests`` and
    ``concurrency`` are ignored in favor of the spec), and ``slo_us``
    scores each response against an arrival-to-response deadline.
    ``slo_us`` may also be given for closed-loop runs.

    ``system`` lets callers (the pooled campaign path) supply a
    pre-built system; the web-server application components must already
    be registered on it (see
    :func:`repro.webserver.server.register_webserver_components`).

    ``server`` resumes a server already installed on ``system`` and run
    part-way, as a Fig. 7 first-arm snapshot restores it (the campaign
    passes it; single runs install their own).  Nothing has armed yet
    at that point, so the run attaches its SWIFI controller and arm
    hook there.  The steps already run count toward the row's
    ``steps`` and come off ``max_steps``.  Either way the run executes
    through the campaign run core, :func:`repro.swifi.campaign.run_system`.
    """
    if system is None:
        system = build_system(ft_mode=ft_mode)
    if arrival_spec is not None:
        n_requests = arrival_spec.n_requests
    prefix = 0
    if server is None:
        server = install_webserver(
            system, n_requests, concurrency, n_workers, arrival_spec
        )
    else:
        prefix = system.kernel.stats["steps"]

    swifi = None
    armed = {"count": 0}
    if with_faults:
        swifi = SwifiController(system.kernel, seed=seed)
        gap = injection_gap(n_requests, n_faults)
        targets = iter(
            [FAULT_TARGET_CYCLE[i % len(FAULT_TARGET_CYCLE)] for i in range(n_faults)]
        )
        last_armed = {"served": 0}

        def arm_on_progress(served: int) -> None:
            if served - last_armed["served"] >= gap:
                last_armed["served"] = served
                target = next(targets, None)
                if target is not None:
                    # Through the module, so a wrap of the campaign's
                    # ``_arm_for_class`` (the bench tracer's) sees it.
                    swifi_campaign._arm_for_class(
                        swifi, fault_class, target, 0
                    )
                    armed["count"] += 1

        server.on_served = arm_on_progress

    crash, steps = run_system(system, max_steps - prefix)
    steps += prefix
    crashed = _crashed(crash, system.kernel)
    if with_faults and warn_shortfall and armed["count"] < n_faults:
        print(
            f"run_webserver: armed only {armed['count']}/{n_faults} faults "
            f"(progress stalled at {server.served}/{n_requests} served)",
            file=sys.stderr,
        )
    # Duration is *progress* time: the clock of the last completed
    # response.  A run that crashed before serving anything has made
    # zero progress — ``kernel.clock.now`` would credit boot, arming,
    # and post-crash idling as serving time and turn 0 served / big
    # duration into a plausible-looking (tiny) throughput instead of
    # the honest 0/0.
    end = server.samples[-1][0] if server.samples else 0
    slo_cycles: Optional[int] = None
    slo_ok = 0
    if slo_us is not None:
        slo_cycles = int(slo_us) * CYCLES_PER_US
        slo_ok = sum(1 for lat in server.latencies if lat <= slo_cycles)
    return LoadResult(
        requests=n_requests,
        served=server.served,
        errors=server.errors,
        duration_cycles=end,
        reboots=system.booter.reboots,
        ft_mode=ft_mode,
        faults_injected=len(swifi.delivered) if swifi else 0,
        faults_armed=armed["count"],
        steps=steps,
        crashed=crashed,
        series=server.samples,
        latencies=server.latencies,
        peak_outstanding=server.peak_outstanding,
        open_loop=arrival_spec is not None,
        slo_cycles=slo_cycles,
        slo_ok=slo_ok,
    )
