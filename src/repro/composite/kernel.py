"""The simulated COMPOSITE kernel.

Responsibilities, mirroring the real kernel of Section II-B:

* capability-mediated, synchronous component invocation (thread migration);
* the thread run loop (driven by :class:`~repro.composite.scheduler.RunQueue`
  and :class:`~repro.composite.scheduler.VirtualClock`);
* blocking/wakeup of threads inside server components;
* vectoring detected faults to the booter component, which micro-reboots
  the faulty component (Section III-D steps 2-4);
* upcalls into client components (used by MM recovery and U0); and
* reflection: letting a recovering service query kernel-held thread state.

Client-side interface stubs (hand-written C^3 or SuperGlue-generated) are
registered per (client, server) pair and interpose on every invocation —
exactly where the paper's stub code sits.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.composite.scheduler import RunQueue, VirtualClock
from repro.composite.thread import Invoke, SimThread, Sleep, ThreadState, Yield
from repro.observe import recorder_for
from repro.errors import (
    BlockThread,
    CapabilityError,
    ConfigurationError,
    ReproError,
    SimulatedFault,
    SystemHang,
)

#: Sentinel returned by :meth:`Kernel.raw_invoke` when the server faulted
#: during the invocation and was micro-rebooted.  The client stub's redo
#: loop (Fig. 4) checks for it.
FAULT = type("_Fault", (), {"__repr__": lambda self: "<FAULT>"})()

#: Cycle cost of one component invocation (capability lookup + page-table
#: switch).  The paper reports kernel paths of ~0.5us at 2.4 GHz as the
#: *longest*; a typical invocation is a fraction of that.
INVOCATION_CYCLES = 600

#: Cycle cost of an upcall (same mechanism, executed from the kernel).
UPCALL_CYCLES = 700


class TimerWake:
    """A kernel timer's action, as data, which :meth:`Kernel._wake`
    dispatches.

    ``kind`` is ``"timeout"`` (a blocking call's timeout) or ``"sleep"``
    (a :class:`~repro.composite.thread.Sleep` instant), which wake
    thread ``tid`` if it still waits on ``token``, or ``"scrub"``, a
    latent-fault monitor's period (``token`` is its index in
    :attr:`Kernel.monitors`).  Never mutated, so a snapshot of the
    timer heap shares it.
    """

    __slots__ = ("kernel", "kind", "tid", "token")

    def __init__(self, kernel: "Kernel", kind: str, tid: int, token):
        self.kernel = kernel
        self.kind = kind
        self.tid = tid
        self.token = token

    def __call__(self) -> None:
        self.kernel._wake(self)

    def __repr__(self):
        return f"TimerWake({self.kind}, tid={self.tid}, token={self.token!r})"


class Kernel:
    """The simulated kernel plus the simulation loop."""

    def __init__(self, ft_mode: str = "none"):
        """``ft_mode`` is one of ``"none"``, ``"c3"``, ``"superglue"``.

        With ``"none"`` a detected component fault crashes the whole system
        (no recovery infrastructure), which is the unprotected baseline.
        """
        if ft_mode not in ("none", "c3", "superglue"):
            raise ConfigurationError(f"unknown ft_mode {ft_mode!r}")
        self.ft_mode = ft_mode
        self.clock = VirtualClock()
        #: Flight recorder (repro.observe): the shared no-op singleton
        #: unless tracing is enabled, in which case a live ring-buffer
        #: recorder stamped by this kernel's virtual clock.  Hot paths
        #: guard every emission on ``recorder.enabled``.
        self.recorder = recorder_for(self.clock)
        self.run_queue = RunQueue()
        self.components: Dict[str, object] = {}
        self.threads: Dict[int, SimThread] = {}
        self._caps: Dict[Tuple[str, str], bool] = {}
        self._stubs: Dict[Tuple[str, str], object] = {}
        self._server_stubs: Dict[str, object] = {}
        self.booter = None
        self.recovery_manager = None
        self.swifi = None
        self.crashed: Optional[SimulatedFault] = None
        self.current: Optional[SimThread] = None
        self._next_tid = 1
        self._next_image_base = 0x0100_0000
        self.stats = {
            "invocations": 0,
            "upcalls": 0,
            "faults_vectored": 0,
            "micro_reboots": 0,
            "steps": 0,
            # Two-tier trace engine accounting (see composite.fastpath and
            # the trace cache in composite.services.common).
            "interp_fast_runs": 0,
            "interp_slow_runs": 0,
            "trace_cache_hits": 0,
            "trace_cache_misses": 0,
            # Always 0: the engine has no tier-3 replay.  Kept for
            # bench/tracer.py, their only reader, until the benchmark
            # drops its super-trace rows (ROADMAP item 9).
            "super_trace_runs": 0,
            "super_trace_bypasses": 0,
            "super_trace_divergences": 0,
            "super_trace_divergent_units": 0,
            "super_trace_tail_runs": 0,
            "super_trace_tail_records": 0,
            # Times a run() call returned with its step budget exhausted
            # while runnable/blocked work remained (see Kernel.run).
            "budget_exhausted": 0,
        }
        #: Whether the most recent run() ended on an exhausted budget.
        self.last_run_exhausted = False
        #: Hooks observing every fault vectoring: f(component, fault).
        self.fault_observers: List[Callable] = []
        #: Latent-fault monitors whose periods run on this kernel's
        #: clock ("scrub" timers name them by index).
        self.monitors: List[object] = []
        #: The thread whose step :meth:`begin_step` started and the
        #: next :meth:`run` finishes, or None.
        self.resume: Optional[SimThread] = None

    def run_state(self) -> tuple:
        """Copies of the per-run scheduling state, for a snapshot to seal.

        The clock (time, timer heap and sequence), the run queue's
        order and round-robin counter, the thread table, the current
        thread and the one whose step is to be finished, the next
        thread id, the stats counters and the fault observers.  The
        threads themselves are roots the snapshot seals on its own.  A
        crashed kernel, or one with a SWIFI controller attached, cannot
        be sealed.
        """
        if self.crashed is not None or self.swifi is not None:
            raise ReproError("cannot seal a crashed or armed kernel")
        clock = self.clock
        queue = self.run_queue
        return (
            clock.now, tuple(clock._timers), clock._seq,
            tuple(queue._threads), queue._rr, dict(self.threads),
            self.current, self.resume, self._next_tid, dict(self.stats),
            tuple(self.fault_observers),
        )

    def restore_run_state(self, state: tuple) -> None:
        """Put back a :meth:`run_state`, in place.

        Containers are refilled rather than replaced (the run loop and
        the compiled fast path bind them by identity), and the crash,
        SWIFI and exhausted-budget marks are cleared.  Static wiring
        (components, capabilities, stubs, the booter and
        recovery-manager references) is left alone.
        """
        clock = self.clock
        queue = self.run_queue
        (
            clock.now, timers, clock._seq, threads, queue._rr, table,
            self.current, self.resume, self._next_tid, stats, observers,
        ) = state
        clock._timers[:] = timers
        queue._threads[:] = threads
        self.threads.clear()
        self.threads.update(table)
        self.stats.update(stats)
        self.fault_observers = list(observers)
        self.recorder = recorder_for(clock)
        self.crashed = None
        self.swifi = None
        self.last_run_exhausted = False

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_component(self, component) -> None:
        if component.name in self.components:
            raise ConfigurationError(f"duplicate component {component.name!r}")
        self.components[component.name] = component
        component.attach(self, self._next_image_base)
        self._next_image_base += 0x0100_0000

    def component(self, name: str):
        try:
            return self.components[name]
        except KeyError:
            raise ConfigurationError(f"no component named {name!r}") from None

    def grant_all_caps(self) -> None:
        """Convenience for tests: full connectivity."""
        for client in self.components:
            for server in self.components:
                self._caps[(client, server)] = True

    def register_stub(self, client: str, server: str, stub) -> None:
        self._stubs[(client, server)] = stub

    def stub_for(self, client: str, server: str):
        return self._stubs.get((client, server))

    def register_server_stub(self, server: str, stub) -> None:
        self._server_stubs[server] = stub

    def server_stub_for(self, server: str):
        return self._server_stubs.get(server)

    def all_stubs_for_server(self, server: str) -> List[object]:
        return [s for (c, sv), s in self._stubs.items() if sv == server]

    def all_client_stubs(self) -> Dict[Tuple[str, str], object]:
        return dict(self._stubs)

    def all_server_stubs(self) -> Dict[str, object]:
        return dict(self._server_stubs)

    def create_thread(self, name: str, prio: int, home: str, body_factory) -> SimThread:
        thread = SimThread(self._next_tid, name, prio, home, body_factory)
        self._next_tid += 1
        self.threads[thread.tid] = thread
        self.run_queue.add(thread)
        return thread

    # ------------------------------------------------------------------
    # Time accounting
    # ------------------------------------------------------------------
    def charge(self, thread: Optional[SimThread], cycles: int) -> None:
        # Inline of clock.advance: charge is the hottest kernel entry
        # point and internal callers never pass negative cycles.
        self.clock.now += cycles
        if thread is not None:
            thread.cycles += cycles

    # ------------------------------------------------------------------
    # Invocation path
    # ------------------------------------------------------------------
    def invoke(self, thread: SimThread, action: Invoke):
        """Nested component invocation, interposed by a client stub.

        Serves callers already inside an invocation: a service's own
        server dependencies (``Component.call``) and a stub's helper
        calls.  A thread's top-level invocations enter through the run
        loop instead (:meth:`_perform`).
        """
        return self._invoke_impl(thread, action)

    def _invoke_impl(self, thread: SimThread, action: Invoke):
        """The invocation path: the client stub if one is registered,
        else the server directly."""
        client = thread.executing_in or thread.home
        server = action.server
        if not self._caps.get((client, server)):
            raise CapabilityError(f"{client} holds no capability for {server}")
        stub = self._stubs.get((client, server))
        self.stats["invocations"] += 1
        thread.invocations += 1
        recorder = self.recorder
        traced = recorder.enabled
        if traced:
            # Traced invocation span: entry event plus a completion event
            # carrying the span's status and virtual-cycle cost.
            recorder.emit(
                "invoke", tid=thread.tid, client=client, server=server,
                fn=action.fn,
            )
            start = self.clock.now
        status = "ok"
        try:
            if stub is not None:
                stub._ran = True
                return stub.invoke(self, thread, action.fn, action.args)
            result = self.raw_invoke(thread, server, action.fn, action.args)
            if result is FAULT:
                # No stub means no recovery protocol: surface as a crash.
                raise SimulatedFault(
                    f"unrecovered fault in {server}",
                    component=server,
                    recoverable=False,
                )
            return result
        except BlockThread:
            status = "blocked"
            raise
        except SimulatedFault:
            status = "crash"
            raise
        finally:
            if traced:
                recorder.emit(
                    "invoke_end",
                    tid=thread.tid,
                    server=server,
                    fn=action.fn,
                    status=status,
                    cycles=self.clock.now - start,
                )

    def raw_invoke(self, thread: SimThread, server: str, fn: str, args):
        """Capability-checked entry into the server's dispatch.

        Returns the server's return value, or the :data:`FAULT` sentinel if
        the server fail-stopped and was micro-rebooted (only in a fault-
        tolerant mode).  :class:`~repro.errors.BlockThread` propagates to
        the run loop, which parks the thread.
        """
        component = self.components[server]
        self.clock.now += INVOCATION_CYCLES
        thread.cycles += INVOCATION_CYCLES
        prev = thread.executing_in
        thread.executing_in = server
        server_stub = self._server_stubs.get(server)
        try:
            if server_stub is not None:
                return server_stub.dispatch(self, thread, fn, args)
            return component.dispatch(fn, thread, args)
        except BlockThread:
            raise
        except SimulatedFault as fault:
            if not fault.recoverable:
                raise
            self.vector_fault(component, fault)
            if self.ft_mode == "none":
                raise SimulatedFault(
                    f"fault in {server} with no recovery: system reboot "
                    f"required ({fault})",
                    component=server,
                    recoverable=False,
                )
            return FAULT
        finally:
            thread.executing_in = prev

    def upcall(self, thread: SimThread, component_name: str, fn: str, *args):
        """Invoke a function in a (client) component from below.

        Used for MM mapping recovery and for U0 descriptor recreation.
        """
        component = self.component(component_name)
        self.charge(thread, UPCALL_CYCLES)
        self.stats["upcalls"] += 1
        if self.recorder.enabled:
            self.recorder.emit(
                "upcall", tid=thread.tid, component=component_name, fn=fn
            )
        prev = thread.executing_in
        thread.executing_in = component_name
        try:
            return component.dispatch(fn, thread, args)
        finally:
            thread.executing_in = prev

    # ------------------------------------------------------------------
    # Fault vectoring and micro-reboot
    # ------------------------------------------------------------------
    def vector_fault(self, component, fault: SimulatedFault) -> None:
        """Hardware exception handler: divert to the booter (step 2)."""
        self.stats["faults_vectored"] += 1
        component.faults_detected += 1
        component._ran = True
        recorder = self.recorder
        if recorder.enabled:
            # Detection latency: virtual cycles between the SWIFI flip
            # landing and this fault being vectored (None for faults
            # with no preceding injection, e.g. monitor scrub hits on
            # residual corruption).
            latency = None
            if self.swifi is not None:
                latency = self.swifi.consume_delivery_latency(self.clock.now)
            if latency is not None:
                recorder.metrics.histogram(
                    "detection_latency_cycles"
                ).observe(latency)
            recorder.emit(
                "fault_vectored",
                component=component.name,
                kind=fault.kind,
                message=str(fault),
                detection_latency=latency,
            )
        for observer in self.fault_observers:
            observer(component, fault)
        if self.ft_mode == "none":
            return
        if self.booter is None:
            raise ConfigurationError("fault-tolerant mode without a booter")
        self.booter.handle_fault(component, fault)

    # ------------------------------------------------------------------
    # Blocking and wakeup
    # ------------------------------------------------------------------
    def _park(self, thread: SimThread, block: BlockThread, action: Invoke):
        thread.state = ThreadState.BLOCKED
        thread.blocked_in = block.component
        thread.block_token = block.token
        thread.block_invoke = action
        thread.block_on_wake = block.on_wake
        # The stub of the blocked top-level call itself, never that of
        # a nested call the server made before blocking.
        thread.block_stub = self._stubs.get(
            (thread.executing_in or thread.home, action.server)
        )
        if block.timeout is not None:
            self.clock.schedule(
                block.timeout,
                TimerWake(self, "timeout", thread.tid, block.token),
            )

    def _unpark(self, thread: SimThread, value=None, timeout=False, redo=False):
        thread.state = ThreadState.READY
        thread.blocked_in = None
        token = thread.block_token
        thread.block_token = None
        on_wake = thread.block_on_wake
        thread.block_on_wake = None
        stub = thread.block_stub
        thread.block_stub = None
        action = thread.block_invoke
        if redo:
            # Fault wakeup: the whole invocation must be re-issued through
            # the stub so recovery and re-blocking happen (T0 then redo).
            thread.pending = ("redo", action)
            return
        thread.block_invoke = None
        if on_wake is not None:
            value = on_wake(thread, token, timeout)
        if stub is not None and action is not None:
            # Defer the stub's completion tracking until the woken thread
            # is scheduled: the stub code runs on the woken thread, *after*
            # the waker's own invocation (and its tracking) completed —
            # otherwise a handoff's state transitions would be recorded in
            # inverted order.
            thread.pending = ("unblock", stub, action, value)
        else:
            thread.pending = ("value", value)

    def _sleep(self, thread: SimThread, until: int) -> None:
        """Handle a :class:`~repro.composite.thread.Sleep` action.

        The thread parks *outside* any component (``blocked_in`` stays
        ``None``), so fault wakeups (:meth:`wake_all_in`) and descriptor
        recovery never touch it; the wake is a plain clock callback,
        exactly like a timer expiry, so :meth:`VirtualClock
        .skip_to_next_expiry` covers it and a system that is only
        sleeping is never misdiagnosed as a hang.
        """
        if until <= self.clock.now:
            thread.pending = ("value", None)
            return
        thread.state = ThreadState.BLOCKED
        thread.blocked_in = None
        token = ("sleep", until)
        thread.block_token = token
        self.clock.schedule(until, TimerWake(self, "sleep", thread.tid, token))

    def _wake(self, wake: "TimerWake") -> None:
        """Fire a kernel timer: run a monitor's scrub period, or wake
        the timer's thread if it still waits on the timer's token (a
        sleeper only while it waits in no component)."""
        if wake.kind == "scrub":
            self.monitors[wake.token].tick()
            return
        thread = self.threads.get(wake.tid)
        if (
            thread is None
            or thread.state is not ThreadState.BLOCKED
            or thread.block_token != wake.token
        ):
            return
        if wake.kind == "timeout":
            self._unpark(thread, timeout=True)
        elif thread.blocked_in is None:
            self._unpark(thread)

    def wake_token(self, component: str, token, value=None) -> int:
        """Wake all threads blocked in ``component`` on ``token``."""
        woken = 0
        for thread in self.run_queue.threads:
            if (
                thread.state is ThreadState.BLOCKED
                and thread.blocked_in == component
                and thread.block_token == token
            ):
                self._unpark(thread, value=value)
                woken += 1
        return woken

    def wake_all_in(self, component: str, redo: bool = True) -> int:
        """Fault wakeup (T0): wake every thread blocked in ``component``."""
        woken = 0
        for thread in self.run_queue.threads:
            if thread.state is ThreadState.BLOCKED and thread.blocked_in == component:
                self._unpark(thread, redo=redo)
                woken += 1
        return woken

    def blocked_threads_in(self, component: str) -> List[SimThread]:
        return [
            t
            for t in self.run_queue.threads
            if t.state is ThreadState.BLOCKED and t.blocked_in == component
        ]

    # ------------------------------------------------------------------
    # Reflection (kernel introspection used by recovering services)
    # ------------------------------------------------------------------
    def reflect_threads(self) -> List[dict]:
        """Expose kernel-held thread state (ids, priorities, block status).

        The scheduler service uses this after a micro-reboot to rebuild its
        thread bookkeeping, as in the C^3 scheduler recovery example.
        """
        return [
            {
                "tid": t.tid,
                "name": t.name,
                "prio": t.prio,
                "state": t.state.value,
                "blocked_in": t.blocked_in,
            }
            for t in self.run_queue.threads
        ]

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------
    def run(self, max_steps: int = 1_000_000, max_cycles: Optional[int] = None):
        """Run until all threads finish, the system crashes, or a budget ends.

        Returns the number of scheduling steps taken.  Exhausting
        ``max_steps`` while live work remains is *not* clean completion
        — historically the two were indistinguishable, so callers could
        misread a livelocked run as success.  That condition is now
        counted in ``stats["budget_exhausted"]`` and exposed per call as
        :attr:`budget_exhausted` (reset at the start of each ``run()``,
        so a resumed system that later finishes cleanly is not still
        marked exhausted); workload ``check()`` paths and the campaign
        classifier consult it.
        """
        self.last_run_exhausted = False
        steps = 0
        # This loop runs tens of thousands of times per campaign: bind
        # the per-step collaborators once and batch the steps counter
        # into stats at exit (no mid-run reader observes it).
        clock = self.clock
        timers = clock._timers
        run_queue = self.run_queue
        pick = run_queue.pick
        step = self._step
        try:
            if self.resume is not None and steps < max_steps:
                thread, self.resume = self.resume, None
                step(thread)
                steps += 1
            while steps < max_steps:
                if self.crashed is not None:
                    break
                if max_cycles is not None and clock.now >= max_cycles:
                    break
                if timers:
                    for callback in clock.pop_due():
                        callback()
                thread = pick()
                if thread is None:
                    if run_queue.all_done():
                        break
                    if not clock.skip_to_next_expiry():
                        raise SystemHang(
                            "all threads blocked with no pending timer "
                            "(deadlock)",
                            component="kernel",
                        )
                    continue
                step(thread)
                steps += 1
        finally:
            self.stats["steps"] += steps
        if (
            steps >= max_steps
            and self.crashed is None
            and not self.run_queue.all_done()
        ):
            self.stats["budget_exhausted"] += 1
            self.last_run_exhausted = True
        return steps

    @property
    def budget_exhausted(self) -> bool:
        """Did the most recent ``run()`` exhaust its step budget?"""
        return self.last_run_exhausted

    def begin_step(self) -> None:
        """Start the next step and stop before its thread's body runs.

        As :meth:`run` and :meth:`_step` would: fire due timers, pick
        the thread, start its body on its first step and run the stub's
        post-wakeup tracking of a woken thread.  The next :meth:`run`
        finishes the step (:attr:`resume`).  A Table II rung is sealed
        here, so its runs start past that tracking.
        """
        clock = self.clock
        run_queue = self.run_queue
        while True:
            if clock._timers:
                for callback in clock.pop_due():
                    callback()
            thread = run_queue.pick()
            if thread is not None:
                break
            if run_queue.all_done() or not clock.skip_to_next_expiry():
                raise ReproError("no step left to begin")
        self.current = thread
        if thread.body is None:
            thread.start(self)
        pending = thread.pending
        if pending is not None and pending[0] == "unblock":
            thread.pending = self._post_unblock(thread, pending)
        self.resume = thread

    def _step(self, thread: SimThread) -> None:
        self.current = thread
        if thread.body is None:
            thread.start(self)
        pending = thread.pending
        thread.pending = None

        if pending is not None and pending[0] == "redo":
            # Re-issue a blocking invocation after a fault wakeup.
            self._perform(thread, pending[1])
            return
        if pending is not None and pending[0] == "unblock":
            pending = self._post_unblock(thread, pending)

        try:
            if pending is None:
                action = thread.body.send(None)
            elif pending[0] == "value":
                action = thread.body.send(pending[1])
            else:  # pragma: no cover - defensive
                raise ReproError(f"bad pending {pending!r}")
        except StopIteration:
            thread.state = ThreadState.DONE
            return
        except SimulatedFault as fault:
            thread.state = ThreadState.CRASHED
            self.crashed = fault
            return

        if isinstance(action, Invoke):
            self._perform(thread, action)
        elif isinstance(action, Yield):
            thread.pending = ("value", None)
        elif isinstance(action, Sleep):
            self._sleep(thread, action.until)
        else:
            raise ReproError(f"thread {thread.name} yielded {action!r}")

    def _post_unblock(self, thread: SimThread, pending: tuple) -> tuple:
        """Run the stub's post-wakeup tracking on the woken thread;
        returns the resume that hands the body its value."""
        __, stub, action, value = pending
        stub._ran = True
        return (
            "value",
            stub.post_unblock(self, thread, action.fn, action.args, value),
        )

    def _perform(self, thread: SimThread, action: Invoke) -> None:
        """Run a thread's top-level invocation, parking the thread if
        the server blocked it."""
        try:
            result = self._invoke_impl(thread, action)
        except BlockThread as block:
            self._park(thread, block, action)
            return
        except SimulatedFault as fault:
            if fault.recoverable:  # pragma: no cover - defensive
                raise
            thread.state = ThreadState.CRASHED
            self.crashed = fault
            return
        thread.pending = ("value", result)
