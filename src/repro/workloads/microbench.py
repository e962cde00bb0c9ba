"""The six micro-benchmark workloads of Section V-B.

* **Sched** — two threads ping-pong, blocking and waking each other with
  ``sched_blk``/``sched_wakeup``.
* **MM** — a thread is granted pages, aliases them into a different
  component, then revokes them (removing all aliases).
* **FS** — a file is opened, a byte written, read back, and closed.
* **Lock** — one thread holds a lock another contends; release hands off.
* **Event** — a thread blocks waiting for an event that another thread
  triggers from a *different* component.
* **Timer** — a thread wakes up, then blocks for a period, periodically.

Each workload installs threads into a built system and returns a
:class:`RunHandle` whose :meth:`RunHandle.check` verifies the run "abides
by the workload specification" — the paper's criterion for a
*successful* recovery.  The thread bodies are resumable objects with
explicit fields, so a Table II snapshot ladder can seal a run at any
step boundary.
"""

from __future__ import annotations

from typing import Dict

from repro.composite.thread import Invoke, Yield


class RunHandle:
    """Results and correctness checking for one installed workload run.

    The one root the workload's thread bodies share: they reference it,
    and its ``results`` dict is the run's per-run state, so a mid-run
    snapshot seals and restores it once for every body.
    """

    STATE_WIRING = ("workload", "system", "iterations")

    __slots__ = ("workload", "system", "iterations", "results")

    def __init__(self, workload: "Workload", system, iterations: int = 3):
        self.workload = workload
        self.system = system
        self.iterations = iterations
        self.results: Dict[str, object] = {}

    def check(self) -> bool:
        # A run that exhausted its step budget did not complete the
        # workload, even if the partial results happen to look right —
        # without this, a livelocked run is indistinguishable from a
        # clean completion.
        if self.budget_exhausted:
            return False
        return self.workload.check(self.results, self.system, self.iterations)

    @property
    def budget_exhausted(self) -> bool:
        kernel = getattr(self.system, "kernel", None)
        return bool(kernel is not None and kernel.budget_exhausted)


class Workload:
    """Base class: named workload targeting one service."""

    name = "?"
    service = "?"

    def install(self, system, iterations: int = 3) -> RunHandle:
        handle = RunHandle(self, system, iterations)
        self._spawn(system, handle)
        return handle

    def _spawn(self, system, handle) -> None:
        raise NotImplementedError

    def check(self, results, system, iterations) -> bool:
        raise NotImplementedError


def _thread(system, name: str, home: str, make) -> None:
    """Create a workload thread whose body ``make()`` builds when the
    thread first runs, so every start gets a body in its initial state."""
    system.kernel.create_thread(
        name, prio=5, home=home,
        body_factory=lambda system, thread: make(),
    )


def _fail(handle: RunHandle, message: str):
    """End a body on a failed check, as its ``return`` did."""
    handle.results["error"] = message
    raise StopIteration


# ---------------------------------------------------------------------------
# Thread bodies.  Each is a resumable object with the generator
# ``send(reply)`` protocol and explicit fields, so a snapshot seals it
# mid-run: ``pc`` names the invocation whose reply the next ``send``
# carries, ``round`` counts the finished iterations, and the shared
# results live on the handle.
# ---------------------------------------------------------------------------

class _SchedBody:
    """ping's or pong's body: register with the scheduler, wait until the
    partner has registered, then each round wake the partner and block
    (ping) or block and wake the partner (pong)."""

    STATE_WIRING = ("handle", "key", "partner_key", "counter", "wakes_first")

    __slots__ = STATE_WIRING + ("pc", "round", "mine", "theirs")

    def __init__(self, handle, key, partner_key, counter, wakes_first):
        self.handle = handle
        self.key = key
        self.partner_key = partner_key
        self.counter = counter
        self.wakes_first = wakes_first
        self.pc = 0
        self.round = 0
        self.mine = None
        self.theirs = None

    def send(self, reply):
        results = self.handle.results
        pc = self.pc
        if pc == 0:
            self.pc = 1
            return Invoke("sched", "sched_register", "app0")
        if pc == 1:  # registered: reply is this thread's id
            self.mine = reply
            results[self.key] = reply
            self.pc = pc = 2
        if pc == 2:  # waiting for the partner's id
            if self.partner_key not in results:
                return Yield()
            self.theirs = results[self.partner_key]
        elif pc == 3:  # the round's first call replied
            self.pc = 4
            return self._call(not self.wakes_first)
        else:  # the round's second call replied
            results[self.counter] = results.get(self.counter, 0) + 1
            self.round += 1
        if self.round == self.handle.iterations:
            raise StopIteration
        self.pc = 3
        return self._call(self.wakes_first)

    def _call(self, wake: bool) -> Invoke:
        if wake:
            return Invoke("sched", "sched_wakeup", "app0", self.theirs)
        return Invoke("sched", "sched_blk", "app0", self.mine)


class _MMBody:
    """Each round: get a page, alias it into app1, release it."""

    STATE_WIRING = ("handle",)

    __slots__ = ("handle", "pc", "round")

    def __init__(self, handle):
        self.handle = handle
        self.pc = 0
        self.round = 0

    def send(self, reply):
        handle = self.handle
        va = MMWorkload.BASE_VA + self.round * MMWorkload.PAGE
        dst = MMWorkload.ALIAS_VA + self.round * MMWorkload.PAGE
        pc = self.pc
        if pc == 1:
            if reply != va:
                _fail(handle, f"get_page returned {reply:#x}")
            self.pc = 2
            return Invoke("mm", "mman_alias_page", "app0", va, "app1", dst)
        if pc == 2:
            if reply != dst:
                _fail(handle, f"alias_page returned {reply:#x}")
            self.pc = 3
            return Invoke("mm", "mman_release_page", "app0", va)
        if pc == 3:
            if reply != 0:
                _fail(handle, f"release_page returned {reply}")
            self.round += 1
            handle.results["rounds"] = self.round
            va = MMWorkload.BASE_VA + self.round * MMWorkload.PAGE
        if self.round == handle.iterations:
            raise StopIteration
        self.pc = 1
        return Invoke("mm", "mman_get_page", "app0", va)


class _FSBody:
    """Each round: open a file, write a byte, seek back, read it, close."""

    STATE_WIRING = ("handle",)

    __slots__ = ("handle", "pc", "round", "fd")

    def __init__(self, handle):
        self.handle = handle
        self.pc = 0
        self.round = 0
        self.fd = None

    def send(self, reply):
        handle = self.handle
        payload = bytes([0x41 + (self.round % 26)])
        pc = self.pc
        self.pc = pc + 1
        if pc == 1:
            self.fd = reply
            return Invoke("ramfs", "twrite", "app0", reply, payload)
        if pc == 2:
            if reply != 1:
                _fail(handle, f"twrite returned {reply}")
            return Invoke("ramfs", "tseek", "app0", self.fd, 0)
        if pc == 3:
            return Invoke("ramfs", "tread", "app0", self.fd, 1)
        if pc == 4:
            if reply != payload:
                _fail(handle, f"tread returned {reply!r} != {payload!r}")
            return Invoke("ramfs", "trelease", "app0", self.fd)
        if pc == 5:
            if reply != 0:
                _fail(handle, f"trelease returned {reply}")
            self.round += 1
            handle.results["rounds"] = self.round
        if self.round == handle.iterations:
            raise StopIteration
        self.pc = 1
        return Invoke("ramfs", "tsplit", "app0", 1, f"bench{self.round}.dat")


class _HolderBody:
    """Allocate the lock, then each round take it, yield twice so the
    contender blocks on it, release it and yield twice more."""

    STATE_WIRING = ("handle",)

    __slots__ = ("handle", "pc", "round", "lid")

    def __init__(self, handle):
        self.handle = handle
        self.pc = 0
        self.round = 0
        self.lid = None

    def send(self, reply):
        handle = self.handle
        results = handle.results
        pc = self.pc
        self.pc = pc + 1
        if pc == 0:
            return Invoke("lock", "lock_alloc", "app0")
        if pc == 1:  # lock_alloc replied
            self.lid = reply
            results["lid"] = reply
        elif pc == 2:  # lock_take replied
            if reply != 0:
                _fail(handle, f"holder take returned {reply}")
            return Yield()
        elif pc == 3:
            return Yield()
        elif pc == 4:
            return Invoke("lock", "lock_release", "app0", self.lid)
        elif pc == 5:  # lock_release replied
            if reply != 0:
                _fail(handle, f"holder release returned {reply}")
            results["held"] = results.get("held", 0) + 1
            return Yield()
        elif pc == 6:
            return Yield()
        else:  # the round's last yield resumed
            self.round += 1
        if self.round == handle.iterations:
            raise StopIteration
        self.pc = 2
        return Invoke("lock", "lock_take", "app0", self.lid)


class _ContenderBody:
    """Wait until the lock exists, then each round take and release it."""

    STATE_WIRING = ("handle",)

    __slots__ = ("handle", "pc", "round", "lid")

    def __init__(self, handle):
        self.handle = handle
        self.pc = 0
        self.round = 0
        self.lid = None

    def send(self, reply):
        handle = self.handle
        results = handle.results
        pc = self.pc
        if pc == 0:  # waiting for the lock
            if "lid" not in results:
                return Yield()
            self.lid = results["lid"]
        elif pc == 1:  # lock_take replied
            if reply != 0:
                _fail(handle, f"contender take returned {reply}")
            self.pc = 2
            return Invoke("lock", "lock_release", "app0", self.lid)
        else:  # lock_release replied
            if reply != 0:
                _fail(handle, f"contender release returned {reply}")
            results["contended"] = results.get("contended", 0) + 1
            self.round += 1
        if self.round == handle.iterations:
            raise StopIteration
        self.pc = 1
        return Invoke("lock", "lock_take", "app0", self.lid)


class _WaiterBody:
    """Create the event, wait on it each round, then free it."""

    STATE_WIRING = ("handle",)

    __slots__ = ("handle", "pc", "round", "evtid")

    def __init__(self, handle):
        self.handle = handle
        self.pc = 0
        self.round = 0
        self.evtid = None

    def send(self, reply):
        handle = self.handle
        results = handle.results
        pc = self.pc
        if pc == 0:
            self.pc = 1
            return Invoke("event", "evt_split", "app0", 0, 1)
        if pc == 1:  # evt_split replied
            self.evtid = reply
            results["evtid"] = reply
        elif pc == 2:  # evt_wait replied
            if reply != 0:
                _fail(handle, f"evt_wait returned {reply}")
            results["waits"] = results.get("waits", 0) + 1
            self.round += 1
        else:  # evt_free replied
            results["freed"] = True
            raise StopIteration
        if self.round == handle.iterations:
            self.pc = 3
            return Invoke("event", "evt_free", "app0", self.evtid)
        self.pc = 2
        return Invoke("event", "evt_wait", "app0", self.evtid)


class _TriggerBody:
    """Wait until the event exists, then each round trigger it from app1
    (a different component: a global descriptor) and yield."""

    STATE_WIRING = ("handle",)

    __slots__ = ("handle", "pc", "round", "evtid")

    def __init__(self, handle):
        self.handle = handle
        self.pc = 0
        self.round = 0
        self.evtid = None

    def send(self, reply):
        handle = self.handle
        results = handle.results
        pc = self.pc
        if pc == 0:  # waiting for the event
            if "evtid" not in results:
                return Yield()
            self.evtid = results["evtid"]
        elif pc == 1:  # evt_trigger replied
            if reply != 0:
                _fail(handle, f"evt_trigger returned {reply}")
            results["triggers"] = results.get("triggers", 0) + 1
            self.pc = 2
            return Yield()
        else:  # the round's yield resumed
            self.round += 1
        if self.round == handle.iterations:
            raise StopIteration
        self.pc = 1
        return Invoke("event", "evt_trigger", "app1", self.evtid)


class _TimerBody:
    """Allocate a periodic timer, block on it each round, then free it."""

    STATE_WIRING = ("handle",)

    __slots__ = ("handle", "pc", "round", "tmid")

    def __init__(self, handle):
        self.handle = handle
        self.pc = 0
        self.round = 0
        self.tmid = None

    def send(self, reply):
        handle = self.handle
        results = handle.results
        pc = self.pc
        if pc == 0:
            self.pc = 1
            return Invoke(
                "timer", "timer_alloc", "app0", TimerWorkload.PERIOD
            )
        if pc == 1:  # timer_alloc replied
            self.tmid = reply
            results["tmid"] = reply
        elif pc == 2:  # timer_block replied
            if reply != 0:
                _fail(handle, f"timer_block returned {reply}")
            results["wakes"] = results.get("wakes", 0) + 1
            self.round += 1
        else:  # timer_free replied
            results["freed"] = True
            raise StopIteration
        if self.round == handle.iterations:
            self.pc = 3
            return Invoke("timer", "timer_free", "app0", self.tmid)
        self.pc = 2
        return Invoke("timer", "timer_block", "app0", self.tmid)


# ---------------------------------------------------------------------------
class SchedWorkload(Workload):
    name = "sched"
    service = "sched"

    def _spawn(self, system, handle):
        _thread(system, "ping", "app0", lambda: _SchedBody(
            handle, "tid_a", "tid_b", "pings", wakes_first=True
        ))
        _thread(system, "pong", "app0", lambda: _SchedBody(
            handle, "tid_b", "tid_a", "pongs", wakes_first=False
        ))

    def check(self, results, system, iterations):
        return (
            results.get("pings") == iterations
            and results.get("pongs") == iterations
        )


# ---------------------------------------------------------------------------
class MMWorkload(Workload):
    name = "mm"
    service = "mm"

    BASE_VA = 0x0040_0000
    ALIAS_VA = 0x0080_0000
    PAGE = 0x1000

    def _spawn(self, system, handle):
        _thread(system, "mm-user", "app0", lambda: _MMBody(handle))

    def check(self, results, system, iterations):
        mm = system.kernel.component("mm")
        return (
            "error" not in results
            and results.get("rounds") == iterations
            and len(mm.mappings) == 0
        )


# ---------------------------------------------------------------------------
class FSWorkload(Workload):
    name = "fs"
    service = "ramfs"

    def _spawn(self, system, handle):
        _thread(system, "fs-user", "app0", lambda: _FSBody(handle))

    def check(self, results, system, iterations):
        return "error" not in results and results.get("rounds") == iterations


# ---------------------------------------------------------------------------
class LockWorkload(Workload):
    name = "lock"
    service = "lock"

    def _spawn(self, system, handle):
        _thread(system, "holder", "app0", lambda: _HolderBody(handle))
        _thread(system, "contender", "app0", lambda: _ContenderBody(handle))

    def check(self, results, system, iterations):
        return (
            "error" not in results
            and results.get("held") == iterations
            and results.get("contended") == iterations
        )


# ---------------------------------------------------------------------------
class EventWorkload(Workload):
    name = "event"
    service = "event"

    def _spawn(self, system, handle):
        _thread(system, "evt-wait", "app0", lambda: _WaiterBody(handle))
        _thread(system, "evt-trig", "app1", lambda: _TriggerBody(handle))

    def check(self, results, system, iterations):
        return (
            "error" not in results
            and results.get("waits") == iterations
            and results.get("triggers") == iterations
        )


# ---------------------------------------------------------------------------
class TimerWorkload(Workload):
    name = "timer"
    service = "timer"

    PERIOD = 5_000  # cycles

    def _spawn(self, system, handle):
        _thread(system, "periodic", "app0", lambda: _TimerBody(handle))

    def check(self, results, system, iterations):
        return (
            "error" not in results
            and results.get("wakes") == iterations
            and results.get("freed") is True
        )


#: Registry keyed by the paper's workload names (Section V-B).
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in [
        SchedWorkload(),
        MMWorkload(),
        FSWorkload(),
        LockWorkload(),
        EventWorkload(),
        TimerWorkload(),
    ]
}


def workload_for(service: str) -> Workload:
    """The workload targeting ``service`` (by service component name)."""
    for workload in WORKLOADS.values():
        if workload.service == service:
            return workload
    raise KeyError(service)
