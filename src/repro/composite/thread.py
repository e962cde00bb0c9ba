"""Simulated threads.

COMPOSITE threads migrate synchronously between components on invocation
(Section II-B).  We model a thread as:

* a generator *body* (the workload code) that yields :class:`Invoke`
  actions to the simulator and receives the invocation's return value back;
* a private :class:`~repro.composite.machine.RegisterFile` — the state the
  SWIFI injector flips bits in;
* a fixed priority (smaller value = higher priority) used by the
  simulator's run queue, which is what makes *on-demand recovery at the
  accessing thread's priority* (T1) observable.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterator, Optional

from repro.composite.machine import RegisterFile


class Invoke:
    """A component invocation request yielded by a thread body.

    Attributes:
        server: name of the server component.
        fn: interface function name.
        args: positional arguments (plain ints/strings — interface data).
    """

    __slots__ = ("server", "fn", "args")

    def __init__(self, server: str, fn: str, *args):
        self.server = server
        self.fn = fn
        self.args = args

    def __repr__(self):
        return f"Invoke({self.server}.{self.fn}{self.args!r})"


class Yield:
    """Cooperative yield: let equal-priority threads run."""

    __slots__ = ()

    def __repr__(self):
        return "Yield()"


class Sleep:
    """Park the thread until a virtual-clock instant, charging no CPU.

    Models waiting on the *outside world* — the open-loop load
    generator's arrival clock is a NIC raising interrupts, not work the
    simulated system performs.  The thread blocks directly on the
    kernel's clock, in no component: sleeping costs zero simulated
    cycles, is invisible to fault wakeups and descriptor recovery, and
    (unlike the timer service) involves no invocations that would
    distort the capacity the open-loop stream is calibrated against.
    A ``Sleep`` whose instant is already past resumes immediately.
    """

    __slots__ = ("until",)

    def __init__(self, until: int):
        self.until = until

    def __repr__(self):
        return f"Sleep(until={self.until})"


class ThreadState(enum.Enum):
    READY = "ready"
    BLOCKED = "blocked"
    DONE = "done"
    CRASHED = "crashed"


class SimThread:
    """A simulated thread.

    Attributes:
        tid: unique thread id.
        name: human-readable label.
        prio: fixed priority; smaller is more urgent.
        home: name of the component the thread's code lives in (the client
            side of its invocations).
        body_factory: callable ``(system, thread) -> generator`` producing
            the workload body; the body yields :class:`Invoke`/:class:`Yield`.
    """

    def __init__(
        self,
        tid: int,
        name: str,
        prio: int,
        home: str,
        body_factory: Callable[["object", "SimThread"], Iterator],
    ):
        self.tid = tid
        self.name = name
        self.prio = prio
        self.home = home
        self.body_factory = body_factory
        self.regs = RegisterFile()
        self.state = ThreadState.READY
        self.body: Optional[Iterator] = None
        # The next resume: ("value", v), ("redo", invoke) or ("unblock",
        # stub, invoke, v) (see Kernel._step).  None means "first resume".
        self.pending = None
        # While blocked: the component name we are blocked in, the wait
        # token, and the original Invoke (for fault-redo), plus the client
        # stub whose post-tracking must run on wakeup.
        self.blocked_in: Optional[str] = None
        self.block_token = None
        self.block_invoke: Optional[Invoke] = None
        self.block_on_wake = None
        self.block_stub = None
        # The component the thread currently executes in (for SWIFI
        # targeting: faults are injected only into threads executing within
        # the target component).
        self.executing_in: Optional[str] = None
        # Statistics.
        self.cycles = 0
        self.invocations = 0

    def start(self, system) -> None:
        self.body = self.body_factory(system, self)

    @property
    def runnable(self) -> bool:
        return self.state is ThreadState.READY

    def __repr__(self):
        return (
            f"SimThread(tid={self.tid}, name={self.name!r}, prio={self.prio},"
            f" state={self.state.value})"
        )
