"""Simulator-level scheduling primitives: virtual clock and run queue.

This is the *simulator's* fixed-priority dispatcher, i.e. the stand-in for
the hardware timer plus the lowest-level context switch.  The *scheduler
service component* that the paper injects faults into lives in
:mod:`repro.composite.services.sched` and is itself scheduled by this run
queue like any other component.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.composite.thread import SimThread, ThreadState

#: Bound once: looking the member up on the enum costs ``RunQueue.pick``
#: about as much as its second pass.
_READY = ThreadState.READY

#: Virtual cycles per microsecond: the paper's testbed is an Intel
#: i7-2760QM at 2.4 GHz with one core enabled.
CYCLES_PER_US = 2400


def cycles_to_us(cycles: int) -> float:
    """Convert virtual cycles to microseconds on the modelled 2.4 GHz part."""
    return cycles / CYCLES_PER_US


class VirtualClock:
    """Monotonic virtual time in cycles, with a timer wheel.

    Timers fire only when the simulator asks (either because time advanced
    past an expiry while threads executed, or because the system went idle
    and time skips forward to the next expiry).
    """

    def __init__(self):
        self.now: int = 0
        self._timers: List[Tuple[int, int, Callable[[], None]]] = []
        self._counter = itertools.count()

    def reset(self) -> None:
        """Rewind to cycle 0 with no timers pending (system-pool reuse)."""
        self.now = 0
        self._timers.clear()
        self._counter = itertools.count()

    def advance(self, cycles: int) -> None:
        if cycles < 0:
            raise ValueError("cannot advance the clock backwards")
        self.now += cycles

    def schedule(self, when: int, callback: Callable[[], None]) -> None:
        """Arrange for ``callback`` to run at absolute cycle time ``when``."""
        heapq.heappush(self._timers, (when, next(self._counter), callback))

    def next_expiry(self) -> Optional[int]:
        return self._timers[0][0] if self._timers else None

    def pop_due(self) -> List[Callable[[], None]]:
        """Remove and return callbacks whose expiry is <= now."""
        due = []
        while self._timers and self._timers[0][0] <= self.now:
            __, __, callback = heapq.heappop(self._timers)
            due.append(callback)
        return due

    def skip_to_next_expiry(self) -> bool:
        """Advance the clock to the next timer; False if none pending."""
        expiry = self.next_expiry()
        if expiry is None:
            return False
        if expiry > self.now:
            self.now = expiry
        return True


class RunQueue:
    """Fixed-priority run queue with FIFO order among equal priorities."""

    def __init__(self):
        self._threads: List[SimThread] = []
        self._rr: int = 0  # round-robin tiebreak counter

    def reset(self) -> None:
        """Drop every thread and the round-robin state (system-pool reuse)."""
        self._threads.clear()
        self._rr = 0

    def add(self, thread: SimThread) -> None:
        self._threads.append(thread)

    def remove(self, thread: SimThread) -> None:
        self._threads.remove(thread)

    @property
    def threads(self) -> List[SimThread]:
        return list(self._threads)

    def pick(self) -> Optional[SimThread]:
        """Highest-priority runnable thread; round-robin within a priority."""
        # Hot path (called once per scheduler step), so no per-step list:
        # one pass counts the ready peers at the best priority, a second
        # takes the ``_rr``-th of them.
        threads = self._threads
        best = None
        n = 0
        for t in threads:
            if t.state is _READY:
                prio = t.prio
                if not n or prio < best:
                    best = prio
                    n = 1
                elif prio == best:
                    n += 1
        if not n:
            return None
        k = self._rr % n
        self._rr += 1
        for t in threads:
            if t.state is _READY and t.prio == best:
                if not k:
                    return t
                k -= 1

    def all_done(self) -> bool:
        return all(
            t.state in (ThreadState.DONE, ThreadState.CRASHED)
            for t in self._threads
        )

    def blocked(self) -> List[SimThread]:
        return [t for t in self._threads if t.state is ThreadState.BLOCKED]
