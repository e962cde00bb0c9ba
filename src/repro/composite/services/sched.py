"""Scheduler service component: thread block/wakeup.

Interface (the paper's Sched workload uses ``sched_blk``/``sched_wakeup``):

* ``sched_register(spdid) -> tid`` — create a thread descriptor for the
  calling thread (the descriptor id is the kernel tid, so it is stable
  across recovery).
* ``sched_blk(spdid, tid) -> 0``   — block the calling thread.
* ``sched_wakeup(spdid, tid) -> 0``— wake ``tid`` (a wakeup racing a block
  is remembered, COMPOSITE-style).
* ``sched_exit(spdid, tid) -> 0``  — terminate the descriptor.

Model instance: blocking, no resource data, local descriptors, ``Solo``.
Recovery note: after a micro-reboot the scheduler *reflects on the kernel*
(Section II-F) to rebuild its thread table; blocked threads are then woken
eagerly (T0) and re-block themselves through the client stub's redo.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.composite.component import export
from repro.composite.services.common import ServiceComponent
from repro.errors import BlockThread, InvalidDescriptor

FIELD_STATE = 1  # 0 = ready, 1 = blocked
FIELD_PRIO = 2
FIELD_TID = 3

STATE_READY = 0
STATE_BLOCKED = 1


PENDING_NS = "sched:pending"


class SchedService(ServiceComponent):
    MAGIC = 0x5C4ED001
    STATE_WIRING = ("storage_name",)

    def __init__(self, name: str = "sched", storage: str = "storage"):
        super().__init__(name)
        self.storage_name = storage
        self.registered: Dict[int, str] = {}
        self.pending_wakeups: Set[int] = set()

    def reinit(self) -> None:
        super().reinit()
        self.registered = {}
        self.pending_wakeups = set()

    def post_reboot_init(self) -> None:
        """Reflect to rebuild the thread table after a micro-reboot.

        The kernel is trusted (Section II-E); thread ids and priorities
        are recovered from it.  Block *state* is re-established by the
        woken threads themselves re-blocking through their client stubs.
        Wakeup *latches* (a wakeup that raced ahead of its block) are
        recovered from the protected storage component — the stand-in for
        the kernel-level state the paper's scheduler reflects on.
        """
        for info in self.kernel.reflect_threads():
            tid = info["tid"]
            if tid not in self.registered:
                self.registered[tid] = info["name"]
                self.new_record(tid, [STATE_READY, info["prio"], tid])
        storage = self.kernel.component(self.storage_name)
        for tid, __ in storage.store_list(None, PENDING_NS):
            self.pending_wakeups.add(tid)

    def _persist_latch(self, thread, tid: int, present: bool) -> None:
        fn = "store_put" if present else "store_del"
        args = (PENDING_NS, tid, True) if present else (PENDING_NS, tid)
        self.call(thread, self.storage_name, fn, *args)

    def _state_of(self, tid: int) -> int:
        return self.record_field(tid, FIELD_STATE)

    # ------------------------------------------------------------------
    @export
    def sched_register(self, thread, spdid) -> int:
        tid = thread.tid
        if not self.has_record(tid):
            record = self.new_record(tid, [STATE_READY, thread.prio, tid])
            trace = self.checked_create(
                record,
                args=[spdid],
                label="sched_register",
                scan=len(self.registered) + 1,
                retval=tid,
            )
        else:
            record = self.record_for(tid)
            trace = self.checked_touch(
                record,
                expected=[(FIELD_TID, tid), (FIELD_STATE, self._state_of(tid))],
                args=[spdid],
                label="sched_reregister",
                retval=tid,
            )
        self.registered[tid] = spdid
        return self.run_op(thread, trace, plausible=lambda v: v == tid)

    @export
    def sched_blk(self, thread, spdid, tid) -> int:
        if tid != thread.tid:
            return -1  # a thread can only block itself
        record = self.record_for(tid)
        if tid in self.pending_wakeups:
            # A wakeup raced ahead of this block: consume it and return.
            # The latch is consumed only *after* the trace ran fault-free —
            # a fail-stop mid-trace must leave it intact for the redo.
            trace = self.checked_touch(
                record,
                expected=[(FIELD_STATE, self._state_of(tid)), (FIELD_TID, tid)],
                stores=[(FIELD_STATE, STATE_READY)],
                args=[spdid, tid],
                label="sched_blk_raced",
                retval=0,
            )
            value = self.run_op(thread, trace, plausible=lambda v: v == 0)
            self.pending_wakeups.discard(tid)
            self._persist_latch(thread, tid, present=False)
            return value
        trace = self.checked_touch(
            record,
            expected=[
                (FIELD_STATE, self._state_of(tid)),
                (FIELD_PRIO, thread.prio),
                (FIELD_TID, tid),
            ],
            stores=[(FIELD_STATE, STATE_BLOCKED)],
            scan=len(self.registered) + 1,  # run-queue removal walk
            args=[spdid, tid],
            label="sched_blk",
            retval=0,
        )
        self.run_op(thread, trace, plausible=lambda v: v == 0)
        raise BlockThread(
            self.name,
            ("blk", tid),
            on_wake=lambda t, token, timeout: 0,
        )

    @export
    def sched_wakeup(self, thread, spdid, tid) -> int:
        if not self.has_record(tid):
            raise InvalidDescriptor(tid, component=self.name)
        record = self.record_for(tid)
        trace = self.checked_touch(
            record,
            expected=[(FIELD_STATE, self._state_of(tid)), (FIELD_TID, tid)],
            stores=[(FIELD_STATE, STATE_READY)],
            scan=len(self.registered) + 1,  # run-queue insertion walk
            args=[spdid, tid],
            label="sched_wakeup",
            retval=0,
        )
        value = self.run_op(thread, trace, plausible=lambda v: v == 0)
        woken = self.kernel.wake_token(self.name, ("blk", tid), value=0)
        if woken == 0:
            self.pending_wakeups.add(tid)
            self._persist_latch(thread, tid, present=True)
        return value

    @export
    def sched_exit(self, thread, spdid, tid) -> int:
        record = self.record_for(tid)
        trace = self.checked_touch(
            record,
            expected=[(FIELD_TID, tid)],
            args=[spdid, tid],
            label="sched_exit",
            retval=0,
        )
        value = self.run_op(thread, trace, plausible=lambda v: v == 0)
        self.drop_record(tid)
        self.registered.pop(tid, None)
        if tid in self.pending_wakeups:
            self.pending_wakeups.discard(tid)
            self._persist_latch(thread, tid, present=False)
        return value

    # -- test introspection ----------------------------------------------------
    def is_registered(self, tid: int) -> bool:
        return tid in self.registered
