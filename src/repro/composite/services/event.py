"""Event notification service component.

Interface (exactly the paper's Fig. 3 specification):

* ``evt_split(spdid, parent_evtid, grp) -> evtid`` — create an event
  (optionally as a child of ``parent_evtid``; ``grp`` marks event groups).
* ``evt_wait(spdid, evtid) -> 0``    — block until the event triggers.
* ``evt_trigger(spdid, evtid) -> 0`` — trigger; wakes a waiter (possibly in
  a *different* component — event descriptors are global).
* ``evt_free(spdid, evtid) -> 0``    — terminate.

Model instance (Fig. 3's ``service_global_info``): blocking, has data,
**global** descriptors, ``Parent`` dependencies, close-removes-dependency.
Global descriptors make Event the service that exercises every recovery
mechanism except D0: G0 (storage-held creator map), U0 (upcall into the
creator), plus T0/T1/R0/D1 and G1 for the pending-trigger counts.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List

from repro.composite.component import export
from repro.composite.machine import EBX, ECX
from repro.composite.services.common import ServiceComponent
from repro.errors import BlockThread, InvalidDescriptor

FIELD_PARENT = 1
FIELD_GRP = 2
FIELD_PENDING = 3
FIELD_EVTID = 4

PENDING_NS = "event:pending"


class _EventState:
    __slots__ = ("parent", "grp", "pending", "waiters", "creator", "uid")

    def __init__(self, parent: int, grp: int, creator: str):
        self.parent = parent
        self.grp = grp
        self.pending = 0  # triggers delivered with no waiter yet
        # A deque: releases/triggers wake from the head, and a busy
        # wait queue made list.pop(0) O(waiters) per wake.
        self.waiters: Deque[int] = deque()
        self.creator = creator
        #: Stable identity across micro-reboots: (creator, grp).  Pending
        #: trigger counts (the event's *resource data*, G1) are persisted
        #: in the storage component under this uid, so recovery does not
        #: lose triggers that raced the fault.  Events are therefore
        #: distinguished per (creator, grp); workloads allocate distinct
        #: grp values per concurrently live event.
        self.uid = (creator, grp)


class EventService(ServiceComponent):
    MAGIC = 0xE7E47001
    STATE_WIRING = ("storage_name",)

    def __init__(self, name: str = "event", storage: str = "storage"):
        super().__init__(name)
        self.storage_name = storage
        self.events: Dict[int, _EventState] = {}
        self._next_id = 1

    def reinit(self) -> None:
        super().reinit()
        self.events = {}
        self._next_id = 1

    def _persist_pending(self, thread, state: _EventState) -> None:
        """G1: update the redundant pending-count record in storage."""
        self.call(
            thread, self.storage_name, "store_put",
            PENDING_NS, state.uid, state.pending,
        )

    def _load_pending(self, thread, state: _EventState) -> None:
        stored = self.call(
            thread, self.storage_name, "store_get", PENDING_NS, state.uid
        )
        if stored is not None:
            state.pending = stored

    # ------------------------------------------------------------------
    @export
    def evt_split(self, thread, spdid, parent_evtid, grp) -> int:
        if parent_evtid and parent_evtid not in self.events:
            raise InvalidDescriptor(parent_evtid, component=self.name)
        evtid = self._next_id
        self._next_id += 1
        state = _EventState(parent_evtid, grp, spdid)
        self._load_pending(thread, state)
        record = self.new_record(
            evtid, [parent_evtid, grp, state.pending, evtid]
        )
        extend = None
        extend_key = None
        if parent_evtid:
            parent_record = self.record_for(parent_evtid)
            parent_state = self.events[parent_evtid]
            extend_key = (parent_record.addr, parent_state.grp)

            def extend(t, addr=parent_record.addr, grp=parent_state.grp):
                # Validate the parent before linking under it.
                t.li(EBX, addr)
                t.chk(EBX, 0, self.MAGIC)
                t.ld(ECX, EBX, FIELD_GRP)
                t.assert_range(ECX, grp, grp)

        trace = self.checked_create(
            record,
            args=[spdid, parent_evtid, grp],
            label="evt_split",
            scan=len(self.events) + 1,
            retval=evtid,
            extend=extend,
            extend_key=extend_key,
        )
        self.events[evtid] = state
        return self.run_op(thread, trace, plausible=lambda v: 0 < v < (1 << 16))

    @export
    def evt_wait(self, thread, spdid, evtid) -> int:
        record = self.record_for(evtid)
        state = self.events[evtid]
        if state.pending > 0:
            trace = self.checked_touch(
                record,
                expected=[
                    (FIELD_PENDING, state.pending),
                    (FIELD_EVTID, evtid),
                    (FIELD_GRP, state.grp),
                ],
                stores=[(FIELD_PENDING, state.pending - 1)],
                args=[spdid, evtid],
                label="evt_wait_pending",
                retval=0,
            )
            self.run_op(thread, trace, plausible=lambda v: v == 0)
            state.pending -= 1
            self._persist_pending(thread, state)
            return 0
        trace = self.checked_touch(
            record,
            expected=[
                (FIELD_PENDING, 0),
                (FIELD_EVTID, evtid),
                (FIELD_GRP, state.grp),
            ],
            scan=len(state.waiters) + 1,  # wait-queue insertion
            args=[spdid, evtid],
            label="evt_wait",
            retval=0,
        )
        self.run_op(thread, trace, plausible=lambda v: v == 0)
        state.waiters.append(thread.tid)
        raise BlockThread(
            self.name,
            ("evt", evtid, thread.tid),
            on_wake=lambda t, token, timeout: 0,
        )

    @export
    def evt_trigger(self, thread, spdid, evtid) -> int:
        record = self.record_for(evtid)
        state = self.events[evtid]
        if state.waiters:
            waiter = state.waiters.popleft()
            trace = self.checked_touch(
                record,
                expected=[
                    (FIELD_PENDING, state.pending),
                    (FIELD_EVTID, evtid),
                    (FIELD_GRP, state.grp),
                ],
                scan=len(state.waiters) + 1,
                args=[spdid, evtid],
                label="evt_trigger_wake",
                retval=0,
            )
            value = self.run_op(thread, trace, plausible=lambda v: v == 0)
            self.kernel.wake_token(self.name, ("evt", evtid, waiter), value=0)
            return value
        trace = self.checked_touch(
            record,
            expected=[
                (FIELD_PENDING, state.pending),
                (FIELD_EVTID, evtid),
            ],
            stores=[(FIELD_PENDING, state.pending + 1)],
            args=[spdid, evtid],
            label="evt_trigger_pend",
            retval=0,
        )
        value = self.run_op(thread, trace, plausible=lambda v: v == 0)
        state.pending += 1
        self._persist_pending(thread, state)
        return value

    @export
    def evt_free(self, thread, spdid, evtid) -> int:
        record = self.record_for(evtid)
        state = self.events[evtid]
        trace = self.checked_touch(
            record,
            expected=[(FIELD_EVTID, evtid), (FIELD_GRP, state.grp)],
            args=[spdid, evtid],
            label="evt_free",
            retval=0,
        )
        value = self.run_op(thread, trace, plausible=lambda v: v == 0)
        self.call(
            thread, self.storage_name, "store_del", PENDING_NS, state.uid
        )
        self.drop_record(evtid)
        del self.events[evtid]
        return value

    # -- test introspection ----------------------------------------------------
    def pending_of(self, evtid: int) -> int:
        return self.events[evtid].pending if evtid in self.events else 0

    def waiters_of(self, evtid: int) -> List[int]:
        return list(self.events[evtid].waiters) if evtid in self.events else []
