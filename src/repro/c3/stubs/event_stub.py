"""Hand-written C^3 stubs for the event notification component.

Event descriptors are *global* — shared across client components — so the
hand-written baseline needs both sides:

* the client stub tracks descriptors it created and replays their
  ``evt_split`` on recovery, recording old->new id aliases in the storage
  component; and
* the server stub catches EINVAL on unknown descriptor ids, follows the
  alias chain in storage, and — when another component's descriptor has
  not been recovered yet — upcalls the creating client's stub to rerun
  recovery before replaying the invocation (the G0/U0 machinery that C^3
  required "explicit code to interact with storage components" for).
"""

from __future__ import annotations

from repro.c3.base import C3ClientStubBase, C3ServerStubBase
from repro.composite.kernel import FAULT
from repro.composite.thread import Invoke
from repro.errors import BlockThread, InvalidDescriptor


class EventC3ClientStub(C3ClientStubBase):
    SERVICE = "event"

    # ------------------------------------------------------------------
    def c3_evt_split(self, kernel, thread, compid, parent_evtid, grp):
        parent = self.descs.get(parent_evtid)
        retries = 0
        while True:
            if parent is not None:
                self._recover(kernel, thread, parent_evtid)
            parent_sid = parent["sid"] if parent is not None else parent_evtid
            try:
                ret = kernel.raw_invoke(
                    thread, self.server, "evt_split",
                    (compid, parent_sid, grp),
                )
            except InvalidDescriptor:
                if parent is None or retries >= 3:
                    raise
                retries += 1
                parent["epoch"] = -1
                continue
            if ret is FAULT:
                self.fault_update(kernel, thread)
                self.stats["redos"] += 1
                continue
            entry = {
                "sid": ret,
                "parent": parent_evtid,
                "grp": grp,
                "owner": thread.tid,
                "epoch": self.epoch(kernel),
            }
            self.descs[ret] = entry
            self.track(kernel, thread, entry, stores=3)
            return ret

    # ------------------------------------------------------------------
    def c3_evt_wait(self, kernel, thread, compid, evtid):
        entry = self.descs.get(evtid)
        retries = 0
        while True:
            if entry is not None:
                self._recover(kernel, thread, evtid)
            sid = entry["sid"] if entry is not None else evtid
            try:
                ret = kernel.raw_invoke(
                    thread, self.server, "evt_wait", (compid, sid)
                )
            except BlockThread:
                raise
            except InvalidDescriptor:
                if entry is None or retries >= 3:
                    raise
                retries += 1
                entry["epoch"] = -1
                continue
            if ret is FAULT:
                self.fault_update(kernel, thread)
                self.stats["redos"] += 1
                continue
            if entry is not None:
                self.track(kernel, thread, entry)
            return ret

    def post_unblock(self, kernel, thread, fn, args, value):
        if fn == "evt_wait":
            entry = self.descs.get(args[1])
            if entry is not None:
                self.track(kernel, thread, entry)
        return value

    # ------------------------------------------------------------------
    def c3_evt_trigger(self, kernel, thread, compid, evtid):
        entry = self.descs.get(evtid)
        retries = 0
        while True:
            if entry is not None:
                self._recover(kernel, thread, evtid)
            sid = entry["sid"] if entry is not None else evtid
            try:
                ret = kernel.raw_invoke(
                    thread, self.server, "evt_trigger", (compid, sid)
                )
            except InvalidDescriptor:
                # Not our descriptor: the server-side stub's G0 path is
                # responsible for resolving it; re-raising reports genuine
                # failures.
                if entry is None or retries >= 3:
                    raise
                retries += 1
                entry["epoch"] = -1
                continue
            if ret is FAULT:
                self.fault_update(kernel, thread)
                self.stats["redos"] += 1
                continue
            if entry is not None:
                self.track(kernel, thread, entry)
            return ret

    # ------------------------------------------------------------------
    def c3_evt_free(self, kernel, thread, compid, evtid):
        entry = self.descs.get(evtid)
        retries = 0
        while True:
            if entry is not None:
                self._recover(kernel, thread, evtid)
            sid = entry["sid"] if entry is not None else evtid
            try:
                ret = kernel.raw_invoke(
                    thread, self.server, "evt_free", (compid, sid)
                )
            except InvalidDescriptor:
                if entry is None or retries >= 3:
                    raise
                retries += 1
                entry["epoch"] = -1
                continue
            if ret is FAULT:
                self.fault_update(kernel, thread)
                self.stats["redos"] += 1
                continue
            self.descs.pop(evtid, None)
            self.track(kernel, thread, None)
            return ret

    # ------------------------------------------------------------------
    def recover_by_old_sid(self, kernel, thread, old_sid):
        """U0 entry point: the server stub upcalls us to recover a global
        descriptor we created; returns the new server id."""
        self._ran = True
        for cdesc, entry in self.descs.items():
            if entry["sid"] == old_sid:
                self._recover(kernel, thread, cdesc, force=True)
                return entry["sid"]
        return None

    def _recover(self, kernel, thread, cdesc, force: bool = False) -> bool:
        entry = self.descs.get(cdesc)
        if entry is None:
            return False
        current = self.epoch(kernel)
        if entry["epoch"] == current and not force:
            return False
        entry["epoch"] = current
        start = kernel.clock.now
        parent = self.descs.get(entry["parent"])
        if parent is not None:
            self._recover(kernel, thread, entry["parent"])
        parent_sid = parent["sid"] if parent is not None else entry["parent"]
        owner = self.impersonate(thread, entry["owner"])
        old_sid = entry["sid"]
        entry["sid"] = self.replay(
            kernel, owner, "evt_split",
            (self.client, parent_sid, entry["grp"]),
        )
        if entry["sid"] != old_sid:
            # Record the id translation for other components' stale ids.
            kernel.invoke(
                thread,
                Invoke(
                    "storage", "store_put", "alias:event", old_sid, entry["sid"]
                ),
            )
        self.record_recovery(kernel, start)
        return True


class EventC3ServerStub(C3ServerStubBase):
    """Hand-written server-side stub implementing G0 for global events."""

    def dispatch(self, kernel, thread, fn, args):
        try:
            result = self.component.dispatch(fn, thread, args)
        except InvalidDescriptor as error:
            new_args = self._recover_global(kernel, thread, fn, args, error)
            if new_args is None:
                raise
            self.stats["einval_recoveries"] += 1
            result = self.component.dispatch(fn, thread, new_args)
        if fn == "evt_split":
            # Remember who created each global descriptor (G0 metadata).
            storage = kernel.component(self.storage_name)
            if not isinstance(result, (bytes, str)):
                storage.record_creator(thread, self.component.name, result, args[0])
        return result

    def _recover_global(self, kernel, thread, fn, args, error):
        if fn not in ("evt_wait", "evt_trigger", "evt_free"):
            return None
        desc_id = args[1]
        storage = kernel.component(self.storage_name)
        resolved = storage.resolve_alias(thread, self.component.name, desc_id)
        if resolved != desc_id and self.component.has_record(resolved):
            return (args[0], resolved) + tuple(args[2:])
        creator = storage.lookup_creator(thread, self.component.name, desc_id)
        if creator is None:
            return None
        client_stub = kernel.stub_for(creator, self.component.name)
        if client_stub is None or not hasattr(client_stub, "recover_by_old_sid"):
            return None
        kernel.charge(thread, 300)  # upcall into the creator component
        kernel.stats["upcalls"] += 1
        new_sid = client_stub.recover_by_old_sid(kernel, thread, desc_id)
        if new_sid is None:
            return None
        self.stats["replays"] += 1
        return (args[0], new_sid) + tuple(args[2:])
