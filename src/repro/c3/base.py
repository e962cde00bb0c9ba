"""Common scaffolding for the hand-written C^3 stubs.

Kept deliberately thin: C^3 gave developers the *mechanisms* (micro-reboot,
fault epochs, tracking cost accounting, thread impersonation) but no model
of what to do with them — every stub re-implements its own descriptor
bookkeeping and recovery sequences by hand (Section II-F: "C^3 stubs are
manually written, and are complex and error prone").
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.composite.kernel import FAULT
from repro.composite.machine import EAX, EBX, ECX, ESI, Trace
from repro.core.runtime.stubs import TidProxy
from repro.errors import RecoveryError

#: Magic word guarding client-side tracking records (C^3 flavour).
C3_TRACK_MAGIC = 0xC3C3C3C3

#: Cost of the fault-epoch resynchronisation on the redo path.
C3_FAULT_UPDATE_CYCLES = 140

#: Marshalling-loop iterations per tracked invocation.  Hand-tuned C^3
#: stubs marshal slightly less per op than the generated code (Fig. 6a
#: shows both in the same band, C^3 marginally cheaper).
C3_TRACK_MARSHAL_ITERS = 102


class C3ClientStubBase:
    """Hand-written client stub base: epoch sync + tracking-cost traces."""

    SERVICE = ""

    #: Pooled-root declaration (see :class:`repro.system.StateModel`).
    STATE_WIRING = ("client", "server")
    STATE_TOUCHED = "_ran"

    def __init__(self, client: str, server: str):
        self.client = client
        self.server = server
        #: Touched flag: the kernel sets it on every entry, and the
        #: recovery entry points that reach a stub from outside an
        #: entry (``recover_by_old_sid``, ``recover_all``) set it too.
        self._ran = False
        #: cdesc -> per-service dict (each stub defines its own layout).
        self.descs: Dict[object, dict] = {}
        self.seen_epoch = 0
        self.stats = {
            "tracked_ops": 0,
            "recoveries": 0,
            "recovery_cycles": 0,
            "fault_updates": 0,
            "redos": 0,
        }

    # -- kernel contract -----------------------------------------------------
    def invoke(self, kernel, thread, fn: str, args: Tuple):
        # SWIFI IDL-boundary fuzzing interposes on C^3 stubs too: the
        # fault class targets the interface surface, not a stub flavour.
        swifi = kernel.swifi
        if swifi is not None:
            args = swifi.filter_idl_args(self.server, fn, args)
        method = getattr(self, f"c3_{fn}", None)
        if method is None:
            result = kernel.raw_invoke(thread, self.server, fn, args)
            if result is FAULT:
                self.fault_update(kernel, thread)
                return self.invoke(kernel, thread, fn, args)
        else:
            result = method(kernel, thread, *args)
        if swifi is not None:
            result = swifi.filter_idl_ret(self.server, fn, result)
        return result

    def post_unblock(self, kernel, thread, fn: str, args: Tuple, value):
        """Per-service completion tracking for blocking calls."""
        return value

    def recover_all(self, kernel, thread) -> int:
        """Eager recovery over all descriptors (T0-style ablation)."""
        self._ran = True
        recovered = 0
        for cdesc in list(self.descs):
            if self._recover(kernel, thread, cdesc):
                recovered += 1
        return recovered

    # -- mechanisms ------------------------------------------------------------
    def epoch(self, kernel) -> int:
        return kernel.component(self.server).reboot_epoch

    def fault_update(self, kernel, thread) -> None:
        self.stats["fault_updates"] += 1
        kernel.charge(thread, C3_FAULT_UPDATE_CYCLES)
        self.seen_epoch = self.epoch(kernel)

    def _recover(self, kernel, thread, cdesc) -> bool:
        """Subclasses implement the hand-written recovery sequence."""
        raise NotImplementedError

    def impersonate(self, thread, tid: int):
        """Replay helper: act for the descriptor's original principal."""
        return TidProxy(thread, tid) if tid != thread.tid else thread

    def record_recovery(self, kernel, start_cycles: int) -> None:
        self.stats["recoveries"] += 1
        delta = kernel.clock.now - start_cycles
        self.stats["recovery_cycles"] += delta
        if kernel.recovery_manager is not None:
            kernel.recovery_manager.record_descriptor_recovery(
                self.server, delta
            )

    def replay(self, kernel, thread, fn: str, args: Tuple):
        """One recovery replay invocation with a single redo on re-fault."""
        result = kernel.raw_invoke(thread, self.server, fn, args)
        if result is FAULT:
            self.fault_update(kernel, thread)
            result = kernel.raw_invoke(thread, self.server, fn, args)
            if result is FAULT:
                raise RecoveryError(
                    f"repeated fault replaying {fn} on {self.server}"
                )
        return result

    # -- tracking cost ----------------------------------------------------------
    def track(self, kernel, thread, entry: dict = None, stores: int = 2):
        """Execute the C^3 descriptor-tracking micro-ops in client memory.

        C^3's hand-tuned tracking is marginally leaner than the generated
        code (one fewer store on average) — the Fig. 6(a) comparison shows
        both as similar.
        """
        self.stats["tracked_ops"] += 1
        image = kernel.component(self.client).image
        trace = Trace("c3_track").prologue()
        if entry is not None:
            addr = entry.get("_track_addr")
            if addr is None:
                addr = image.alloc_record(C3_TRACK_MAGIC, 4)
                entry["_track_addr"] = addr
            trace.li(EAX, addr)
            trace.chk(EAX, 0, C3_TRACK_MAGIC)
            trace.ld(EBX, EAX, 1)
            for off in range(max(stores - 1, 1)):
                trace.li(ECX, (self.seen_epoch + off) & 0xFFFFFFFF)
                trace.st(ECX, EAX, 1 + (off % 4))
        else:
            trace.li(EBX, self.seen_epoch)
        # Hand-rolled meta-data marshalling into the tracking structure.
        trace.li(ESI, C3_TRACK_MARSHAL_ITERS)
        trace.loop(ESI, 3)
        trace.li(EAX, 0)
        trace.epilogue(EAX)
        kernel.component(self.client).execute(thread, trace)


class C3ServerStubBase:
    """Hand-written server-side stub base."""

    #: Pooled-root declaration (see :class:`repro.system.StateModel`).
    STATE_WIRING = ("component", "storage_name")

    def __init__(self, component, storage: str = "storage"):
        self.component = component
        self.storage_name = storage
        self.stats = {"einval_recoveries": 0, "replays": 0}

    def dispatch(self, kernel, thread, fn: str, args: Tuple):
        return self.component.dispatch(fn, thread, args)
