"""Recovery orchestration: the server-recovery steps of Section III-D.

The :class:`RecoveryManager` glues the booter's micro-reboot to the stub
layer:

1. fault corrupts a component -> detected, fail-stop;
2. exception vectored to the booter (kernel);
3. booter micro-reboots the component (memcpy of the good image);
4. re-initialisation upcall (``post_reboot_init`` — e.g. the scheduler
   reflecting on kernel thread structures);
5. **T0**: threads blocked in the faulty component are woken eagerly; their
   client stubs redo the blocking invocation, re-establishing block state;
6. **T1/R0/D1**: descriptors are recovered on demand, at the priority of
   the accessing thread, parents first;
7. **G1**: services with resource data re-fetch it from storage on access;
8. **G0/U0**: unknown global descriptors are resolved through storage and
   an upcall into the creator client;
9. the rebooted server observes ordinary interface invocations that walk
   each descriptor back to its expected state.

Steps 1-5 are driven from here; 6-9 live in the stub layer and fire as
threads touch descriptors.  ``mode="eager"`` switches step 6 to eager
whole-interface recovery at fault time (the ablation of Section II-C).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.compiler.ir import InterfaceIR
from repro.errors import ConfigurationError


class RecoveryManager:
    """Coordinates micro-reboot recovery across stubs and services."""

    #: Pooled-root declaration (see :class:`repro.system.StateModel`):
    #: registered interfaces are build-time wiring, and ``_ran`` is set
    #: whenever a log grows.
    STATE_WIRING = ("kernel", "mode", "interfaces")
    STATE_TOUCHED = "_ran"

    def __init__(self, kernel, mode: str = "ondemand"):
        if mode not in ("ondemand", "eager"):
            raise ConfigurationError(f"unknown recovery mode {mode!r}")
        self.kernel = kernel
        self.mode = mode
        kernel.recovery_manager = self
        self.interfaces: Dict[str, InterfaceIR] = {}
        #: per-service descriptor-recovery cost samples (cycles) — Fig. 6b.
        self.recovery_samples: Dict[str, List[int]] = {}
        #: (clock, service, eagerly woken threads) per micro-reboot.
        self.reboot_events: List[Tuple[int, str, int]] = []
        self._ran = False

    def register_interface(self, ir: InterfaceIR) -> None:
        self.interfaces[ir.name] = ir

    # ------------------------------------------------------------------
    def on_micro_reboot(self, component, fault) -> None:
        """Booter hand-off after steps 2-4 completed."""
        ir = self.interfaces.get(component.name)
        # Step 5 (T0): wake every thread blocked in the failed component.
        # Their parked invocations are re-issued through the client stubs
        # ("redo"), which first recover the touched descriptors and then
        # re-block, restoring the expectations of both sides.
        woken = self.kernel.wake_all_in(component.name, redo=True)
        self._ran = True
        self.reboot_events.append(
            (self.kernel.clock.now, component.name, woken)
        )
        if self.kernel.recorder.enabled:
            self.kernel.recorder.emit(
                "t0_wake", component=component.name, woken=woken
            )
        if self.mode == "eager" and ir is not None:
            thread = self.kernel.current
            if thread is not None:
                for stub in self.kernel.all_stubs_for_server(component.name):
                    if hasattr(stub, "recover_all"):
                        stub.recover_all(self.kernel, thread)

    # ------------------------------------------------------------------
    def record_descriptor_recovery(self, service: str, cycles: int) -> None:
        self._ran = True
        self.recovery_samples.setdefault(service, []).append(cycles)
        if self.kernel.recorder.enabled:
            self.kernel.recorder.metrics.histogram(
                "recovery_cycles"
            ).observe(cycles)

    def mean_recovery_cycles(self, service: str) -> Optional[float]:
        samples = self.recovery_samples.get(service)
        if not samples:
            return None
        return sum(samples) / len(samples)

    @property
    def total_recoveries(self) -> int:
        return sum(len(v) for v in self.recovery_samples.values())
