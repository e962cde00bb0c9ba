"""The booter component: micro-reboot of failed components.

On a detected fault the hardware exception handler vectors here
(Section III-D steps 2-4): the booter memcpys a known-good image over the
faulty component, re-initialises it, and hands off to the recovery manager
for eager wakeup (T0) of threads the faulty component had blocked.

The booter itself (like the kernel and the storage component) is assumed
protected (Section II-E); faults are never injected into it.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import SimulatedFault


class Booter:
    """Micro-reboots faulty components and triggers recovery."""

    #: Pooled-root declaration (see :class:`repro.system.StateModel`):
    #: ``_ran`` is set whenever the reboot log grows.
    STATE_WIRING = ("kernel",)
    STATE_TOUCHED = "_ran"

    def __init__(self, kernel):
        self.kernel = kernel
        kernel.booter = self
        #: (clock cycles, component name, fault kind) log of every reboot.
        self.reboot_log: List[Tuple[int, str, str]] = []
        self._ran = False

    def handle_fault(self, component, fault: SimulatedFault) -> None:
        """Micro-reboot ``component`` after a detected fail-stop fault."""
        recorder = self.kernel.recorder
        if recorder.enabled:
            recorder.emit(
                "micro_reboot_begin", component=component.name, kind=fault.kind
            )
        cost = component.micro_reboot()
        self.kernel.charge(None, cost)
        self.kernel.stats["micro_reboots"] += 1
        self._ran = True
        self.reboot_log.append((self.kernel.clock.now, component.name, fault.kind))
        # Re-initialisation upcall into the rebooted component (step 4).
        if hasattr(component, "post_reboot_init"):
            component.post_reboot_init()
        # Hand off to the recovery manager for eager wakeup (T0, step 5)
        # and any server-side bookkeeping.
        if self.kernel.recovery_manager is not None:
            self.kernel.recovery_manager.on_micro_reboot(component, fault)
        if recorder.enabled:
            recorder.emit(
                "micro_reboot_end",
                component=component.name,
                epoch=component.reboot_epoch,
                cost_cycles=cost,
            )
            recorder.metrics.counter("micro_reboots").inc()

    @property
    def reboots(self) -> int:
        return len(self.reboot_log)
