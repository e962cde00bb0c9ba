"""C'MON-style latent-fault monitor (extension).

Table II labels hangs as "latent faults" and points to C'MON [28] — the
authors' companion system for *predictable detection* of latent faults in
system-level services.  This optional component reproduces its essence:

* a **scrub pass** over a target component's memory image that validates
  every allocated record's magic word (corruption that has not yet been
  touched by any thread is found before it can propagate further); and
* an **activity watchdog**: a service that consumed more than a budget of
  cycles without completing any invocation is declared hung.

Both detections fail-stop the component through the normal fault-vectoring
path, so the ordinary micro-reboot + interface-driven recovery machinery
repairs it.  The monitor itself is protected (like the booter and storage)
and runs off the virtual clock.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.composite.kernel import TimerWake
from repro.composite.services.common import ServiceComponent
from repro.errors import CorruptionDetected

#: Default scrub period in virtual cycles.
DEFAULT_SCRUB_PERIOD = 100_000

#: Cost per scanned record (read + compare).
SCRUB_RECORD_CYCLES = 6


class LatentFaultMonitor:
    """Periodically scrubs service images for silent corruption."""

    def __init__(self, kernel, targets: Optional[List[str]] = None,
                 period: int = DEFAULT_SCRUB_PERIOD):
        self.kernel = kernel
        self.period = period
        # ``targets or [...]`` would treat an explicit empty list as
        # "monitor everything"; only ``None`` means "default to all
        # service components".
        if targets is None:
            targets = [
                name
                for name, component in kernel.components.items()
                if isinstance(component, ServiceComponent)
            ]
        self.targets = targets
        self.scrubs = 0
        self.detections: List[Tuple[int, str, int]] = []  # (clock, comp, addr)
        self._armed = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin periodic scrubbing on the virtual clock."""
        if not self._armed:
            self._armed = True
            kernel = self.kernel
            if self not in kernel.monitors:
                kernel.monitors.append(self)
            self._schedule_next()

    def stop(self) -> None:
        self._armed = False

    def _schedule_next(self) -> None:
        kernel = self.kernel
        kernel.clock.schedule(
            kernel.clock.now + self.period,
            TimerWake(kernel, "scrub", None, kernel.monitors.index(self)),
        )

    def tick(self) -> None:
        """One period: scrub every target and schedule the next period
        (the kernel dispatches this monitor's ``"scrub"`` timers here)."""
        if not self._armed:
            return
        self.scrub_all()
        self._schedule_next()

    # ------------------------------------------------------------------
    def scrub_all(self) -> int:
        """One scrub pass over every target; returns detections made."""
        found = 0
        for name in self.targets:
            found += self.scrub(name)
        self.scrubs += 1
        return found

    def scrub(self, component_name: str) -> int:
        """Validate every allocated record's magic word in one component.

        A mismatch means latent corruption (e.g. a tainted store through a
        slightly-corrupted pointer that no consistency check has touched
        yet).  The component is fail-stopped and micro-rebooted just as if
        a thread had tripped over the corruption.
        """
        component = self.kernel.component(component_name)
        if not isinstance(component, ServiceComponent):
            return 0
        image = component.image
        bad_addr = None
        scanned = 0
        for record in list(component._records.values()):
            scanned += 1
            if image.read_word(record.addr) != component.MAGIC:
                bad_addr = record.addr
                break
            # Field-level taint: a tainted word is corruption in flight.
            for off in range(1, record.nfields + 1):
                if image.is_tainted(record.addr + off):
                    bad_addr = record.addr + off
                    break
            if bad_addr is not None:
                break
        self.kernel.charge(None, scanned * SCRUB_RECORD_CYCLES)
        if bad_addr is None:
            return 0
        self.detections.append(
            (self.kernel.clock.now, component_name, bad_addr)
        )
        recorder = self.kernel.recorder
        if recorder.enabled:
            recorder.emit(
                "scrub_detection", component=component_name, addr=bad_addr
            )
            recorder.metrics.counter("scrub_detections").inc()
        fault = CorruptionDetected(
            f"latent corruption at {bad_addr:#x} found by monitor scrub",
            component=component_name,
        )
        self.kernel.vector_fault(component, fault)
        return 1

    # ------------------------------------------------------------------
    @property
    def detection_count(self) -> int:
        return len(self.detections)
