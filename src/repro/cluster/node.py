"""A simulated cluster node: one pooled System plus health accounting.

Each node owns a *private* sealed snapshot in the process-wide
:data:`~repro.system.GLOBAL_POOL`, keyed by the node id through the
pool's ``instance`` parameter — N nodes means N live Systems in one
process, none of them clobbering another's sealed image.  A node keeps
that snapshot and the spec's snapshot ladder built on it as its
``start``, warmed once (:meth:`Node.warm`), and runs workload units
from it through the SWIFI campaign's ``_drive_run``, and so
through the one run driver every campaign run executes in
(:func:`~repro.swifi.campaign.run_system`).  A unit's outcome and step
count are therefore the same pure function of ``(RunSpec, unit_seed)``
the flat campaigns compute, a unit whose run raised included — which is
exactly what makes failover sound: re-executing a killed node's unit on
any other node yields the identical outcome.

Health is tracked in a :class:`~repro.observe.metrics.MetricsRegistry`
— the flight recorder's integer-only registry — folding only
*outcome-invariant* kernel counters (faults vectored, micro-reboots,
budget exhaustion) plus per-outcome tallies and recovery-cycle
samples.  Engine counters that warm caches shift between pooled and
fresh systems (trace-cache hits, fast-path runs) are deliberately
excluded so supervisor decisions stay identical across pooling modes.
"""

from __future__ import annotations

from typing import Tuple

from repro.observe.metrics import MetricsRegistry
from repro.swifi.campaign import RunSpec, _drive_run, warm_up
from repro.swifi.classify import Outcome
from repro.system import System

#: Outcomes the supervisor counts as node-degrading crashes.
FATAL_OUTCOMES = frozenset(
    {
        Outcome.NOT_RECOVERED_SEGFAULT,
        Outcome.NOT_RECOVERED_PROPAGATED,
        Outcome.NOT_RECOVERED_OTHER,
    }
)


class Node:
    """One simulated node of a cluster cell."""

    def __init__(self, node_id: int, ft_mode: str, recovery_mode: str):
        self.node_id = node_id
        self.name = f"node{node_id}"
        self.ft_mode = ft_mode
        self.recovery_mode = recovery_mode
        #: Marked by the scenario's correlated-failure round; cleared by
        #: the whole-node reboot.
        self.killed = False
        #: Whole-node reboots over the node's lifetime (not reset per
        #: scenario reboot — the cell resets it per scenario).
        self.reboots = 0
        self.units_run = 0
        self.metrics = MetricsRegistry()
        #: Ladder work counts summed over this node's units.  Kept
        #: *outside* the health metrics: they depend on pooling, and
        #: supervisor decisions must not.
        self.counters = {}
        #: ``(snapshot, ladder)`` of this node's private pooled system
        #: (see :meth:`warm`); None until warmed, and unpooled.
        self.start = None

    # ------------------------------------------------------------------
    def warm(self, spec: RunSpec) -> None:
        """Boot and seal this node's private pooled system and build the
        spec's snapshot ladder on it (see
        :func:`~repro.swifi.campaign.warm_up`)."""
        self.start = warm_up(spec, instance=node_pool_instance(self.node_id))

    def run_unit(
        self, spec: RunSpec, unit_seed: int
    ) -> Tuple[Outcome, int, int]:
        """Execute one workload unit; returns ``(outcome, steps, cycles)``.

        ``cycles`` is the unit's virtual duration (the kernel clock at
        the end of the run) — the cell clock advances by it, keeping
        cluster timelines wall-clock-free and therefore deterministic.

        The run starts from this node's ``start``, warmed on first use:
        its private snapshot *and* the ladder built on it, so a node
        unit starts at its injection rung exactly like a flat campaign
        run.  Without pooling each unit boots fresh — same outcomes,
        and the same steps, counted from boot either way.
        """
        if self.start is None:
            self.warm(spec)
        outcome, system, __, steps, __ = _drive_run(
            spec, unit_seed, start=self.start, counters=self.counters
        )
        self.units_run += 1
        self._fold_health(system, outcome)
        return outcome, steps, system.kernel.clock.now

    def _fold_health(self, system: System, outcome: Outcome) -> None:
        """Fold one unit's outcome-invariant counters into node health."""
        metrics = self.metrics
        kernel = system.kernel
        metrics.counter("units").inc()
        metrics.counter(f"outcome_{outcome.value}").inc()
        if outcome in FATAL_OUTCOMES:
            metrics.counter("crashes").inc()
        metrics.counter("faults_vectored").inc(
            kernel.stats["faults_vectored"]
        )
        metrics.counter("micro_reboots").inc(kernel.stats["micro_reboots"])
        metrics.counter("budget_exhausted").inc(
            kernel.stats["budget_exhausted"]
        )
        manager = system.recovery_manager
        if manager is not None:
            hist = metrics.histogram("recovery_cycles")
            for samples in manager.recovery_samples.values():
                for cycles in samples:
                    hist.observe(cycles)

    # ------------------------------------------------------------------
    def crash_count(self) -> int:
        """Fatal outcomes since the last whole-node reboot."""
        return self.metrics.counter("crashes").value

    def reboot(self) -> None:
        """Whole-node reboot: seal-restore the entire System.

        This is the pool's dirty restore (tens of microseconds) of the
        node's private snapshot, its ``start``; without pooling the next
        unit builds fresh anyway, which is the same post-boot state by
        construction.  Either way the node's health window resets — a
        rebooted node is a healthy node.
        """
        if self.start is not None:
            self.start[0].restore()
        self.killed = False
        self.reboots += 1
        self.metrics = MetricsRegistry()

    def reset(self) -> None:
        """Reset all scenario-scoped state (cell reuse across scenarios)."""
        self.killed = False
        self.reboots = 0
        self.units_run = 0
        self.metrics = MetricsRegistry()
        self.counters = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Node {self.name} killed={self.killed} "
            f"units={self.units_run} reboots={self.reboots}>"
        )


def node_pool_instance(node_id: int) -> tuple:
    """The pool ``instance`` key of a node's private snapshot."""
    return ("cluster", node_id)
