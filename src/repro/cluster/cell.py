"""The cluster cell: N live nodes, a supervisor, and a scheduler.

Treadmill-style supervision over SuperGlue systems: the
:class:`Scheduler` places workload units round-robin over the live
nodes, the :class:`Supervisor` health-checks each node through its
flight-recorder metrics after every unit, and together they evict
unhealthy or killed nodes, whole-node-reboot them through the pool's
dirty-restore path, and re-admit them after a cooldown.

Everything a scenario does is a pure function of ``(ClusterSpec,
scenario_seed)``:

* unit outcomes are node-independent (each node restores its System to
  the identical sealed post-boot state before a unit), so failing a
  killed node's unit over to a survivor reproduces the exact outcome
  the dead node would have computed;
* the correlated-failure round (which unit, which victims) is drawn
  from ``random.Random(scenario_seed)`` alone;
* supervisor decisions read only integer health counters derived from
  unit outcomes; and
* the cell clock advances by virtual unit durations and fixed reboot
  costs — never wall time — so traced timelines are deterministic too.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.cluster.node import Node
from repro.observe.metrics import MetricsRegistry
from repro.observe.recorder import NULL_RECORDER, FlightRecorder
from repro.swifi.classify import Outcome
from repro.swifi.parallel import seed_schedule

#: Virtual cost of a whole-node reboot: the pool's dirty-restore is
#: ~5us of wall time on the reference box; at 2400 cycles/us that is
#: 12k virtual cycles charged to the cell clock.
NODE_REBOOT_CYCLES = 12_000


class CellClock:
    """The cell's virtual clock (cycles); stamps cluster trace events."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0

    def advance(self, cycles: int) -> None:
        self.now += cycles


class Supervisor:
    """Health-checks nodes through their flight-recorder metrics.

    A node is unhealthy when it was killed by the scenario's
    correlated-failure round, or when its crash counter (fatal unit
    outcomes since its last whole-node reboot) reaches the eviction
    threshold.  Decisions read only the node's integer health counters,
    so for a given ``(spec, seed)`` the supervisor makes the same calls
    on every worker, every pooling mode, every run.
    """

    def __init__(self, evict_threshold: int):
        self.evict_threshold = evict_threshold

    def healthy(self, node: Node) -> bool:
        if node.killed:
            return False
        return node.crash_count() < self.evict_threshold

    def verdict(self, node: Node) -> str:
        """Why a node is unhealthy (stable strings for events/rows)."""
        if node.killed:
            return "killed"
        return "crash_threshold"


class Scheduler:
    """Round-robin placement over the live nodes, with failover.

    The placement cursor advances per *placement*, not per unit index,
    so evictions and rejoins deterministically shift subsequent
    assignments instead of leaving holes.
    """

    def __init__(self, nodes: List[Node]):
        self.nodes = nodes
        self.live: List[Node] = list(nodes)
        self._cursor = 0

    def place(self) -> Node:
        node = self.live[self._cursor % len(self.live)]
        self._cursor += 1
        return node

    def place_surviving(self) -> Optional[Node]:
        """The next live, un-killed node (failover target), if any."""
        for offset in range(len(self.live)):
            node = self.live[(self._cursor + offset) % len(self.live)]
            if not node.killed:
                self._cursor += offset + 1
                return node
        return None

    def evict(self, node: Node) -> None:
        if node in self.live:
            self.live.remove(node)

    def admit(self, node: Node) -> None:
        if node not in self.live:
            self.live.append(node)
            self.live.sort(key=lambda n: n.node_id)

    def reset(self) -> None:
        self.live = list(self.nodes)
        self._cursor = 0


class Cell:
    """N simulated nodes plus their supervision, in one process."""

    def __init__(self, spec, trace: bool = False):
        self.spec = spec
        self.clock = CellClock()
        self.nodes = [
            Node(node_id, spec.ft_mode, spec.recovery_mode)
            for node_id in range(spec.n_nodes)
        ]
        self.supervisor = Supervisor(spec.evict_threshold)
        self.scheduler = Scheduler(self.nodes)
        self.recorder = (
            FlightRecorder(clock=self.clock) if trace else NULL_RECORDER
        )

    def counters(self) -> Dict[str, int]:
        """Ladder work counts summed across nodes for the last scenario.

        Sidecar-only by the campaign discipline: they depend on pooling,
        and scenario rows must not.
        """
        total: Dict[str, int] = {}
        for node in self.nodes:
            for key, value in node.counters.items():
                total[key] = total.get(key, 0) + value
        return total

    def reset(self) -> None:
        """Reset scenario-scoped state (the cell is reused per worker)."""
        self.clock.now = 0
        for node in self.nodes:
            node.reset()
        self.scheduler.reset()
        if self.recorder.enabled:
            # A fresh recorder, not clear(): clear() keeps the sequence
            # counter running, but a scenario's trace record must be a
            # pure function of (spec, seed) — independent of how many
            # scenarios this worker's cell ran before it.
            self.recorder = FlightRecorder(clock=self.clock)

    # ------------------------------------------------------------------
    def run_scenario(self, scenario_seed: int) -> Dict[str, object]:
        """One cluster scenario; returns its deterministic campaign row.

        Every unit is a full SWIFI injection run (per the spec's fault
        class); on top of that the scenario kills ``n_kill`` correlated
        nodes at a seed-drawn unit — always including the node the unit
        was just placed on, so each scenario exercises at least one
        failover and one whole-node reboot.
        """
        self.reset()
        spec = self.spec
        run_spec = spec.run_spec()
        recorder = self.recorder
        rng = random.Random(scenario_seed)
        kill_at = rng.randrange(spec.units) if spec.n_kill else None
        outcomes: Dict[str, int] = {}
        metrics = MetricsRegistry()
        failovers = evictions = reboots = rejoins = 0
        steps_total = 0
        victims: List[int] = []
        #: node -> unit index at which it rejoins the live set.
        cooling: Dict[Node, int] = {}

        for unit, unit_seed in enumerate(
            seed_schedule(scenario_seed, spec.units)
        ):
            for node in [n for n, due in cooling.items() if due <= unit]:
                del cooling[node]
                self.scheduler.admit(node)
                rejoins += 1
                if recorder.enabled:
                    recorder.emit("node_rejoin", node=node.name, unit=unit)

            node = self.scheduler.place()
            if unit == kill_at:
                victims = self._kill_round(rng, node, unit)
            if node.killed:
                survivor = self.scheduler.place_surviving()
                if survivor is None:
                    # Every live node died in the same round: emergency
                    # whole-node reboot of the placed node, then run the
                    # unit there (no failover possible).
                    node.reboot()
                    reboots += 1
                    self.clock.advance(NODE_REBOOT_CYCLES)
                    if recorder.enabled:
                        recorder.emit(
                            "node_reboot",
                            node=node.name,
                            unit=unit,
                            cost_cycles=NODE_REBOOT_CYCLES,
                            epoch=node.reboots,
                        )
                else:
                    failovers += 1
                    if recorder.enabled:
                        recorder.emit(
                            "unit_failover",
                            unit=unit,
                            from_node=node.name,
                            to_node=survivor.name,
                        )
                    node = survivor

            outcome, steps, cycles = node.run_unit(run_spec, unit_seed)
            self.clock.advance(cycles)
            steps_total += steps
            outcomes[outcome.value] = outcomes.get(outcome.value, 0) + 1
            metrics.counter(f"outcome_{outcome.value}").inc()
            if recorder.enabled:
                recorder.emit(
                    "unit_done",
                    node=node.name,
                    unit=unit,
                    outcome=outcome.value,
                    cycles=cycles,
                )

            for sick in [
                n for n in list(self.scheduler.live)
                if not self.supervisor.healthy(n)
            ]:
                reason = self.supervisor.verdict(sick)
                if len(self.scheduler.live) > 1:
                    self.scheduler.evict(sick)
                    cooling[sick] = unit + 1 + spec.cooldown
                    evictions += 1
                    if recorder.enabled:
                        recorder.emit(
                            "node_evict",
                            node=sick.name,
                            unit=unit,
                            reason=reason,
                        )
                sick.reboot()
                reboots += 1
                self.clock.advance(NODE_REBOOT_CYCLES)
                if recorder.enabled:
                    recorder.emit(
                        "node_reboot",
                        node=sick.name,
                        unit=unit,
                        cost_cycles=NODE_REBOOT_CYCLES,
                        epoch=sick.reboots,
                    )

        metrics.counter("units").inc(spec.units)
        metrics.counter("failovers").inc(failovers)
        metrics.counter("evictions").inc(evictions)
        metrics.counter("node_reboots").inc(reboots)
        metrics.counter("rejoins").inc(rejoins)
        metrics.counter("scenarios").inc()
        recovered = outcomes.get(Outcome.RECOVERED.value, 0)
        return {
            "scenario_seed": scenario_seed,
            "outcome": "failover" if failovers else "ok",
            "units": spec.units,
            "kill_at": kill_at,
            "victims": victims,
            "failovers": failovers,
            "evictions": evictions,
            "node_reboots": reboots,
            "rejoins": rejoins,
            # Fraction of unit slots served by their originally placed
            # node — the scenario's availability under the correlated
            # node-failure model (failed-over units still complete, but
            # their first placement was lost).
            "availability": (spec.units - failovers) / spec.units,
            "recovered": recovered,
            "outcomes": dict(sorted(outcomes.items())),
            "steps": steps_total,
            "duration_cycles": self.clock.now,
            "per_node": [
                {
                    "node": node.name,
                    "units_run": node.units_run,
                    "reboots": node.reboots,
                }
                for node in self.nodes
            ],
            "metrics": metrics.to_dict(),
        }

    def _kill_round(
        self, rng: random.Random, placed: Node, unit: int
    ) -> List[int]:
        """Kill ``n_kill`` correlated nodes, always including ``placed``.

        Modeling the interesting correlated failure — the node actually
        running the workload dies, possibly along with neighbors — and
        guaranteeing every scenario exercises the failover path.
        """
        victims = [placed]
        others = [n for n in self.nodes if n is not placed]
        extra = self.spec.n_kill - 1
        if extra > 0:
            victims.extend(rng.sample(others, extra))
        victims.sort(key=lambda n: n.node_id)
        for victim in victims:
            victim.killed = True
            if self.recorder.enabled:
                self.recorder.emit(
                    "node_kill", node=victim.name, unit=unit
                )
        return [v.node_id for v in victims]
