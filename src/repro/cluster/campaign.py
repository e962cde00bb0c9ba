"""Cluster campaigns: correlated node failures as a campaign axis.

``python -m repro cluster --nodes N --faults K --fault-class C
--workers W`` runs many seeded *scenarios*.  Each scenario drives a
cell of N simulated nodes through a schedule of SWIFI-injected
workload units while killing K correlated nodes at a seed-drawn
instant; the supervisor/scheduler layer fails units over, evicts the
dead nodes, whole-node-reboots them, and re-admits them after a
cooldown (see :mod:`repro.cluster.cell`).

Scenarios follow the repository's campaign discipline exactly:

* a scenario's row is a pure function of ``(ClusterSpec,
  scenario_seed)`` — rows derive only from virtual-time outcomes,
  never from engine counters that warm caches shift;
* scenario seeds run through the seeded-campaign core
  (:func:`repro.swifi.parallel.run_seeded`) and rows merge in seed
  order, so the JSON artifact is byte-identical serial
  vs parallel, pooled vs fresh; and
* ``--trace`` records node-level events (kills, failovers, evictions,
  whole-node reboots, rejoins) on a per-cell flight recorder stamped
  with the cell's virtual clock, exported parent-side in seed order.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

from repro.cluster.cell import Cell
from repro.observe.metrics import canonical_metrics, merge_metrics
from repro.swifi.campaign import CampaignRunner, RunSpec, ladder_counts
from repro.swifi.injector import FAULT_CLASSES
from repro.swifi.parallel import export_trace, run_seeded, seed_schedule


@dataclass(frozen=True)
class ClusterSpec:
    """Everything one cluster scenario depends on besides its seed."""

    service: str = "lock"
    ft_mode: str = "superglue"
    n_nodes: int = 4
    n_kill: int = 1
    units: int = 12
    iterations: int = 4
    horizon: int = 1
    recovery_mode: str = "ondemand"
    fault_class: str = "reg"
    evict_threshold: int = 2
    cooldown: int = 2

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ValueError("ClusterSpec needs n_nodes >= 2")
        if not 0 <= self.n_kill < self.n_nodes:
            raise ValueError(
                f"ClusterSpec needs 0 <= n_kill < n_nodes "
                f"(got n_kill={self.n_kill}, n_nodes={self.n_nodes})"
            )
        if self.units < 1:
            raise ValueError("ClusterSpec needs units >= 1")
        if self.evict_threshold < 1:
            raise ValueError("ClusterSpec needs evict_threshold >= 1")
        if self.cooldown < 0:
            raise ValueError("ClusterSpec needs cooldown >= 0")
        if self.fault_class not in FAULT_CLASSES:
            raise ValueError(
                f"unknown fault class {self.fault_class!r} "
                f"(expected one of {FAULT_CLASSES})"
            )

    def run_spec(self) -> RunSpec:
        """The per-unit SWIFI run spec (units are injection runs)."""
        return RunSpec(
            service=self.service,
            ft_mode=self.ft_mode,
            iterations=self.iterations,
            horizon=self.horizon,
            recovery_mode=self.recovery_mode,
            fault_class=self.fault_class,
        )

    def fingerprint(self) -> str:
        """Stable identity string (journals/trace artifacts key on it)."""
        return (
            f"cluster/{self.service}/{self.ft_mode}/n{self.n_nodes}"
            f"/k{self.n_kill}/u{self.units}/it{self.iterations}"
            f"/h{self.horizon}/{self.recovery_mode}/{self.fault_class}"
            f"/e{self.evict_threshold}/c{self.cooldown}"
        )


#: The deterministic scenario-seed schedule, ``(seed, n_scenarios)``.
cluster_run_seeds = seed_schedule


def calibrate_cluster_spec(
    service: str = "lock",
    ft_mode: str = "superglue",
    n_nodes: int = 4,
    n_kill: int = 1,
    units: int = 12,
    iterations: int = 4,
    recovery_mode: str = "ondemand",
    fault_class: str = "reg",
    evict_threshold: int = 2,
    cooldown: int = 2,
) -> ClusterSpec:
    """Build a ClusterSpec with a measured injection horizon.

    Runs the flat campaign's calibration pass once (in the parent) so
    workers receive the horizon through the spec, exactly like
    :class:`~repro.swifi.campaign.CampaignRunner` does.
    """
    runner = CampaignRunner(
        service,
        ft_mode=ft_mode,
        iterations=iterations,
        recovery_mode=recovery_mode,
        fault_class=fault_class,
    )
    horizon = runner.calibrate()
    return ClusterSpec(
        service=service,
        ft_mode=ft_mode,
        n_nodes=n_nodes,
        n_kill=n_kill,
        units=units,
        iterations=iterations,
        horizon=horizon,
        recovery_mode=recovery_mode,
        fault_class=fault_class,
        evict_threshold=evict_threshold,
        cooldown=cooldown,
    )


# ---------------------------------------------------------------------------
# Scenario execution (worker side)
# ---------------------------------------------------------------------------

def execute_scenario(
    spec: ClusterSpec, scenario_seed: int, cell: Optional[Cell] = None
) -> Dict[str, object]:
    """One scenario's campaign row — pure given ``(spec, seed)``.

    ``cell`` reuses an existing (reset) cell; omitted, a private one is
    built, which is the path unit tests and one-off calls take.
    """
    if cell is None:
        cell = Cell(spec)
    return cell.run_scenario(scenario_seed)


def _cluster_setup(spec: ClusterSpec, trace: bool) -> Cell:
    """Per-process setup: build the cell and warm every node.

    Each node warms its private instance-keyed pool snapshot and
    snapshot ladder through the same
    :func:`~repro.swifi.campaign.warm_up` Table II uses and keeps them
    as the start of its units, so forked workers inherit them
    copy-on-write and the first scenario doesn't pay the ladder's
    passes.  Node systems are per-process pool entries, so worker cells
    never share mutable state.
    """
    cell = Cell(spec, trace=trace)
    run_spec = spec.run_spec()
    for node in cell.nodes:
        node.warm(run_spec)
    return cell


def _cluster_run(spec: ClusterSpec, seed: int, trace: bool, cell, counters):
    """One scenario on the worker's cell: ``(row, record_or_None)``.

    Per-node ladder work counts go to ``counters`` (sidecar-only —
    rows stay engine-invariant).  Traced cells stamp node-level events
    (kill, failover, evict, reboot, rejoin) with the cell's virtual
    clock; the row is computed exactly as untraced.
    """
    row = cell.run_scenario(seed)
    for key, value in cell.counters().items():
        counters[key] = counters.get(key, 0) + value
    if not trace:
        return row, None
    return row, {
        "fingerprint": spec.fingerprint(),
        "run_seed": seed,
        "service": spec.service,
        "ft_mode": spec.ft_mode,
        "fault_class": spec.fault_class,
        # The cluster's "injection" is the correlated kill round.
        "injection_point": row["kill_at"] if row["kill_at"] is not None else 0,
        "horizon": spec.units,
        "outcome": row["outcome"],
        "steps": row["steps"],
        "events": cell.recorder.events(),
        "dropped_events": cell.recorder.dropped,
        "metrics": row["metrics"],
    }


# ---------------------------------------------------------------------------
# Campaign aggregation (parent side)
# ---------------------------------------------------------------------------

@dataclass
class ClusterCampaignResult:
    """A finished cluster campaign: per-scenario rows plus the aggregate."""

    spec: ClusterSpec
    seeds: List[int]
    rows: List[Dict[str, object]]
    aggregate: Dict[str, object]
    #: Wall-clock split (sidecar-only: the artifact stays deterministic).
    setup_wall: float = 0.0
    exec_wall: float = 0.0
    #: The nodes' ladder work counts (also sidecar-only: they depend
    #: on pooling).
    ladder: Optional[Dict[str, int]] = None

    def to_json_dict(self) -> Dict[str, object]:
        """The deterministic campaign artifact (no wall-clock anywhere)."""
        return {
            "fingerprint": self.spec.fingerprint(),
            "spec": asdict(self.spec),
            "seeds": list(self.seeds),
            "rows": self.rows,
            "aggregate": self.aggregate,
        }

    def write_json(self, path: str) -> None:
        """Write the artifact plus a ``.timing.json`` wall-clock sidecar."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json_dict(), handle, indent=2)
            handle.write("\n")
        timing: Dict[str, object] = {
            "scenarios": len(self.rows),
            "setup_wall": self.setup_wall,
            "exec_wall": self.exec_wall,
        }
        if self.ladder is not None:
            timing["ladder"] = dict(self.ladder)
        with open(path + ".timing.json", "w", encoding="utf-8") as handle:
            json.dump(timing, handle, indent=2)
            handle.write("\n")


def aggregate_cluster_rows(
    rows: Sequence[Dict[str, object]]
) -> Dict[str, object]:
    """Campaign aggregate: integer sums + merged metrics, order-free."""
    merged: Dict[str, object] = {}
    for row in rows:
        merge_metrics(merged, row["metrics"])
    totals = {
        name: sum(row[name] for row in rows)
        for name in (
            "units", "failovers", "evictions", "node_reboots", "rejoins",
            "recovered", "steps", "duration_cycles",
        )
    }
    outcome_tally: Dict[str, int] = {}
    for row in rows:
        for outcome, count in row["outcomes"].items():
            outcome_tally[outcome] = outcome_tally.get(outcome, 0) + count
    units = totals["units"]
    return {
        "scenarios": len(rows),
        **totals,
        "availability": (
            (units - totals["failovers"]) / units if units else 0.0
        ),
        "recovery_ratio": totals["recovered"] / units if units else 0.0,
        "outcomes": dict(sorted(outcome_tally.items())),
        "metrics": canonical_metrics(merged),
    }


def run_cluster_campaign(
    seeds: Sequence[int],
    spec: ClusterSpec,
    workers: Optional[int] = None,
    trace: Optional[str] = None,
    progress=None,
) -> ClusterCampaignResult:
    """Fan cluster scenarios over ``seeds`` and aggregate them.

    ``workers=None`` uses one process per CPU; ``workers=1`` (or a
    single seed) runs in-process.  Rows merge in ``seeds`` order
    whatever the completion order, so for a given schedule the artifact
    is byte-identical across worker counts — and, because rows derive
    from virtual-time outcomes only, across pooling modes.
    """
    seeds = list(seeds)
    campaign = run_seeded(
        _cluster_setup, _cluster_run, spec, seeds, workers,
        trace=trace is not None, progress=progress,
    )
    rows = [campaign.results[seed] for seed in seeds]
    if trace is not None:
        export_trace(
            trace, spec.fingerprint(), seeds,
            [row["outcome"] for row in rows], campaign.records,
        )
    return ClusterCampaignResult(
        spec=spec,
        seeds=seeds,
        rows=rows,
        aggregate=aggregate_cluster_rows(rows),
        setup_wall=campaign.setup_wall,
        exec_wall=campaign.exec_wall,
        ladder=ladder_counts(campaign.counters),
    )


def format_cluster_campaign(result: ClusterCampaignResult) -> str:
    """Human summary of a cluster campaign (deterministic: no wall clock)."""
    spec = result.spec
    agg = result.aggregate
    lines = [
        f"Cluster campaign  {spec.fingerprint()}",
        (
            f"  scenarios: {agg['scenarios']}  units: {agg['units']}  "
            f"nodes: {spec.n_nodes}  correlated kills/scenario: "
            f"{spec.n_kill}"
        ),
        (
            f"  failovers: {agg['failovers']}  evictions: "
            f"{agg['evictions']}  whole-node reboots: "
            f"{agg['node_reboots']}  rejoins: {agg['rejoins']}"
        ),
        (
            f"  availability: {agg['availability']:.2%}  "
            f"recovery ratio: {agg['recovery_ratio']:.2%}"
        ),
        "  unit outcomes:",
    ]
    for outcome, count in agg["outcomes"].items():
        lines.append(f"    {outcome:<28} {count}")
    return "\n".join(lines)
