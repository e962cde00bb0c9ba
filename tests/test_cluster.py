"""Cluster supervision: differential and determinism guarantees.

Three claims back the cluster layer, each tested differentially:

* a **whole-node reboot** (the pool's dirty-restore of a node's private
  instance-keyed snapshot) leaves the node's System structurally
  indistinguishable from a fresh build — the same bar the flat
  campaigns hold the shared pooled system to;
* **supervision is deterministic** — scenario rows (including the
  supervisor's eviction decisions and the scheduler's failover targets)
  are pure functions of ``(ClusterSpec, scenario_seed)``, identical
  across repeats, cells, and pooling modes; and
* **failover is sound** — a killed node's workload re-executes on a
  survivor with campaign artifacts byte-identical across worker counts,
  and every unit outcome matches what the flat campaign computes for
  the same ``(RunSpec, unit_seed)``.
"""

import json

import pytest

from repro.cluster import (
    Cell,
    ClusterSpec,
    NODE_REBOOT_CYCLES,
    Node,
    Scheduler,
    Supervisor,
    aggregate_cluster_rows,
    cluster_run_seeds,
    execute_scenario,
    run_cluster_campaign,
)
from repro.cluster.node import node_pool_instance
from repro.config import override
from repro.observe.events import validate_event
from repro.observe.export import load_runs
from repro.swifi.campaign import _drive_run
from repro.system import GLOBAL_POOL, SystemPool, system_fingerprint


def _spec(**overrides):
    defaults = dict(
        service="lock",
        ft_mode="superglue",
        n_nodes=3,
        n_kill=1,
        units=6,
        iterations=4,
        horizon=17,
        evict_threshold=2,
        cooldown=2,
    )
    defaults.update(overrides)
    return ClusterSpec(**defaults)


class TestSpec:
    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ValueError):
            _spec(n_nodes=1)
        with pytest.raises(ValueError):
            _spec(n_kill=3)  # must leave at least one survivor
        with pytest.raises(ValueError):
            _spec(units=0)
        with pytest.raises(ValueError):
            _spec(fault_class="cosmic")

    def test_fingerprint_carries_every_axis(self):
        fp = _spec().fingerprint()
        for fragment in ("cluster/lock", "n3", "k1", "u6", "h17", "e2", "c2"):
            assert fragment in fp

    def test_seed_schedule_matches_campaign_stride(self):
        assert cluster_run_seeds(7, 3) == [7000021, 7000022, 7000023]


class TestWholeNodeReboot:
    def test_reboot_restores_fresh_build_state(self, monkeypatch):
        """A rebooted node is structurally a fresh build (dirty work gone).

        The node runs real injected units (dirtying images, stub tables,
        kernel counters), whole-node reboots, and the restored System's
        structural fingerprint must equal a never-used build's.
        """
        pool = SystemPool()
        # Nodes warm through the campaign's warm_up, which resolves the
        # pool via its own module reference.
        monkeypatch.setattr("repro.swifi.campaign.GLOBAL_POOL", pool)
        node = Node(0, "superglue", "ondemand")
        spec = _spec().run_spec()
        for unit_seed in (31, 32, 33):
            node.run_unit(spec, unit_seed)
        node.killed = True
        node.reboot()
        snapshot = pool.snapshot_for(instance=("cluster", 0))
        assert node.start[0] is snapshot
        assert snapshot.diff_against_fresh() == []
        assert not node.killed
        assert node.crash_count() == 0

    def test_pool_debug_verifies_every_node_restore(self, monkeypatch, engine):
        """REPRO_POOL_DEBUG=1 fingerprints each node acquire vs fresh."""
        engine(pool_debug=True)
        pool = SystemPool()
        monkeypatch.setattr("repro.swifi.campaign.GLOBAL_POOL", pool)
        node = Node(1, "superglue", "ondemand")
        spec = _spec().run_spec()
        # Each acquire past the first runs the debug diff; a divergent
        # restore would raise ReproError out of run_unit.
        for unit_seed in (41, 42, 43):
            node.run_unit(spec, unit_seed)

    def test_nodes_hold_private_pool_snapshots(self):
        a = GLOBAL_POOL.acquire(instance=node_pool_instance(0))
        b = GLOBAL_POOL.acquire(instance=node_pool_instance(1))
        assert a is not b
        # Same sealed post-boot state, distinct live objects: this is
        # what makes unit outcomes node-independent.
        assert system_fingerprint(a) == system_fingerprint(b)


class TestSupervisionDeterminism:
    def test_rows_pure_function_of_spec_and_seed(self):
        spec = _spec()
        first = execute_scenario(spec, 9000021)
        second = execute_scenario(spec, 9000021)
        assert first == second

    def test_cell_reuse_does_not_leak_across_scenarios(self):
        spec = _spec()
        cell = Cell(spec)
        reused = [cell.run_scenario(s) for s in (501, 502, 501)]
        assert reused[0] == reused[2]
        assert reused[0] == execute_scenario(spec, 501)

    def test_eviction_decisions_identical_pooled_and_fresh(self):
        spec = _spec(n_kill=2, units=8)
        seeds = cluster_run_seeds(11, 4)
        with override(system_pool=False):
            fresh = [execute_scenario(spec, s) for s in seeds]
        pooled = [execute_scenario(spec, s) for s in seeds]
        assert pooled == fresh

    def test_supervisor_reads_only_health_counters(self):
        supervisor = Supervisor(evict_threshold=2)
        node = Node(0, "superglue", "ondemand")
        assert supervisor.healthy(node)
        node.metrics.counter("crashes").inc(2)
        assert not supervisor.healthy(node)
        assert supervisor.verdict(node) == "crash_threshold"
        node.killed = True
        assert supervisor.verdict(node) == "killed"

    def test_scheduler_round_robin_and_failover(self):
        nodes = [Node(i, "superglue", "ondemand") for i in range(3)]
        scheduler = Scheduler(nodes)
        assert [scheduler.place().node_id for _ in range(4)] == [0, 1, 2, 0]
        nodes[1].killed = True
        survivor = scheduler.place_surviving()
        assert survivor is not None and not survivor.killed
        for node in nodes:
            node.killed = True
        assert scheduler.place_surviving() is None


class TestFailover:
    def test_every_scenario_fails_over_and_reboots(self):
        """Acceptance bar: >=1 failover and >=1 whole-node reboot each."""
        spec = _spec()
        for seed in cluster_run_seeds(13, 6):
            row = execute_scenario(spec, seed)
            assert row["outcome"] == "failover"
            assert row["failovers"] >= 1
            assert row["node_reboots"] >= 1
            assert row["victims"]  # the placed node is always a victim
            assert row["duration_cycles"] >= (
                row["node_reboots"] * NODE_REBOOT_CYCLES
            )

    def test_artifacts_byte_identical_across_worker_counts(self):
        spec = _spec(units=4)
        seeds = cluster_run_seeds(17, 4)
        serial = run_cluster_campaign(seeds, spec, workers=1)
        parallel = run_cluster_campaign(seeds, spec, workers=2)
        assert json.dumps(serial.to_json_dict()) == json.dumps(
            parallel.to_json_dict()
        )

    @pytest.mark.parametrize("ft_mode, fault_class", [
        ("superglue", "reg"), ("superglue", "idl"), ("c3", "mem"),
    ])
    def test_rung_rows_identical_to_from_boot(self, ft_mode, fault_class):
        """Node units start at their injection rung, on ladders built on
        each node's private snapshot.  The scenario rows — outcome mix,
        failovers, reboots, steps (counted from boot), durations — must
        equal those of units run from boot (``REPRO_SYSTEM_POOL=0``),
        with generated and C^3 stubs and every fault class's ladder."""
        seeds = cluster_run_seeds(31, 3)
        spec = _spec(units=4, ft_mode=ft_mode, fault_class=fault_class)
        with override(system_pool=False):
            baseline = [execute_scenario(spec, s) for s in seeds]
        cell = Cell(spec)
        assert [cell.run_scenario(s) for s in seeds] == baseline
        # Every unit of the last scenario started at a rung of its
        # node's own ladder, built on that node's snapshot.
        counts = cell.counters()
        assert counts["rung_restores"] == sum(
            node.units_run for node in cell.nodes
        ) > 0
        assert counts["prefix_steps_skipped"] > 0
        warmed = [node.start for node in cell.nodes if node.start]
        for snapshot, ladder in warmed:
            for rung in ladder.rungs:
                assert rung.snapshot.system is snapshot.system
        assert len({id(snapshot) for snapshot, __ in warmed}) == len(warmed)

    def test_unit_outcomes_match_flat_campaign(self):
        """Cluster units == flat campaign runs for the same (spec, seed).

        This is the soundness argument for failover: any node (or the
        flat campaign itself) computes the identical outcome for a unit,
        so re-running a dead node's unit on a survivor loses nothing.
        Steps agree too: every unit counts its steps, also a unit whose
        run raised (idl fuzzing fail-stops), and the row sums them.
        """
        scenario_seed = 19000021
        for fault_class in ("reg", "idl"):
            spec = _spec(fault_class=fault_class)
            run_spec = spec.run_spec()
            row = execute_scenario(spec, scenario_seed)
            flat, steps = {}, []
            for unit in range(spec.units):
                unit_seed = scenario_seed * 1_000_003 + unit
                outcome, __, __, unit_steps, __ = _drive_run(
                    run_spec, unit_seed
                )
                flat[outcome.value] = flat.get(outcome.value, 0) + 1
                steps.append(unit_steps)
            assert row["outcomes"] == dict(sorted(flat.items()))
            assert all(unit_steps > 0 for unit_steps in steps)
            assert row["steps"] == sum(steps)


class TestAggregateAndTrace:
    def test_aggregate_is_order_independent(self):
        spec = _spec(units=4)
        rows = [execute_scenario(spec, s) for s in cluster_run_seeds(23, 3)]
        forward = aggregate_cluster_rows(rows)
        backward = aggregate_cluster_rows(list(reversed(rows)))
        assert forward == backward
        assert forward["scenarios"] == 3
        assert forward["units"] == 12

    def test_traced_scenario_validates_and_matches_untraced(self, tmp_path):
        spec = _spec(n_kill=2)
        seed = 29000021
        trace = str(tmp_path / "cluster.jsonl")
        traced = run_cluster_campaign([seed], spec, workers=1, trace=trace)
        row = traced.rows[0]
        assert row == execute_scenario(spec, seed)
        (record,), (summary,) = load_runs(trace)
        names = set()
        for event in record["events"]:
            validate_event(event["event"], event["data"])
            names.add(event["event"])
        assert {"node_kill", "unit_failover", "node_reboot",
                "unit_done"} <= names
        assert record["outcome"] == row["outcome"]
        assert record["run_seed"] == seed
        assert summary["outcomes"] == {row["outcome"]: 1}
