"""Tests for the parallel deterministic SWIFI campaign engine."""

import json
import multiprocessing
import pickle

import pytest

from repro.__main__ import main
from repro.config import EngineConfig, override
from repro.swifi import parallel
from repro.swifi.campaign import (
    CampaignRunner,
    RunSpec,
    execute_run,
    format_table2,
    injection_point,
    write_table2_json,
)
from repro.swifi.classify import Outcome
from repro.swifi.parallel import (
    CampaignJournal,
    chunk_seeds,
    default_workers,
    run_campaign,
)


class TestDeterminism:
    def test_injection_point_is_pure(self):
        assert injection_point(7, 100) == injection_point(7, 100)
        assert injection_point(7, 1) == 0  # degenerate horizon

    def test_empty_horizon_rejected(self):
        # Regression: horizon<1 was silently masked to 1, injecting at
        # trace execution 0 of a workload that never ran in the target.
        with pytest.raises(ValueError):
            injection_point(7, 0)
        with pytest.raises(ValueError):
            injection_point(7, -5)
        with pytest.raises(ValueError):
            RunSpec("lock", "superglue", 4, 0)
        with pytest.raises(ValueError):
            RunSpec("lock", "superglue", 4, -1)

    def test_run_outcome_is_pure_function_of_spec_and_seed(self):
        runner = CampaignRunner("lock", n_faults=1, seed=0)
        spec = runner.spec()
        seed = runner.run_seeds()[0]
        assert execute_run(spec, seed) is execute_run(spec, seed)

    def test_serial_and_parallel_rows_identical(self):
        serial = CampaignRunner("lock", n_faults=10, seed=1).run(workers=1)
        pooled = CampaignRunner("lock", n_faults=10, seed=1).run(workers=4)
        assert serial.row() == pooled.row()

    def test_run_seeds_schedule(self):
        runner = CampaignRunner("lock", n_faults=3, seed=2)
        assert runner.run_seeds() == [2_000_006, 2_000_007, 2_000_008]

    def test_progress_reports_every_run(self):
        seen = []
        runner = CampaignRunner("lock", n_faults=3, seed=5)
        runner.run(progress=lambda i, n, o: seen.append((i, n)))
        assert seen == [(1, 3), (2, 3), (3, 3)]


class TestChunking:
    def test_chunks_cover_all_seeds_in_order(self):
        seeds = list(range(23))
        chunks = chunk_seeds(seeds, workers=4)
        assert [s for chunk in chunks for s in chunk] == seeds
        assert len(chunks) <= 4 * 4

    def test_empty_and_tiny(self):
        assert chunk_seeds([], 4) == []
        assert chunk_seeds([9], 4) == [[9]]

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestJournal:
    def test_resume_matches_uninterrupted_run(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        runner = CampaignRunner("timer", n_faults=8, seed=3)
        spec = runner.spec()
        seeds = runner.run_seeds()
        # Simulate an interruption: only half the campaign completes.
        run_campaign(spec, seeds[:4], workers=1, journal=journal)
        assert len(CampaignJournal(journal).load(spec)) == 4
        resumed = runner.run(workers=2, journal=journal)
        uninterrupted = CampaignRunner("timer", n_faults=8, seed=3).run()
        assert resumed.row() == uninterrupted.row()

    def test_resumed_runs_are_not_reexecuted(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        runner = CampaignRunner("lock", n_faults=4, seed=4)
        runner.run(journal=journal)
        lines = open(journal).read().splitlines()
        assert len(lines) == 4
        runner.run(journal=journal)  # full replay: nothing appended
        assert open(journal).read().splitlines() == lines

    def test_journal_ignores_truncated_and_foreign_lines(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        spec = RunSpec("lock", "superglue", 4, 100)
        good = {
            "fingerprint": spec.fingerprint(),
            "run_seed": 11,
            "outcome": "recovered",
        }
        other = dict(good, fingerprint="other/spec", run_seed=12)
        path.write_text(
            json.dumps(good) + "\n" + json.dumps(other) + "\n" + '{"trunc'
        )
        done = CampaignJournal(str(path)).load(spec)
        assert done == {11: Outcome.RECOVERED}

    def test_fingerprint_distinguishes_specs(self):
        a = RunSpec("lock", "superglue", 4, 100)
        b = RunSpec("lock", "c3", 4, 100)
        assert a.fingerprint() != b.fingerprint()


class TestArtifacts:
    def test_format_and_json_shape(self, tmp_path):
        results = [CampaignRunner("lock", n_faults=5, seed=1).run()]
        table = format_table2(results)
        assert "lock" in table and "SuccRate" in table
        path = tmp_path / "table2.json"
        write_table2_json(results, str(path))
        rows = json.loads(path.read_text())
        assert isinstance(rows, list) and len(rows) == 1
        assert rows[0]["component"] == "lock"
        assert rows[0]["injected"] == 5
        for key in (
            "recovered",
            "not_recovered_segfault",
            "not_recovered_propagated",
            "not_recovered_other",
            "undetected",
            "activation_ratio",
            "recovery_success_rate",
        ):
            assert key in rows[0]

    def test_json_matches_rows(self, tmp_path):
        results = [CampaignRunner("timer", n_faults=4, seed=2).run()]
        path = tmp_path / "t.json"
        write_table2_json(results, str(path))
        assert json.loads(path.read_text()) == [r.row() for r in results]


class TestCli:
    def test_table2_workers_and_json(self, tmp_path, capsys):
        artifact = str(tmp_path / "out.json")
        assert (
            main(
                [
                    "table2",
                    "--faults",
                    "3",
                    "--workers",
                    "2",
                    "--json",
                    artifact,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 worker(s)" in out
        rows = json.loads(open(artifact).read())
        assert {row["component"] for row in rows} == {
            "sched",
            "mm",
            "ramfs",
            "lock",
            "event",
            "timer",
        }

    def test_table2_resume_journal(self, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        args = ["table2", "--faults", "2", "--workers", "1", "--resume", journal]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0  # replayed entirely from the journal
        assert capsys.readouterr().out == first
        assert len(open(journal).read().splitlines()) == 2 * 6


class TestZeroCopyWorkers:
    def test_chunk_payload_is_seeds_only(self):
        # The submitted payload is (function-by-reference, seed list):
        # campaign parameters travel through the initializer exactly
        # once per process, never per chunk.
        seeds = list(range(200))
        payload = pickle.dumps((parallel._execute_chunk, (seeds,)))
        overhead = len(payload) - len(pickle.dumps(seeds))
        assert overhead < 150
        assert b"RunSpec" not in payload

    def test_start_method_resolution(self, engine):
        assert EngineConfig.from_env(
            {"REPRO_WORKER_START": "spawn"}
        ).worker_start == "spawn"
        engine(worker_start="spawn")
        assert parallel.worker_start_method() == "spawn"
        engine(worker_start="auto")
        assert parallel.worker_start_method() in ("fork", "spawn")

    def test_fork_unavailable_falls_back_to_spawn(self, monkeypatch, engine):
        engine(worker_start="fork")
        monkeypatch.setattr(
            parallel.multiprocessing,
            "get_all_start_methods",
            lambda: ["spawn"],
        )
        assert parallel.worker_start_method() == "spawn"

    def test_in_process_path_runs_setup_once(self):
        calls, batches = [], []
        spec = CampaignRunner("lock", n_faults=12, seed=1).spec()
        campaign = parallel.run_seeded(
            lambda spec, trace: calls.append((spec, trace)) or "state",
            lambda spec, seed, trace, state, counters: (
                (seed, state), None
            ),
            spec,
            [1, 2, 3],
            workers=1,
            on_batch=batches.append,
        )
        assert calls == [(spec, False)]
        assert batches == [[(1, (1, "state"), None)],
                           [(2, (2, "state"), None)],
                           [(3, (3, "state"), None)]]
        assert campaign.results == {s: (s, "state") for s in (1, 2, 3)}

    @pytest.mark.parametrize("start", ["fork", "spawn"])
    def test_parallel_identical_to_serial(self, engine, start):
        if start not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start} start method unavailable")
        runner = CampaignRunner("lock", n_faults=8, seed=4)
        spec = runner.spec()
        seeds = runner.run_seeds()
        serial, __ = run_campaign(spec, seeds, workers=1)
        engine(worker_start=start)
        fanned, campaign = run_campaign(spec, seeds, workers=2)
        assert fanned.counts == serial.counts
        # Every worker's runs started at a rung of its own ladder.
        assert campaign.counters["rung_restores"] == len(seeds)
        if start == "spawn":
            # Spawned workers run under the parent's configuration, not
            # their own reading of the environment: with pooling off in
            # the parent they start from boot, so no run restores a rung.
            with override(system_pool=False):
                fresh, campaign = run_campaign(spec, seeds, workers=2)
            assert fresh.counts == serial.counts
            assert "rung_restores" not in campaign.counters
