"""Tests for the parallel deterministic SWIFI campaign engine."""

import importlib.util
import json
import multiprocessing
import pickle
import sys
from pathlib import Path

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


def _cell(command="table2", mode="superglue", fault_class="reg",
          arrivals="closed", workers=1, traced=False, env=()):
    """A campaign cell, sizes aside: ``(command, stub mode, fault
    class, arrivals, workers, traced, REPRO_* variables)``."""
    return (command, mode, fault_class, arrivals, workers, traced,
            tuple(sorted(env)))


_OFF, _SPAWN = ("REPRO_SYSTEM_POOL", "0"), ("REPRO_WORKER_START", "spawn")
_INTERP, _DEBUG = ("REPRO_FAST_INTERP", "0"), ("REPRO_POOL_DEBUG", "1")
_FIG7 = {"command": "fig7"}
_OPEN = {"command": "fig7", "arrivals": "open"}


def _deleted_cmp_pairs():
    """The cells each artifact ``cmp`` line of the CI workflows compared
    before ``scripts/exactness.py`` replaced them, sizes and open-loop
    loads aside.  Their forked workers were the Linux default."""
    # campaign.yml, job `campaign`
    pairs = [({}, {"env": [_OFF]}), ({}, {"workers": 2})]
    for kind in ({}, {"mode": "c3"}):
        pairs += [(kind, {**kind, "env": [_DEBUG]}),
                  ({**kind, "workers": 2},
                   {**kind, "workers": 2, "env": [_OFF]})]
    pairs += [({"workers": 2}, {"workers": 2, "env": env})
              for env in ([_SPAWN], [_OFF, _SPAWN], [_INTERP])]
    # jobs `fault-classes` and, in its loop, `fig7-openloop`
    for fault_class in ("mem", "idl", "burst"):
        kind = {"fault_class": fault_class}
        pairs += [(kind, {**kind, "env": [_OFF]}),
                  (kind, {**kind, "workers": 2}),
                  (kind, {**kind, "env": [_DEBUG]}),
                  ({**_OPEN, **kind}, {**_OPEN, **kind, "env": [_OFF]})]
    # jobs `fig7-campaign` and `fig7-openloop`
    pairs += [(_FIG7, {**_FIG7, "workers": 2}),
              (_FIG7, {**_FIG7, "workers": 2, "env": [_SPAWN]}),
              (_FIG7, {**_FIG7, "env": [_INTERP]}),
              (_OPEN, {**_OPEN, "workers": 2})]
    for kind in (_FIG7, {**_FIG7, "mode": "c3"}, _OPEN):
        pairs += [(kind, {**kind, "env": [_OFF]}),
                  (kind, {**kind, "env": [_DEBUG]})]
    # ci.yml, job `trace-smoke`
    traced = {"traced": True}
    for kind in ({}, _FIG7, _OPEN):
        pairs += [({**kind, **traced}, {**kind, **traced, "workers": 2}),
                  ({**kind, "workers": 2}, {**kind, **traced, "workers": 2})]
    for kind in ({"fault_class": "idl"}, {**_FIG7, "fault_class": "idl"}):
        pairs.append(({**kind, **traced}, {**kind, **traced, "workers": 2}))
    return pairs


def _exactness_script(monkeypatch):
    """``scripts/exactness.py``, imported from its path."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "exactness.py"
    spec = importlib.util.spec_from_file_location("exactness", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "exactness", module)
    spec.loader.exec_module(module)
    return module


class TestCli:
    def test_table2_workers_and_json(self, tmp_path, capsys, monkeypatch):
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

        # The exactness script runs such campaigns at CI scale under
        # every engine axis.  With its runner faked, it still runs every
        # cell of its table: each cell the deleted CI `cmp` lines
        # compared is one, in one row, so the script compares it with
        # that row's reference; and each traced row's trace validates.
        exactness = _exactness_script(monkeypatch)
        calls = []
        done = type("Done", (), {"returncode": 0})()

        def fake_run(argv, env, cwd, **kwargs):
            calls.append((argv, env))
            return done

        monkeypatch.setattr(exactness.subprocess, "run", fake_run)
        assert exactness.main(["--out", str(tmp_path / "matrix")]) == 1
        capsys.readouterr()  # every output is missing, and reported
        planned = set()
        for argv, env in calls:
            words = argv[argv.index("repro") + 1:] if "repro" in argv else []
            if words[:1] not in (["table2"], ["fig7"]):
                continue
            flags = dict(zip(words[1::2], words[2::2]))
            traced = "--trace" in flags
            planned.add(_cell(
                words[0], flags.get("--mode", "superglue"),
                flags.get("--fault-class", "reg"),
                flags.get("--arrivals", "closed"),
                int(flags["--workers"]), traced,
                [(key, value) for key, value in env.items()
                 if key.startswith("REPRO_")],
            ))
        pairs = _deleted_cmp_pairs()
        assert len(pairs) == 39  # 31 lines, three of them in 3-way loops
        for left, right in pairs:
            assert _cell(**left) in planned, left
            assert _cell(**right) in planned, right
        rows = [row for row in exactness.ROWS if row.campaign]
        assert sum("--validate" in argv for argv, __ in calls) == len(rows)

        # A difference is reported with its file and first JSON path,
        # unless --expect declares it; a declaration that matches no
        # difference fails.
        got, want = tmp_path / "got.json", tmp_path / "want.json"
        doc = {"rows": [{"metrics": {"dips": 3, "runs": 1}}], "seeds": [1]}
        want.write_text(json.dumps(doc))
        doc["rows"][0]["metrics"]["dips"] = 4
        got.write_text(json.dumps(doc))
        report = exactness.Report()
        report.compare(got, want, "fig7/w2/out.json", "fig7/w1/out.json")
        assert report.failures == [
            "fig7/w2/out.json differs from fig7/w1/out.json at "
            "rows[0].metrics.dips: 4 != 3"
        ]
        expect = tmp_path / "expect.txt"
        expect.write_text("fig7/*/out.json  rows[*].dips\n"
                          "# a comment\n"
                          "fig7/*  rows[*].metrics.dips  # on purpose\n")
        report = exactness.Report(exactness.load_expect(expect))
        report.compare(got, want, "fig7/w2/out.json", "ref/out.json",
                       declared=True)
        assert report.failures == []
        report.undeclared()
        assert report.failures == [
            "declared difference did not occur: fig7/*/out.json  rows[*].dips"
        ]
        capsys.readouterr()

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
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        assert parallel.worker_start_method() == "spawn"

    def test_in_process_path_runs_setup_once(self):
        calls, batches = [], []
        spec = CampaignRunner("lock", n_faults=12, seed=1).spec()
        campaign = parallel.run_seeded(
            lambda spec: calls.append(spec) or "state",
            lambda spec, seed, state, counters: ((seed, state), None),
            spec,
            [1, 2, 3],
            workers=1,
            on_batch=batches.append,
        )
        assert calls == [spec]
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
