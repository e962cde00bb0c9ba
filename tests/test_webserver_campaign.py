"""Tests for the multi-seed Fig. 7 web-server campaign engine."""

import json
import time

import pytest

from repro.__main__ import main
from repro.config import override
from repro.observe.export import read_trace
from repro.observe.metrics import SUB_BUCKET_BITS, LogLinearHistogram
from repro.swifi import campaign as swifi_campaign
from repro.swifi.campaign import LADDER_KEYS
from repro.system import GLOBAL_POOL
from repro.webserver import campaign as web_campaign
from repro.webserver.campaign import (
    WebRunSpec,
    aggregate_rows,
    execute_web_run,
    format_web_campaign,
    histogram_quantile,
    run_webserver_campaign,
    web_run_seeds,
)

#: Small but faulted: every run still exercises injection + recovery.
SMOKE_SPEC = WebRunSpec(n_requests=40, n_faults=2)

#: Open-loop equivalent: sustained overload so queues actually grow.
OPEN_SPEC = WebRunSpec(
    n_requests=60, n_faults=2, arrivals="open", load=1.5, phases="burst",
    slo_us=500,
)


class TestHistogramQuantile:
    def test_empty_histogram(self):
        assert histogram_quantile({"count": 0, "buckets": {}}, 0.5) is None
        assert histogram_quantile({}, 0.5) is None

    def test_single_bucket_clamps_to_observed_max(self):
        hist = {"count": 3, "buckets": {"7": 3}, "max": 100}
        # Bucket 7's upper bound is 127; the observed max tightens it.
        assert histogram_quantile(hist, 0.5) == 100

    def test_rank_walks_buckets_in_numeric_order(self):
        hist = {"count": 4, "buckets": {"3": 2, "10": 2}, "max": 900}
        assert histogram_quantile(hist, 0.25) == 7
        assert histogram_quantile(hist, 0.50) == 7
        assert histogram_quantile(hist, 0.75) == 900  # min(1023, 900)

    def test_zero_bucket(self):
        hist = {"count": 2, "buckets": {"0": 2}, "max": 0}
        assert histogram_quantile(hist, 0.99) == 0


def _loglinear_dict(values):
    h = LogLinearHistogram()
    for v in values:
        h.observe(v)
    return h.to_dict()


class TestHistogramQuantileLogLinear:
    def test_p999_lands_in_sparse_tail_bucket(self):
        # Many fast samples, one extreme outlier in the top 0.1%: p999
        # must find the outlier's sub-bucket, not the body.
        hist = _loglinear_dict([1_000] * 500 + [1_000_000])
        p999 = histogram_quantile(hist, 0.999)
        assert p999 == 1_000_000  # clamped to the observed max
        # And the body is still where it should be.
        p50 = histogram_quantile(hist, 0.50)
        assert abs(p50 - 1_000) / 1_000 <= 2 ** -SUB_BUCKET_BITS

    def test_zero_bucket(self):
        hist = _loglinear_dict([0, 0, 0])
        assert histogram_quantile(hist, 0.999) == 0

    def test_observed_max_clamps_bucket_upper_bound(self):
        # 1_000_000 lands in a sub-bucket whose upper bound exceeds it;
        # the observed max must tighten the answer.
        hist = _loglinear_dict([1_000_000])
        assert histogram_quantile(hist, 0.99) == 1_000_000

    def test_merged_equals_serial(self):
        from repro.observe.metrics import merge_metrics

        all_values = [3, 40, 41, 512, 513, 90_000, 90_001, 12, 7_777]
        serial = _loglinear_dict(all_values)
        merged = {}
        merge_metrics(
            merged, {"histograms": {"h": _loglinear_dict(all_values[:4])}}
        )
        merge_metrics(
            merged, {"histograms": {"h": _loglinear_dict(all_values[4:])}}
        )
        for q in (0.5, 0.9, 0.99, 0.999):
            assert histogram_quantile(
                merged["histograms"]["h"], q
            ) == histogram_quantile(serial, q)

    def test_sub_bucket_resolution_beats_power_of_two(self):
        # Two values in the same power-of-two decade but different
        # sub-buckets must be distinguishable: that is the whole point
        # of the log-linear shape for SLO deadlines.
        hist = _loglinear_dict([1_050_000] * 9 + [2_000_000])
        p50 = histogram_quantile(hist, 0.50)
        p99 = histogram_quantile(hist, 0.99)
        assert p50 < 1_100_000 < 1_950_000 < p99


class TestFaultTargetCycle:
    def test_ramfs_weighted_and_sched_absent(self):
        # See the FAULT_TARGET_CYCLE docstring: ramfs is doubled
        # (request-path exposure weighting) and sched is excluded
        # (web-path threads never execute inside it, so an armed sched
        # fault would never deliver).  Pin both properties.
        from repro.webserver.loadgen import FAULT_TARGET_CYCLE

        assert FAULT_TARGET_CYCLE.count("ramfs") == 2
        assert "sched" not in FAULT_TARGET_CYCLE

    def test_web_path_never_executes_in_sched(self):
        # The exclusion's premise, verified against the live request
        # path: no thread executes a trace within the sched component.
        from repro.swifi.injector import SwifiController
        from repro.system import build_system
        from repro.webserver.campaign import prepare_webserver
        from repro.webserver.loadgen import run_webserver

        system = build_system(ft_mode="superglue")
        prepare_webserver(system)
        swifi = SwifiController(system.kernel, seed=0)
        result = run_webserver(
            ft_mode="superglue", n_requests=30, system=system
        )
        assert result.crashed is None
        assert "sched" not in swifi.trace_counts
        assert swifi.trace_counts.get("ramfs", 0) > 0


class TestSpec:
    def test_seed_schedule_matches_swifi_stride(self):
        assert web_run_seeds(1, 3) == [1_000_003, 1_000_004, 1_000_005]
        assert web_run_seeds(2, 1) == [2_000_006]

    def test_validation(self):
        with pytest.raises(ValueError):
            WebRunSpec(n_requests=0)
        with pytest.raises(ValueError):
            WebRunSpec(concurrency=0)

    def test_fingerprint_distinguishes_specs(self):
        assert WebRunSpec(ft_mode="c3").fingerprint() != SMOKE_SPEC.fingerprint()
        assert WebRunSpec(n_requests=41, n_faults=2).fingerprint() != (
            SMOKE_SPEC.fingerprint()
        )


class TestRows:
    def test_row_shape_and_invariants(self):
        row = execute_web_run(SMOKE_SPEC, web_run_seeds(1, 1)[0])
        for key in (
            "run_seed", "outcome", "requests", "served", "errors",
            "duration_cycles", "reboots", "faults_armed", "faults_delivered",
            "steps", "crashed", "throughput_rps", "dips", "dip_max_cycles",
            "dip_recovery_cycles", "metrics",
        ):
            assert key in row
        assert row["served"] <= row["requests"]
        assert row["faults_delivered"] <= row["faults_armed"]
        assert (
            row["latency_p50_cycles"]
            <= row["latency_p95_cycles"]
            <= row["latency_p99_cycles"]
        )

    def test_run_is_pure_function_of_spec_and_seed(self):
        seed = web_run_seeds(1, 1)[0]
        assert execute_web_run(SMOKE_SPEC, seed) == execute_web_run(
            SMOKE_SPEC, seed
        )


class TestDeterminism:
    def test_serial_equals_parallel(self):
        seeds = web_run_seeds(1, 4)
        serial = run_webserver_campaign(seeds, SMOKE_SPEC, workers=1)
        parallel = run_webserver_campaign(seeds, SMOKE_SPEC, workers=2)
        assert serial.to_json_dict() == parallel.to_json_dict()

    def test_pooled_equals_fresh(self):
        seeds = web_run_seeds(2, 3)
        pooled = run_webserver_campaign(seeds, SMOKE_SPEC, workers=1)
        with override(system_pool=False):
            fresh = run_webserver_campaign(seeds, SMOKE_SPEC, workers=1)
        assert pooled.to_json_dict() == fresh.to_json_dict()

    def test_pool_restores_match_fresh_builds(self, engine):
        # REPRO_POOL_DEBUG diffs every restored system against a fresh
        # build (including the prepare-hook components) and raises on
        # any structural divergence.
        engine(pool_debug=True)
        for seed in web_run_seeds(3, 3):
            execute_web_run(SMOKE_SPEC, seed)

    def test_aggregate_is_order_independent(self):
        result = run_webserver_campaign(
            web_run_seeds(1, 3), SMOKE_SPEC, workers=1
        )
        reversed_rows = list(reversed(result.rows))
        assert aggregate_rows(SMOKE_SPEC, reversed_rows) == result.aggregate

    def test_progress_reports_every_run(self):
        seen = []
        run_webserver_campaign(
            web_run_seeds(1, 3), SMOKE_SPEC, workers=1,
            progress=lambda i, n, row: seen.append((i, n)),
        )
        assert seen == [(1, 3), (2, 3), (3, 3)]


class TestAggregate:
    def test_sums_and_quantiles(self):
        result = run_webserver_campaign(
            web_run_seeds(1, 3), SMOKE_SPEC, workers=1
        )
        agg = result.aggregate
        assert agg["runs"] == 3
        assert agg["requests"] == 3 * SMOKE_SPEC.n_requests
        assert agg["served"] == sum(row["served"] for row in result.rows)
        assert sum(agg["outcomes"].values()) == 3
        assert agg["latency_p50_cycles"] <= agg["latency_p99_cycles"]
        # The merged histogram holds every served request's latency.
        hist = agg["metrics"]["histograms"]["request_latency_cycles"]
        assert hist["count"] == agg["served"]

    def test_format_mentions_key_figures(self):
        result = run_webserver_campaign(
            web_run_seeds(1, 2), SMOKE_SPEC, workers=1
        )
        text = format_web_campaign(result)
        assert "Fig. 7 campaign" in text
        assert SMOKE_SPEC.fingerprint() in text
        assert "p50=" in text and "p99=" in text


class TestTrace:
    def test_traced_campaign_exports_and_rows_unchanged(self, tmp_path):
        seeds = web_run_seeds(4, 2)
        trace = str(tmp_path / "fig7.jsonl")
        traced = run_webserver_campaign(
            seeds, SMOKE_SPEC, workers=1, trace=trace
        )
        plain = run_webserver_campaign(seeds, SMOKE_SPEC, workers=1)
        # Tracing must not perturb the campaign artifact.
        assert traced.to_json_dict() == plain.to_json_dict()

        lines = list(read_trace(trace, validate=True))
        runs = [obj for obj in lines if obj["type"] == "run"]
        assert [run["run_seed"] for run in runs] == seeds
        assert all(run["service"] == "webserver" for run in runs)
        events = {
            obj["event"] for obj in lines if obj["type"] == "event"
        }
        assert {"request_start", "request_done"} <= events
        summaries = [obj for obj in lines if obj["type"] == "summary"]
        assert len(summaries) == 1
        assert summaries[0]["runs"] == len(seeds)

    def test_dip_events_appear_when_reboots_happen(self, tmp_path):
        # Pick a seed schedule long enough that recovery stretches at
        # least one completion gap past the dip threshold.
        seeds = web_run_seeds(1, 2)
        spec = WebRunSpec(n_requests=120, n_faults=3)
        trace = str(tmp_path / "dips.jsonl")
        result = run_webserver_campaign(seeds, spec, workers=1, trace=trace)
        assert result.aggregate["reboots"] > 0
        assert result.aggregate["dips"] > 0
        events = [
            obj for obj in read_trace(trace, validate=True)
            if obj["type"] == "event" and obj["event"] == "throughput_dip"
        ]
        assert events
        assert all(
            e["data"]["gap_cycles"] > 0 and e["data"]["served"] > 0
            for e in events
        )

    def test_dip_events_are_the_rows_dips(self, engine):
        # A traced run emits one throughput_dip per completion gap that
        # its row counts as a dip, measured from the previous
        # completion's sample: the recorder's dip histogram is the
        # row's.
        spec = WebRunSpec(n_requests=120, n_faults=3)
        engine(system_pool=False)
        for seed in web_run_seeds(1, 2):
            row, system = web_campaign._drive_web_run(
                spec, seed, None, trace=True
            )
            recorder = system.kernel.recorder
            gaps = [
                event["data"]["gap_cycles"] for event in recorder.events()
                if event["event"] == "throughput_dip"
            ]
            assert len(gaps) == row["dips"] > 0
            assert max(gaps) == row["dip_max_cycles"]
            histograms = recorder.metrics.to_dict()["histograms"]
            assert histograms["dip_gap_cycles"] == (
                row["metrics"]["histograms"]["dip_gap_cycles"]
            )


class TestArtifacts:
    def test_write_json_and_timing_sidecar(self, tmp_path):
        result = run_webserver_campaign(
            web_run_seeds(1, 2), SMOKE_SPEC, workers=1
        )
        path = tmp_path / "fig7.json"
        result.write_json(str(path))
        data = json.loads(path.read_text())
        assert data == result.to_json_dict()
        assert data["fingerprint"] == SMOKE_SPEC.fingerprint()
        # Wall clock lives only in the sidecar: the artifact itself is
        # deterministic.
        assert "wall" not in path.read_text()
        timing = json.loads((tmp_path / "fig7.json.timing.json").read_text())
        assert timing["runs"] == 2

    def test_setup_wall_covers_the_snapshot(self, monkeypatch):
        # The spec's ladder is per-process setup: an in-process campaign
        # must time its clean passes as setup_wall, not as run
        # execution.
        GLOBAL_POOL.clear()
        walls = []
        build = swifi_campaign._build_ladder

        def timed(*args):
            start = time.perf_counter()
            try:
                return build(*args)
            finally:
                walls.append(time.perf_counter() - start)

        monkeypatch.setattr(swifi_campaign, "_build_ladder", timed)
        result = run_webserver_campaign(
            web_run_seeds(1, 2), SMOKE_SPEC, workers=1
        )
        assert len(walls) == 1
        assert result.ladder["rung_restores"] == 2
        assert result.setup_wall >= walls[0]

    @pytest.mark.parametrize("pool", ["0", "1"])
    def test_timing_sidecar_counts_snapshot_work(self, tmp_path, engine, pool):
        engine(system_pool=pool == "1")
        result = run_webserver_campaign(
            web_run_seeds(1, 2), SMOKE_SPEC, workers=1
        )
        path = tmp_path / "fig7.json"
        result.write_json(str(path))
        artifact = path.read_text()
        assert not any(name in artifact for name in ("ladder", *LADDER_KEYS))
        timing = json.loads((tmp_path / "fig7.json.timing.json").read_text())
        assert timing["ladder"] == result.ladder
        if pool == "1":
            # One rung, which each run restores and whose prefix it
            # skips.
            rung = web_campaign._web_recording(SMOKE_SPEC).rungs[0]
            assert result.ladder == {
                "rungs": 1, "rung_restores": 2,
                "prefix_steps_skipped": 2 * rung.snapshot.steps,
            }
            # Deterministic work counts, whatever the engine gates: the
            # interpreter gate moves no step, and the debug diff's fresh
            # builds are not ladder work.
            for gate in ({"fast_interp": False}, {"pool_debug": True}):
                with override(**gate):
                    checked = run_webserver_campaign(
                        web_run_seeds(1, 2), SMOKE_SPEC, workers=1
                    )
                assert checked.ladder == result.ladder, gate
        else:
            assert result.ladder == dict.fromkeys(LADDER_KEYS, 0)


class TestOpenLoopCampaign:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WebRunSpec(arrivals="half-open")
        with pytest.raises(ValueError):
            WebRunSpec(fault_class="gamma-ray")
        with pytest.raises(ValueError):
            WebRunSpec(arrivals="open", load=0)
        with pytest.raises(ValueError):
            WebRunSpec(arrivals="open", phases="a:0.5@1.0")
        with pytest.raises(ValueError):
            WebRunSpec(arrivals="open", slo_us=0)

    def test_fingerprint_extends_only_for_non_defaults(self):
        # Historical closed-loop reg fingerprints are frozen: trace
        # artifacts and snapshot ladders key on them.
        assert SMOKE_SPEC.fingerprint() == (
            "webserver/superglue/r40/c10/w2/f2/ondemand"
        )
        open_fp = OPEN_SPEC.fingerprint()
        assert "/open-l1.5-burst-slo500-a0" in open_fp
        assert WebRunSpec(fault_class="mem").fingerprint().endswith("/mem")

    def test_row_shape(self):
        row = execute_web_run(OPEN_SPEC, web_run_seeds(1, 1)[0])
        for key in (
            "peak_outstanding", "slo_ok", "slo_miss", "goodput_rps",
            "latency_p999_cycles",
        ):
            assert key in row
        assert row["slo_ok"] + row["slo_miss"] == row["requests"]
        hist = row["metrics"]["histograms"]["request_latency_cycles"]
        assert hist["sub_bits"] == SUB_BUCKET_BITS
        assert row["latency_p99_cycles"] <= row["latency_p999_cycles"]

    def test_serial_equals_parallel(self):
        seeds = web_run_seeds(1, 4)
        serial = run_webserver_campaign(seeds, OPEN_SPEC, workers=1)
        parallel = run_webserver_campaign(seeds, OPEN_SPEC, workers=2)
        assert serial.to_json_dict() == parallel.to_json_dict()

    def test_pooled_equals_fresh(self):
        seeds = web_run_seeds(2, 3)
        pooled = run_webserver_campaign(seeds, OPEN_SPEC, workers=1)
        with override(system_pool=False):
            fresh = run_webserver_campaign(seeds, OPEN_SPEC, workers=1)
        assert pooled.to_json_dict() == fresh.to_json_dict()

    def test_aggregate_open_loop_fields(self):
        result = run_webserver_campaign(
            web_run_seeds(1, 3), OPEN_SPEC, workers=1
        )
        agg = result.aggregate
        assert agg["slo_ok"] + agg["slo_miss"] == agg["requests"]
        assert agg["goodput_rps"] <= agg["throughput_rps"] + 1e-9
        assert agg["peak_outstanding"] == max(
            row["peak_outstanding"] for row in result.rows
        )
        assert agg["latency_p999_cycles"] >= agg["latency_p99_cycles"]
        assert aggregate_rows(
            OPEN_SPEC, list(reversed(result.rows))
        ) == agg

    def test_overload_grows_queue_past_closed_loop_bound(self):
        row = execute_web_run(OPEN_SPEC, web_run_seeds(1, 1)[0])
        # The closed-loop generator would cap outstanding at
        # concurrency(10); sustained 1.5x overload must blow past it.
        assert row["peak_outstanding"] > OPEN_SPEC.concurrency

    def test_fault_classes_execute(self):
        for fault_class in ("mem", "idl", "burst"):
            spec = WebRunSpec(
                n_requests=40, n_faults=1, arrivals="open", load=1.2,
                fault_class=fault_class,
            )
            row = execute_web_run(spec, web_run_seeds(1, 1)[0])
            assert row["faults_armed"] >= 1

    def test_format_mentions_goodput(self):
        result = run_webserver_campaign(
            web_run_seeds(1, 2), OPEN_SPEC, workers=1
        )
        text = format_web_campaign(result)
        assert "goodput" in text
        assert "p999=" in text


class TestCli:
    def test_fig7_campaign_json(self, tmp_path, capsys):
        artifact = str(tmp_path / "fig7.json")
        assert (
            main(
                [
                    "fig7", "--seeds", "3", "--workers", "1",
                    "--requests", "40", "--faults", "2",
                    "--json", artifact,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Fig. 7 campaign" in out
        data = json.loads(open(artifact).read())
        assert len(data["rows"]) == 3
        assert data["aggregate"]["runs"] == 3

    def test_fig7_campaign_matches_library_call(self, tmp_path, capsys):
        artifact = str(tmp_path / "cli.json")
        main(
            [
                "fig7", "--seeds", "2", "--workers", "1",
                "--requests", "40", "--faults", "2", "--seed", "1",
                "--json", artifact,
            ]
        )
        capsys.readouterr()
        direct = run_webserver_campaign(
            web_run_seeds(1, 2), SMOKE_SPEC, workers=1
        )
        assert json.loads(open(artifact).read()) == direct.to_json_dict()

    def test_fig7_openloop_single_run(self, capsys):
        assert (
            main(
                [
                    "fig7", "--arrivals", "open", "--requests", "60",
                    "--load", "1.5", "--phases", "burst",
                    "--fault-class", "reg",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Open-loop web-server run" in out
        assert "goodput" in out
        assert "reg faults" in out

    def test_fig7_openloop_campaign_json(self, tmp_path, capsys):
        artifact = str(tmp_path / "open.json")
        assert (
            main(
                [
                    "fig7", "--seeds", "2", "--workers", "1",
                    "--requests", "60", "--faults", "2",
                    "--arrivals", "open", "--load", "1.5",
                    "--phases", "burst", "--json", artifact,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "open-loop load 1.5" in out
        data = json.loads(open(artifact).read())
        assert data["spec"]["arrivals"] == "open"
        assert data["aggregate"]["slo_ok"] + data["aggregate"]["slo_miss"] == (
            data["aggregate"]["requests"]
        )

    def test_fig7_rejects_bad_phase_spec(self, capsys):
        assert (
            main(
                [
                    "fig7", "--seeds", "1", "--arrivals", "open",
                    "--phases", "a:0.5@1.0",
                ]
            )
            == 1
        )
        assert "invalid fig7 spec" in capsys.readouterr().err
