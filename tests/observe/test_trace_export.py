"""Integration tests: traced campaigns, JSONL export, timeline render."""

import pytest

from repro.__main__ import main
from repro.errors import ReproError
from repro.observe import EventSchemaError
from repro.observe.events import EVENT_FIELDS
from repro.observe.export import (
    load_runs,
    read_trace,
    run_header,
    validate_line,
)
from repro.observe.timeline import (
    RECOVERY_EVENTS,
    _describe,
    pick_default_run,
    render_rollup,
    render_run_timeline,
)
from repro.swifi.campaign import CampaignRunner, execute_run, warm_up
from repro.swifi.parallel import _table2_run, run_campaign
from repro.webserver.campaign import (
    WebRunSpec,
    _web_run,
    _web_warm_up,
    execute_web_run,
    run_webserver_campaign,
    web_run_seeds,
)


@pytest.fixture(scope="module")
def lock_campaign(tmp_path_factory):
    """One traced lock campaign, shared by the read-side tests."""
    path = str(tmp_path_factory.mktemp("trace") / "lock.jsonl")
    runner = CampaignRunner("lock", n_faults=6, seed=1)
    result = runner.run(workers=1, trace=path)
    return runner, result, path


def _table2_traced(path, workers):
    runner = CampaignRunner("timer", n_faults=6, seed=2)
    counter, __ = run_campaign(
        runner.spec(), runner.run_seeds(), workers=workers, trace=path
    )
    return counter.counts


def _table2_c3_idl_traced(path, workers):
    runner = CampaignRunner(
        "event", ft_mode="c3", n_faults=6, seed=2, fault_class="idl"
    )
    counter, __ = run_campaign(
        runner.spec(), runner.run_seeds(), workers=workers, trace=path
    )
    return counter.counts


def _fig7_traced(path, workers):
    return run_webserver_campaign(
        web_run_seeds(2, 4), WebRunSpec(n_requests=40, n_faults=2),
        workers=workers, trace=path,
    ).to_json_dict()


def _fig7_open_traced(path, workers):
    spec = WebRunSpec(n_requests=40, n_faults=2, arrivals="open", load=2.0,
                      phases="burst", slo_us=500)
    return run_webserver_campaign(
        web_run_seeds(2, 4), spec, workers=workers, trace=path,
    ).to_json_dict()


#: One traced campaign per kind: ``(path, workers) -> artifact``.
_TRACED_CAMPAIGNS = {
    "table2": _table2_traced,
    "table2-c3-idl": _table2_c3_idl_traced,
    "fig7": _fig7_traced,
    "fig7-open": _fig7_open_traced,
}


def _traced_cases():
    """``(traced_run, plain_run, warm_up, spec, outcome_of)`` per run
    kind: Table II reg and idl, and a Fig. 7 run."""
    cases = [
        (
            _table2_run, execute_run, warm_up, spec,
            lambda outcome: outcome.value,
        )
        for spec in (
            CampaignRunner("lock", n_faults=1, seed=1).spec(),
            CampaignRunner(
                "lock", n_faults=1, seed=1, fault_class="idl"
            ).spec(),
        )
    ]
    cases.append((
        _web_run, execute_web_run, _web_warm_up,
        WebRunSpec(n_requests=40, n_faults=2, fault_class="mem"),
        lambda row: row["outcome"],
    ))
    return cases


class TestOutcomeInvariance:
    def test_tracing_does_not_change_run_outcomes(self, engine):
        """A traced run is the plain run under the flight recorder, from
        boot (a traced campaign runs unpooled): the same outcome (Fig.
        7: the same row), and a header true to the spec and to the
        kernel's step count, which counts a run's steps also when the
        run raised (the lock idl seeds do).  Only a traced run builds a
        record."""
        cases = _traced_cases()
        plain = {
            (spec, seed): plain_run(spec, seed)
            for __, plain_run, __, spec, __ in cases
            for seed in (1_000_003, 1_000_004, 12345)
        }
        engine(system_pool=False)
        for traced_run, plain_run, __, spec, outcome_of in cases:
            for seed in (1_000_003, 1_000_004, 12345):
                result, record = traced_run(spec, seed, None, {}, trace=True)
                assert traced_run(spec, seed, None, {}) == (result, None)
                assert result == plain[spec, seed]
                header = run_header(record)
                assert header["outcome"] == outcome_of(result)
                assert header["fault_class"] == spec.fault_class
                assert header["steps"] == (
                    record["metrics"]["counters"]["steps"]
                ) > 0

    def test_tracing_a_pooled_system_raises(self):
        # A pooled run, from the pooled boot or from its campaign's
        # start, could begin at a rung and lose its prefix's events:
        # tracing it raises instead of recording part of a run.
        for traced_run, plain_run, warm_up_of, spec, __ in _traced_cases():
            for start in (None, warm_up_of(spec)):
                with pytest.raises(ReproError, match="fresh system"):
                    traced_run(spec, 1_000_003, start, {}, trace=True)
            assert traced_run(spec, 1_000_003, None, {}) == (
                plain_run(spec, 1_000_003), None
            )

    @pytest.mark.parametrize("kind", list(_TRACED_CAMPAIGNS))
    def test_serial_and_parallel_traces_byte_identical(self, tmp_path, kind):
        serial = str(tmp_path / "serial.jsonl")
        pooled = str(tmp_path / "pooled.jsonl")
        campaign = _TRACED_CAMPAIGNS[kind]
        assert campaign(serial, 1) == campaign(pooled, 2)
        assert open(serial).read() == open(pooled).read()
        assert list(read_trace(serial, validate=True))


class TestExportFormat:
    def test_every_line_validates(self, lock_campaign):
        __, __, path = lock_campaign
        lines = list(read_trace(path, validate=True))
        assert lines, "trace artifact is empty"
        kinds = {line["type"] for line in lines}
        assert kinds == {"run", "event", "summary"}

    def test_load_runs_round_trip(self, lock_campaign):
        runner, result, path = lock_campaign
        runs, summaries = load_runs(path)
        assert [run["run_seed"] for run in runs] == runner.run_seeds()
        for run in runs:
            assert run["events"], "a traced run recorded no events"
            assert [e["seq"] for e in run["events"]] == sorted(
                e["seq"] for e in run["events"]
            )
        assert len(summaries) == 1
        summary = summaries[0]
        assert summary["runs"] == 6 and summary["replayed"] == 0
        assert sum(summary["outcomes"].values()) == 6
        assert summary["outcomes"] == {
            outcome.value: count
            for outcome, count in result.counter.counts.items()
        }
        assert summary["metrics"]["counters"]["runs"] == 6

    def test_truncated_final_line_tolerated(self, lock_campaign, tmp_path):
        __, __, path = lock_campaign
        clipped = tmp_path / "clipped.jsonl"
        content = open(path).read()
        clipped.write_text(content + '{"type": "ev')
        full = list(read_trace(path))
        assert list(read_trace(str(clipped))) == full

    def test_malformed_lines_raise(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "mystery"}\n')
        with pytest.raises(EventSchemaError):
            list(read_trace(str(bad)))
        with pytest.raises(EventSchemaError):
            validate_line({"type": "run", "schema": 999})

    def test_run_header_counts_its_events(self, lock_campaign):
        __, __, path = lock_campaign
        counts, seen = {}, {}
        for line in read_trace(path):
            if line["type"] == "run":
                counts[line["run_seed"]] = line["events"]
            elif line["type"] == "event":
                seen[line["run_seed"]] = seen.get(line["run_seed"], 0) + 1
        assert counts == seen


class TestRecoveryArc:
    def test_full_injection_to_replay_arc_recorded(self, lock_campaign):
        __, __, path = lock_campaign
        runs, __ = load_runs(path)
        best = pick_default_run(runs)
        names = [e["event"] for e in best["events"]]
        for required in (
            "swifi_arm", "swifi_inject", "fault_vectored",
            "micro_reboot_begin", "micro_reboot_end", "replay",
        ):
            assert required in names, f"missing {required} in {names}"
        # Causal order: arm <= inject < detect <= reboot-begin < reboot-end.
        assert names.index("swifi_arm") < names.index("swifi_inject")
        assert names.index("swifi_inject") < names.index("fault_vectored")
        assert names.index("fault_vectored") <= names.index(
            "micro_reboot_begin"
        )
        assert names.index("micro_reboot_begin") < names.index(
            "micro_reboot_end"
        )
        stamps = [e["t"] for e in best["events"]]
        assert stamps == sorted(stamps)

    def test_detection_latency_recorded(self, lock_campaign):
        __, __, path = lock_campaign
        __, summaries = load_runs(path)
        hist = summaries[0]["metrics"]["histograms"]["detection_latency_cycles"]
        assert hist["count"] >= 1
        assert hist["min"] >= 0

    def test_timeline_renders_the_story(self, lock_campaign):
        __, __, path = lock_campaign
        runs, summaries = load_runs(path)
        text = render_run_timeline(pick_default_run(runs), include=RECOVERY_EVENTS)
        assert "SWIFI INJECT" in text
        assert "reboot-begin" in text and "reboot-end" in text
        assert "replay" in text
        rollup = render_rollup(runs, summaries)
        assert "campaign lock/" in rollup
        assert "recovered" in rollup

    def test_every_event_type_renders_its_own_line(self):
        # The schema and the timeline change together: each event type
        # has its own line (not the generic fallback), and the focused
        # timeline names only event types the schema has.
        for name, fields in EVENT_FIELDS.items():
            data = dict.fromkeys(fields, 1)
            line = _describe({"event": name, "data": data})
            assert line != f"{name}  {data}", name
        assert RECOVERY_EVENTS <= set(EVENT_FIELDS)


class TestCliTrace:
    def test_table2_trace_then_render(self, tmp_path, capsys):
        artifact = str(tmp_path / "t.jsonl")
        assert main(
            ["table2", "--faults", "2", "--workers", "1", "--trace", artifact]
        ) == 0
        capsys.readouterr()
        assert main(["trace", artifact, "--validate"]) == 0
        assert "lines OK" in capsys.readouterr().out
        assert main(["trace", artifact]) == 0
        out = capsys.readouterr().out
        assert "campaign" in out and "run seed=" in out

    def test_trace_run_selection_and_errors(self, tmp_path, capsys):
        artifact = str(tmp_path / "t.jsonl")
        assert main(
            ["table2", "--faults", "2", "--workers", "1", "--trace", artifact]
        ) == 0
        capsys.readouterr()
        assert main(["trace", artifact, "--run", "1000003", "--full"]) == 0
        assert "run seed=1000003" in capsys.readouterr().out
        assert main(["trace", artifact, "--run", "999"]) == 1
        assert main(["trace", str(tmp_path / "missing.jsonl")]) == 1
