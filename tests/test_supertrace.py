"""Differential tests for the tier-3 super-trace engine.

The engine's contract is absolute: with ``REPRO_SUPER_TRACE=1`` a
campaign must produce *exactly* the outcomes the two-tier authoritative
path produces.  Replay is a cache of the clean invocation sequence's
replayable prefix: a recording ends before the first unit the recorder
cannot prove reproducible, and anything a replayed unit's guard cannot
prove identical (injections, taint, diverged clocks) diverges the run
to ``execute_trace``.  These tests drive real campaigns, superglue and
C^3 stubs alike, through every gate combination and check outcome and
end-state identity, replay and divergence accounting, the recording
oracle, pool-debug fingerprints, and the zero-copy worker payload
contract.  Tier 3 serves Table II and the cluster; Fig. 7 runs start
from first-arm snapshots instead (``tests/test_web_snapshot.py``).
"""

import pickle

import pytest

from repro import observe
from repro.composite.supertrace import (
    REGISTRY,
    RecordingSession,
    ReplaySession,
    super_trace_enabled,
)
from repro.errors import ReproError
from repro.idl_specs import SERVICES
from repro.swifi import campaign as swifi_campaign
from repro.swifi import parallel
from repro.swifi.campaign import CampaignRunner, execute_run
from repro.system import GLOBAL_POOL, build_system, system_fingerprint


def _lock_runner(n_faults=12, seed=1):
    return CampaignRunner("lock", n_faults=n_faults, seed=seed)


def _sweep(spec, seeds):
    return [execute_run(spec, seed).value for seed in seeds]


def _pooled_kernel(spec):
    system = GLOBAL_POOL.peek(
        ft_mode=spec.ft_mode, recovery_mode=spec.recovery_mode
    )
    assert system is not None, "campaign should have populated the pool"
    return system.kernel


class TestGating:
    def test_env_gate(self, monkeypatch):
        monkeypatch.setenv("REPRO_SUPER_TRACE", "0")
        assert not super_trace_enabled()
        monkeypatch.setenv("REPRO_SUPER_TRACE", "1")
        assert super_trace_enabled()

    def test_disabled_means_no_recording(self, monkeypatch):
        monkeypatch.setenv("REPRO_SUPER_TRACE", "0")
        monkeypatch.setenv("REPRO_SYSTEM_POOL", "1")
        spec = _lock_runner().spec()
        assert swifi_campaign._campaign_recording(spec) is None

    def test_fresh_build_means_no_recording(self, monkeypatch):
        monkeypatch.setenv("REPRO_SUPER_TRACE", "1")
        monkeypatch.setenv("REPRO_SYSTEM_POOL", "0")
        spec = _lock_runner().spec()
        assert swifi_campaign._campaign_recording(spec) is None

    def test_traced_runs_mean_no_recording(self, monkeypatch):
        monkeypatch.setenv("REPRO_SUPER_TRACE", "1")
        monkeypatch.setenv("REPRO_SYSTEM_POOL", "1")
        spec = _lock_runner().spec()
        with observe.tracing(True):
            assert swifi_campaign._campaign_recording(spec) is None


class TestOutcomeIdentity:
    """REPRO_SUPER_TRACE=0 and =1 must be outcome-for-outcome identical.

    Fig. 7 runs no longer replay: pooled ones start from a first-arm
    snapshot instead (``tests/test_web_snapshot.py``)."""

    @pytest.mark.parametrize("fault_class", ["reg", "mem", "idl", "burst"])
    def test_injected_campaign_identical(self, monkeypatch, fault_class):
        monkeypatch.setenv("REPRO_SYSTEM_POOL", "1")
        runner = CampaignRunner(
            "lock", n_faults=12, seed=1, fault_class=fault_class
        )
        spec = runner.spec()
        seeds = runner.run_seeds()
        monkeypatch.setenv("REPRO_SUPER_TRACE", "0")
        baseline = _sweep(spec, seeds)
        monkeypatch.setenv("REPRO_SUPER_TRACE", "1")
        assert _sweep(spec, seeds) == baseline


class TestReplayAccounting:
    def test_replay_engages_and_injections_bypass(self, monkeypatch):
        monkeypatch.setenv("REPRO_SYSTEM_POOL", "1")
        monkeypatch.setenv("REPRO_SUPER_TRACE", "1")
        runner = _lock_runner()
        spec = runner.spec()
        kernel = None
        for seed in runner.run_seeds():
            execute_run(spec, seed)
            kernel = kernel or _pooled_kernel(spec)
        stats = _pooled_kernel(spec).stats
        # Replayed units prove the tier-3 engine ran; divergences and
        # divergent units prove injections never took the replay
        # shortcut — each injected run leaves the prefix exactly once
        # and executes its post-divergence units authoritatively.
        assert stats["super_trace_runs"] > 0
        assert stats["super_trace_divergences"] > 0
        assert stats["super_trace_divergent_units"] > 0

    def test_two_tier_mode_never_counts_super_trace(self, monkeypatch):
        monkeypatch.setenv("REPRO_SYSTEM_POOL", "1")
        monkeypatch.setenv("REPRO_SUPER_TRACE", "0")
        runner = _lock_runner(seed=5)
        spec = runner.spec()
        for seed in runner.run_seeds()[:4]:
            execute_run(spec, seed)
        stats = _pooled_kernel(spec).stats
        assert stats["super_trace_runs"] == 0
        assert stats["super_trace_bypasses"] == 0

    def test_pool_debug_clean_after_supertraced_runs(self, monkeypatch):
        # Every restore after a super-traced run must still produce a
        # system structurally identical to a fresh build.
        monkeypatch.setenv("REPRO_SYSTEM_POOL", "1")
        monkeypatch.setenv("REPRO_SUPER_TRACE", "1")
        monkeypatch.setenv("REPRO_POOL_DEBUG", "1")
        runner = _lock_runner(n_faults=8, seed=7)
        spec = runner.spec()
        for seed in runner.run_seeds():
            execute_run(spec, seed)  # raises ReproError on divergence

    def test_failed_recording_falls_back_authoritative(self, monkeypatch):
        monkeypatch.setenv("REPRO_SYSTEM_POOL", "1")
        monkeypatch.setenv("REPRO_SUPER_TRACE", "1")
        monkeypatch.setattr(
            swifi_campaign, "_build_recording",
            lambda spec, instance=None: None,
        )
        REGISTRY.clear()
        runner = _lock_runner(n_faults=6, seed=9)
        spec = runner.spec()
        monkeypatch.setenv("REPRO_SUPER_TRACE", "0")
        baseline = _sweep(spec, runner.run_seeds())
        monkeypatch.setenv("REPRO_SUPER_TRACE", "1")
        assert _sweep(spec, runner.run_seeds()) == baseline
        assert swifi_campaign._campaign_recording(spec) is None


class TestColdWarmSymmetry:
    """The replay engine carries no state from one run to the next.

    Two back-to-back passes over the same seeds must give identical
    outcomes *and* identical engine counter deltas: a second (warm)
    pass may not replay more, bypass less or diverge differently than
    the first (cold) one.  That symmetry is what keeps a cold campaign
    as cheap per run as a warm one.
    """

    def _coverage_sweep(self, spec, seeds):
        coverage = dict.fromkeys(swifi_campaign.COVERAGE_KEYS, 0)
        outcomes = []
        for seed in seeds:
            outcome, system, __, __, __ = swifi_campaign._drive_run(
                spec, seed
            )
            outcomes.append(outcome.value)
            swifi_campaign.collect_coverage(system.kernel, coverage)
        return outcomes, coverage

    @pytest.mark.parametrize("fault_class", ["reg", "mem", "idl", "burst"])
    def test_back_to_back_passes_identical(self, monkeypatch, fault_class):
        monkeypatch.setenv("REPRO_SYSTEM_POOL", "1")
        monkeypatch.setenv("REPRO_SUPER_TRACE", "1")
        REGISTRY.clear()  # the first pass records the spec afresh
        runner = CampaignRunner(
            "lock", n_faults=15, seed=2, fault_class=fault_class
        )
        spec = runner.spec()
        seeds = runner.run_seeds()
        cold_outcomes, cold = self._coverage_sweep(spec, seeds)
        warm_outcomes, warm = self._coverage_sweep(spec, seeds)
        assert warm_outcomes == cold_outcomes
        assert warm == cold
        assert cold["super_trace_runs"] > 0

    def test_injected_runs_under_pool_debug(self, monkeypatch):
        # Every restore after an injected super-traced run must still
        # produce a system structurally identical to a fresh build,
        # across two passes over the same seeds.
        monkeypatch.setenv("REPRO_SYSTEM_POOL", "1")
        monkeypatch.setenv("REPRO_SUPER_TRACE", "1")
        monkeypatch.setenv("REPRO_POOL_DEBUG", "1")
        runner = _lock_runner(n_faults=8, seed=11)
        spec = runner.spec()
        for seed in runner.run_seeds() * 2:
            execute_run(spec, seed)  # raises ReproError on divergence


#: Fingerprint keys of the engine counters replay legitimately changes.
_ENGINE_STATS = tuple(
    f"kernel.stats['{prefix}"
    for prefix in ("super_trace_", "interp_", "trace_cache_")
)


def _end_state(system):
    """``system_fingerprint`` minus the engine counters."""
    return {
        key: value for key, value in system_fingerprint(system).items()
        if not key.startswith(_ENGINE_STATS)
    }


class TestEndStateIdentity:
    """A run that replays leaves the pooled system exactly where the
    authoritative run leaves it, stub statistics and tracking tables
    included, for generated and hand-written C^3 stubs alike.  No
    campaign artifact shows those, so this is the test that catches a
    recording which misses a root a unit changed."""

    def _assert_same_end_states(self, monkeypatch, label, run, seeds):
        states = {}
        replayed = 0
        for engine in ("0", "1"):
            monkeypatch.setenv("REPRO_SUPER_TRACE", engine)
            states[engine] = []
            for seed in seeds:
                system = run(seed)
                states[engine].append(_end_state(system))
                replayed += system.kernel.stats["super_trace_runs"]
        assert replayed > 0, label
        for seed, before, after in zip(seeds, states["0"], states["1"]):
            differing = sorted(
                key for key in set(before) | set(after)
                if before.get(key) != after.get(key)
            )
            assert differing == [], f"{label} seed {seed}"

    @pytest.mark.parametrize("service", SERVICES)
    def test_table2_end_state(self, monkeypatch, service):
        monkeypatch.setenv("REPRO_SYSTEM_POOL", "1")
        for ft_mode in ("superglue", "c3"):
            for fault_class in ("reg", "idl"):
                runner = CampaignRunner(
                    service, ft_mode=ft_mode, n_faults=6, seed=1,
                    fault_class=fault_class,
                )
                spec = runner.spec()
                self._assert_same_end_states(
                    monkeypatch,
                    f"{ft_mode} {fault_class}",
                    lambda seed: swifi_campaign._drive_run(spec, seed)[1],
                    runner.run_seeds(),
                )


class TestRecordingOracle:
    """``REPRO_POOL_DEBUG=1`` checks every recorded unit's touched-root
    diff against the whole-system diff."""

    @pytest.fixture(autouse=True)
    def _debug(self, monkeypatch):
        monkeypatch.setenv("REPRO_SYSTEM_POOL", "1")
        monkeypatch.setenv("REPRO_SUPER_TRACE", "1")
        monkeypatch.setenv("REPRO_POOL_DEBUG", "1")
        REGISTRY.clear()  # record afresh, under the oracle

    def test_every_table2_unit_checked(self):
        for ft_mode in ("superglue", "c3"):
            for service in SERVICES:
                spec = CampaignRunner(
                    service, ft_mode=ft_mode, n_faults=4, seed=1
                ).spec()
                recording = swifi_campaign._campaign_recording(spec)
                assert recording is not None, (ft_mode, service)
                checked = recording.meta["checked_units"]
                assert checked == len(recording.units) > 0, (ft_mode, service)

    def test_untouched_root_write_in_table2_is_named(self, monkeypatch):
        # Same bug on the Table II path: lock_take bumps a counter of
        # the timer component, which the lock workload never enters.
        # The pool's touched rule skips timer too, so the debug diff of
        # the next acquire names the write; planted in the recorded pass
        # only, it is left to the recording oracle.
        spec = CampaignRunner("lock", n_faults=4, seed=1).spec()
        kernel = swifi_campaign._campaign_system(
            spec.ft_mode, spec.recovery_mode
        ).kernel
        timer = kernel.components["timer"]
        exports = kernel.components["lock"]._exports
        original = exports["lock_take"]
        recorded_only = False

        def lock_take(thread, *args):
            if not recorded_only or kernel._supertrace is not None:
                timer.faults_detected += 1
            return original(thread, *args)

        monkeypatch.setitem(exports, "lock_take", lock_take)
        with pytest.raises(ReproError, match=r"timer\.faults_detected"):
            swifi_campaign._campaign_recording(spec)
        recorded_only = True
        timer.faults_detected = 0
        REGISTRY.clear()
        with pytest.raises(
            AssertionError,
            match=r"root \('comp', 'timer'\) path \(\('a', 'faults_detected'\),\)",
        ):
            swifi_campaign._campaign_recording(spec)


class TestNoTailCache:
    """The divergence-tail cache is gone: the names ``bench/tracer.py``
    still resolves stay inert."""

    def _drive(self, spec, seeds):
        outcomes, stats = [], []
        for seed in seeds:
            outcome, system, __, __, __ = swifi_campaign._drive_run(
                spec, seed
            )
            outcomes.append(outcome.value)
            stats.append({
                key: value for key, value in system.kernel.stats.items()
                if key.startswith("super_trace_")
            })
        return outcomes, stats

    def test_tail_counters_stay_zero(self, monkeypatch):
        # The tracer folds these two keys into its layer metrics; they
        # must exist on every run's stats and never count anything,
        # even on runs whose injection diverged from the recording.
        monkeypatch.setenv("REPRO_SYSTEM_POOL", "1")
        monkeypatch.setenv("REPRO_SUPER_TRACE", "1")
        runner = _lock_runner(n_faults=20, seed=3)
        __, stats = self._drive(runner.spec(), runner.run_seeds())
        assert sum(s["super_trace_divergences"] for s in stats) > 0
        for run in stats:
            assert run["super_trace_tail_runs"] == 0
            assert run["super_trace_tail_records"] == 0
        assert "super_trace_tail_runs" not in swifi_campaign.COVERAGE_KEYS
        assert (
            "super_trace_tail_records" not in swifi_campaign.COVERAGE_KEYS
        )

    def test_tracer_hooks_are_no_ops(self):
        # The tracer wraps these two methods by name; they must still
        # resolve, and calling them must leave no state behind.
        system = build_system(ft_mode="superglue")
        kernel = system.kernel
        session = RecordingSession(kernel)
        assert session.finish_tail(("sig",)) is None
        recording = session.finish({"service": "lock"})
        before = dict(kernel.stats)
        assert ReplaySession(recording).finalize(kernel) is None
        assert kernel.stats == before


class TestRecordingEvent:
    def test_super_trace_record_event_schema(self):
        # The seal event must validate against the declared schema and
        # carry the unit accounting the timeline renderer formats.
        with observe.tracing(True):
            system = build_system(ft_mode="superglue")
            session = RecordingSession(system.kernel)
            recording = session.finish({"service": "lock"})
        assert recording is not None
        events = [
            e for e in system.kernel.recorder.events()
            if e["event"] == "super_trace_record"
        ]
        assert len(events) == 1
        assert events[0]["data"] == {
            "units": 0, "replayable": 0, "service": "lock",
        }


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

    def test_start_method_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_START", "spawn")
        assert parallel.worker_start_method() == "spawn"
        monkeypatch.delenv("REPRO_WORKER_START")
        assert parallel.worker_start_method() in ("fork", "spawn")

    def test_fork_unavailable_falls_back_to_spawn(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_START", "fork")
        monkeypatch.setattr(
            parallel.multiprocessing,
            "get_all_start_methods",
            lambda: ["spawn"],
        )
        assert parallel.worker_start_method() == "spawn"

    def test_in_process_path_runs_setup_once(self):
        calls, batches = [], []
        spec = _lock_runner().spec()
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
    def test_parallel_identical_to_serial(self, monkeypatch, start):
        import multiprocessing

        if start not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start} start method unavailable")
        monkeypatch.setenv("REPRO_SYSTEM_POOL", "1")
        monkeypatch.setenv("REPRO_SUPER_TRACE", "1")
        runner = _lock_runner(n_faults=8, seed=4)
        spec = runner.spec()
        seeds = runner.run_seeds()
        serial, __ = parallel.run_campaign(spec, seeds, workers=1)
        monkeypatch.setenv("REPRO_WORKER_START", start)
        fanned, __ = parallel.run_campaign(spec, seeds, workers=2)
        assert fanned.counts == serial.counts
