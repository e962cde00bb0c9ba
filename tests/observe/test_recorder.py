"""Unit tests for the flight recorder core: gating, ring, metrics."""

import dataclasses

import pytest

from repro.config import CONFIG, EngineConfig, override
from repro.errors import ConfigurationError
from repro.observe import (
    DEFAULT_CAPACITY,
    NULL_RECORDER,
    EventSchemaError,
    FlightRecorder,
    MetricsRegistry,
    NullRecorder,
    canonical_metrics,
    merge_metrics,
    recorder_for,
    scalar,
    validate_event,
)
from repro.system import build_system


class FakeClock:
    def __init__(self, now=0):
        self.now = now


class TestDisabledMode:
    def test_disabled_returns_shared_singleton(self):
        # No allocation when tracing is off: every kernel shares the one
        # process-wide NullRecorder instance.
        assert recorder_for() is NULL_RECORDER
        assert recorder_for(clock=FakeClock()) is NULL_RECORDER

    def test_null_recorder_is_inert(self):
        NULL_RECORDER.emit("invoke", tid=1, client="a", server="b", fn="f")
        assert NULL_RECORDER.events() == []
        assert len(NULL_RECORDER) == 0
        assert NULL_RECORDER.dropped == 0
        assert NULL_RECORDER.enabled is False
        NULL_RECORDER.clear()
        assert NULL_RECORDER.metrics.to_dict() == {
            "counters": {},
            "histograms": {},
        }

    def test_null_recorder_allocates_no_instance_state(self):
        # __slots__ = () guarantees emits cannot grow per-instance state.
        assert NullRecorder.__slots__ == ()
        with pytest.raises(AttributeError):
            NULL_RECORDER.ring = []

    def test_disabled_kernel_carries_the_singleton(self):
        system = build_system(ft_mode="superglue")
        assert system.kernel.recorder is NULL_RECORDER


#: ``(variable, value, field, parsed)``: each gate's type rule, read
#: from an environment mapping.  Unset or empty means the default.
VALID_GATES = (
    ("REPRO_SYSTEM_POOL", "false", "system_pool", False),
    ("REPRO_SYSTEM_POOL", "0", "system_pool", False),
    ("REPRO_SYSTEM_POOL", "1", "system_pool", True),
    ("REPRO_FAST_INTERP", "No", "fast_interp", False),
    ("REPRO_FAST_INTERP", "off", "fast_interp", False),
    ("REPRO_FAST_INTERP", "", "fast_interp", True),
    ("REPRO_POOL_DEBUG", "true", "pool_debug", True),
    ("REPRO_POOL_DEBUG", "yes", "pool_debug", True),
    ("REPRO_TRACE", "on", "trace", True),
    ("REPRO_TRACE", "1", "trace", True),
    ("REPRO_TRACE", "off", "trace", False),
    ("REPRO_TRACE", "0", "trace", False),
    ("REPRO_TRACE_CAPACITY", "64", "trace_capacity", 64),
    ("REPRO_TRACE_CAPACITY", "", "trace_capacity", DEFAULT_CAPACITY),
    ("REPRO_WORKER_START", "spawn", "worker_start", "spawn"),
    ("REPRO_WORKER_START", "fork", "worker_start", "fork"),
    ("REPRO_WORKER_START", "auto", "worker_start", "auto"),
)

#: Values each rule rejects, naming the variable.
INVALID_GATES = (
    ("REPRO_SYSTEM_POOL", "2"),
    ("REPRO_POOL_DEBUG", "enabled"),
    ("REPRO_TRACE", "-1"),
    ("REPRO_TRACE_CAPACITY", "junk"),
    ("REPRO_TRACE_CAPACITY", "0"),
    ("REPRO_TRACE_CAPACITY", "-64"),
    ("REPRO_WORKER_START", "spwan"),
)


class TestGating:
    def test_env_gate(self):
        default = EngineConfig()
        assert EngineConfig.from_env({}) == default
        assert (default.system_pool, default.fast_interp) == (True, True)
        assert (default.pool_debug, default.trace) == (False, False)
        assert default.worker_start == "auto"
        for variable, raw, name, parsed in VALID_GATES:
            assert EngineConfig.from_env({variable: raw}) == (
                dataclasses.replace(default, **{name: parsed})
            ), (variable, raw)
        for variable, raw in INVALID_GATES:
            with pytest.raises(ConfigurationError, match=variable):
                EngineConfig.from_env({variable: raw})
        # The trace gate decides what recorder a new kernel gets.
        assert recorder_for() is NULL_RECORDER
        with override(trace=True):
            assert isinstance(recorder_for(), FlightRecorder)

    def test_context_manager_overrides_and_restores(self):
        with override(trace=True):
            assert CONFIG.trace is True
            with override(trace=False):
                assert CONFIG.trace is False
            assert CONFIG.trace is True
        assert CONFIG.trace is False
        # Override values are typed and checked like the environment's.
        for bad in (
            {"trace": "1"}, {"trace_capacity": 0}, {"trace_capacity": True},
            {"worker_start": "spwan"}, {"tracing": True},
        ):
            with pytest.raises(ConfigurationError):
                with override(**bad):
                    pass
        assert CONFIG == EngineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            CONFIG.trace = True

    def test_traced_kernel_gets_live_recorder_bound_to_its_clock(self):
        with override(trace=True):
            system = build_system(ft_mode="superglue")
        recorder = system.kernel.recorder
        assert isinstance(recorder, FlightRecorder)
        assert recorder.clock is system.kernel.clock

    def test_capacity_env_override(self):
        assert CONFIG.trace_capacity == DEFAULT_CAPACITY
        capacity = EngineConfig.from_env({"REPRO_TRACE_CAPACITY": "64"})
        assert capacity.trace_capacity == 64
        with pytest.raises(ConfigurationError, match="REPRO_TRACE_CAPACITY"):
            EngineConfig.from_env({"REPRO_TRACE_CAPACITY": "junk"})
        with override(trace=True, trace_capacity=64):
            assert recorder_for().capacity == 64


class TestRing:
    def test_events_are_stamped_with_virtual_clock_and_seq(self):
        clock = FakeClock(now=100)
        recorder = FlightRecorder(clock=clock, capacity=8)
        recorder.emit("replay", server="lock", fn="lock_take", sid=1)
        clock.now = 250
        recorder.emit("fault_update", server="lock", epoch=1)
        events = recorder.events()
        assert [(e["seq"], e["t"], e["event"]) for e in events] == [
            (0, 100, "replay"),
            (1, 250, "fault_update"),
        ]
        assert events[0]["data"] == {
            "server": "lock", "fn": "lock_take", "sid": 1,
        }

    def test_wraparound_keeps_newest_and_counts_dropped(self):
        recorder = FlightRecorder(clock=FakeClock(), capacity=8)
        for i in range(20):
            recorder.emit("fault_update", server="lock", epoch=i)
        assert len(recorder) == 8
        assert recorder.dropped == 12
        events = recorder.events()
        assert [e["seq"] for e in events] == list(range(12, 20))
        assert [e["data"]["epoch"] for e in events] == list(range(12, 20))

    def test_clear_keeps_sequence_running(self):
        recorder = FlightRecorder(clock=FakeClock(), capacity=4)
        recorder.emit("fault_update", server="lock", epoch=0)
        recorder.clear()
        assert len(recorder) == 0 and recorder.dropped == 0
        recorder.emit("fault_update", server="lock", epoch=1)
        assert recorder.events()[0]["seq"] == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestEventSchema:
    def test_known_event_validates(self):
        validate_event(
            "swifi_inject",
            {"component": "lock", "reg": 2, "bit": 4, "op_index": 16,
             "trace_len": 58, "label": "lock_take"},
        )

    def test_unknown_event_rejected(self):
        with pytest.raises(EventSchemaError):
            validate_event("made_up", {})

    def test_missing_and_extra_fields_rejected(self):
        with pytest.raises(EventSchemaError):
            validate_event("replay", {"server": "lock", "fn": "lock_take"})
        with pytest.raises(EventSchemaError):
            validate_event(
                "replay",
                {"server": "lock", "fn": "lock_take", "sid": 1, "bonus": 2},
            )

    def test_non_scalar_value_rejected(self):
        with pytest.raises(EventSchemaError):
            validate_event(
                "replay", {"server": "lock", "fn": "lock_take", "sid": [1]}
            )

    def test_optional_field_allowed(self):
        base = {"component": "lock", "kind": "assertion", "message": "m"}
        validate_event("fault_vectored", base)
        validate_event("fault_vectored", dict(base, detection_latency=42))

    def test_scalar_coercion(self):
        assert scalar(7) == 7
        assert scalar("x") == "x"
        assert scalar(None) is None
        assert scalar(("lock", 3)) == str(("lock", 3))


class TestMetrics:
    def test_counters_and_histograms(self):
        registry = MetricsRegistry()
        registry.counter("replays").inc()
        registry.counter("replays").inc(2)
        hist = registry.histogram("recovery_cycles")
        for value in (100, 200, 700):
            hist.observe(value)
        snap = registry.to_dict()
        assert snap["counters"]["replays"] == 3
        h = snap["histograms"]["recovery_cycles"]
        assert h["count"] == 3 and h["total"] == 1000
        assert h["min"] == 100 and h["max"] == 700

    def test_merge_is_order_independent(self):
        def registry(values):
            r = MetricsRegistry()
            for v in values:
                r.counter("runs").inc()
                r.histogram("cycles").observe(v)
            return r.to_dict()

        a = registry([1, 5, 900])
        b = registry([17, 3])
        ab, ba = {}, {}
        for part in (a, b):
            merge_metrics(ab, part)
        for part in (b, a):
            merge_metrics(ba, part)
        assert canonical_metrics(ab) == canonical_metrics(ba)
        assert ab["counters"]["runs"] == 5
        assert ab["histograms"]["cycles"]["count"] == 5
        assert ab["histograms"]["cycles"]["min"] == 1
        assert ab["histograms"]["cycles"]["max"] == 900
