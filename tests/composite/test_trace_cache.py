"""Tier-1 trace compilation cache: hit behaviour, exactness, determinism.

The cache memoizes finished ``checked_create``/``checked_touch`` traces
per (operation, label, record address, record values, arguments, …) key,
so steady-state invocations reuse the prebuilt op list.  Correctness
hinges on two properties tested here: a hit is bit-identical to the trace
the builder would have produced (so campaign outcomes cannot move), and
shared cached traces never grow (sealing).
"""

from __future__ import annotations

from collections import Counter

from repro.composite.machine import Trace
from repro.composite.services.common import ServiceComponent, TraceCache
from repro.composite.thread import Invoke
from repro.idl_specs import SERVICES
from repro.swifi.campaign import CampaignRunner
from repro.system import build_system
from repro.webserver.campaign import WebRunSpec, execute_web_run, web_run_seeds


def run_lock_workload(iterations: int = 25):
    """Drive a take/release loop through the full invocation path."""
    system = build_system(ft_mode="superglue")

    def body(sys_, thread):
        lock_id = yield Invoke("lock", "lock_alloc", "app0")
        for __ in range(iterations):
            yield Invoke("lock", "lock_take", "app0", lock_id)
            yield Invoke("lock", "lock_release", "app0", lock_id)

    system.kernel.create_thread("w", prio=5, home="app0", body_factory=body)
    system.run(max_steps=20 * iterations + 100)
    return system


def check_builds_against_fresh(monkeypatch) -> Counter:
    """Compare every ``checked_*`` result with a build from an empty cache.

    Each call, hit or miss, is rebuilt with the component's cache swapped
    for an empty one (its kernel counters put back afterwards), and the
    two traces must agree on ops, entry registers, label and sealing.
    Returns each builder's cache hits, counted as calls arrive.
    """
    counts = Counter()

    def wrap(name):
        build = getattr(ServiceComponent, name)

        def checked(self, record, *args, **kwargs):
            hits = self.kernel.stats["trace_cache_hits"]
            trace = build(self, record, *args, **kwargs)
            counts[name] += self.kernel.stats["trace_cache_hits"] - hits
            cache, stats = self._trace_cache, dict(self.kernel.stats)
            self._trace_cache = TraceCache()
            try:
                fresh = build(self, record, *args, **kwargs)
            finally:
                self._trace_cache = cache
                self.kernel.stats.update(stats)
            assert (trace.label, trace.ops, trace.entry_regs, trace.sealed) \
                == (fresh.label, fresh.ops, fresh.entry_regs, fresh.sealed), (
                    f"{self.name}.{name} {trace.label}: cached trace differs "
                    f"from a fresh build"
                )
            return trace

        monkeypatch.setattr(ServiceComponent, name, checked)

    wrap("checked_touch")
    wrap("checked_create")
    return counts


class TestTraceCacheBehaviour:
    def test_steady_state_workload_hits_cache(self):
        system = run_lock_workload(25)
        stats = system.kernel.stats
        # First take/release builds the traces; the other 24 pairs reuse
        # them (plus the alloc miss).
        assert stats["trace_cache_hits"] >= 40
        assert stats["trace_cache_misses"] <= 6
        assert stats["invocations"] > 0

    def test_cached_traces_are_sealed_and_bounded(self):
        system = run_lock_workload(2)
        lock = system.kernel.component("lock")
        cache = lock._trace_cache
        assert cache is not None
        assert system.kernel.stats["trace_cache_hits"] > 0
        for trace in cache.entries.values():
            assert trace.sealed
            assert trace.ops[-1][0] == "ret"  # epilogue appended exactly once
        assert len(cache.entries) <= cache.capacity

    def test_every_hit_equals_a_fresh_build(self, monkeypatch):
        counts = check_builds_against_fresh(monkeypatch)
        # Table II over the six services: reg flips, and idl fuzzing,
        # which delivers bit-flipped int arguments to the services.
        for fault_class in ("reg", "idl"):
            for service in SERVICES:
                CampaignRunner(
                    service, n_faults=4, seed=5, fault_class=fault_class
                ).run(workers=1)
        execute_web_run(
            WebRunSpec(n_requests=60, n_faults=2, arrivals="open", load=2.0,
                       phases="burst"),
            web_run_seeds(1, 1)[0],
        )
        assert counts["checked_touch"] > 100
        assert counts["checked_create"] > 0
        # A float argument equals an int (1.0 == 1) but travels as a
        # different word: it must never hit the int call's entry.
        system = build_system(ft_mode="superglue")
        lock = system.kernel.component("lock")
        record = lock.new_record("exactness", [7])
        touch = dict(expected=[(1, 7)], label="exactness", retval=0)
        as_int = lock.checked_touch(record, args=["app0", 1], **touch)
        as_float = lock.checked_touch(record, args=["app0", 1.0], **touch)
        assert as_float is not as_int
        assert as_float.entry_regs != as_int.entry_regs
        assert lock.checked_touch(record, args=["app0", 1.0], **touch) \
            is as_float

    def test_fifo_eviction_bounds_entries(self):
        cache = TraceCache(capacity=4)
        for index in range(10):
            cache.put(("k", index), Trace(f"t{index}"))
        assert len(cache.entries) == 4
        # Oldest entries evicted first.
        assert cache.get(("k", 0)) is None
        assert cache.get(("k", 9)) is not None

    def test_double_finish_cannot_grow_cached_trace(self):
        system = run_lock_workload(2)
        lock = system.kernel.component("lock")
        trace = next(iter(lock._trace_cache.entries.values()))
        before = len(trace.ops)
        lock.finish(trace, retval=0)  # legacy call pattern on a cache hit
        assert len(trace.ops) == before


class TestStubTrackingTraceCache:
    def test_tracking_traces_are_reused(self):
        system = run_lock_workload(10)
        reused = False
        for stub in system.kernel._stubs.values():
            cache = getattr(stub, "_track_traces", None)
            # Each tracked op looks its trace up: fewer entries than
            # tracked ops means some lookups hit.
            if cache is not None and (
                len(cache.entries) < stub.stats["tracked_ops"]
            ):
                reused = True
        assert reused


class TestDeterminism:
    """Campaign outcomes are invariant under both engine tiers.

    The seed fixes the injection schedule; the cache and the compiled
    fast path must not move a single outcome.  This is the engine-level
    version of the acceptance criterion that full ``table2`` rows stay
    bit-identical.
    """

    def _campaign_counts(self):
        result = CampaignRunner("lock", n_faults=8, seed=3).run(workers=1)
        return {o.value: c for o, c in result.counter.counts.items()}

    def test_outcomes_identical_with_engine_disabled(self, monkeypatch, engine):
        with_engine = self._campaign_counts()
        # Tier 1 off: every lookup misses, so every call rebuilds.
        monkeypatch.setattr(TraceCache, "get", lambda self, key: None)
        engine(fast_interp=False)
        without_engine = self._campaign_counts()
        assert with_engine == without_engine
        assert sum(with_engine.values()) == 8
