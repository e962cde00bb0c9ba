"""System pooling: seal once per process, dirty-restore per run.

The correctness bar for the pool is absolute: a restored system must be
*structurally indistinguishable* from a fresh ``build_system`` — same
image bytes, same allocator positions, same kernel counters, same stub
tables — because campaign outcomes are classified from exactly that
state.  These tests drive real faulty runs through pooled systems and
verify both the structural invariant and outcome bit-identity.
"""

import pytest

from repro.composite.memory import PAGE_WORDS
from repro.config import CONFIG, EngineConfig, override
from repro.swifi.campaign import (
    CampaignRunner,
    _campaign_system,
    execute_run,
)
from repro.system import (
    DEFAULT_APPS,
    GLOBAL_POOL,
    SystemPool,
    SystemSnapshot,
    build_system,
    system_fingerprint,
    system_snapshot,
)
from repro.errors import ReproError
from repro.webserver.campaign import WebRunSpec, _web_recording


def _lock_spec(seed=3, iterations=4):
    runner = CampaignRunner("lock", n_faults=0, seed=seed,
                            iterations=iterations)
    return runner.spec()


class TestRestoreEqualsFresh:
    @pytest.mark.parametrize("ft_mode", ["superglue", "c3", "none"])
    def test_clean_restore_matches_fresh_build(self, ft_mode):
        snapshot = SystemSnapshot(build_system(ft_mode))
        snapshot.restore()
        assert snapshot.diff_against_fresh() == []

    def test_restore_after_faulty_runs_matches_fresh(self):
        spec = _lock_spec()
        from repro.swifi.injector import SwifiController
        from repro.workloads import workload_for

        # Also with a service and a client stub that carry an attribute
        # no declaration names: the state model covers it everywhere.
        for prepare in (None, _count_lock_calls):
            system = build_system(spec.ft_mode,
                                  recovery_mode=spec.recovery_mode)
            if prepare is not None:
                prepare(system)
            snapshot = SystemSnapshot(system, prepare=prepare)
            # Dirty the system with real injection runs, then restore.
            for run_seed in (11, 12, 13):
                swifi = SwifiController(system.kernel, seed=run_seed)
                workload_for("lock").install(system, iterations=4)
                swifi.arm("lock", after_executions=run_seed % spec.horizon)
                try:
                    system.run(max_steps=60_000)
                except Exception:
                    pass
                if prepare is not None:
                    kernel = system.kernel
                    fingerprint = system_fingerprint(system)
                    for root, path in (
                        (kernel.components["lock"], "lock.calls["),
                        (kernel._stubs[("app0", "lock")],
                         "stub[app0->lock].calls["),
                    ):
                        assert root.calls
                        assert any(k.startswith(path) for k in fingerprint)
                snapshot.restore()
            assert snapshot.diff_against_fresh() == []

        # A declared name the instance does not carry, and a value the
        # snapshot cannot copy, both raise at seal.
        system = build_system("superglue")
        lock = system.kernel.component("lock")
        lock.__class__ = type(
            "Declares", (type(lock),), {"STATE_WARM": ("_absent",)}
        )
        with pytest.raises(ReproError, match="_absent"):
            SystemSnapshot(system)
        system = build_system("superglue")
        system.kernel.component("lock").cursor = iter(())
        with pytest.raises(ReproError, match="cursor"):
            SystemSnapshot(system)

    def test_fingerprint_detects_divergence(self):
        # The debug diff must actually have teeth: rig the sealed system
        # and check the fingerprint comparison catches it.
        snapshot = SystemSnapshot(build_system("superglue"))
        snapshot.restore()
        snapshot.system.kernel.stats["invocations"] = 999
        diffs = snapshot.diff_against_fresh()
        assert any("invocations" in d for d in diffs)
        # A dirty page whose words are unchanged (a write that put the
        # word back): mem-class flips draw from the dirty pages.
        snapshot.restore()
        image = snapshot.system.kernel.component("lock").image
        addr = image.base + 3 * PAGE_WORDS
        image.write_word(addr, image.read_word(addr))
        assert snapshot.diff_against_fresh() == [
            "lock.image.dirty: pooled='3' fresh=''"
        ]
        # A register flip in a thread that a mid-run snapshot restored
        # (Fig. 7's first-arm snapshot), compared with a fresh build
        # driven through the same prefix.
        snapshot = _web_recording(WebRunSpec(n_requests=40, n_faults=2))
        system = GLOBAL_POOL.acquire(at=snapshot)
        thread = system.kernel.threads[2]
        thread.regs.flip_bit(0, 5)
        assert snapshot.diff_against_fresh() == [
            "thread[2].regs.taint[0]: pooled=True fresh=False",
            f"thread[2].regs.values[0]: pooled={thread.regs.values[0]!r} "
            f"fresh={thread.regs.values[0] ^ 32!r}",
        ]

    def test_pool_debug_mode_raises_on_divergence(self, engine):
        from repro.workloads import workload_for

        engine(pool_debug=True)
        key = ("superglue", DEFAULT_APPS, "ondemand", None, None)
        pool = SystemPool()
        system = pool.acquire(ft_mode="superglue")
        # First acquire builds; poison durable state that a restore will
        # not repair (the snapshot's sealed storage copy), touch storage
        # so the restore copies it back, then re-acquire.
        storage = system.kernel.component("storage")
        pool._snapshots[key].state[storage]["_data"][("rigged", "key")] = 1
        storage._ran = True
        with pytest.raises(ReproError, match="diverged"):
            pool.acquire(ft_mode="superglue")
        # Debug checks the production restore, skips included: a run
        # stores global-descriptor creators, and with storage's touched
        # flag cleared the restore skips it, which the diff must name.
        pool = SystemPool()
        system = pool.acquire(ft_mode="superglue")
        workload_for("event").install(system, iterations=2)
        system.run(max_steps=60_000)
        storage = system.kernel.component("storage")
        assert storage._data
        storage._ran = False
        with pytest.raises(ReproError, match=r"storage\._data"):
            pool.acquire(ft_mode="superglue")


def _count_lock_calls(system) -> None:
    """Give the lock service and its client stubs a ``calls`` dict that
    every entry mutates, an attribute no state declaration names."""

    def dispatch(self, fn, thread, args):
        self.calls[fn] = self.calls.get(fn, 0) + 1
        return type(self).__mro__[1].dispatch(self, fn, thread, args)

    def invoke(self, kernel, thread, fn, args):
        self.calls[fn] = self.calls.get(fn, 0) + 1
        return type(self).__mro__[1].invoke(self, kernel, thread, fn, args)

    lock = system.kernel.component("lock")
    lock.__class__ = type("CountingLock", (type(lock),), {"dispatch": dispatch})
    lock.calls = {}
    for (__, server), stub in system.client_stubs.items():
        if server == "lock":
            stub.__class__ = type(
                "CountingStub", (type(stub),), {"invoke": invoke}
            )
            stub.calls = {}


class TestDirtyUnderFaults:
    def test_taint_always_on_dirty_pages(self):
        # Under injected runs, every tainted word must lie on a dirty
        # page — that is what makes the O(dirty) restore provably clear
        # all corruption.
        spec = _lock_spec()
        pool = SystemPool()
        system = pool.acquire(ft_mode=spec.ft_mode,
                              recovery_mode=spec.recovery_mode)
        from repro.swifi.injector import SwifiController
        from repro.workloads import workload_for

        swifi = SwifiController(system.kernel, seed=5)
        workload_for("lock").install(system, iterations=4)
        swifi.arm("lock", after_executions=2)
        try:
            system.run(max_steps=60_000)
        except Exception:
            pass
        checked_words = 0
        for component in system.kernel.components.values():
            image = component.image
            for index, bit in enumerate(image._taint):
                if bit:
                    assert image.is_page_dirty(index)
                    checked_words += 1
            # A run writes a tiny fraction of each 16K-word image.
            assert image.dirty_page_count < len(image._dirty)

    def test_restore_cost_tracks_dirtiness(self):
        system = build_system("superglue")
        snapshot = system_snapshot(system)
        for name in ("lock", "ramfs"):
            image = system.kernel.component(name).image
            image.write_word(image.base + 40, 7)
            # Only the page we wrote comes back, not the whole 64-page
            # image, and the image is left exactly as sealed: no page
            # stays dirty (ramfs's boot-time root record included).
            assert snapshot.restore() is system
            assert image.dirty_page_count == 0
            assert image.is_pristine()


class TestPoolGate:
    def test_pooling_enabled_by_default(self):
        assert EngineConfig.from_env({}).system_pool is True
        assert CONFIG.system_pool is True
        system = _campaign_system("superglue", "ondemand")
        assert system is GLOBAL_POOL.snapshot_for(
            ft_mode="superglue", recovery_mode="ondemand"
        ).system

    def test_gate_disables_pooling(self, engine):
        engine(system_pool=False)
        spec = _lock_spec()
        a = _campaign_system(spec.ft_mode, spec.recovery_mode)
        b = _campaign_system(spec.ft_mode, spec.recovery_mode)
        assert a is not b

    def test_pooled_systems_are_reused(self):
        before = GLOBAL_POOL.stats["restores"]
        a = _campaign_system("superglue", "ondemand")
        b = _campaign_system("superglue", "ondemand")
        assert a is b
        assert GLOBAL_POOL.stats["restores"] > before

    def test_traced_runs_bypass_pool(self):
        # Warm trace caches change cache-hit counters that traced runs
        # fold into their per-run metrics; trace artifacts must stay
        # byte-identical serial vs parallel, so tracing forces a fresh
        # build.
        pooled = _campaign_system("superglue", "ondemand")
        with override(trace=True):
            traced = _campaign_system("superglue", "ondemand")
        assert traced is not pooled


class TestOutcomeInvariance:
    def test_pooled_matches_fresh_over_100_run_sweep(self):
        spec = _lock_spec(seed=3)
        seeds = [3 * 1_000_003 + i for i in range(100)]
        with override(system_pool=False):
            fresh = [execute_run(spec, s) for s in seeds]
        pooled = [execute_run(spec, s) for s in seeds]
        assert pooled == fresh
        # The sweep must exercise more than one outcome class for the
        # comparison to mean anything.
        assert len(set(fresh)) > 1
