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
    warm_up,
)
from repro.idl_specs import SERVICES
from repro.system import (
    GLOBAL_POOL,
    SystemPool,
    SystemSnapshot,
    _flatten,
    build_system,
    system_fingerprint,
)
from repro.errors import ReproError
from repro.swifi.parallel import run_seeded
from repro.webserver.campaign import (
    WebRunSpec,
    _install,
    _web_recording,
    _web_run,
    _web_warm_up,
    execute_web_run,
    prepare_webserver,
    web_run_seeds,
)
from repro.workloads import workload_for


def _lock_spec(seed=3, iterations=4):
    runner = CampaignRunner("lock", n_faults=0, seed=seed,
                            iterations=iterations)
    return runner.spec()


#: Fig. 7's closed and open installs, by test id.
_WEB_SPECS = {
    "fig7-closed": WebRunSpec(n_requests=40),
    "fig7-open": WebRunSpec(n_requests=40, arrivals="open", load=2.0,
                            phases="burst", slo_us=500),
}


class TestRestoreEqualsFresh:
    @pytest.mark.parametrize("ft_mode", ["superglue", "c3", "none"])
    def test_clean_restore_matches_fresh_build(self, ft_mode):
        snapshot = SystemSnapshot(build_system(ft_mode))
        snapshot.restore()
        assert snapshot.diff_against_fresh() == []

    def test_restore_after_faulty_runs_matches_fresh(self):
        spec = _lock_spec()
        from repro.swifi.injector import SwifiController

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

    @pytest.mark.parametrize("install", list(SERVICES) + list(_WEB_SPECS))
    def test_body_factories_make_new_bodies(self, install):
        # A snapshot seals a thread's body only once the thread started,
        # so every body factory must make a new body in its initial
        # state: one handing out the same object would start the next
        # run where the last one ended.  Sealed right after install, run
        # to the end and restored: the six Table II workloads, and
        # Fig. 7's closed and open installs.
        spec = _WEB_SPECS.get(install)
        if spec is None:
            system = build_system("superglue")
            roots = (workload_for(install).install(system, iterations=4),)
        else:
            system = build_system(spec.ft_mode,
                                  recovery_mode=spec.recovery_mode)
            prepare_webserver(system)
            roots = _install(spec, system)
        assert _unfit_body_factories(system, roots) == []

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
        # (the rung of a Fig. 7 ladder), compared with a fresh build
        # driven through the same prefix.
        ladder = _web_recording(WebRunSpec(n_requests=40, n_faults=2))
        snapshot = ladder.rungs[0].snapshot
        system = GLOBAL_POOL.acquire(at=snapshot)
        thread = system.kernel.threads[2]
        thread.regs.flip_bit(0, 5)
        assert snapshot.diff_against_fresh() == [
            "thread[2].regs.taint[0]: pooled=True fresh=False",
            f"thread[2].regs.values[0]: pooled={thread.regs.values[0]!r} "
            f"fresh={thread.regs.values[0] ^ 32!r}",
        ]

    def test_pool_debug_mode_raises_on_divergence(self, engine):
        engine(pool_debug=True)
        pool = SystemPool()
        system = pool.acquire(ft_mode="superglue")
        # First acquire builds; poison durable state that a restore will
        # not repair (the snapshot's sealed storage copy), touch storage
        # so the restore copies it back, then re-acquire.
        storage = system.kernel.component("storage")
        snapshot = pool.snapshot_for(ft_mode="superglue")
        snapshot.state[storage]["_data"][("rigged", "key")] = 1
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


def _body_state(body) -> dict:
    state = {}
    _flatten(body, "body", state)
    return state


def _unfit_body_factories(system, roots) -> list:
    """Seal ``system`` right after an install, run it to the end and
    restore it: the names of the unstarted threads whose body factory
    then returns an object it returned before, or a body whose state
    differs from the one it made before the run."""
    snapshot = SystemSnapshot(system, roots=roots)
    kernel = system.kernel
    made = {
        thread.tid: thread.body_factory(system, thread)
        for thread in kernel.threads.values()
    }
    initial = {tid: _body_state(body) for tid, body in made.items()}
    system.run(max_steps=60_000)
    assert kernel.crashed is None and not kernel.budget_exhausted
    snapshot.restore()
    unfit = []
    for thread in kernel.threads.values():
        if thread.body is not None:
            continue
        first = thread.body_factory(system, thread)
        second = thread.body_factory(system, thread)
        if (
            first is second
            or made[thread.tid] in (first, second)
            or _body_state(first) != initial[thread.tid]
        ):
            unfit.append(thread.name)
    return unfit


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
        snapshot = SystemSnapshot(system)
        for name in ("lock", "ramfs"):
            image = system.kernel.component(name).image
            image.write_word(image.base + 40, 7)
            # Only the page we wrote comes back, not the whole 64-page
            # image, and the image is left exactly as sealed: no page
            # stays dirty (ramfs's boot-time root record included).
            assert snapshot.restore() is system
            assert image.dirty_page_count == 0
            assert image.is_pristine()


class TestPoolKey:
    @pytest.mark.parametrize(
        "axis, value",
        [("ft_mode", "c3"), ("recovery_mode", "eager"),
         ("prepare", _count_lock_calls)],
        ids=["ft_mode", "recovery_mode", "prepare"],
    )
    def test_each_axis_keys_its_own_snapshot(self, axis, value):
        # The pool keys on the three values its callers pass: a request
        # that differs in one of them gets its own system, built with
        # that value, and a repeated request gets the same sealed
        # snapshot back without a rebuild.
        pool = SystemPool()
        base = pool.snapshot_for()
        other = pool.snapshot_for(**{axis: value})
        assert other is not base
        assert pool.snapshot_for(**{axis: value}) is other
        assert pool.snapshot_for() is base
        assert pool.stats["builds"] == 2
        assert pool.acquire(**{axis: value}) is other.system
        want = {"ft_mode": "superglue", "recovery_mode": "ondemand",
                "prepare": None, axis: value}
        ft_mode, recovery_mode = other.params
        assert (ft_mode, recovery_mode, other.prepare) == (
            want["ft_mode"], want["recovery_mode"], want["prepare"]
        )
        lock = other.system.kernel.component("lock")
        assert hasattr(lock, "calls") == (axis == "prepare")

    @pytest.mark.parametrize("kind", ["table2", "fig7"])
    def test_campaign_start_hangs_on_its_pool_snapshot(self, kind):
        # Table II starts on the plain pooled system, Fig. 7 on the one
        # the web server's prepare hook registered its components with;
        # each spec's ladder is built once, on that snapshot's system.
        if kind == "table2":
            spec = CampaignRunner("lock", n_faults=4, seed=1).spec()
            warm, prepare = warm_up, None
        else:
            spec = WebRunSpec(n_requests=40, n_faults=2)
            warm, prepare = _web_warm_up, prepare_webserver
        snapshot, ladder = warm(spec)
        assert snapshot is GLOBAL_POOL.snapshot_for(
            spec.ft_mode, spec.recovery_mode, prepare
        )
        assert ladder.rungs
        for rung in ladder.rungs:
            assert rung.snapshot.system is snapshot.system
        again = warm(spec)
        assert again[0] is snapshot and again[1] is ladder


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
        # byte-identical serial vs parallel, so a traced campaign runs
        # unpooled: on an empty pool it builds and restores nothing (no
        # ladder, no rung), its rows are the pooled runs' rows, and its
        # override ends with it.
        spec = WebRunSpec(n_requests=40, n_faults=2)
        seeds = web_run_seeds(1, 3)
        pooled = [execute_web_run(spec, seed) for seed in seeds]
        GLOBAL_POOL.clear()
        stats = dict(GLOBAL_POOL.stats)
        traced = run_seeded(
            _web_warm_up, _web_run, spec, seeds, workers=1, trace=True
        )
        assert GLOBAL_POOL.stats == stats
        assert traced.counters == {}
        assert [traced.results[seed] for seed in seeds] == pooled
        assert sorted(traced.records) == seeds
        assert CONFIG == EngineConfig()


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
