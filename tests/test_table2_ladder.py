"""Table II snapshot ladders: pooled runs start at their injection rung.

Every run of a Table II spec is clean up to its injection point.  A
pooled run restores the last rung of the spec's ladder at or before
that point, sealed once a step that raises the target's
SWIFI-eligible count began, instead of executing the prefix; unpooled
(``REPRO_SYSTEM_POOL=0``) runs still start from boot and are the
reference.  These tests check that rung-started runs equal runs from
boot, that the micro-benchmark thread bodies (resumable objects with
explicit fields) behave exactly like the generator bodies they
replaced, that restores across the rungs of different ladders keep the
one restore rule under ``REPRO_POOL_DEBUG=1``, that the debug diff
names a rung that leaves part of a root out, and that rungs stay small.
"""

import json
import random

import pytest

from repro.composite.memory import PAGE_WORDS, MemoryImage
from repro.composite.thread import Invoke, Yield
from repro.config import override
from repro.errors import ReproError
from repro.idl_specs import SERVICES
from repro.swifi import campaign as swifi_campaign
from repro.swifi.campaign import (
    LADDER_KEYS,
    CampaignRunner,
    _drive_run,
    execute_run,
    injection_point,
    write_table2_json,
)
from repro.swifi.injector import SwifiController
from repro.system import (
    ENGINE_STATS,
    GLOBAL_POOL,
    build_system,
    system_fingerprint,
)
from repro.workloads import WORKLOADS, RunHandle
from repro.workloads.microbench import MMWorkload, TimerWorkload


def _spec(service, ft_mode="superglue", fault_class="reg", n_faults=8):
    runner = CampaignRunner(
        service, ft_mode=ft_mode, n_faults=n_faults, seed=1,
        fault_class=fault_class,
    )
    return runner.spec(), runner.run_seeds()


#: Fingerprint keys of the engine counters warm caches move.
_ENGINE_KEYS = tuple(f"kernel.stats[{name!r}]" for name in ENGINE_STATS)


def _end_state(system, swifi, steps):
    """A finished run as everything it left behind: the system's
    fingerprint but the engine counters, the controller and the steps."""
    state = {
        key: value for key, value in system_fingerprint(system).items()
        if key not in _ENGINE_KEYS
    }
    state["swifi"] = (
        repr(swifi.delivered), swifi.trace_counts, swifi.invoke_counts,
    )
    state["steps"] = steps
    return state


class TestRungRows:
    """Runs started at a rung end exactly where runs from boot end."""

    @pytest.mark.parametrize("ft_mode", ["superglue", "c3"])
    @pytest.mark.parametrize("fault_class", ["reg", "mem", "idl", "burst"])
    def test_rung_runs_match_from_boot(self, fault_class, ft_mode):
        for service in SERVICES:
            spec, seeds = _spec(service, ft_mode, fault_class)
            ends = {}
            for pooled in (False, True):
                with override(system_pool=pooled):
                    ends[pooled] = [
                        (outcome, _end_state(system, swifi, steps))
                        for outcome, system, swifi, steps, __ in (
                            _drive_run(spec, seed) for seed in seeds
                        )
                    ]
            assert ends[True] == ends[False], service
            ladder = swifi_campaign._campaign_recording(spec)
            assert ladder is not None and ladder.eligible[0] == 0
            assert len(ladder.rungs) <= spec.horizon


def _outcomes(spec, seeds, counters=None):
    """Each run's outcome and steps (counted from boot)."""
    return [
        (outcome, steps) for outcome, __, __, steps, __ in (
            _drive_run(spec, seed, counters=counters) for seed in seeds
        )
    ]


class TestStartsFromBoot:
    """Runs that get no ladder start from boot and end as rung-started
    runs do."""

    @pytest.mark.parametrize(
        "gate", [{"system_pool": False}, {"trace": True}],
        ids=["unpooled", "traced"],
    )
    def test_gated_runs_start_from_boot(self, engine, gate):
        # Unpooled and traced runs are the reference: no ladder is
        # built for them and none of them restores a rung.
        spec, seeds = _spec("event", fault_class="idl")
        counters = {}
        rung_started = _outcomes(spec, seeds, counters)
        assert counters["rung_restores"] == len(seeds)
        engine(**gate)
        assert swifi_campaign.warm_up(spec) is None
        assert swifi_campaign._campaign_recording(spec) is None
        counters = {}
        assert _outcomes(spec, seeds, counters) == rung_started
        assert counters == {}

    def test_pooled_boot_start_matches_rung_start(self):
        # The throughput benchmark's from-boot sweep: pooled runs that
        # install the workload on snapshot zero and run the whole clean
        # prefix end exactly as the runs started at a rung.
        for fault_class in ("reg", "mem", "idl", "burst"):
            spec, seeds = _spec("ramfs", "c3", fault_class)
            snapshot, ladder = swifi_campaign.warm_up(spec)
            ends = [
                [
                    (outcome, _end_state(system, swifi, steps))
                    for outcome, system, swifi, steps, __ in (
                        _drive_run(spec, seed, start=start)
                        for seed in seeds
                    )
                ]
                for start in ((snapshot, None), (snapshot, ladder))
            ]
            assert ends[0] == ends[1], fault_class

    def test_spec_without_ladder_starts_from_boot(self, monkeypatch):
        # A clean pass that exhausts its step budget seals no ladder;
        # the spec keeps None (built once) and its pooled runs start
        # from boot on the pooled system, ending as unpooled runs do.
        built = []
        build = swifi_campaign._build_ladder

        def counted(spec, snapshot):
            built.append(spec)
            return build(spec, snapshot)

        spec, seeds = _spec("lock")  # calibrated under the full budget
        monkeypatch.setattr(swifi_campaign, "_build_ladder", counted)
        monkeypatch.setattr(swifi_campaign, "MAX_STEPS", 30)
        GLOBAL_POOL.clear()  # build the ladder afresh, under the budget
        try:
            with override(system_pool=False):
                from_boot = _outcomes(spec, seeds)
            counters = {}
            assert _outcomes(spec, seeds, counters) == from_boot
            assert swifi_campaign._campaign_recording(spec) is None
            assert built == [spec] and counters == {}
            assert {steps for __, steps in from_boot} == {30}
        finally:
            GLOBAL_POOL.clear()  # drop the budget-bound snapshot


class TestWarmPasses:
    def test_back_to_back_passes_identical(self):
        # The first pass builds each ladder, the second reuses it: runs
        # never change sealed state, so both passes end the same and
        # count the same ladder work.
        GLOBAL_POOL.clear()
        for fault_class in ("reg", "mem", "idl", "burst"):
            spec, seeds = _spec("lock", fault_class=fault_class, n_faults=15)
            passes = []
            for __ in range(2):
                counters = {}
                passes.append((_outcomes(spec, seeds, counters), counters))
            assert passes[1] == passes[0], fault_class
            assert passes[0][1]["rung_restores"] == len(seeds)

    def test_faulted_runs_restore_rungs_clean(self, engine):
        # Every rung restore after a faulted run (reboots, recovery,
        # taint) is diffed against a fresh build driven through the
        # rung's prefix, over two passes of the same seeds.
        engine(pool_debug=True)
        for service, ft_mode, fault_class in (
            ("ramfs", "superglue", "burst"),
            ("mm", "c3", "mem"),
            ("timer", "superglue", "idl"),
        ):
            spec, seeds = _spec(service, ft_mode, fault_class, n_faults=6)
            counters = {}
            for seed in seeds * 2:  # raises ReproError on a difference
                _drive_run(spec, seed, counters=counters)
            assert counters["rung_restores"] == 2 * len(seeds)


class TestRestoreRule:
    def test_shuffled_rungs_of_two_ladders_restore_clean(self, engine):
        # Every restore is diffed against a fresh build driven through
        # the rung's prefix, whatever snapshot the system came from: a
        # rung of the other ladder, snapshot zero, or a rung a faulted
        # run then moved on from.
        engine(pool_debug=True)
        GLOBAL_POOL.clear()
        specs = [_spec("lock")[0], _spec("event", fault_class="idl")[0]]
        zero = swifi_campaign.warm_up(specs[0])[0]
        rungs = [
            rung.snapshot for spec in specs
            for rung in swifi_campaign._campaign_recording(spec).rungs
        ]
        order = rungs + [zero]
        random.Random(5).shuffle(order)
        for index, snapshot in enumerate(order):
            system = GLOBAL_POOL.acquire(at=snapshot)
            if index % 2:
                system.run(max_steps=7)
        # Each rung shares every group its prefix left untouched since
        # the rung before it, and seals the others afresh.
        for spec in specs:
            ladder = swifi_campaign._campaign_recording(spec)
            for earlier, later in zip(ladder.rungs, ladder.rungs[1:]):
                shared = [
                    before is after for before, after in zip(
                        earlier.snapshot._groups, later.snapshot._groups
                    )
                ]
                assert any(shared) and not all(shared)

    def test_rung_missing_state_is_named(self, engine):
        # A rung that leaves the handle's results or a body field out
        # restores them from the previous run: the debug diff against a
        # fresh build driven through the rung's prefix names them.
        engine(pool_debug=True)
        spec, seeds = _spec("lock")
        ladder = swifi_campaign._campaign_recording(spec)
        rung = ladder.rungs[-1].snapshot
        handle = rung.roots[0]
        assert isinstance(handle, RunHandle) and handle.results
        holder = next(
            thread
            for thread in GLOBAL_POOL.acquire(at=rung).kernel.threads.values()
            if thread.name == "holder"
        )
        for root, attr, named in (
            (handle, "results", r"RunHandle\.results"),
            (holder.body, "round", r"thread\[\d+\]\.body\.round"),
        ):
            for seed in seeds:
                execute_run(spec, seed)  # the runs move both
            sealed = rung.state[root].pop(attr)
            try:
                with pytest.raises(ReproError, match=named):
                    GLOBAL_POOL.acquire(at=rung)
            finally:
                rung.state[root][attr] = sealed
            GLOBAL_POOL.acquire(at=rung)


class TestLadderCounts:
    def test_rung_counts_match_a_prefix_from_boot(self):
        # A rung holds what its prefix gave a SWIFI controller: a fresh
        # build run through the same steps with a never-armed
        # controller counts the same, and stopping there leaves no
        # exhausted-budget mark.  Event waits make the c3 ladder's
        # steps start with a woken thread's stub tracking.
        for spec in (_spec("lock")[0], _spec("event", "c3", "idl")[0]):
            ladder = swifi_campaign._campaign_recording(spec)
            steps = [rung.snapshot.steps for rung in ladder.rungs]
            assert steps == sorted(set(steps))
            assert list(ladder.eligible) == sorted(set(ladder.eligible))
            for rung in ladder.rungs:
                system = build_system(
                    ft_mode=spec.ft_mode, recovery_mode=spec.recovery_mode
                )
                swifi = SwifiController(system.kernel, seed=0)
                swifi_campaign._ladder_prefix(
                    spec, rung.snapshot.steps, system
                )
                assert swifi.trace_counts == rung.trace_counts
                assert swifi.invoke_counts == rung.invoke_counts
                assert system.kernel.stats["budget_exhausted"] == 0
                # The prefix began the rung's step: its thread is
                # picked and a woken thread's stub tracking has run, so
                # a run started there does not repeat that tracking.
                resume = system.kernel.resume
                assert resume is not None and (
                    resume.pending is None or resume.pending[0] != "unblock"
                )
            # Each injection point starts at the last rung at or before it.
            for point in range(spec.horizon):
                index = ladder.rungs.index(ladder.rung_for(point))
                assert ladder.eligible[index] <= point
                assert (
                    index + 1 == len(ladder.rungs)
                    or ladder.eligible[index + 1] > point
                )

    def test_sidecar_counts_ladder_work(self, engine, tmp_path):
        # The timing sidecar carries the ladder's work counts; the main
        # artifact, invariant to pooling, does not.
        runner = CampaignRunner("lock", n_faults=6, seed=1)
        spec = runner.spec()
        ladder = swifi_campaign._campaign_recording(spec)
        skipped = sum(
            ladder.rung_for(injection_point(seed, spec.horizon)).snapshot.steps
            for seed in runner.run_seeds()
        )
        result = runner.run(workers=1)
        assert result.ladder == {
            "rungs": len(ladder.rungs), "rung_restores": 6,
            "prefix_steps_skipped": skipped,
        }
        path = str(tmp_path / "table2.json")
        write_table2_json([result], path)
        with open(path + ".timing.json", encoding="utf-8") as handle:
            assert json.load(handle)[0]["ladder"] == result.ladder
        with open(path, encoding="utf-8") as handle:
            row = json.load(handle)[0]
        engine(system_pool=False)
        unpooled = runner.run(workers=1)
        assert unpooled.ladder == dict.fromkeys(LADDER_KEYS, 0)
        assert unpooled.row() == row


class TestSmallRungs:
    def test_seal_stores_only_dirty_pages(self):
        image = MemoryImage(0x0100_0000)
        image.freeze_good_image()
        assert image.seal() is None
        image.write_word(image.base + 3 * PAGE_WORDS + 5, 0xAB)
        image.write_word(image.base + 9 * PAGE_WORDS, 0xCD, tainted=True)
        sealed = image.seal()
        assert sorted(sealed[0]) == [3, 9]
        assert sealed[0][3][1] is None and sealed[0][9][1] is not None
        words = image.words[:]
        image.write_word(image.base + 20 * PAGE_WORDS, 1)
        image.write_word(image.base + 3 * PAGE_WORDS + 5, 0)
        assert image.restore(sealed) == 3
        assert image.words == words and image.taint_count == 1
        assert image.dirty_page_indices() == [3, 9]
        # Every rung of a ladder keeps only its images' dirty pages.
        spec = _spec("ramfs")[0]
        for rung in swifi_campaign._campaign_recording(spec).rungs:
            for __, __, image, sealed, __ in rung.snapshot._groups:
                if sealed is not None:
                    pages, __, dirty, __, __ = sealed
                    assert sorted(pages) == [
                        page for page, bit in enumerate(dirty) if bit
                    ] and len(pages) < len(dirty)

    def test_seal_shares_pages_with_earlier_seal(self):
        # A page equal to its copy in an earlier seal shares that copy;
        # either seal still restores its own image.
        image = MemoryImage(0x0100_0000)
        image.freeze_good_image()
        image.write_word(image.base + 3 * PAGE_WORDS, 0xAB)
        image.write_word(image.base + 9 * PAGE_WORDS, 0xCD)
        first = image.seal()
        image.write_word(image.base + 9 * PAGE_WORDS + 1, 0xEF)
        second = image.seal(first)
        assert second[0][3] is first[0][3]
        assert second[0][9] is not first[0][9]
        words = image.words[:]
        image.restore(first)
        assert image.read_word(image.base + 9 * PAGE_WORDS + 1) == 0
        image.restore(second)
        assert image.words == words
        # Along a ladder, each rung shares every unchanged page with
        # the rung before it.
        spec = _spec("ramfs")[0]
        rungs = swifi_campaign._campaign_recording(spec).rungs
        shared = 0
        for earlier, later in zip(rungs, rungs[1:]):
            for before, after in zip(
                earlier.snapshot._groups, later.snapshot._groups
            ):
                if before[3] is None or after[3] is None:
                    continue
                for page, copy in after[3][0].items():
                    if before[3][0].get(page) == copy:
                        assert before[3][0][page] is copy
                        shared += 1
        assert shared


# ---------------------------------------------------------------------------
# The generator bodies the resumable objects replaced, verbatim but for
# taking the results dict and iteration count as arguments: the
# reference.
# ---------------------------------------------------------------------------

def _ref_ping(results, iterations):
    tid_a = yield Invoke("sched", "sched_register", "app0")
    results["tid_a"] = tid_a
    while "tid_b" not in results:
        yield Yield()
    tid_b = results["tid_b"]
    for __ in range(iterations):
        yield Invoke("sched", "sched_wakeup", "app0", tid_b)
        yield Invoke("sched", "sched_blk", "app0", tid_a)
        results["pings"] = results.get("pings", 0) + 1


def _ref_pong(results, iterations):
    tid_b = yield Invoke("sched", "sched_register", "app0")
    results["tid_b"] = tid_b
    while "tid_a" not in results:
        yield Yield()
    tid_a = results["tid_a"]
    for __ in range(iterations):
        yield Invoke("sched", "sched_blk", "app0", tid_b)
        yield Invoke("sched", "sched_wakeup", "app0", tid_a)
        results["pongs"] = results.get("pongs", 0) + 1


def _ref_mm(results, iterations):
    done = 0
    for i in range(iterations):
        va = MMWorkload.BASE_VA + i * MMWorkload.PAGE
        dst = MMWorkload.ALIAS_VA + i * MMWorkload.PAGE
        got = yield Invoke("mm", "mman_get_page", "app0", va)
        if got != va:
            results["error"] = f"get_page returned {got:#x}"
            return
        aliased = yield Invoke(
            "mm", "mman_alias_page", "app0", va, "app1", dst
        )
        if aliased != dst:
            results["error"] = f"alias_page returned {aliased:#x}"
            return
        released = yield Invoke("mm", "mman_release_page", "app0", va)
        if released != 0:
            results["error"] = f"release_page returned {released}"
            return
        done += 1
        results["rounds"] = done


def _ref_fs(results, iterations):
    done = 0
    for i in range(iterations):
        fd = yield Invoke("ramfs", "tsplit", "app0", 1, f"bench{i}.dat")
        payload = bytes([0x41 + (i % 26)])
        wrote = yield Invoke("ramfs", "twrite", "app0", fd, payload)
        if wrote != 1:
            results["error"] = f"twrite returned {wrote}"
            return
        yield Invoke("ramfs", "tseek", "app0", fd, 0)
        data = yield Invoke("ramfs", "tread", "app0", fd, 1)
        if data != payload:
            results["error"] = f"tread returned {data!r} != {payload!r}"
            return
        closed = yield Invoke("ramfs", "trelease", "app0", fd)
        if closed != 0:
            results["error"] = f"trelease returned {closed}"
            return
        done += 1
        results["rounds"] = done


def _ref_holder(results, iterations):
    lid = yield Invoke("lock", "lock_alloc", "app0")
    results["lid"] = lid
    for __ in range(iterations):
        taken = yield Invoke("lock", "lock_take", "app0", lid)
        if taken != 0:
            results["error"] = f"holder take returned {taken}"
            return
        yield Yield()
        yield Yield()
        released = yield Invoke("lock", "lock_release", "app0", lid)
        if released != 0:
            results["error"] = f"holder release returned {released}"
            return
        results["held"] = results.get("held", 0) + 1
        yield Yield()
        yield Yield()


def _ref_contender(results, iterations):
    while "lid" not in results:
        yield Yield()
    lid = results["lid"]
    for __ in range(iterations):
        taken = yield Invoke("lock", "lock_take", "app0", lid)
        if taken != 0:
            results["error"] = f"contender take returned {taken}"
            return
        released = yield Invoke("lock", "lock_release", "app0", lid)
        if released != 0:
            results["error"] = f"contender release returned {released}"
            return
        results["contended"] = results.get("contended", 0) + 1


def _ref_waiter(results, iterations):
    evtid = yield Invoke("event", "evt_split", "app0", 0, 1)
    results["evtid"] = evtid
    for __ in range(iterations):
        waited = yield Invoke("event", "evt_wait", "app0", evtid)
        if waited != 0:
            results["error"] = f"evt_wait returned {waited}"
            return
        results["waits"] = results.get("waits", 0) + 1
    yield Invoke("event", "evt_free", "app0", evtid)
    results["freed"] = True


def _ref_trigger(results, iterations):
    while "evtid" not in results:
        yield Yield()
    evtid = results["evtid"]
    for __ in range(iterations):
        triggered = yield Invoke("event", "evt_trigger", "app1", evtid)
        if triggered != 0:
            results["error"] = f"evt_trigger returned {triggered}"
            return
        results["triggers"] = results.get("triggers", 0) + 1
        yield Yield()


def _ref_timer(results, iterations):
    tmid = yield Invoke("timer", "timer_alloc", "app0", TimerWorkload.PERIOD)
    results["tmid"] = tmid
    for __ in range(iterations):
        blocked = yield Invoke("timer", "timer_block", "app0", tmid)
        if blocked != 0:
            results["error"] = f"timer_block returned {blocked}"
            return
        results["wakes"] = results.get("wakes", 0) + 1
    yield Invoke("timer", "timer_free", "app0", tmid)
    results["freed"] = True


#: Workload -> ``(thread name, reference, key a partner thread adds)``.
_REFERENCES = {
    "sched": (("ping", _ref_ping, "tid_b"), ("pong", _ref_pong, "tid_a")),
    "mm": (("mm-user", _ref_mm, None),),
    "fs": (("fs-user", _ref_fs, None),),
    "lock": (("holder", _ref_holder, None),
             ("contender", _ref_contender, "lid")),
    "event": (("evt-wait", _ref_waiter, None),
              ("evt-trig", _ref_trigger, "evtid")),
    "timer": (("periodic", _ref_timer, None),),
}

#: Replies that pass every check; any other invocation replies 0.
_GOOD = {
    "sched_register": lambda args: 7,
    "mman_get_page": lambda args: args[1],
    "mman_alias_page": lambda args: args[3],
    "tsplit": lambda args: 5,
    "twrite": lambda args: 1,
    "lock_alloc": lambda args: 3,
    "evt_split": lambda args: 4,
    "timer_alloc": lambda args: 2,
}


class _Threads:
    """What a workload's ``_spawn`` reaches: the thread factories."""

    def __init__(self):
        self.kernel = self
        self.factories = {}

    def create_thread(self, name, prio, home, body_factory):
        self.factories[name] = body_factory


def _drive(body, results, arrives, fail_at):
    """Feed ``body`` scripted replies, failing the reply to step
    ``fail_at``; the partner's key arrives at step 3.  Logs each action
    with the results after it, and how the body ended."""
    log = []
    reply = None
    written = None
    for step in range(100):
        if step == 3 and arrives is not None:
            results.setdefault(arrives, 8)
        try:
            action = body.send(reply)
        except StopIteration:
            log.append(("done", step, dict(results)))
            return log
        except (TypeError, ValueError) as exc:
            log.append((type(exc).__name__, step, dict(results)))
            return log
        if isinstance(action, Invoke):
            log.append((action.server, action.fn, action.args, dict(results)))
            if action.fn == "twrite":
                written = action.args[2]
            if step == fail_at:
                reply = b"?" if action.fn == "tread" else 0x99
            elif action.fn == "tread":
                reply = written
            else:
                reply = _GOOD.get(action.fn, lambda args: 0)(action.args)
        else:
            log.append((type(action).__name__, dict(results)))
            reply = None
    raise AssertionError("a body did not finish")


class TestBodies:
    @pytest.mark.parametrize("workload", sorted(_REFERENCES))
    def test_bodies_match_generator_references(self, workload):
        for iterations in (0, 1, 3):
            # One clean script, then one failing the reply to each step.
            for fail_at in (None, *range(30)):
                threads = _Threads()
                handle = RunHandle(WORKLOADS[workload], threads, iterations)
                WORKLOADS[workload]._spawn(threads, handle)
                for name, reference, arrives in _REFERENCES[workload]:
                    handle.results.clear()
                    body = threads.factories[name](threads, None)
                    log = _drive(body, handle.results, arrives, fail_at)
                    results = {}
                    expected = _drive(
                        reference(results, iterations), results, arrives,
                        fail_at,
                    )
                    assert log == expected, (name, iterations, fail_at)
