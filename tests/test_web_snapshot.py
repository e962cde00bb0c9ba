"""Fig. 7 snapshot ladders: pooled runs start where their first fault
would arm.

Every run of a Fig. 7 spec serves the same clean request stream until
the step whose ``on_served`` arms its first fault.  The spec's ladder
has one rung, sealed once that step began, and a pooled run restores it
instead of executing the prefix; fresh (``REPRO_SYSTEM_POOL=0``) runs
still start from boot and are the reference.  These tests check that
rung-started runs, and runs started at a random clean step, end as runs
from boot do, that a ladder costs one clean pass and a replay from its
last checkpoint, whose restore the debug diff checks, that the web
thread bodies (resumable objects with explicit fields) behave exactly
like the generator bodies they replaced, and that
``REPRO_POOL_DEBUG=1`` catches a rung that leaves part of a root out.
"""

import functools
import itertools
import random

import pytest

from repro.composite.component import export
from repro.composite.kernel import Kernel
from repro.composite.services.ramfs import RamFSService
from repro.composite.thread import Invoke, Sleep, Yield
from repro.config import override
from repro.errors import ReproError
from repro.observe import NULL_RECORDER
from repro.swifi.campaign import (
    CHECKPOINT_STRIDE,
    Ladder,
    Rung,
    _ladder_prefix,
)
from repro.system import (
    ENGINE_STATS,
    GLOBAL_POOL,
    SystemSnapshot,
    system_fingerprint,
)
from repro.webserver import campaign as web_campaign
from repro.webserver.arrivals import ArrivalSpec
from repro.webserver.components import ConnectionManagerComponent
from repro.webserver.campaign import WebRunSpec, execute_web_run, web_run_seeds
from repro.webserver.http import build_request, parse_request
from repro.webserver.loadgen import (
    LoadGenerator,
    OpenLoopGenerator,
    injection_gap,
)
from repro.webserver.server import (
    APP_CHUNK_CYCLES,
    APP_REQUEST_CYCLES,
    DEFAULT_SITE,
    HOUSEKEEPING_PERIOD,
    MM_RECYCLE_PERIOD,
    WebServer,
    _HousekeepingBody,
    _InitBody,
    _WorkerBody,
)
from repro.webserver.server import build_response as _build_response

#: The benchmark's open-loop shape at test size.
OPEN = dict(arrivals="open", load=2.0, phases="burst", slo_us=500)

#: Fingerprint keys of the engine counters warm caches move.
_ENGINE_KEYS = tuple(f"kernel.stats[{name!r}]" for name in ENGINE_STATS)


def _rows(spec, seeds, pool):
    with override(system_pool=pool):
        return [execute_web_run(spec, seed) for seed in seeds]


def _run(spec, seed, start, counters=None):
    """A run from ``start`` as everything it left behind: its row and
    the system's fingerprint, web server included, but the engine
    counters."""
    row, system = web_campaign._drive_web_run(spec, seed, start, counters)
    server = next(
        thread.body.server for thread in system.kernel.threads.values()
        if getattr(thread.body, "server", None) is not None
    )
    state = system_fingerprint(system, (server,))
    return row, {
        key: value for key, value in state.items()
        if key not in _ENGINE_KEYS
    }


class TestSnapshotRows:
    """Runs started at a rung, or at any clean step before it, end
    exactly where runs from boot end."""

    @pytest.mark.parametrize("arrivals", ["closed", "open"])
    @pytest.mark.parametrize("fault_class", ["reg", "mem", "idl", "burst"])
    def test_faulted_rows_match_from_boot(self, fault_class, arrivals):
        seeds = web_run_seeds(1, 3)
        for ft_mode in ("superglue", "c3"):
            # A budget far above any run's steps but far below the
            # default: a start that livelocks fails in seconds.
            spec = WebRunSpec(
                ft_mode=ft_mode, n_requests=120, n_faults=3,
                fault_class=fault_class, max_steps=20_000,
                **(OPEN if arrivals == "open" else {}),
            )
            with override(system_pool=False):
                boot = [_run(spec, seed, None) for seed in seeds]
            assert all(row["crashed"] != "exhausted" for row, __ in boot)
            zero, ladder = web_campaign._web_warm_up(spec)
            assert ladder.eligible == (0,)
            rung = ladder.rungs[0].snapshot
            assert [
                _run(spec, seed, (zero, ladder)) for seed in seeds
            ] == boot, ft_mode
            # Rows count steps from boot: the restored prefix included.
            assert all(row["steps"] > rung.steps for row, __ in boot)
            # A start sealed by the ladder's prefix function at a seeded
            # random clean step before the arming one: its restore equals
            # a fresh build driven through that prefix, and its runs end
            # as runs from boot do.
            steps = random.Random(spec.fingerprint()).randrange(rung.steps)
            prefix = functools.partial(
                _ladder_prefix, web_campaign._install, spec, steps
            )
            system = GLOBAL_POOL.acquire(at=zero)
            sealed = SystemSnapshot(
                system, prepare=zero.prepare, prefix=prefix,
                roots=prefix(system),
            )
            with override(pool_debug=True):
                GLOBAL_POOL.acquire(at=sealed)
            start = (zero, Ladder((Rung(sealed, 0),), (0,)))
            assert [_run(spec, seed, start) for seed in seeds] == boot, steps

    def test_fault_free_rows_match_from_boot(self, monkeypatch):
        # A fault-free spec arms nothing, so it builds no ladder and
        # runs no step looking for one: its pooled runs start from the
        # pooled snapshot, count no ladder work, and end as runs from
        # boot do.
        seeds = web_run_seeds(2, 2)
        for arrivals in ("closed", "open"):
            spec = WebRunSpec(
                n_requests=80, n_faults=0,
                **(OPEN if arrivals == "open" else {}),
            )
            with override(system_pool=False):
                boot = [_run(spec, seed, None) for seed in seeds]
            assert {row["outcome"] for row, __ in boot} == {"ok"}
            ran = []
            with monkeypatch.context() as patch:
                patch.setattr(Kernel, "run", lambda *a, **k: ran.append(a))
                start = web_campaign._web_warm_up(spec)
            assert start[1] is None and ran == [], arrivals
            counters = {}
            assert [
                _run(spec, seed, start, counters) for seed in seeds
            ] == boot, arrivals
            assert counters == {}


class TestSnapshotPoint:
    def test_sealed_before_the_first_arm(self, monkeypatch, engine):
        # The benchmark's fig7-open spec: its first arm fires in step
        # 1,537, so its one rung holds 1,536 steps and has begun the
        # next, with no exhausted budget mark although its prefix
        # stopped on a step budget.
        spec = WebRunSpec(
            n_requests=400, n_faults=3, arrival_seed=1, **OPEN
        )
        # One clean pass of the spec's 4,688 steps builds the ladder,
        # and its rung replays at most a stride from the last
        # checkpoint, not the prefix from boot.
        ran = []
        run = Kernel.run

        def counted(kernel, *args, **kwargs):
            ran.append(run(kernel, *args, **kwargs))
            return ran[-1]

        GLOBAL_POOL.clear()
        with monkeypatch.context() as patch:
            patch.setattr(Kernel, "run", counted)
            web_campaign._web_recording(spec)
        assert 4688 <= sum(ran) <= 4688 + CHECKPOINT_STRIDE
        # Built again under the debug gate, the ladder's restore of its
        # last checkpoint is diffed against a fresh build driven
        # through the checkpoint's prefix, as snapshot zero's is.
        diffed = []
        diff = SystemSnapshot.diff_against_fresh

        def noted(snapshot):
            diffed.append(snapshot.steps)
            return diff(snapshot)

        GLOBAL_POOL.clear()
        engine(pool_debug=True)
        with monkeypatch.context() as patch:
            patch.setattr(SystemSnapshot, "diff_against_fresh", noted)
            ladder = web_campaign._web_recording(spec)
        assert diffed == [0, 1536 // CHECKPOINT_STRIDE * CHECKPOINT_STRIDE]
        assert ladder.eligible == (0,)
        snapshot = ladder.rungs[0].snapshot
        assert snapshot.steps == 1536
        kernel = snapshot.system.kernel
        system = GLOBAL_POOL.acquire(at=snapshot)
        assert system is snapshot.system
        assert kernel.stats["steps"] == 1536 and kernel.resume is not None
        assert kernel.stats["budget_exhausted"] == 0
        assert not kernel.budget_exhausted
        server, = snapshot.roots
        gap = injection_gap(spec.n_requests, spec.n_faults)
        assert 0 < server.served < gap
        # Finishing the begun step arms: run exactly one more with a
        # hook.
        armed = []
        server.on_served = lambda served: armed.append(served >= gap)
        kernel.run(max_steps=1)
        assert armed[-1:] == [True]
        # A restored run gets the remaining budget: the prefix's steps
        # come off max_steps, and the row counts from boot.
        short = WebRunSpec(
            n_requests=400, n_faults=3, arrival_seed=1, max_steps=1600,
            **OPEN,
        )
        row = execute_web_run(short, 7)
        assert row["steps"] == 1600 and row["crashed"] == "exhausted"
        assert _rows(short, [7], False) == [row]


class TestSnapshotDebug:
    def test_missing_root_attribute_is_named(self, engine):
        # A rung that leaves one attribute of a root out restores it
        # from the previous run: the debug diff against a fresh build
        # driven through the same prefix names it.
        engine(pool_debug=True)
        spec = WebRunSpec(n_requests=60, n_faults=2)
        snapshot = web_campaign._web_recording(spec).rungs[0].snapshot
        execute_web_run(spec, 1)  # a run moves every one of them
        server = snapshot.roots[0]
        worker = next(
            thread for thread in snapshot.system.kernel.threads.values()
            if thread.name == "ws-worker0"
        )
        for root, attr, named in (
            (server, "served", r"WebServer\.served"),
            (worker.body, "handled", r"thread\[\d+\]\.body\.handled"),
            (worker, "cycles", r"thread\[\d+\]\.cycles"),
        ):
            sealed = snapshot.state[root].pop(attr)
            try:
                with pytest.raises(ReproError, match=named):
                    execute_web_run(spec, 2)
            finally:
                snapshot.state[root][attr] = sealed
            execute_web_run(spec, 3)

    def test_untouched_root_write_is_named(self, monkeypatch, engine):
        # Each planted export also writes a root no Fig. 7 run enters:
        # the touched rule skips that root's restore, and the debug diff
        # must name the write.  conn_open bumps the scheduler
        # component's fault count; tread bumps a counter of app2's lock
        # stub (app2 hosts no web thread).
        engine(pool_debug=True)

        def bump_sched(component):
            component.kernel.components["sched"].faults_detected += 1

        def bump_lock_stub(component):
            component.kernel._stubs[("app2", "lock")].stats["redos"] += 1

        planted = (
            (ConnectionManagerComponent, "conn_open", bump_sched,
             r"sched\.faults_detected"),
            (RamFSService, "tread", bump_lock_stub,
             r"stub\[app2->lock\]\.stats\['redos'\]"),
        )
        for cls, name, bump, named in planted:
            original = getattr(cls, name)

            @export
            def planted_export(self, thread, *args, original=original,
                               bump=bump):
                bump(self)
                return original(self, thread, *args)

            with monkeypatch.context() as patch:
                patch.setattr(cls, name, planted_export)
                GLOBAL_POOL.clear()  # rebuild with the planted export bound
                try:
                    with pytest.raises(ReproError, match=named):
                        execute_web_run(WebRunSpec(n_requests=60), 1)
                finally:
                    GLOBAL_POOL.clear()


# ---------------------------------------------------------------------------
# The generator bodies the resumable objects replaced, verbatim but for
# taking their server or generator as an argument: the reference.
# ---------------------------------------------------------------------------

def _ref_init(self, system, thread):
    self.stats_lock = yield Invoke("lock", "lock_alloc", self.home)
    self.evt_conn = yield Invoke("event", "evt_split", self.home, 0, 7)
    for name, body in DEFAULT_SITE.items():
        fd = yield Invoke("ramfs", "tsplit", self.home, 1, name)
        yield Invoke("ramfs", "twrite", self.home, fd, body)
        self.file_fds[name] = fd
    yield Invoke("mm", "mman_get_page", self.home, 0x0100_0000)


def _ref_worker(self, system, thread):
    kernel = self.system.kernel
    while self.evt_conn is None:
        yield Yield()
    handled = 0
    while True:
        if self.stopping and not self.pending:
            return
        if not self.pending:
            waited = yield Invoke(
                "event", "evt_wait", self.home, self.evt_conn
            )
            if waited != 0 or (self.stopping and not self.pending):
                continue
        if not self.pending:
            continue
        rid, submitted_at, raw = self.pending.popleft()
        status, response = yield from _ref_handle(self, kernel, raw)
        self.responses.append(response)
        self.served += 1
        now = kernel.clock.now
        self.samples.append((now, self.served))
        self._note_completion(kernel, rid, status, now, submitted_at)
        if self.on_served is not None:
            self.on_served(self.served)
        handled += 1
        if handled % MM_RECYCLE_PERIOD == 0:
            va = 0x0200_0000 + (thread.tid << 16)
            got = yield Invoke("mm", "mman_get_page", self.home, va)
            if got == va:
                yield Invoke("mm", "mman_release_page", self.home, va)


def _ref_handle(self, kernel, raw):
    kernel.charge(kernel.current, APP_REQUEST_CYCLES)
    conn_id = yield Invoke("connmgr", "conn_open", "client")
    request = yield Invoke("httpparse", "http_parse", raw)
    if request is None:
        self.errors += 1
        yield Invoke("connmgr", "conn_close", conn_id)
        return 400, _build_response(400, b"bad request")
    name = request.path.lstrip("/") or "index.html"
    try:
        weight = max(1, int(request.headers.get("x-weight", "1")))
    except ValueError:
        weight = 1
    if weight > 1:
        kernel.charge(kernel.current, (weight - 1) * APP_CHUNK_CYCLES)
    yield Invoke("lock", "lock_take", self.home, self.stats_lock)
    yield Invoke("connmgr", "conn_note", conn_id, request.path)
    yield Invoke("lock", "lock_release", self.home, self.stats_lock)
    fd = self.file_fds.get(name)
    if fd is None:
        self.errors += 1
        yield Invoke("connmgr", "conn_close", conn_id)
        return 404, _build_response(404, b"not found")
    body = b""
    for __ in range(weight):
        yield Invoke("ramfs", "tseek", self.home, fd, 0)
        body = yield Invoke(
            "ramfs", "tread", self.home, fd, len(DEFAULT_SITE[name])
        )
    yield Invoke("connmgr", "conn_close", conn_id)
    return 200, _build_response(200, body)


def _ref_housekeeping(self, system, thread):
    while self.evt_conn is None:
        yield Yield()
    tmid = yield Invoke(
        "timer", "timer_alloc", self.home, HOUSEKEEPING_PERIOD
    )
    while not self.stopping:
        yield Invoke("timer", "timer_block", self.home, tmid)


def _ref_closed(self, server):
    paths = itertools.cycle(sorted(DEFAULT_SITE))

    def body(sys_, thread):
        while server.evt_conn is None:
            yield Yield()
        sent = 0
        while sent < self.n_requests:
            if server.outstanding >= self.concurrency:
                yield Yield()
                continue
            server.submit(build_request("/" + next(paths)))
            sent += 1
            yield Invoke(
                "event", "evt_trigger", self.client_home, server.evt_conn
            )
        server.stop()
        for __ in range(server.n_workers):
            yield Invoke(
                "event", "evt_trigger", self.client_home, server.evt_conn
            )

    return body


def _ref_open(self, server, kernel):
    def body(sys_, thread):
        while server.evt_conn is None:
            yield Yield()
        base = kernel.clock.now
        for arrival in self.arrivals:
            due = base + arrival.at
            if kernel.clock.now < due:
                yield Sleep(due)
            server.submit(
                build_request("/" + arrival.path, weight=arrival.weight),
                at=due,
            )
            yield Invoke(
                "event", "evt_trigger", self.client_home, server.evt_conn
            )
        server.stop()
        for __ in range(server.n_workers):
            yield Invoke(
                "event", "evt_trigger", self.client_home, server.evt_conn
            )

    return body


# ---------------------------------------------------------------------------
# A scripted environment: the same replies and the same outside events
# for the reference and for the object body.
# ---------------------------------------------------------------------------

class _Clock:
    def __init__(self):
        self.now = 0


class _Kernel:
    """What the bodies reach of the kernel: clock, charges, recorder."""

    def __init__(self):
        self.clock = _Clock()
        self.current = "thread"
        self.recorder = NULL_RECORDER
        self.charged = []

    def charge(self, thread, cycles):
        self.charged.append((thread, cycles))
        self.clock.now += cycles

    def create_thread(self, name, prio, home, body_factory):
        self.factory = body_factory


class _System:
    def __init__(self):
        self.kernel = _Kernel()


class _Thread:
    tid = 3


#: Requests the environment queues: plain, weighted, unknown page and
#: unparseable (http_parse then replies None).
_REQUESTS = (
    build_request("/index.html"),
    build_request("/data.bin", weight=3),
    build_request("/missing.html"),
    b"garbage",
    build_request("/about.html"),
)


def _reply(action, step):
    """The scripted reply to ``action`` (any function of it and the
    step would do; this one reaches every branch of the bodies)."""
    if not isinstance(action, Invoke):
        return None
    fn = action.fn
    if fn == "http_parse":
        return parse_request(action.args[0])
    if fn == "tread":
        return b"chunk%d" % step
    if fn == "evt_wait":
        return step % 3 == 0
    if fn == "mman_get_page":
        return action.args[1] if step % 2 else 0
    return 100 + step


def _drive(make, environment, steps=2000):
    """Start a body with ``make(system, server)``, feed it scripted
    replies while ``environment`` changes the world between steps, and
    log every action with the side effects visible after it."""
    system = _System()
    server = WebServer(system, home="app0", n_workers=2)
    served = []
    server.on_served = served.append
    body = make(system, server)
    log = []
    reply = None
    for step in range(steps):
        environment(step, system, server)
        try:
            action = body.send(reply)
        except StopIteration:
            log.append(("done", step))
            break
        if isinstance(action, Invoke):
            shown = ("Invoke", action.server, action.fn, action.args)
        else:
            shown = (type(action).__name__, getattr(action, "until", None))
        log.append((
            shown, system.kernel.clock.now, list(system.kernel.charged),
            server.submitted, server.served, server.errors,
            list(server.responses), list(server.samples),
            list(server.latencies), list(served),
            dict(server.file_fds), server.stats_lock, server.evt_conn,
            server.stopping, list(server.pending),
        ))
        reply = _reply(action, step)
    return log


def _serving(step, system, server):
    """Workers' world: requests arrive, time passes, the server stops."""
    if step == 2:
        server.evt_conn = 7
        server.stats_lock = 5
        server.file_fds.update(
            {name: 10 + i for i, name in enumerate(DEFAULT_SITE)}
        )
    if 3 <= step < 1400 and step % 10 == 0:
        server.submit(_REQUESTS[(step // 10) % len(_REQUESTS)])
    system.kernel.clock.now += 37
    if step == 1450:
        server.stop()


def _loading(step, system, server):
    """Generators' world: the server comes up and serves slowly."""
    if step == 2:
        server.evt_conn = 7
    if step % 3 == 0 and server.served < server.submitted:
        server.served += 1
    # Now and then a long stall: arrivals fall due before the generator
    # gets to sleep on them.
    system.kernel.clock.now += 1500 if step % 5 else 60_000


def _started(factory):
    return lambda system, server: factory(system, server)(system, _Thread())


_ARRIVALS = ArrivalSpec(n_requests=40, load=2.0, phases="burst", seed=3)

_BODIES = {
    "init": (
        lambda system, server: _InitBody(server),
        lambda system, server: _ref_init(server, system, _Thread()),
        _serving,
    ),
    "worker": (
        lambda system, server: _WorkerBody(server, _Thread.tid),
        lambda system, server: _ref_worker(server, system, _Thread()),
        _serving,
    ),
    "housekeeping": (
        lambda system, server: _HousekeepingBody(server),
        lambda system, server: _ref_housekeeping(server, system, _Thread()),
        _serving,
    ),
    "closed-loop": (
        lambda system, server: _installed(
            LoadGenerator(n_requests=30, concurrency=4), system, server
        ),
        _started(lambda system, server: _ref_closed(
            LoadGenerator(n_requests=30, concurrency=4), server
        )),
        _loading,
    ),
    "open-loop": (
        lambda system, server: _installed(
            OpenLoopGenerator(_ARRIVALS), system, server
        ),
        _started(lambda system, server: _ref_open(
            _installed_generator(OpenLoopGenerator(_ARRIVALS), system,
                                 server),
            server, system.kernel,
        )),
        _loading,
    ),
}


def _installed_generator(generator, system, server):
    generator.install(system, server)
    return generator


def _installed(generator, system, server):
    _installed_generator(generator, system, server)
    return system.kernel.factory(system, _Thread())


class TestBodies:
    @pytest.mark.parametrize("name", sorted(_BODIES))
    def test_body_matches_generator_reference(self, name):
        new, reference, environment = _BODIES[name]
        log = _drive(new, environment)
        assert log == _drive(reference, environment)
        assert log[-1][0] == "done", name
        if name == "worker":
            # Every branch: each request kind, both page-recycle replies.
            responses = log[-2][6]
            assert {response[9:12] for response in responses} == {
                b"200", b"400", b"404"
            }
            fns = [entry[0][2] for entry in log if entry[0][0] == "Invoke"]
            assert "mman_release_page" in fns
            assert fns.count("mman_get_page") > fns.count("mman_release_page")
