"""The componentized web server (Section V-E).

"This web server ... makes use of all system-level components": each
request exercises the event manager (connection arrival), the lock
component (shared connection-table lock), the RAM filesystem (static
content), and periodically the memory manager (buffer pages) and the
timer manager (housekeeping); the scheduler blocks/wakes the worker
threads throughout.

The server is an application component (never a fault-injection target);
its request-processing compute is charged in virtual cycles calibrated so
that the stub-tracking overhead lands in the paper's measured range
(~10-12% of per-request cost).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.composite.thread import Invoke, Yield
from repro.webserver.components import (
    ConnectionManagerComponent,
    HttpParserComponent,
)
from repro.webserver.http import build_response

#: Virtual cycles of application work per request (routing, response
#: formatting, copying) on top of the component invocations.
APP_REQUEST_CYCLES = 2_400

#: Extra application cycles per additional content chunk of a weighted
#: (heavy-tailed) request, on top of the extra tseek/tread invocations.
APP_CHUNK_CYCLES = 800

#: Requests between buffer-page recycling through the memory manager.
MM_RECYCLE_PERIOD = 64

#: Housekeeping timer period in cycles.
HOUSEKEEPING_PERIOD = 400_000

#: A completion-to-completion gap above this many virtual cycles counts
#: as a throughput dip.  Fault-free serving (two workers pipelining
#: ~11.6k-cycle requests, plus housekeeping) peaks at ~23k-cycle gaps;
#: a micro-reboot plus descriptor recovery stretches a gap past 26k.
#: Campaign rows count dips from a run's served-count samples (see
#: :func:`repro.webserver.campaign._row_from_result`); when tracing is
#: on, each is also emitted as a ``throughput_dip`` flight-recorder
#: event.
DIP_THRESHOLD_CYCLES = 24_000


def register_webserver_components(kernel) -> None:
    """Register the web server's own application components.

    Idempotent, and deliberately separate from :meth:`WebServer.install`
    so the system pool can register (and seal) the components once per
    process while each pooled run installs only fresh threads.
    """
    if "httpparse" not in kernel.components:
        kernel.register_component(HttpParserComponent())
    if "connmgr" not in kernel.components:
        kernel.register_component(ConnectionManagerComponent())
    kernel.grant_all_caps()


class WebServer:
    """Installs server threads into a built system and serves requests.

    The load generator (see :mod:`repro.webserver.loadgen`) enqueues raw
    HTTP requests and triggers the connection event; worker threads wait
    on the event, parse, read content from RamFS, and format responses.

    The server and its thread bodies are pooled roots (see
    :class:`repro.system.StateModel`), so a snapshot taken mid-run
    (the rung of a Fig. 7 snapshot ladder) seals and restores them.  They are
    slotted for the reason :class:`~repro.composite.thread.SimThread`
    gives.
    """

    STATE_WIRING = ("system", "home", "n_workers")

    __slots__ = (
        "system", "home", "n_workers", "pending", "responses", "submitted",
        "served", "errors", "evt_conn", "stats_lock", "file_fds",
        "stopping", "samples", "latencies", "peak_outstanding", "on_served",
    )

    def __init__(self, system, home: str = "app0", n_workers: int = 2):
        self.system = system
        self.home = home
        self.n_workers = n_workers
        #: Queued-but-unclaimed requests as ``(rid, submit_clock, raw)``.
        #: A deque: workers consume from the head, and with tens of
        #: thousands of requests a ``list.pop(0)`` made the worker loop
        #: O(queue) per request.
        self.pending: Deque[Tuple[int, int, bytes]] = deque()
        self.responses: List[bytes] = []
        self.submitted = 0
        self.served = 0
        self.errors = 0
        self.evt_conn = None
        self.stats_lock = None
        self.file_fds: Dict[str, int] = {}
        self.stopping = False
        #: (virtual clock, served count) samples for the time series.
        self.samples: List[tuple] = []
        #: Per-request latency in virtual cycles (submit -> response),
        #: in completion order.
        self.latencies: List[int] = []
        #: High-water mark of :attr:`outstanding` (open-loop runs grow
        #: this without bound under overload; closed-loop runs cap it at
        #: the generator's concurrency).
        self.peak_outstanding = 0
        #: Optional hook invoked with the served count after each request
        #: (used by the fault-injection variant of the load generator).
        self.on_served = None

    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Requests submitted but not yet responded to (ab's "concurrent
        requests"): queued ones plus those being processed by workers."""
        return self.submitted - self.served

    # ------------------------------------------------------------------
    def install(self) -> None:
        kernel = self.system.kernel
        # The request path's own components (the paper's web server is
        # decomposed into many separate components).
        register_webserver_components(kernel)
        kernel.create_thread(
            "ws-init", prio=3, home=self.home,
            body_factory=lambda system, thread: _InitBody(self),
        )
        for index in range(self.n_workers):
            kernel.create_thread(
                f"ws-worker{index}", prio=5, home=self.home,
                body_factory=lambda system, thread: _WorkerBody(
                    self, thread.tid
                ),
            )
        kernel.create_thread(
            "ws-housekeeping", prio=6, home=self.home,
            body_factory=lambda system, thread: _HousekeepingBody(self),
        )

    def _note_completion(
        self, kernel, rid: int, status: int, now: int, submitted_at: int
    ) -> None:
        """Record one response's latency and, when tracing, its events."""
        latency = now - submitted_at
        self.latencies.append(latency)
        recorder = kernel.recorder
        if recorder.enabled:
            recorder.emit(
                "request_done", rid=rid, status=status, latency_cycles=latency
            )
            recorder.metrics.histogram("request_latency_cycles").observe(
                latency
            )
            # ``_respond`` took this completion's sample already.
            samples = self.samples
            gap = now - samples[-2][0] if len(samples) > 1 else 0
            if gap > DIP_THRESHOLD_CYCLES:
                recorder.emit(
                    "throughput_dip", gap_cycles=gap, served=self.served
                )
                recorder.metrics.histogram("dip_gap_cycles").observe(gap)

    # ------------------------------------------------------------------
    # Load-generator interface
    # ------------------------------------------------------------------
    def submit(self, raw: bytes, at: Optional[int] = None) -> int:
        """Enqueue one raw request; returns its request id.

        ``at`` back-dates the request to its open-loop *arrival* instant
        (the submit tick quantizes arrivals, but latency and SLO
        accounting must start when the request arrived, not when the
        generator got around to it).  Closed-loop submits leave it None
        and stamp the current clock.
        """
        rid = self.submitted
        now = self.system.kernel.clock.now
        submitted_at = now if at is None else at
        self.pending.append((rid, submitted_at, raw))
        self.submitted += 1
        if self.outstanding > self.peak_outstanding:
            self.peak_outstanding = self.outstanding
        recorder = self.system.kernel.recorder
        if recorder.enabled:
            recorder.emit("request_start", rid=rid, queued=len(self.pending))
        return rid

    def stop(self) -> None:
        self.stopping = True


class _InitBody:
    """``ws-init``'s body: set up the site content and the shared server
    resources (the stats lock, the connection event, one file per site
    page and a page of buffer memory for the connection table).

    Like every web thread body, a resumable object with the generator
    ``send(reply)`` protocol: ``pc`` counts the invocations issued, and
    each reply lands where the invocation that earned it says.
    """

    STATE_WIRING = ("server",)

    __slots__ = ("server", "pc", "fd")

    def __init__(self, server: WebServer):
        self.server = server
        self.pc = 0
        #: The file descriptor of the page being written.
        self.fd = None

    def send(self, reply):
        server = self.server
        home = server.home
        pc = self.pc
        self.pc = pc + 1
        if pc == 0:
            return Invoke("lock", "lock_alloc", home)
        if pc == 1:
            server.stats_lock = reply
            return Invoke("event", "evt_split", home, 0, 7)
        if pc == 2:
            server.evt_conn = reply
        pages = list(DEFAULT_SITE.items())
        if pc > 2 + 2 * len(pages):  # mman_get_page replied
            raise StopIteration
        # From pc 2 on, two invocations per page: tsplit, then twrite.
        page, wrote = divmod(pc - 2, 2)
        if wrote:
            self.fd = reply
            return Invoke("ramfs", "twrite", home, reply, pages[page][1])
        if page:
            server.file_fds[pages[page - 1][0]] = self.fd
        if page < len(pages):
            return Invoke("ramfs", "tsplit", home, 1, pages[page][0])
        return Invoke("mm", "mman_get_page", home, 0x0100_0000)


# The invocation whose reply a worker body's next ``send`` carries.
_W_WAIT = 0  # none yet: waiting for the connection event to exist
_W_EVT_WAIT = 1
_W_OPEN = 2
_W_PARSE = 3
_W_TAKE = 4
_W_NOTE = 5
_W_RELEASE = 6
_W_SEEK = 7
_W_READ = 8
_W_CLOSE = 9
_W_GET_PAGE = 10
_W_PUT_PAGE = 11


class _WorkerBody:
    """``ws-worker<k>``'s body: take requests off the queue and serve
    them, recycling a buffer page through the memory manager every
    :data:`MM_RECYCLE_PERIOD` requests.

    One request drives the component pipeline connmgr (accept) ->
    httpparse (parse) -> lock (shared stats) -> ramfs (content) ->
    connmgr (account + close), plus fixed application work for routing
    and formatting.  An ``X-Weight: w`` header (heavy-tailed open-loop
    arrivals) models a ``w``-times-larger object: the content is read
    in ``w`` tseek/tread round trips and the application compute grows
    by :data:`APP_CHUNK_CYCLES` per extra chunk.
    """

    STATE_WIRING = ("server", "va")

    __slots__ = (
        "server", "va", "pc", "handled", "rid", "submitted_at", "raw",
        "conn_id", "request", "name", "weight", "fd", "chunks", "content",
        "status",
    )

    def __init__(self, server: WebServer, tid: int):
        self.server = server
        #: The buffer page this worker recycles.
        self.va = 0x0200_0000 + (tid << 16)
        self.pc = _W_WAIT
        self.handled = 0
        # The request in hand: its queue entry, connection, parsed
        # request, content file and the chunks read so far.
        self.rid = None
        self.submitted_at = None
        self.raw = None
        self.conn_id = None
        self.request = None
        self.name = None
        self.weight = 1
        self.fd = None
        self.chunks = 0
        self.content = b""
        self.status = None

    def send(self, reply):
        server = self.server
        home = server.home
        pc = self.pc
        if pc == _W_WAIT:
            if server.evt_conn is None:
                return Yield()
            return self._next_request()
        if pc == _W_EVT_WAIT or pc == _W_PUT_PAGE:
            return self._next_request()
        if pc == _W_OPEN:
            self.conn_id = reply
            self.pc = _W_PARSE
            return Invoke("httpparse", "http_parse", self.raw)
        if pc == _W_PARSE:
            if reply is None:
                server.errors += 1
                return self._close(400, b"bad request")
            self.request = reply
            self.name = reply.path.lstrip("/") or "index.html"
            try:
                self.weight = max(1, int(reply.headers.get("x-weight", "1")))
            except ValueError:
                self.weight = 1
            if self.weight > 1:
                kernel = server.system.kernel
                kernel.charge(
                    kernel.current, (self.weight - 1) * APP_CHUNK_CYCLES
                )
            # Shared connection-table update under the stats lock.
            self.pc = _W_TAKE
            return Invoke("lock", "lock_take", home, server.stats_lock)
        if pc == _W_TAKE:
            self.pc = _W_NOTE
            return Invoke("connmgr", "conn_note", self.conn_id,
                          self.request.path)
        if pc == _W_NOTE:
            self.pc = _W_RELEASE
            return Invoke("lock", "lock_release", home, server.stats_lock)
        if pc == _W_RELEASE:
            self.fd = server.file_fds.get(self.name)
            if self.fd is None:
                server.errors += 1
                return self._close(404, b"not found")
            self.chunks = 0
            self.content = b""
            self.pc = _W_SEEK
            return Invoke("ramfs", "tseek", home, self.fd, 0)
        if pc == _W_SEEK:
            self.pc = _W_READ
            return Invoke("ramfs", "tread", home, self.fd,
                          len(DEFAULT_SITE[self.name]))
        if pc == _W_READ:
            self.content = reply
            self.chunks += 1
            if self.chunks < self.weight:
                self.pc = _W_SEEK
                return Invoke("ramfs", "tseek", home, self.fd, 0)
            return self._close(200, reply)
        if pc == _W_CLOSE:
            return self._respond()
        # _W_GET_PAGE
        if reply == self.va:
            self.pc = _W_PUT_PAGE
            return Invoke("mm", "mman_release_page", home, self.va)
        return self._next_request()

    def _next_request(self):
        """The loop head: stop, wait for a request, or start the next."""
        server = self.server
        if not server.pending:
            if server.stopping:
                raise StopIteration
            self.pc = _W_EVT_WAIT
            return Invoke("event", "evt_wait", server.home, server.evt_conn)
        self.rid, self.submitted_at, self.raw = server.pending.popleft()
        kernel = server.system.kernel
        kernel.charge(kernel.current, APP_REQUEST_CYCLES)
        self.pc = _W_OPEN
        return Invoke("connmgr", "conn_open", "client")

    def _close(self, status: int, content: bytes):
        self.status = status
        self.content = content
        self.pc = _W_CLOSE
        return Invoke("connmgr", "conn_close", self.conn_id)

    def _respond(self):
        """Account the response to the request in hand."""
        server = self.server
        kernel = server.system.kernel
        status = self.status
        server.responses.append(build_response(status, self.content))
        server.served += 1
        now = kernel.clock.now
        server.samples.append((now, server.served))
        server._note_completion(
            kernel, self.rid, status, now, self.submitted_at
        )
        if server.on_served is not None:
            server.on_served(server.served)
        self.handled += 1
        if self.handled % MM_RECYCLE_PERIOD == 0:
            # Recycle a buffer page through the memory manager.
            self.pc = _W_GET_PAGE
            return Invoke("mm", "mman_get_page", server.home, self.va)
        return self._next_request()


class _HousekeepingBody:
    """``ws-housekeeping``'s body: block on a periodic timer until the
    server stops."""

    STATE_WIRING = ("server",)

    __slots__ = ("server", "pc", "tmid")

    def __init__(self, server: WebServer):
        self.server = server
        #: 0: waiting for the connection event; 1: ``timer_alloc``
        #: asked; 2: blocking on the timer.
        self.pc = 0
        self.tmid = None

    def send(self, reply):
        server = self.server
        if self.pc == 0:
            if server.evt_conn is None:
                return Yield()
            self.pc = 1
            return Invoke(
                "timer", "timer_alloc", server.home, HOUSEKEEPING_PERIOD
            )
        if self.pc == 1:
            self.tmid = reply
            self.pc = 2
        if server.stopping:
            raise StopIteration
        return Invoke("timer", "timer_block", server.home, self.tmid)


#: Static site content installed into RamFS at startup.
DEFAULT_SITE: Dict[str, bytes] = {
    "index.html": b"<html><body><h1>COMPOSITE web server</h1></body></html>",
    "about.html": b"<html><body>Interface-driven recovery demo.</body></html>",
    "data.bin": bytes(range(64)),
}
