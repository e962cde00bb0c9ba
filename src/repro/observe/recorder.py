"""The flight recorder: a bounded ring-buffer journal of typed events.

Two implementations share one interface:

* :class:`NullRecorder` — the disabled-mode recorder.  A single shared
  instance (:data:`NULL_RECORDER`) is what every kernel carries unless
  a traced run attaches a live one: no ring is allocated, ``emit`` is a
  constant no-op, and hot paths guard on the class attribute
  ``enabled`` (a plain attribute load + truth test) so they never even
  build the event's keyword arguments.
* :class:`FlightRecorder` — the live recorder.  Events append into a
  ``deque(maxlen=capacity)``; when the ring is full the oldest events
  fall off (``dropped`` counts them) so a runaway workload can never
  grow memory without bound.  Each event is stamped with a
  monotonically increasing sequence number and the *virtual* clock of
  the kernel it observes — wall-clock time never enters a trace, which
  keeps serial and parallel campaign traces bit-identical.

The live recorder also owns a :class:`~repro.observe.metrics.MetricsRegistry`
so emitters can feed distributions (recovery cycles, detection latency)
without a second plumbing path.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List

from repro.observe.metrics import MetricsRegistry

#: Default ring capacity.  A single SWIFI run emits a few hundred
#: events; 4096 keeps whole runs (and generous webserver windows) while
#: bounding worst-case memory at well under a megabyte.
DEFAULT_CAPACITY = 4096


def scalar(value) -> object:
    """Coerce an arbitrary emitter value to a JSON scalar.

    Descriptor ids are usually ints but may be paths (str) or opaque
    keys; anything non-scalar is stringified so events always export.
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return str(value)


class NullRecorder:
    """Disabled-mode recorder: every operation is a no-op.

    Shared as the process-wide :data:`NULL_RECORDER` singleton — an
    untraced kernel allocates nothing.
    """

    __slots__ = ()

    enabled = False
    dropped = 0
    capacity = 0

    #: Shared inert registry: emitters that (incorrectly) skip the
    #: ``enabled`` guard still must not crash, but nothing is retained.
    metrics = MetricsRegistry()

    def emit(self, event: str, **fields) -> None:
        return None

    def events(self) -> List[Dict[str, object]]:
        return []

    def clear(self) -> None:
        return None

    def __len__(self) -> int:
        return 0


#: The process-wide disabled recorder.
NULL_RECORDER = NullRecorder()


class FlightRecorder:
    """Live bounded ring-buffer recorder, stamped by a virtual clock."""

    __slots__ = ("clock", "capacity", "metrics", "dropped", "_ring", "_seq")

    enabled = True

    def __init__(self, clock=None, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"recorder capacity must be >= 1, got {capacity}")
        self.clock = clock
        self.capacity = capacity
        self.metrics = MetricsRegistry()
        self.dropped = 0
        self._ring: deque = deque(maxlen=capacity)
        self._seq = 0

    def emit(self, event: str, **fields) -> None:
        """Record one event, stamped ``(seq, virtual-clock)``.

        Field values must be JSON scalars; emitters coerce descriptor
        ids through :func:`scalar`.  Validation against the event
        registry is deferred to export time (and to the test suite) so
        the emit path stays a few dict operations.
        """
        ring = self._ring
        if len(ring) == self.capacity:
            self.dropped += 1
        now = self.clock.now if self.clock is not None else 0
        ring.append((self._seq, now, event, fields))
        self._seq += 1

    # ------------------------------------------------------------------
    def events(self) -> List[Dict[str, object]]:
        """The retained events, oldest first, as flat dicts."""
        return [
            {"seq": seq, "t": t, "event": event, "data": dict(fields)}
            for seq, t, event, fields in self._ring
        ]

    def clear(self) -> None:
        self._ring.clear()
        self.dropped = 0
        # The sequence counter keeps running: post-clear events remain
        # globally ordered against anything already exported.

    def __len__(self) -> int:
        return len(self._ring)
