"""Flight recorder: structured event tracing + metrics (observability).

The recorder answers the question Table II's aggregates cannot: *what
happened in this one run* — which flip activated, what detected it,
which descriptors were replayed, how long recovery took.  See
``docs``/README "Flight recorder" for the exported JSONL format and the
``python -m repro trace`` renderer.

Enabling
--------
Tracing is **off by default** and costs ~nothing when off: every kernel,
built or restored, carries the process-wide
:data:`~repro.observe.recorder.NULL_RECORDER` singleton, and all emit
sites guard on ``recorder.enabled`` before building any event.  Tracing
is an argument of the traced campaign (``table2 --trace``,
``run_full_campaign(trace=)``, :func:`repro.swifi.parallel.run_seeded`'s
``trace``), not an engine gate: its runs build fresh systems and start
from boot, and each run's driver attaches a live
:class:`~repro.observe.recorder.FlightRecorder`, bound to the kernel's
virtual clock, before anything is installed or armed.  Building a
system emits no event, so to trace an ad-hoc run do the same::

    system = build_system()
    system.kernel.recorder = FlightRecorder(system.kernel.clock)
"""

from __future__ import annotations

from repro.observe.events import (  # noqa: F401 (re-exported)
    EVENT_FIELDS,
    EventSchemaError,
    SCHEMA_VERSION,
    validate_event,
)
from repro.observe.metrics import (  # noqa: F401
    MetricsRegistry,
    canonical_metrics,
    merge_metrics,
)
from repro.observe.recorder import (  # noqa: F401
    DEFAULT_CAPACITY,
    NULL_RECORDER,
    FlightRecorder,
    NullRecorder,
    scalar,
)
