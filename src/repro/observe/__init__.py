"""Flight recorder: structured event tracing + metrics (observability).

The recorder answers the question Table II's aggregates cannot: *what
happened in this one run* — which flip activated, what detected it,
which descriptors were replayed, how long recovery took.  See
``docs``/README "Flight recorder" for the exported JSONL format and the
``python -m repro trace`` renderer.

Enabling
--------
Tracing is **off by default** and costs ~nothing when off: every kernel
then shares the process-wide :data:`~repro.observe.recorder.NULL_RECORDER`
singleton, and all emit sites guard on ``recorder.enabled`` before
building any event.  It is the engine configuration's ``trace`` field
(:mod:`repro.config`): with it on, any new kernel gets a live
:class:`~repro.observe.recorder.FlightRecorder` bound to its virtual
clock, with a ring of ``trace_capacity`` events.  Set it with
``REPRO_TRACE=1`` (and ``REPRO_TRACE_CAPACITY``) for a whole process,
or with ``repro.config.override(trace=True)`` for a ``with`` block, as
the traced campaign path (``table2 --trace``/``run_full_campaign(trace=)``)
does so that worker processes trace their runs whatever their
environment.
"""

from __future__ import annotations

from typing import Union

from repro.config import CONFIG
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


def recorder_for(clock=None) -> Union[FlightRecorder, NullRecorder]:
    """The recorder a new kernel should carry.

    Returns the shared no-op singleton when tracing is disabled — no
    allocation at all — or a fresh :class:`FlightRecorder` of the
    configured capacity, bound to the kernel's virtual clock, when
    enabled.
    """
    if not CONFIG.trace:
        return NULL_RECORDER
    return FlightRecorder(clock=clock, capacity=CONFIG.trace_capacity)
