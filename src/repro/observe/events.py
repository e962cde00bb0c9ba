"""Typed event vocabulary of the flight recorder.

Every event the recorder can carry is declared here, with the set of
fields its emitter must provide.  The registry is the single source of
truth for three consumers:

* the emitters sprinkled through the kernel, recovery, and SWIFI layers
  (they fail fast in tests if they emit an undeclared shape);
* the JSONL exporter/validator (:mod:`repro.observe.export`), which
  checks every line of a trace artifact against this schema; and
* the timeline renderer (:mod:`repro.observe.timeline`), whose
  per-event formatters key off these names.

Events are deliberately flat — one name, one dict of JSON-scalar
fields — so a trace line round-trips through JSON without any custom
decoding.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

#: Schema version stamped into exported trace artifacts.  Bump on any
#: incompatible change to the event vocabulary or the line format.
#: v2: histogram serializations carry a ``clamped`` count (negative
#: observations clamped to 0) and may carry ``sub_bits`` (log-linear
#: sub-bucketed histograms).
SCHEMA_VERSION = 2

#: event name -> required field names.  Emitters may add *no* extra
#: fields beyond ``OPTIONAL_FIELDS``; validation is exact so schema
#: drift is caught by the CI trace-smoke step, not by downstream tools.
EVENT_FIELDS: Dict[str, FrozenSet[str]] = {
    # -- invocation path ------------------------------------------------
    "invoke": frozenset({"tid", "client", "server", "fn"}),
    "invoke_end": frozenset({"tid", "server", "fn", "status", "cycles"}),
    "upcall": frozenset({"tid", "component", "fn"}),
    # -- fault detection and micro-reboot -------------------------------
    "fault_vectored": frozenset({"component", "kind", "message"}),
    "micro_reboot_begin": frozenset({"component", "kind"}),
    "micro_reboot_end": frozenset({"component", "epoch", "cost_cycles"}),
    "t0_wake": frozenset({"component", "woken"}),
    # -- interface-driven recovery (stub layer) -------------------------
    "fault_update": frozenset({"server", "epoch"}),
    "replay": frozenset({"server", "fn", "sid"}),
    "descriptor_recovery": frozenset({"server", "cdesc", "sid", "cycles"}),
    # -- SWIFI ----------------------------------------------------------
    "swifi_arm": frozenset({"component", "reg", "bit", "after_executions"}),
    "swifi_inject": frozenset(
        {"component", "reg", "bit", "op_index", "trace_len", "label"}
    ),
    "swifi_mem_inject": frozenset(
        {"component", "addr", "bit", "page", "page_dirty"}
    ),
    "swifi_idl_inject": frozenset({"server", "fn", "target", "index", "bit"}),
    # -- web-server request path ----------------------------------------
    "request_start": frozenset({"rid", "queued"}),
    "request_done": frozenset({"rid", "status", "latency_cycles"}),
    "throughput_dip": frozenset({"gap_cycles", "served"}),
    # -- latent-fault monitor -------------------------------------------
    "scrub_detection": frozenset({"component", "addr"}),
    # -- trace execution engine -----------------------------------------
    "trace_exec": frozenset({"component", "label", "fast", "injected", "cycles"}),
    "trace_build": frozenset({"component", "label", "ops"}),
    "fastpath_compile": frozenset({"component", "label", "ops"}),
    # -- cluster supervision (node-level lifecycle) ----------------------
    "node_kill": frozenset({"node", "unit"}),
    "unit_failover": frozenset({"unit", "from_node", "to_node"}),
    "node_evict": frozenset({"node", "unit", "reason"}),
    "node_reboot": frozenset({"node", "unit", "cost_cycles", "epoch"}),
    "node_rejoin": frozenset({"node", "unit"}),
    "unit_done": frozenset({"node", "unit", "outcome", "cycles"}),
}

#: Per-event optional fields (present only when known at emit time).
OPTIONAL_FIELDS: Dict[str, FrozenSet[str]] = {
    "fault_vectored": frozenset({"detection_latency"}),
    # Non-register fault classes annotate the arm event; the plain reg
    # class keeps its original shape.
    "swifi_arm": frozenset({"fault_class", "burst_k", "burst_window"}),
}

#: Invocation-span completion statuses (``invoke_end.status``).
INVOKE_STATUSES = ("ok", "blocked", "fault", "crash")


class EventSchemaError(ValueError):
    """An event (or exported trace line) does not match the schema."""


def validate_event(name: str, fields: Dict[str, object]) -> None:
    """Check one event against the registry; raises :class:`EventSchemaError`.

    Field *values* must be JSON scalars (str/int/float/bool/None): the
    recorder stores them verbatim and the exporter dumps them as-is.
    """
    required = EVENT_FIELDS.get(name)
    if required is None:
        raise EventSchemaError(f"unknown event type {name!r}")
    present = set(fields)
    missing = required - present
    if missing:
        raise EventSchemaError(
            f"event {name!r} missing fields {sorted(missing)}"
        )
    extra = present - required - OPTIONAL_FIELDS.get(name, frozenset())
    if extra:
        raise EventSchemaError(
            f"event {name!r} carries undeclared fields {sorted(extra)}"
        )
    for key, value in fields.items():
        if value is not None and not isinstance(value, (str, int, float, bool)):
            raise EventSchemaError(
                f"event {name!r} field {key!r} is not a JSON scalar: "
                f"{type(value).__name__}"
            )
