"""Render flight-recorder traces for humans (``python -m repro trace``).

Two views over an exported JSONL artifact:

* the **campaign roll-up** — per spec fingerprint: run/outcome tallies
  and the merged metrics registry (counter totals, histogram
  mean/min/max); and
* the **per-run recovery timeline** — one line per event, stamped with
  the virtual clock in cycles and microseconds, telling the story the
  paper's Table II only summarizes: which flip activated, what
  detected it, which micro-reboot and replays followed.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.composite.machine import REG_NAMES
from repro.composite.scheduler import cycles_to_us


def _reg_name(index) -> str:
    try:
        return REG_NAMES[index]
    except (IndexError, TypeError):
        return f"r{index}"


def _describe(event: Dict[str, object]) -> str:
    """One human line per event type."""
    name = event["event"]
    d = event["data"]
    if name == "invoke":
        return f"invoke        {d['client']} -> {d['server']}.{d['fn']} (tid {d['tid']})"
    if name == "invoke_end":
        return (
            f"invoke_end    {d['server']}.{d['fn']} status={d['status']} "
            f"({d['cycles']} cyc)"
        )
    if name == "upcall":
        return f"upcall        {d['component']}.{d['fn']} (tid {d['tid']})"
    if name == "fault_vectored":
        latency = d.get("detection_latency")
        suffix = (
            f" [detected {latency} cyc after injection]"
            if latency is not None
            else ""
        )
        return f"FAULT         {d['component']}: {d['kind']} — {d['message']}{suffix}"
    if name == "micro_reboot_begin":
        return f"reboot-begin  {d['component']} (cause: {d['kind']})"
    if name == "micro_reboot_end":
        return (
            f"reboot-end    {d['component']} -> epoch {d['epoch']} "
            f"({d['cost_cycles']} cyc image restore)"
        )
    if name == "t0_wake":
        return f"T0 wake       {d['component']}: {d['woken']} blocked thread(s) re-issued"
    if name == "fault_update":
        return f"fault-update  client resynced with {d['server']} epoch {d['epoch']}"
    if name == "replay":
        return f"replay        {d['server']}.{d['fn']} (sid {d['sid']})"
    if name == "descriptor_recovery":
        return (
            f"recovered     descriptor {d['cdesc']} on {d['server']} "
            f"(sid {d['sid']}, {d['cycles']} cyc)"
        )
    if name == "swifi_arm":
        fault_class = d.get("fault_class", "reg")
        if fault_class == "mem":
            return (
                f"swifi-arm     {d['component']}: memory bit flip after "
                f"{d['after_executions']} trace execution(s)"
            )
        if fault_class == "idl":
            return (
                f"swifi-arm     {d['component']}: IDL-boundary fuzz after "
                f"{d['after_executions']} stub invocation(s)"
            )
        burst = (
            f" (burst k={d['burst_k']}, window {d['burst_window']} cyc)"
            if fault_class == "burst"
            else ""
        )
        return (
            f"swifi-arm     {d['component']}: flip {_reg_name(d['reg'])} "
            f"bit {d['bit']} after {d['after_executions']} trace "
            f"execution(s){burst}"
        )
    if name == "swifi_inject":
        return (
            f"SWIFI INJECT  {d['component']}: flipped {_reg_name(d['reg'])} "
            f"bit {d['bit']} at op {d['op_index']}/{d['trace_len']} "
            f"in trace '{d['label']}'"
        )
    if name == "swifi_mem_inject":
        hot = "hot (dirty)" if d["page_dirty"] else "cold"
        return (
            f"SWIFI INJECT  {d['component']}: flipped bit {d['bit']} of "
            f"word {d['addr']:#x} ({hot} page {d['page']})"
        )
    if name == "swifi_idl_inject":
        where = (
            f"arg {d['index']}" if d["target"] == "arg" else "return value"
        )
        return (
            f"SWIFI INJECT  {d['server']}.{d['fn']}: flipped bit {d['bit']} "
            f"of {where} at the IDL boundary"
        )
    if name == "request_start":
        return f"request       #{d['rid']} queued (depth {d['queued']})"
    if name == "request_done":
        return (
            f"response      #{d['rid']} status={d['status']} "
            f"({d['latency_cycles']} cyc latency)"
        )
    if name == "throughput_dip":
        return (
            f"DIP           throughput stalled {d['gap_cycles']} cyc "
            f"(served={d['served']})"
        )
    if name == "scrub_detection":
        return f"scrub         {d['component']}: latent corruption at {d['addr']:#x}"
    if name == "trace_exec":
        tier = "fast" if d["fast"] else "slow"
        flag = " +injection" if d["injected"] else ""
        return (
            f"trace-exec    {d['component']}/{d['label']} [{tier}{flag}] "
            f"({d['cycles']} cyc)"
        )
    if name == "trace_build":
        return f"trace-build   {d['component']}/{d['label']} ({d['ops']} ops)"
    if name == "fastpath_compile":
        return f"fast-compile  {d['component']}/{d['label']} ({d['ops']} ops)"
    return f"{name}  {d}"


def render_run_timeline(
    run: Dict[str, object], include: Optional[set] = None
) -> str:
    """The per-run timeline, one stamped line per event."""
    fault_class = run.get("fault_class", "reg")
    class_tag = f" fault_class={fault_class}" if fault_class != "reg" else ""
    lines = [
        (
            f"run seed={run['run_seed']} service={run['service']} "
            f"ft_mode={run['ft_mode']}{class_tag} outcome={run['outcome']}"
        ),
        (
            f"  injection point: trace execution #{run['injection_point']} "
            f"of horizon {run['horizon']}; {run['steps']} scheduler steps"
        ),
    ]
    if run.get("dropped_events"):
        lines.append(
            f"  (ring buffer wrapped: {run['dropped_events']} oldest "
            "events dropped)"
        )
    for event in run["events"]:
        if include is not None and event["event"] not in include:
            continue
        t = event["t"]
        lines.append(
            f"  [{t:>12,} cyc | {cycles_to_us(t):>12,.2f} us] "
            f"{_describe(event)}"
        )
    return "\n".join(lines)


def render_rollup(
    runs: List[Dict[str, object]], summaries: List[Dict[str, object]]
) -> str:
    """Campaign roll-up: per-fingerprint outcomes + merged metrics."""
    lines: List[str] = []
    traced = {}
    for run in runs:
        traced.setdefault(run["fingerprint"], []).append(run)
    if summaries:
        for summary in summaries:
            lines.append(f"campaign {summary['fingerprint']}")
            lines.append(
                f"  runs: {summary['runs']} "
                f"(replayed from journal: {summary['replayed']})"
            )
            for outcome, count in summary["outcomes"].items():
                lines.append(f"    {outcome:<28} {count}")
            lines.extend(_render_metrics(summary["metrics"]))
            lines.append("")
    else:
        for fingerprint, group in traced.items():
            lines.append(f"campaign {fingerprint} (no summary line)")
            tally: Dict[str, int] = {}
            for run in group:
                tally[run["outcome"]] = tally.get(run["outcome"], 0) + 1
            for outcome, count in sorted(tally.items()):
                lines.append(f"    {outcome:<28} {count}")
            lines.append("")
    return "\n".join(lines).rstrip()


def _render_metrics(metrics: Dict[str, object]) -> List[str]:
    lines = []
    counters = metrics.get("counters", {})
    if counters:
        lines.append("  counters:")
        for name, value in counters.items():
            lines.append(f"    {name:<28} {value}")
    histograms = metrics.get("histograms", {})
    if histograms:
        lines.append("  histograms (cycles):")
        for name, h in histograms.items():
            if not h["count"]:
                continue
            mean = h["total"] / h["count"]
            lines.append(
                f"    {name:<28} n={h['count']} mean={mean:,.0f} "
                f"min={h['min']:,} max={h['max']:,} "
                f"(mean {cycles_to_us(mean):,.2f} us)"
            )
    return lines


#: The events that tell the recovery story; used by ``repro trace`` to
#: render a focused timeline (``--full`` shows everything, including
#: every trace execution).
RECOVERY_EVENTS = {
    "swifi_arm",
    "swifi_inject",
    "swifi_mem_inject",
    "swifi_idl_inject",
    "fault_vectored",
    "micro_reboot_begin",
    "micro_reboot_end",
    "t0_wake",
    "fault_update",
    "replay",
    "descriptor_recovery",
    "scrub_detection",
    "upcall",
    "throughput_dip",
}


def pick_default_run(runs: List[Dict[str, object]]) -> Optional[Dict[str, object]]:
    """The most interesting run: first with a full recovery story.

    Prefers a run whose events include an injection *and* a micro-reboot
    (the injection->detection->reboot->replay arc); falls back to any
    run with an injection, then to the first run.
    """
    def has(run, name):
        return any(e["event"] == name for e in run["events"])

    for run in runs:
        if has(run, "swifi_inject") and has(run, "micro_reboot_end") and has(run, "replay"):
            return run
    for run in runs:
        if has(run, "swifi_inject") and has(run, "micro_reboot_end"):
            return run
    for run in runs:
        if has(run, "swifi_inject"):
            return run
    return runs[0] if runs else None
