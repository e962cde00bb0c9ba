"""Layer tracing from outside the program.

The traced round wraps the public boundary functions of the ``repro``
modules (listed in :data:`BOUNDARIES`) at class or module attribute
level, records a span per call, and puts every original back when the
round ends.  Nothing under ``src/`` knows it is being traced.

* A span has a name, start and end (``perf_counter_ns``), the span that
  was open when it started, and the run it belongs to.
* Every call is aggregated by boundary name: count, inclusive time
  (outermost call of a name only, so recursion is not counted twice)
  and self time (duration minus the time its child spans cover).
* Full span records are kept only for the first :data:`KEEP_RUNS` runs
  of a round, and at most :data:`MAX_SPANS` of them: trace-execution
  boundaries fire millions of times, about 16,000 per Fig. 7 run.

Counts the program keeps itself (``kernel.stats``, reboots, SWIFI
deliveries) are read at run end through the wrapped ``classify_run``
(Table II) and ``run_webserver`` (Fig. 7).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

#: Runs per round whose spans are kept in full, and the cap on spans kept.
KEEP_RUNS = 20
MAX_SPANS = 100_000

#: Field order of a span record, as written by :meth:`Tracer.write_spans`.
SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "run")

#: ``(module, attribute, span name)``.  The attribute is looked up where
#: callers look it up: ``try_execute_fast``/``execute_trace`` through
#: ``repro.composite.component``'s globals, ``run_webserver`` through
#: the Fig. 7 campaign module's.
BOUNDARIES = (
    ("repro.swifi.campaign", "_campaign_system", "system.campaign"),
    ("repro.webserver.campaign", "_web_system", "system.campaign"),
    ("repro.system", "SystemPool.acquire", "system.acquire"),
    ("repro.composite.memory", "MemoryImage.restore", "memory.restore"),
    ("repro.composite.memory", "MemoryImage.restore_initial",
     "memory.restore"),
    ("repro.workloads.microbench", "Workload.install", "workloads.install"),
    ("repro.swifi.campaign", "classify_run", "swifi.classify"),
    ("repro.swifi.injector", "SwifiController.__init__", "swifi.arm"),
    ("repro.swifi.campaign", "injection_point", "swifi.arm"),
    ("repro.swifi.campaign", "_arm_for_class", "swifi.arm"),
    ("repro.composite.kernel", "Kernel.invoke", "kernel.invoke"),
    ("repro.system", "System.run", "kernel.run"),
    ("repro.swifi.campaign", "_campaign_recording", "supertrace.lookup"),
    ("repro.webserver.campaign", "_web_recording", "supertrace.lookup"),
    ("repro.composite.supertrace", "ReplaySession.on_invoke",
     "supertrace.session"),
    ("repro.composite.supertrace", "ReplaySession.on_unblock",
     "supertrace.session"),
    ("repro.composite.supertrace", "ReplaySession.finalize",
     "supertrace.finalize"),
    ("repro.composite.supertrace", "RecordingSession.finish_tail",
     "supertrace.finish_tail"),
    ("repro.core.runtime.stubs", "ClientStubRuntime.invoke", "stubs.invoke"),
    ("repro.core.runtime.stubs", "ClientStubRuntime.recover_on_demand",
     "stubs.recover"),
    ("repro.core.runtime.stubs", "ClientStubRuntime.recover_all",
     "stubs.recover"),
    ("repro.composite.booter", "Booter.handle_fault", "booter.handle_fault"),
    ("repro.composite.component", "Component.execute", "component.execute"),
    ("repro.composite.component", "try_execute_fast", "fastpath.exec"),
    ("repro.composite.component", "execute_trace", "machine.exec"),
    ("repro.composite.fastpath", "compile_trace", "fastpath.compile"),
    ("repro.webserver.campaign", "run_webserver", "webserver.run"),
    ("repro.webserver.server", "WebServer.submit", "webserver.submit"),
    ("repro.webserver.campaign", "aggregate_rows", "webserver.aggregate"),
)

#: Per-run ``kernel.stats`` counters folded into the layer metrics.
KERNEL_STATS = (
    "super_trace_runs", "super_trace_bypasses", "super_trace_divergences",
    "super_trace_divergent_units", "super_trace_tail_runs",
    "super_trace_tail_records", "interp_fast_runs", "interp_slow_runs",
    "trace_cache_hits", "trace_cache_misses",
)


def _resolve(module_name: str, attribute: str):
    """``(owner, attribute name, raw attribute)`` of one boundary."""
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = inspect.getattr_static(owner, name)
    if not inspect.isfunction(raw):
        raise TypeError(f"{module_name}.{attribute} is not a plain function")
    return owner, name, raw


class Tracer:
    """Span recorder for one round; install, run, then uninstall."""

    def __init__(self):
        self.stack: List[list] = []
        #: name -> [count, inclusive ns, self ns]
        self.agg: Dict[str, list] = defaultdict(lambda: [0, 0, 0])
        #: Kept span records, fields as in :data:`SPAN_FIELDS`.
        self.spans: List[tuple] = []
        self.counters: Dict[str, int] = defaultdict(int)
        #: Only run-phase calls are aggregated; setup is timed separately.
        self.in_run = False
        #: Index of the current run within the round (set by the caller).
        self.run = 0
        self._depth: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._patches: List[tuple] = []

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        hooks = {
            "memory.restore": self._on_restore,
            "swifi.classify": self._on_classify,
            "webserver.run": self._on_web_run,
        }
        try:
            for module_name, attribute, span in BOUNDARIES:
                owner, name, raw = _resolve(module_name, attribute)
                setattr(owner, name, self._wrap(span, raw, hooks.get(span)))
                self._patches.append((owner, name, raw))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, name, raw = self._patches.pop()
            setattr(owner, name, raw)

    def _wrap(self, name, fn, on_result):
        stack = self.stack
        agg = self.agg
        spans = self.spans
        depth = self._depth
        ids = self._ids
        perf = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            frame = [0, next(ids)]
            stack.append(frame)
            depth[name] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                depth[name] -= 1
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                if tracer.in_run:
                    entry = agg[name]
                    entry[0] += 1
                    if not depth[name]:
                        entry[1] += duration
                    entry[2] += duration - frame[0]
                    if tracer.run < KEEP_RUNS and len(spans) < MAX_SPANS:
                        spans.append(
                            (frame[1], name, start, end, parent, tracer.run)
                        )
            if on_result is not None and tracer.in_run:
                on_result(args, kwargs, result)
            return result

        return wrapper

    # -- counts read at run end -----------------------------------------
    def _fold_stats(self, kernel) -> None:
        stats = kernel.stats
        for key in KERNEL_STATS:
            self.counters[key] += stats[key]

    def _on_restore(self, args, kwargs, pages) -> None:
        self.counters["restore_pages"] += pages

    def _on_classify(self, args, kwargs, outcome) -> None:
        __, system, swifi = args[:3]
        self._fold_stats(system.kernel)
        self.counters["reboots"] += system.booter.reboots
        self.counters["deliveries"] += swifi.delivered_count

    def _on_web_run(self, args, kwargs, result) -> None:
        self._fold_stats(kwargs["system"].kernel)
        self.counters["reboots"] += result.reboots
        self.counters["deliveries"] += result.faults_injected
        self.counters["peak_outstanding"] = max(
            self.counters["peak_outstanding"], result.peak_outstanding
        )

    # -- results ---------------------------------------------------------
    def write_spans(self, path: Path) -> None:
        """JSONL: a ``{"fields": [...]}`` header, then one array per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def layer_metrics(self, run_wall_s: float) -> Dict[str, float]:
        """The per-layer metrics of this round's run phase."""
        agg, c = self.agg, self.counters

        def count(name):
            return agg[name][0]

        def ms(name):
            return agg[name][1] / 1e6

        def self_ms(name):
            return agg[name][2] / 1e6

        def ratio(part, base):
            return part / base if base else 0.0

        replayed = c["super_trace_runs"] + c["super_trace_tail_runs"]
        units = (
            replayed + c["super_trace_bypasses"]
            + c["super_trace_divergent_units"]
        )
        executions = c["interp_fast_runs"] + c["interp_slow_runs"]
        lookups = c["trace_cache_hits"] + c["trace_cache_misses"]
        # Before the lookups below, which add zero entries for idle names.
        self_total_ns = sum(entry[2] for entry in agg.values())
        return {
            "system.acquire.count": count("system.acquire"),
            "system.acquire.self_ms": self_ms("system.acquire"),
            "memory.restore.pages": c["restore_pages"],
            "workloads.install.ms": ms("workloads.install"),
            "swifi.classify.ms": ms("swifi.classify"),
            "swifi.arm.ms": ms("swifi.arm"),
            "swifi.deliveries": c["deliveries"],
            "kernel.invoke.count": count("kernel.invoke"),
            "kernel.invoke.self_ms": self_ms("kernel.invoke"),
            "kernel.run.ms": ms("kernel.run"),
            "supertrace.replayed_units": c["super_trace_runs"],
            "supertrace.bypass_units": c["super_trace_bypasses"],
            "supertrace.divergences": c["super_trace_divergences"],
            "supertrace.divergent_units": c["super_trace_divergent_units"],
            "supertrace.tail_replayed_units": c["super_trace_tail_runs"],
            "supertrace.tail_records": c["super_trace_tail_records"],
            "supertrace.replayed_unit_coverage": ratio(replayed, units),
            "supertrace.replayed_unit_coverage.base": units,
            "supertrace.lookup.ms": ms("supertrace.lookup"),
            "supertrace.session.self_ms": self_ms("supertrace.session"),
            "supertrace.finalize.ms": ms("supertrace.finalize"),
            "stubs.invoke.self_ms": self_ms("stubs.invoke"),
            "stubs.recover.count": count("stubs.recover"),
            "stubs.recover.ms": ms("stubs.recover"),
            "booter.reboots": c["reboots"],
            "booter.handle_fault.ms": ms("booter.handle_fault"),
            "component.execute.count": count("component.execute"),
            "component.execute.self_ms": self_ms("component.execute"),
            "fastpath.exec.count": count("fastpath.exec"),
            "fastpath.exec.ms": ms("fastpath.exec"),
            "fastpath.fast_share": ratio(c["interp_fast_runs"], executions),
            "fastpath.compile.count": count("fastpath.compile"),
            "fastpath.compile.ms": ms("fastpath.compile"),
            "machine.exec.count": count("machine.exec"),
            "machine.exec.ms": ms("machine.exec"),
            "trace_cache.hit_ratio": ratio(c["trace_cache_hits"], lookups),
            "trace_cache.hit_ratio.base": lookups,
            "webserver.run.ms": ms("webserver.run"),
            "webserver.submits": count("webserver.submit"),
            "webserver.peak_outstanding": c["peak_outstanding"],
            "webserver.aggregate.ms": ms("webserver.aggregate"),
            "bench.span_coverage": ratio(self_total_ns / 1e9, run_wall_s),
        }
