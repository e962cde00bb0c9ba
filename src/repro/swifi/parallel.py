"""The seeded-campaign core: parallel, resumable, traced campaigns.

Table II SWIFI campaigns and Fig. 7 web-server campaigns are one
discipline applied twice: many seeded runs, each a pure function of
``(spec, seed)`` sharing nothing but the spec, merged in seed order.
:func:`run_seeded` implements it once.  A campaign kind supplies only
what differs — a per-process ``setup`` and a per-seed ``run`` — and the
core owns the rest:

* one initializer per process (IDL compile plus the kind's setup: pool
  boot and snapshot ladder), run in the parent for serial and ``fork``
  campaigns so forked workers inherit it copy-on-write;
* chunked fan-out over a :class:`~concurrent.futures.ProcessPoolExecutor`,
  streaming each chunk's results back as it completes, and seed-keyed
  merging of results, trace records and summed engine counters, so
  aggregates are bit-identical to the serial path;
* the seed schedule (:func:`seed_schedule`) and the setup/exec wall
  split of the ``.timing.json`` sidecars; and
* :func:`export_trace`, the seed-order flight-recorder export.

Table II adds a JSONL journal that makes campaigns resumable: every
completed run is appended as ``{"fingerprint", "run_seed", "outcome"}``
the moment its chunk finishes, and a rerun against the same journal
replays those outcomes instead of re-executing them.  Entries are keyed
by the spec fingerprint, so one journal file can checkpoint a whole
multi-service Table II campaign.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import CONFIG, override
from repro.observe import export as trace_export
from repro.observe.metrics import canonical_metrics, merge_metrics
from repro.swifi.campaign import (
    RunSpec,
    _drive_run,
    injection_point,
    run_record,
    warm_up,
)
from repro.swifi.classify import Outcome, OutcomeCounter
from repro.system import compile_all_interfaces

#: Target chunks per worker: small enough to stream progress and balance
#: load, large enough to amortise task-submission overhead.
CHUNKS_PER_WORKER = 4


def default_workers() -> int:
    """Worker-count default: one per CPU."""
    return os.cpu_count() or 1


def worker_start_method() -> str:
    """The process-pool start method: the configuration's
    ``worker_start`` (``REPRO_WORKER_START``), ``auto`` meaning fork
    where the platform has it.

    ``fork`` is the zero-copy path: the parent pays all per-process
    setup once (IDL compilation, pooled boot + seal, the snapshot
    ladder), and forked workers inherit the sealed ``array('I')``
    images and compiled programs copy-on-write — no per-worker boot, no
    re-pickling.  ``spawn`` keeps the per-worker initializer (each
    worker boots its own pooled system), which is also the clean
    fallback wherever fork is unavailable; an explicit
    ``REPRO_WORKER_START=fork`` on such a platform degrades to spawn
    rather than failing.
    """
    if CONFIG.worker_start == "spawn":
        return "spawn"
    import multiprocessing

    return (
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )


def seed_schedule(seed: int, n_runs: int) -> List[int]:
    """A campaign's run seeds: the ``i``-th of ``n_runs`` is ``seed *
    1_000_003 + i``, so the schedules of nearby campaign seeds do not
    overlap.  Both campaign kinds draw their seeds here: Table II runs
    and Fig. 7 runs."""
    return [seed * 1_000_003 + i for i in range(n_runs)]


def chunk_seeds(seeds: Sequence[int], workers: int) -> List[List[int]]:
    """Split the seed schedule into contiguous chunks for distribution."""
    if not seeds:
        return []
    n_chunks = max(1, min(len(seeds), workers * CHUNKS_PER_WORKER))
    size = -(-len(seeds) // n_chunks)  # ceil division
    return [list(seeds[i:i + size]) for i in range(0, len(seeds), size)]


@dataclass
class SeededRun:
    """A finished :func:`run_seeded` campaign.

    ``results`` and ``records`` are keyed by seed (callers read them in
    seed-schedule order); ``counters`` sums the runs' engine counters,
    which are knob-dependent and so ride the timing sidecar, never an
    artifact.  ``setup_wall`` is the in-parent initializer (serial and
    ``fork`` campaigns; ``spawn`` workers set up inside ``exec_wall``).
    """

    results: Dict[int, object] = field(default_factory=dict)
    records: Dict[int, dict] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    setup_wall: float = 0.0
    exec_wall: float = 0.0


#: The per-process campaign, ``(run, spec, state)``, set once by
#: :func:`_init_worker`.  Chunks then carry only seed lists: the spec
#: crosses the process boundary exactly once per worker (spawn) or zero
#: times (fork — the parent runs the initializer and workers inherit
#: everything copy-on-write).
_CAMPAIGN: Optional[tuple] = None

#: Holds a spawned worker's configuration override for its lifetime.
_WORKER_CONFIG = ExitStack()


def _init_worker(setup, run, spec, config=None) -> None:
    """Pay a campaign's per-process setup once, before any chunk runs.

    A spawned worker first takes on ``config``, its parent's engine
    configuration, so it runs the campaign the parent configured
    whatever its own environment says.  Each process compiles the IDL
    interfaces once (the ``compile_all_interfaces`` cache is
    per-process and starts cold), then ``setup(spec)`` warms whatever
    the kind's runs share — the pooled system and the spec's snapshot
    ladder — and returns the state handed to every ``run`` call.
    """
    global _CAMPAIGN
    if config is not None:
        _WORKER_CONFIG.enter_context(override(**config))
    if spec.ft_mode == "superglue":
        compile_all_interfaces()
    _CAMPAIGN = (run, spec, setup(spec))


def _execute_chunk(seeds: List[int]):
    """Worker entry point: run one chunk of seeds.

    Returns ``(triples, counters)``: a ``(seed, result, record_or_None)``
    triple per seed, plus the engine counters the chunk's runs added.
    """
    run, spec, state = _CAMPAIGN
    counters: Dict[str, int] = {}
    triples = [(seed, *run(spec, seed, state, counters)) for seed in seeds]
    return triples, counters


def run_seeded(
    setup,
    run,
    spec,
    seeds: Sequence[int],
    workers: Optional[int] = None,
    trace: bool = False,
    progress=None,
    on_batch=None,
) -> SeededRun:
    """Run ``spec``'s campaign over ``seeds`` — the shared campaign core.

    ``setup(spec)`` runs once per process (see :func:`_init_worker`);
    ``run(spec, seed, state, counters)`` executes one seed, adds its
    engine counters to ``counters`` and returns ``(result,
    record_or_None)``.  Both must be picklable module-level functions.
    A ``trace`` campaign calls ``run`` with ``trace=True``, which asks
    for the seed's flight-recorder record, and runs entirely under
    ``override(system_pool=False)``, its setup included, so its runs
    build fresh and start from boot (their drivers attach the recorder
    to the fresh kernel, see
    :func:`repro.swifi.campaign.attach_recorder`).  That configuration
    reaches spawned workers as their parent's and forked ones by
    inheritance.  Any other campaign builds no record.

    ``workers=None`` uses one worker per CPU; with ``workers <= 1`` or
    at most one seed everything runs in-process, seed by seed, with no
    pool overhead but the identical per-run code path.  Under the
    ``fork`` start method (see :func:`worker_start_method`) the
    initializer also runs in the parent, *before* the pool exists, and
    workers inherit the parent's engine configuration with it; under
    ``spawn`` each worker's initializer takes the parent's
    configuration as an argument.
    ``on_batch(triples)`` and then ``progress(done, total, result)`` per
    seed fire in the parent as each chunk completes (completion order;
    results are keyed by seed, so the merge is order-free).
    """
    if trace:
        with override(system_pool=False):
            return run_seeded(setup, functools.partial(run, trace=True),
                              spec, seeds, workers,
                              progress=progress, on_batch=on_batch)
    if workers is None:
        workers = default_workers()
    campaign = SeededRun()
    if not seeds:
        return campaign
    totals = campaign.counters

    def note(batch) -> None:
        triples, counters = batch
        for key, value in counters.items():
            totals[key] = totals.get(key, 0) + value
        if on_batch is not None:
            on_batch(triples)
        for seed, result, record in triples:
            campaign.results[seed] = result
            if record is not None:
                campaign.records[seed] = record
            if progress is not None:
                progress(len(campaign.results), len(seeds), result)

    initargs = (setup, run, spec)
    start = time.perf_counter()
    if workers <= 1 or len(seeds) <= 1:
        _init_worker(*initargs)
        campaign.setup_wall = time.perf_counter() - start
        for seed in seeds:
            note(_execute_chunk([seed]))
    else:
        # Only parallel campaigns pay for importing the process pool.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor, as_completed

        method = worker_start_method()
        pool_initializer = _init_worker
        pool_initargs = (*initargs, asdict(CONFIG))
        if method == "fork":
            _init_worker(*initargs)
            pool_initializer, pool_initargs = None, ()
        campaign.setup_wall = time.perf_counter() - start
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context(method),
            initializer=pool_initializer,
            initargs=pool_initargs,
        ) as pool:
            futures = [
                pool.submit(_execute_chunk, chunk)
                for chunk in chunk_seeds(seeds, workers)
            ]
            for future in as_completed(futures):
                note(future.result())
    campaign.exec_wall = time.perf_counter() - start - campaign.setup_wall
    return campaign


def export_trace(
    path: str,
    fingerprint: str,
    seeds: Sequence[int],
    outcomes: Iterable[str],
    records: Dict[int, dict],
    replayed: int = 0,
) -> None:
    """Append one campaign's traced runs and summary to ``path``.

    Everything is written parent-side in seed-schedule order, and the
    metrics merge follows the same order, so the artifact is
    byte-identical whether the runs executed serially or across a
    process pool.  ``outcomes`` lists every seed's outcome (seed order);
    seeds without a record (``replayed`` from a journal) contribute no
    events.
    """
    merged: Dict[str, object] = {}
    tally: Dict[str, int] = {}
    for outcome in outcomes:
        tally[outcome] = tally.get(outcome, 0) + 1
    with open(path, "a", encoding="utf-8") as handle:
        for seed in seeds:
            record = records.get(seed)
            if record is not None:
                trace_export.write_run(handle, record)
                merge_metrics(merged, record["metrics"])
        trace_export.write_summary(
            handle,
            fingerprint=fingerprint,
            runs=len(seeds),
            replayed=replayed,
            outcomes=tally,
            metrics=canonical_metrics(merged),
        )


class CampaignJournal:
    """Append-only JSONL checkpoint of completed injection runs."""

    def __init__(self, path: str):
        self.path = path

    def load(self, spec: RunSpec) -> Dict[int, Outcome]:
        """Completed ``{run_seed: outcome}`` for this spec's fingerprint.

        Tolerates a truncated final line (the campaign may have been
        killed mid-write); anything unparseable is simply re-run.
        """
        done: Dict[int, Outcome] = {}
        if not os.path.exists(self.path):
            return done
        fingerprint = spec.fingerprint()
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    if entry["fingerprint"] != fingerprint:
                        continue
                    done[int(entry["run_seed"])] = Outcome(entry["outcome"])
                except (ValueError, KeyError):
                    continue
        return done

    def append(
        self, spec: RunSpec, completed: Iterable[Tuple[int, str]]
    ) -> None:
        """Record finished runs; flushed immediately so a kill loses at
        most the in-flight chunk."""
        fingerprint = spec.fingerprint()
        with open(self.path, "a", encoding="utf-8") as handle:
            for run_seed, outcome in completed:
                handle.write(
                    json.dumps(
                        {
                            "fingerprint": fingerprint,
                            "run_seed": run_seed,
                            "outcome": outcome,
                        }
                    )
                    + "\n"
                )
            handle.flush()


def _table2_run(spec: RunSpec, seed: int, start, counters, trace=False):
    """One Table II injection run from :func:`warm_up`'s ``start``:
    ``(outcome, record_or_None)``.

    A traced campaign's run (``trace``) carries the flight recorder and
    returns its record.  Event emission never feeds back into
    execution, so its outcome is the untraced one.
    """
    outcome, system, __, steps, __ = _drive_run(
        spec, seed, start=start, counters=counters, trace=trace
    )
    if not trace:
        return outcome, None
    system.kernel.recorder.metrics.counter(f"outcome_{outcome.value}").inc()
    return outcome, run_record(
        spec, seed, system,
        service=spec.service,
        injection_point=injection_point(seed, spec.horizon),
        horizon=spec.horizon,
        outcome=outcome.value,
        steps=steps,
    )


def run_campaign(
    spec: RunSpec,
    run_seeds: Sequence[int],
    workers: Optional[int] = None,
    journal: Optional[str] = None,
    progress=None,
    trace: Optional[str] = None,
) -> Tuple[OutcomeCounter, SeededRun]:
    """Execute a Table II campaign's runs and aggregate their outcomes.

    Returns the outcome counter plus the core's :class:`SeededRun`,
    whose ``counters`` sum the executed runs' ladder work counts (see
    :data:`~repro.swifi.campaign.LADDER_KEYS`) and whose walls split
    setup from execution; journal-replayed runs were not re-executed and
    contribute nothing to either.

    The merge happens in ``run_seeds`` order regardless of completion
    order (and regardless of how many runs were replayed from the
    journal), so for a given seed schedule the resulting counter is
    bit-identical across worker counts and across resumes.  ``progress``
    sees ``(completed, total, outcome)`` with replayed runs counted.

    ``trace`` names a flight-recorder JSONL artifact to append to: each
    run then executes with tracing on, and :func:`export_trace` writes
    the runs and a summary line counting replayed runs.
    """
    book = CampaignJournal(journal) if journal else None
    outcomes: Dict[int, Outcome] = book.load(spec) if book else {}
    pending = [seed for seed in run_seeds if seed not in outcomes]
    replayed = len(run_seeds) - len(pending)

    on_batch = None
    if book is not None:
        def on_batch(triples) -> None:
            book.append(
                spec, [(seed, outcome.value) for seed, outcome, __ in triples]
            )

    report = None
    if progress is not None:
        def report(done: int, __, outcome: Outcome) -> None:
            progress(replayed + done, len(run_seeds), outcome)

    campaign = run_seeded(
        warm_up, _table2_run, spec, pending, workers,
        trace=trace is not None, progress=report, on_batch=on_batch,
    )
    outcomes.update(campaign.results)
    counter = OutcomeCounter()
    for seed in run_seeds:
        counter.add(outcomes[seed])
    if trace is not None:
        export_trace(
            trace, spec.fingerprint(), run_seeds,
            [outcomes[seed].value for seed in run_seeds],
            campaign.records, replayed,
        )
    return counter, campaign
