#!/usr/bin/env python3
"""The exactness matrix: every campaign output equals its reference.

Usage:  python scripts/exactness.py [--out DIR] [--ref DIR] [--expect FILE]

Campaign outcomes are pure functions of ``(spec, seed)``: a run that
starts at a snapshot ladder's rung of a pooled system, in a forked or a
spawned worker, in the interpreter only, under the pool-debug diff or
under the flight recorder ends exactly as a serial run from boot.  This
script checks that contract on one table, :data:`ROWS` (the campaigns)
crossed with :data:`AXES` (the engine configurations they run under):

* every cell's ``--json`` artifact equals its row's reference cell,
  ``w1`` (or ``small`` for the smaller pool-debug and traced cells),
  byte for byte;
* a traced cell's JSONL equals the ``traced`` cell's byte for byte,
  and the ``traced`` cell's validates against the event schema and
  renders a timeline (``python -m repro trace``);
* where pooling is on, the ``.timing.json`` sidecar's ``ladder`` work
  counts equal the reference's, and the reference's runs restored
  rungs (else the matrix would compare runs from boot with themselves);
* the reference artifacts of the SuperGlue Table II rows and of the
  open-loop sweep equal their committed copies under
  ``benchmarks/baselines/``: integers exactly, floats to a relative
  ``REL_EPS``, since ``math.log``/``math.pow`` results may differ
  across libm builds in the final bit.

Each cell runs as its own process in ``OUT/<row>/<axis>/``, with no
``REPRO_*`` variable but its axis's own.  ``--out DIR`` keeps every
output there (DIR must be empty or absent).  ``--ref DIR`` then
compares every output with another tree's ``--out`` (the parent
commit's): artifacts, traces, stdout, and the sidecars but for their
``*_wall`` host timings.  ``--expect FILE`` declares the differences
from ``--ref`` that a change makes on purpose, one ``FILE-GLOB
PATH-GLOB`` per line (``*`` matches anything, ``#`` starts a comment),
for example::

    table2-*/*/out.json  [*].recovered

A declared difference that does not occur fails too.  A failure names
the file and its first differing path: a JSON path such as
``[0].recovered``, ``line N`` in a text file, ``line N: PATH`` in a
JSONL file.  The exit status is 1 on any failure.

To re-record a baseline after an intended change, copy the reference
artifact from ``--out``, e.g. ``OUT/table2-superglue-reg/w1/out.json``
to ``benchmarks/baselines/table2_reg.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
BASELINES = ROOT / "benchmarks" / "baselines"

#: Relative float tolerance of the baseline comparisons: generous
#: against last-ulp libm drift, tiny against real change (one request
#: crossing the SLO moves goodput by about 0.2%).
REL_EPS = 1e-9

#: A cell's outputs: the campaign's stdout, artifact, sidecar and
#: trace, and the stdout of the trace validation and rendering.
STDOUT, ARTIFACT, SIDECAR = "stdout.txt", "out.json", "out.json.timing.json"
TRACE, VALIDATED, TIMELINE = "trace.jsonl", "validate.txt", "timeline.txt"
OUTPUTS = (STDOUT, ARTIFACT, SIDECAR, TRACE, VALIDATED, TIMELINE)


@dataclass(frozen=True)
class Row:
    """One campaign: its command after the interpreter, the size
    arguments of its full-size and its small cells, and the committed
    baseline its reference artifact must equal, if any."""

    name: str
    command: Tuple[str, ...]
    full: Tuple[str, ...] = ()
    small: Tuple[str, ...] = ()
    baseline: Optional[str] = None

    @property
    def campaign(self) -> bool:
        """A ``python -m repro`` campaign, which takes ``--workers`` and
        ``--trace``; the open-loop sweep runs in-process."""
        return self.command[:2] == ("-m", "repro")


@dataclass(frozen=True)
class Axis:
    """One engine configuration: the worker count, the ``REPRO_*``
    variables set, the row size and the flight recorder."""

    name: str
    workers: int = 1
    env: Tuple[Tuple[str, str], ...] = ()
    small: bool = False
    traced: bool = False

    @property
    def reference(self) -> str:
        """The axis whose cell this axis's cell must equal."""
        return "small" if self.small else "w1"

    @property
    def pooled(self) -> bool:
        """Do the runs restore pooled systems?  Traced runs build
        fresh and start from boot."""
        return not self.traced and ("REPRO_SYSTEM_POOL", "0") not in self.env


MODES = ("superglue", "c3")
FAULT_CLASSES = ("reg", "mem", "idl", "burst")
ARRIVALS = (
    ("closed", ()),
    ("open", ("--arrivals", "open", "--load", "2", "--phases", "burst")),
)

ROWS = (
    *(
        Row(
            f"table2-{mode}-{fault_class}",
            ("-m", "repro", "table2", "--mode", mode,
             "--fault-class", fault_class, "--seed", "1"),
            ("--faults", "50"),
            ("--faults", "10"),
            f"table2_{fault_class}.json" if mode == "superglue" else None,
        )
        for mode in MODES
        for fault_class in FAULT_CLASSES
    ),
    *(
        Row(
            f"fig7-{arrivals}-{mode}-{fault_class}",
            ("-m", "repro", "fig7", "--mode", mode,
             "--fault-class", fault_class, *shape),
            ("--seeds", "8", "--requests", "200"),
            ("--seeds", "4", "--requests", "120"),
        )
        for arrivals, shape in ARRIVALS
        for mode in MODES
        for fault_class in FAULT_CLASSES
    ),
    Row(
        "fig7-openloop-sweep",
        (str(ROOT / "benchmarks" / "bench_fig7_webserver.py"), "--openloop"),
        baseline="fig7_openloop.json",
    ),
)

POOL_OFF = (("REPRO_SYSTEM_POOL", "0"),)
SPAWN = (("REPRO_WORKER_START", "spawn"),)
INTERP_ONLY = (("REPRO_FAST_INTERP", "0"),)

#: ``w1`` and ``small`` are the references; a reference runs before
#: the cells compared with it.  Pooling off also runs in forked and in
#: spawned workers, and interpreter-only runs also in parallel, since
#: workers inherit or rebuild the state those gates change.
AXES = (
    Axis("w1"),
    Axis("w2", workers=2),
    Axis("spawn", workers=2, env=SPAWN),
    Axis("boot", env=POOL_OFF),
    Axis("boot-w2", workers=2, env=POOL_OFF),
    Axis("boot-spawn", workers=2, env=POOL_OFF + SPAWN),
    Axis("interp", env=INTERP_ONLY),
    Axis("interp-w2", workers=2, env=INTERP_ONLY),
    Axis("small", small=True),
    Axis("debug", small=True, env=(("REPRO_POOL_DEBUG", "1"),)),
    Axis("traced", small=True, traced=True),
    Axis("traced-w2", workers=2, small=True, traced=True),
)


def axes_of(row: Row) -> List[Axis]:
    """The axes ``row`` runs under: every axis for a campaign; for the
    in-process sweep, which takes no worker count, trace or size, the
    axes that set only the environment."""
    return [
        axis for axis in AXES
        if row.campaign
        or (axis.workers == 1 and not axis.small and not axis.traced)
    ]


def commands(row: Row, axis: Axis) -> List[Tuple[List[str], str]]:
    """The commands of one cell, each with the file its stdout goes to."""
    argv = [sys.executable, *row.command, *(row.small if axis.small else row.full)]
    if row.campaign:
        argv += ["--workers", str(axis.workers)]
        if axis.traced:
            argv += ["--trace", TRACE]
    runs = [(argv + ["--json", ARTIFACT], STDOUT)]
    if axis.name == "traced":
        render = [sys.executable, "-m", "repro", "trace", TRACE]
        runs += [(render + ["--validate"], VALIDATED), (render, TIMELINE)]
    return runs


def environment(axis: Axis) -> dict:
    """The cell's environment: this one without ``REPRO_*`` variables,
    plus the axis's, with this tree's ``src`` on the path."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(axis.env)
    return env


def run(argv: List[str], env: dict, cwd: Path, stdout: str) -> int:
    """Run one command in ``cwd``; its stdout goes to ``stdout``, its
    stderr (wall clocks, never compared) to ``stderr.txt``."""
    with open(cwd / stdout, "w") as out, open(cwd / "stderr.txt", "a") as err:
        return subprocess.run(
            argv, env=env, cwd=cwd, stdout=out, stderr=err
        ).returncode


# ---------------------------------------------------------------------------
# Differences
# ---------------------------------------------------------------------------

Diff = Tuple[str, object, object]


def json_diffs(got, want, path: str = "", eps: Optional[float] = None
               ) -> Iterator[Diff]:
    """Every ``(path, got, want)`` where two JSON documents differ, in
    document order.  Values must be equal and of one type; with ``eps``
    floats may differ by that relative amount."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in [*want, *(key for key in got if key not in want)]:
            sub = f"{path}.{key}" if path else key
            yield from json_diffs(
                got.get(key, "<absent>"), want.get(key, "<absent>"), sub, eps
            )
    elif isinstance(got, list) and isinstance(want, list):
        for index in range(max(len(got), len(want))):
            yield from json_diffs(
                got[index] if index < len(got) else "<absent>",
                want[index] if index < len(want) else "<absent>",
                f"{path}[{index}]", eps,
            )
    elif type(got) is not type(want):
        yield path, got, want
    elif eps is not None and type(want) is float:
        if not math.isclose(got, want, rel_tol=eps, abs_tol=eps):
            yield path, got, want
    elif got != want:
        yield path, got, want


def line_diffs(got: str, want: str, parse: bool) -> Iterator[Diff]:
    """Every differing line (``line N``); with ``parse``, lines are
    JSON documents and differ by path (``line N: PATH``)."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for index in range(max(len(got_lines), len(want_lines))):
        mine = got_lines[index] if index < len(got_lines) else "<absent>"
        theirs = want_lines[index] if index < len(want_lines) else "<absent>"
        if mine == theirs:
            continue
        where = f"line {index + 1}"
        diffs = []
        if parse:
            try:
                diffs = [
                    (f"{where}: {path}", a, b)
                    for path, a, b in json_diffs(json.loads(mine),
                                                 json.loads(theirs))
                ]
            except ValueError:
                pass
        yield from diffs or [(where, mine, theirs)]


def file_diffs(got: Path, want: Path, eps: Optional[float] = None,
               project: Optional[Callable] = None) -> List[Diff]:
    """Every difference of file ``got`` from file ``want``.

    JSON documents differ by path, after ``project`` when given; with
    ``eps``, floats to that relative tolerance.  JSONL and text differ
    line by line.  An exact comparison falls back to lines where the
    JSON is equal but the bytes are not.  Raises ``ValueError`` if a
    JSON file does not parse.
    """
    mine, theirs = got.read_text(), want.read_text()
    if mine == theirs:
        return []
    if got.suffix != ".json":
        return list(line_diffs(mine, theirs, parse=got.suffix == ".jsonl"))
    docs = [json.loads(text) for text in (mine, theirs)]
    if project is not None:
        docs = [project(doc) for doc in docs]
    diffs = list(json_diffs(*docs, eps=eps))
    if not diffs and eps is None and project is None:
        diffs = list(line_diffs(mine, theirs, parse=False))
    return diffs


def without_walls(doc):
    """A sidecar's deterministic fields: all but its ``*_wall`` host
    timings."""
    if isinstance(doc, list):
        return [without_walls(entry) for entry in doc]
    return {key: value for key, value in doc.items()
            if not key.endswith("_wall")}


def ladders(doc):
    """A sidecar's ``ladder`` work counts (Table II: one per service)."""
    if isinstance(doc, list):
        return [{"ladder": entry.get("ladder")} for entry in doc]
    return {"ladder": doc.get("ladder")}


def _glob(pattern: str) -> "re.Pattern":
    """``pattern`` with ``*`` matching anything, all else literal."""
    return re.compile(".*".join(map(re.escape, pattern.split("*"))))


def load_expect(path: Path) -> List[list]:
    """``--expect``'s declarations: ``[file glob, path glob, line,
    used]`` per ``FILE-GLOB PATH-GLOB`` line."""
    entries = []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(None, 1)
        if len(fields) != 2:
            raise SystemExit(f"{path}:{number}: expected FILE-GLOB PATH-GLOB")
        entries.append([_glob(fields[0]), _glob(fields[1]), line, False])
    return entries


class Report:
    """The comparisons made and the failures found."""

    def __init__(self, expect: Optional[List[list]] = None):
        self.expect = expect or []
        self.compared = 0
        self.failures: List[str] = []

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAIL {message}", flush=True)

    def _declared(self, name: str, path: str) -> bool:
        for entry in self.expect:
            if entry[0].fullmatch(name) and entry[1].fullmatch(path):
                entry[3] = True
                return True
        return False

    def compare(self, got: Path, want: Path, name: str, want_name: str,
                eps: Optional[float] = None, project=None,
                declared: bool = False) -> None:
        """Compare output ``got`` (``name``) with ``want``; the first
        difference fails, unless ``declared`` and ``--expect`` lists
        it."""
        self.compared += 1
        for path, label in ((got, name), (want, want_name)):
            if not path.is_file():
                self.fail(f"{label}: missing")
                return
        try:
            diffs = file_diffs(got, want, eps, project)
        except ValueError as exc:
            self.fail(f"{name} or {want_name}: not JSON ({exc})")
            return
        for where, mine, theirs in diffs:
            if declared and self._declared(name, where):
                continue
            self.fail(
                f"{name} differs from {want_name} at {where or '(root)'}: "
                f"{mine!r} != {theirs!r}"
            )
            return

    def undeclared(self) -> None:
        for __, __, line, used in self.expect:
            if not used:
                self.fail(f"declared difference did not occur: {line}")


# ---------------------------------------------------------------------------
# The matrix
# ---------------------------------------------------------------------------

def run_row(row: Row, out: Path, report: Report) -> int:
    """Run every cell of ``row``; returns the number of cells."""
    cells = axes_of(row)
    for axis in cells:
        cell = out / row.name / axis.name
        cell.mkdir(parents=True)
        env = environment(axis)
        start = time.perf_counter()
        for argv, stdout in commands(row, axis):
            status = run(argv, env, cell, stdout)
            if status:
                report.fail(
                    f"{row.name}/{axis.name}: `{shlex.join(argv[1:])}` "
                    f"exited {status} (see its stderr.txt)"
                )
                break
        print(f"{time.perf_counter() - start:6.1f}s  {row.name}/{axis.name}",
              flush=True)
    return len(cells)


def check_row(row: Row, out: Path, report: Report) -> None:
    """The in-tree checks of ``row``'s cells."""
    for axis in axes_of(row):
        cell, ref = f"{row.name}/{axis.name}", f"{row.name}/{axis.reference}"
        if axis.name != axis.reference:
            report.compare(out / cell / ARTIFACT, out / ref / ARTIFACT,
                           f"{cell}/{ARTIFACT}", f"{ref}/{ARTIFACT}")
            if row.campaign and axis.pooled:
                report.compare(out / cell / SIDECAR, out / ref / SIDECAR,
                               f"{cell}/{SIDECAR}", f"{ref}/{SIDECAR}",
                               project=ladders)
        elif row.campaign:
            _check_rungs_restored(out / cell / SIDECAR, cell, report)
        if axis.traced and axis.name != "traced":
            traced = f"{row.name}/traced/{TRACE}"
            report.compare(out / cell / TRACE, out / traced,
                           f"{cell}/{TRACE}", traced)
    if row.baseline is not None:
        report.compare(
            out / row.name / "w1" / ARTIFACT, BASELINES / row.baseline,
            f"{row.name}/w1/{ARTIFACT}",
            f"benchmarks/baselines/{row.baseline}", eps=REL_EPS,
        )


def _check_rungs_restored(sidecar: Path, cell: str, report: Report) -> None:
    try:
        counts = ladders(json.loads(sidecar.read_text()))
    except (OSError, ValueError):
        return  # the comparisons report a missing or broken sidecar
    counts = counts if isinstance(counts, list) else [counts]
    if not sum(entry["ladder"]["rung_restores"] for entry in counts):
        report.fail(f"{cell}/{SIDECAR}: no run restored a ladder rung")


def compare_trees(out: Path, ref: Path, report: Report) -> None:
    """Compare every output under ``out`` with the one under ``ref``."""
    names = sorted({
        path.relative_to(tree).as_posix()
        for tree in (out, ref)
        for path in tree.glob("*/*/*")
        if path.name in OUTPUTS
    })
    for name in names:
        report.compare(
            out / name, ref / name, name, f"{ref}/{name}",
            project=without_walls if name.endswith(SIDECAR) else None,
            declared=True,
        )
    report.undeclared()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None,
                        help="keep every output here (empty or absent)")
    parser.add_argument("--ref", type=Path, default=None,
                        help="compare every output with another tree's --out")
    parser.add_argument("--expect", type=Path, default=None,
                        help="differences from --ref made on purpose, one "
                             "FILE-GLOB PATH-GLOB per line")
    args = parser.parse_args(argv)
    if args.expect is not None and args.ref is None:
        parser.error("--expect needs --ref")
    if args.ref is not None and not args.ref.is_dir():
        parser.error(f"--ref {args.ref}: no such directory")
    if args.out is not None and args.out.exists() and any(args.out.iterdir()):
        parser.error(f"--out {args.out}: not empty")
    report = Report(load_expect(args.expect) if args.expect else None)
    start = time.perf_counter()
    cells = 0
    with tempfile.TemporaryDirectory() as scratch:
        out = (args.out or Path(scratch)).resolve()
        for row in ROWS:
            cells += run_row(row, out, report)
            check_row(row, out, report)
        if args.ref is not None:
            compare_trees(out, args.ref.resolve(), report)
    print(
        f"exactness: {cells} cells, {report.compared} outputs compared, "
        f"{len(report.failures)} failed ({time.perf_counter() - start:.0f} s)"
    )
    return 1 if report.failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
