"""Tier-2 execution engine: per-trace compiled clean-path interpreter.

The authoritative interpreter (:func:`repro.composite.machine.execute_trace`)
dispatches every micro-op through a string-keyed if/elif chain and threads
taint through every register and memory access.  On the *clean* path — no
pending :class:`~repro.composite.machine.Injection`, no tainted register,
no tainted word in the image — all of that bookkeeping is provably inert:
taint can only be introduced by a bit flip, so a taint-free start implies a
taint-free trace.  That clean path is ~100% of campaign executions (each
run delivers at most one injection into exactly one trace) and 100% of
webserver traffic.

This module compiles a :class:`~repro.composite.machine.Trace` once into a
single specialised Python function — straight-line direct-threaded code:
one statement sequence per micro-op, operands and ``OP_CYCLES`` folded in
as literals, memory bounds inlined as constants, no per-op dispatch and no
taint tracking.  The compiled program runs against the register-value list
and the image's ``array('I')`` words, and raises exactly the same fault
types (and messages) as the slow path.

The slow path remains authoritative: :func:`try_execute_fast` returns
``None`` whenever its preconditions do not hold (pending injection is
checked by the caller; taint is checked here), and the caller falls back
to ``execute_trace``.  The differential test suite in
``tests/composite/test_fastpath.py`` holds the two tiers to identical
results — (value, taint, cycles, stores_tainted), register/memory end
state, and raised-fault parity — over randomized traces.

Set ``REPRO_FAST_INTERP=0`` to disable compilation (every execution then
takes the slow path); the companion tier-1 trace cache is gated separately
by ``REPRO_TRACE_CACHE`` (see :mod:`repro.composite.services.common`).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional

from repro.composite.machine import (
    ESP,
    HANG_LIMIT,
    OP_CYCLES,
    REG_NAMES,
    Trace,
    TraceResult,
    WORD_MASK,
)
from repro.composite.memory import PAGE_SHIFT
from repro.errors import (
    AssertionFault,
    CorruptionDetected,
    SegmentationFault,
    SystemHang,
)

#: Module-level gate, read from ``REPRO_FAST_INTERP`` at import.  Tests
#: monkeypatch this attribute to force the slow path.
FAST_INTERP_ENABLED = os.environ.get("REPRO_FAST_INTERP", "1") != "0"

#: Clean executions a trace must prove before the fast path will pay
#: ``builtins.compile`` for a *novel* op tuple (a program-cache miss,
#: ~1.4 ms).  Attaching an already-compiled program is nearly free, so
#: that happens on the second clean execution regardless.  Without the
#: higher bar, long-tail traces whose op lists are unique per cache key
#: (seed-dependent record values folded into the ops) each burn one
#: throwaway compile the moment a pooled system re-hits them — slower
#: than just interpreting them forever.
NOVEL_COMPILE_RUNS = 8


class FastProgram:
    """A trace compiled for one (image bounds, component) context.

    The generated code folds only the image's ``base``/``size`` and the
    component name (in fault messages) — never the image object — so a
    program is valid for *any* image with the same bounds.  That is what
    lets the module-level program cache below share compiles across the
    fresh systems a SWIFI campaign builds per run.
    """

    __slots__ = (
        "run", "base", "size", "component_name", "n_ops", "trace_len",
        "source",
    )

    def __init__(self, run, base: int, size: int, component_name: str,
                 n_ops: int, trace_len: int, source: str):
        #: ``run(values, words, dirty) -> (ret_value, cycles)``; raises
        #: the simulated-fault family exactly as the slow path would.
        #: ``dirty`` is the image's dirty-page bitmap: every compiled
        #: store marks its page, same as ``MemoryImage.write_word``.
        self.run = run
        self.base = base
        self.size = size
        self.component_name = component_name
        #: Ops actually compiled (stops at the first unconditional ret).
        self.n_ops = n_ops
        #: len(trace.ops) at compile time — staleness guard against a
        #: builder appending ops after compilation.
        self.trace_len = trace_len
        self.source = source


#: Module-level compiled-program memo.  A SWIFI campaign builds a fresh
#: system per run, so per-trace caching alone would recompile the same op
#: lists hundreds of times; keying on the full op tuple amortises each
#: compile across the whole campaign.  Bounded FIFO, same policy as the
#: tier-1 trace cache.
_PROGRAM_CACHE: dict = {}
_PROGRAM_CACHE_CAPACITY = 4096


@contextmanager
def program_cache_rolled_back():
    """Forget, on exit, whatever the block changed in the program memo.

    A traced campaign run records fast-path attaches and compiles, and
    those depend on what earlier runs of the same process left in the
    memo.  Rolling the memo back after each traced run keeps its record
    a function of the run alone, so serial and forked campaigns export
    identical traces.
    """
    saved = dict(_PROGRAM_CACHE)
    try:
        yield
    finally:
        _PROGRAM_CACHE.clear()
        _PROGRAM_CACHE.update(saved)


def _make_fault_helpers(component_name: str) -> dict:
    """Fault constructors matching the slow path's messages exactly.

    The clean path carries no taint, so a stack access through a bad
    ESP/EBP can only be an untainted (recoverable) segmentation fault —
    the SystemCrash arm of ``_check_addr`` is unreachable here.

    Each helper receives the statically folded partial cycle total and
    the faulting op index (literals in the generated code, so the clean
    path pays nothing for them) and stamps them onto the fault, keeping
    fast-path faults cycle-accountable exactly like the slow path's.
    """

    def _stamp(fault, consumed: int, op_index: int):
        fault.cycles_consumed = consumed
        fault.op_index = op_index
        raise fault

    def oob(addr: int, reg: int, consumed: int, op_index: int):
        _stamp(
            SegmentationFault(
                f"access to unmapped address {addr:#x} "
                f"(via {REG_NAMES[reg]})",
                component=component_name,
            ),
            consumed, op_index,
        )

    def chk_fail(addr: int, word: int, magic: int, consumed: int, op_index: int):
        _stamp(
            CorruptionDetected(
                f"magic check failed at {addr:#x}: "
                f"{word:#x} != {magic:#x}",
                component=component_name,
            ),
            consumed, op_index,
        )

    def assert_eq_fail(reg: int, value: int, imm: int, consumed: int, op_index: int):
        _stamp(
            AssertionFault(
                f"assertion failed: {REG_NAMES[reg]}="
                f"{value:#x} != {imm:#x}",
                component=component_name,
            ),
            consumed, op_index,
        )

    def assert_range_fail(reg: int, value: int, lo: int, hi: int, consumed: int, op_index: int):
        _stamp(
            AssertionFault(
                f"range assertion failed: {REG_NAMES[reg]}="
                f"{value:#x} not in [{lo:#x}, {hi:#x}]",
                component=component_name,
            ),
            consumed, op_index,
        )

    def hang(iters: int, consumed: int, op_index: int):
        _stamp(
            SystemHang(
                f"loop bound {iters:#x} exceeds hang budget",
                component=component_name,
            ),
            consumed, op_index,
        )

    return {
        "_oob": oob,
        "_chk_fail": chk_fail,
        "_aeq_fail": assert_eq_fail,
        "_arange_fail": assert_range_fail,
        "_hang": hang,
    }


def compile_trace(trace: Trace, memory, component_name: str = "?") -> FastProgram:
    """Compile ``trace`` into a specialised clean-path function.

    ``memory`` is the :class:`~repro.composite.memory.MemoryImage` the
    trace will execute against; its base/size are folded into the code as
    literal bounds.  The ``words`` array is still passed per call so the
    program survives ``micro_reboot`` (which restores words in place) and
    transfers to any other image with the same bounds.
    """
    cache_key = (component_name, memory.base, memory.size, tuple(trace.ops))
    cached = _PROGRAM_CACHE.get(cache_key)
    if cached is not None:
        return cached
    base = memory.base
    end = memory.base + memory.size
    lines = ["def _compiled(v, w, d):"]
    emit = lines.append
    cycles = 0  # static cycle total, folded at compile time
    has_loop = False
    n_ops = 0

    for op_index, op in enumerate(trace.ops):
        code = op[0]
        cycles += OP_CYCLES[code]
        n_ops += 1
        # Cycles consumed if this op faults, folded into the generated
        # fault calls as a literal (plus the dynamic loop term once a
        # loop op has appeared) — mirrors the slow path's accounting.
        part = f"{cycles} + cyc" if has_loop or code == "loop" else str(cycles)
        if code == "li":
            emit(f"    v[{op[1]}] = {op[2]}")
        elif code == "mov":
            emit(f"    v[{op[1]}] = v[{op[2]}]")
        elif code == "ld":
            emit(f"    x = (v[{op[2]}] + {op[3]}) & {WORD_MASK}")
            emit(f"    if not {base} <= x < {end}: "
                 f"_oob(x, {op[2]}, {part}, {op_index})")
            emit(f"    v[{op[1]}] = w[x - {base}]")
        elif code == "st":
            emit(f"    x = (v[{op[2]}] + {op[3]}) & {WORD_MASK}")
            emit(f"    if not {base} <= x < {end}: "
                 f"_oob(x, {op[2]}, {part}, {op_index})")
            emit(f"    x -= {base}")
            emit(f"    w[x] = v[{op[1]}]")
            emit(f"    d[x >> {PAGE_SHIFT}] = 1")
        elif code == "add":
            emit(f"    v[{op[1]}] = (v[{op[1]}] + v[{op[2]}]) & {WORD_MASK}")
        elif code == "addi":
            emit(f"    v[{op[1]}] = (v[{op[1]}] + {op[2]}) & {WORD_MASK}")
        elif code == "xor":
            emit(f"    v[{op[1]}] ^= v[{op[2]}]")
        elif code == "chk":
            emit(f"    x = (v[{op[1]}] + {op[2]}) & {WORD_MASK}")
            emit(f"    if not {base} <= x < {end}: "
                 f"_oob(x, {op[1]}, {part}, {op_index})")
            emit(f"    if w[x - {base}] != {op[3]}: "
                 f"_chk_fail(x, w[x - {base}], {op[3]}, {part}, {op_index})")
        elif code == "assert_eq":
            emit(f"    if v[{op[1]}] != {op[2]}: "
                 f"_aeq_fail({op[1]}, v[{op[1]}], {op[2]}, {part}, {op_index})")
        elif code == "assert_range":
            emit(f"    if not {op[2]} <= v[{op[1]}] <= {op[3]}: "
                 f"_arange_fail({op[1]}, v[{op[1]}], {op[2]}, {op[3]}, "
                 f"{part}, {op_index})")
        elif code == "loop":
            has_loop = True
            emit(f"    n = v[{op[1]}]")
            emit(f"    if n > {HANG_LIMIT}: _hang(n, {part}, {op_index})")
            emit(f"    cyc += n * {op[2]}")
        elif code == "push":
            emit(f"    x = (v[{ESP}] - 1) & {WORD_MASK}")
            emit(f"    v[{ESP}] = x")
            emit(f"    if not {base} <= x < {end}: "
                 f"_oob(x, {ESP}, {part}, {op_index})")
            emit(f"    x -= {base}")
            emit(f"    w[x] = v[{op[1]}]")
            emit(f"    d[x >> {PAGE_SHIFT}] = 1")
        elif code == "pop":
            emit(f"    x = v[{ESP}]")
            emit(f"    if not {base} <= x < {end}: "
                 f"_oob(x, {ESP}, {part}, {op_index})")
            emit(f"    v[{op[1]}] = w[x - {base}]")
            emit(f"    v[{ESP}] = (x + 1) & {WORD_MASK}")
        elif code == "ret":
            total = f"{cycles} + cyc" if has_loop else str(cycles)
            emit(f"    return v[{op[1]}], {total}")
            break  # straight-line ISA: ops past an unconditional ret are dead
        else:  # pragma: no cover - defensive, mirrors the slow path
            raise AssertionError(f"unknown micro-op {code!r}")
    else:
        # Trace fell off the end without a ret: the slow path returns 0.
        total = f"{cycles} + cyc" if has_loop else str(cycles)
        emit(f"    return 0, {total}")

    if has_loop:
        lines.insert(1, "    cyc = 0")
    source = "\n".join(lines)
    namespace = _make_fault_helpers(component_name)
    exec(compile(source, f"<fastpath:{trace.label or component_name}>", "exec"),
         namespace)
    program = FastProgram(
        namespace["_compiled"], memory.base, memory.size, component_name,
        n_ops, len(trace.ops), source,
    )
    if len(_PROGRAM_CACHE) >= _PROGRAM_CACHE_CAPACITY:
        _PROGRAM_CACHE.pop(next(iter(_PROGRAM_CACHE)))
    _PROGRAM_CACHE[cache_key] = program
    return program


def try_execute_fast(
    trace: Trace, regs, memory, component_name: str = "?", recorder=None
) -> Optional[TraceResult]:
    """Execute ``trace`` on the compiled clean path, if eligible.

    Returns ``None`` when the fast path cannot be used (disabled, tainted
    register, or tainted image word) — the caller must then fall back to
    :func:`~repro.composite.machine.execute_trace`.  The caller is
    responsible for ensuring no injection is pending.  Simulated faults
    propagate exactly as from the slow path.

    ``recorder`` is an (already enabled) flight recorder, or ``None``;
    it observes only the compile/attach boundary — nothing is emitted
    per executed micro-op, so tracing cannot perturb the fast path's
    per-op loop.
    """
    if not FAST_INTERP_ENABLED:
        return None
    try:
        tainted = memory._taint_count
    except AttributeError:
        # Not a MemoryImage stand-in we know how to vet: stay slow.
        return None
    if tainted or True in regs.taint:
        return None
    program = trace._compiled
    if (
        program is None
        or program.base != memory.base
        or program.size != memory.size
        or program.trace_len != len(trace.ops)
        or program.component_name != component_name
    ):
        runs = trace._clean_runs
        if runs == 0:
            # Warm-up: compiling costs far more than one interpreted run,
            # so a trace must prove it is re-executed (cache-hit service
            # traces, reused tracking traces) before it is compiled.
            # One-shot traces take the slow path forever.
            trace._clean_runs = 1
            return None
        if runs < NOVEL_COMPILE_RUNS:
            # Re-executed, but not yet hot enough to justify compiling
            # from scratch.  If an identical op tuple was already
            # compiled elsewhere (fresh campaign systems rebuild the
            # same traces every run), attach it — that is a dict lookup,
            # not a compile.  Otherwise keep interpreting until the
            # trace earns a novel compile.
            cached = _PROGRAM_CACHE.get(
                (component_name, memory.base, memory.size, tuple(trace.ops))
            )
            if cached is None:
                trace._clean_runs = runs + 1
                return None
        program = compile_trace(trace, memory, component_name)
        trace._compiled = program
        if recorder is not None:
            recorder.emit(
                "fastpath_compile",
                component=component_name,
                label=trace.label,
                ops=program.n_ops,
            )
    value, cycles = program.run(regs.values, memory.words, memory._dirty)
    return TraceResult(value, False, cycles, 0)
