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

This module turns a :class:`~repro.composite.machine.Trace` into a single
specialised Python function — straight-line direct-threaded code: one
statement sequence per micro-op, register operands and folded
``OP_CYCLES`` totals as literals, no per-op dispatch and no taint
tracking.  Every immediate (``li``/``addi`` values, ``ld``/``st``/``chk``
offsets, the ``chk`` magic, assertion bounds, the ``loop`` cost), the
image bounds and the component name are parameters whose defaults are
the trace's values, so traces that differ only in those values generate
the same source and share one ``compile()`` (a *shape*).  The program
runs against the register-value list and the image's ``array('I')``
words, and raises exactly the same fault types (and messages) as the
slow path.

A trace attaches its program on its second clean execution; one-shot
traces stay on the slow path.  Attaching costs source generation and a
function object, not a compile, once the shape is known, so when a trace
goes fast depends on that trace alone, never on what the process ran
before.

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
import types
from typing import Dict, Optional

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


class FastProgram:
    """A trace's program for one (image bounds, component) context.

    ``run`` is its shape's shared code with the trace's immediates, the
    image's ``base``/``size`` and the component name (in fault messages)
    bound as parameter defaults — never the image object — so a program
    is valid for *any* image with the same bounds.
    """

    __slots__ = ("run", "base", "size", "component_name", "n_ops", "trace_len")

    def __init__(self, run, base: int, size: int, component_name: str,
                 n_ops: int, trace_len: int):
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


#: Code object per trace shape, keyed by generated source: compiled once
#: per process and shared by every trace of that shape.  Bounded FIFO,
#: same policy as the tier-1 trace cache.
_SHAPES: Dict[str, types.CodeType] = {}
_SHAPES_CAPACITY = 4096


# Fault constructors matching the slow path's messages exactly, called
# only from the generated fault branches.  The clean path carries no
# taint, so a stack access through a bad ESP/EBP can only be an untainted
# (recoverable) segmentation fault — the SystemCrash arm of
# ``_check_addr`` is unreachable here.  Each receives the statically
# folded partial cycle total and the faulting op index (literals in the
# generated code, so the clean path pays nothing for them) and stamps
# them onto the fault, keeping fast-path faults cycle-accountable exactly
# like the slow path's.

def _stamp(fault, consumed: int, op_index: int):
    fault.cycles_consumed = consumed
    fault.op_index = op_index
    raise fault


def _oob(addr: int, reg: int, consumed: int, op_index: int, component: str):
    _stamp(
        SegmentationFault(
            f"access to unmapped address {addr:#x} (via {REG_NAMES[reg]})",
            component=component,
        ),
        consumed, op_index,
    )


def _chk_fail(addr: int, word: int, magic: int, consumed: int,
              op_index: int, component: str):
    _stamp(
        CorruptionDetected(
            f"magic check failed at {addr:#x}: {word:#x} != {magic:#x}",
            component=component,
        ),
        consumed, op_index,
    )


def _aeq_fail(reg: int, value: int, imm: int, consumed: int,
              op_index: int, component: str):
    _stamp(
        AssertionFault(
            f"assertion failed: {REG_NAMES[reg]}={value:#x} != {imm:#x}",
            component=component,
        ),
        consumed, op_index,
    )


def _arange_fail(reg: int, value: int, lo: int, hi: int, consumed: int,
                 op_index: int, component: str):
    _stamp(
        AssertionFault(
            f"range assertion failed: {REG_NAMES[reg]}="
            f"{value:#x} not in [{lo:#x}, {hi:#x}]",
            component=component,
        ),
        consumed, op_index,
    )


def _hang(iters: int, consumed: int, op_index: int, component: str):
    _stamp(
        SystemHang(
            f"loop bound {iters:#x} exceeds hang budget",
            component=component,
        ),
        consumed, op_index,
    )


def compile_trace(trace: Trace, memory, component_name: str = "?") -> FastProgram:
    """Build ``trace``'s specialised clean-path function.

    ``memory`` is the :class:`~repro.composite.memory.MemoryImage` the
    trace will execute against; its bounds become the defaults of the
    ``b``/``e`` parameters, the component name that of ``c``, and each
    immediate that of its own ``a<n>``.  The ``words`` array is still
    passed per call so the program survives ``micro_reboot`` (which
    restores words in place) and transfers to any other image with the
    same bounds.  Only a shape's first trace pays ``compile()``.
    """
    base = memory.base
    params = {"b": base, "e": base + memory.size, "c": component_name}

    def imm(value) -> str:
        """Pass ``value`` in as a new parameter (its default)."""
        name = f"a{len(params)}"
        params[name] = value
        return name

    lines = [None]  # the ``def`` line, once the parameters are known
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
        at = f"{part}, {op_index}, c"
        if code == "li":
            emit(f"    v[{op[1]}] = {imm(op[2])}")
        elif code == "mov":
            emit(f"    v[{op[1]}] = v[{op[2]}]")
        elif code == "ld":
            emit(f"    x = (v[{op[2]}] + {imm(op[3])}) & {WORD_MASK}")
            emit(f"    if not b <= x < e: _oob(x, {op[2]}, {at})")
            emit(f"    v[{op[1]}] = w[x - b]")
        elif code == "st":
            emit(f"    x = (v[{op[2]}] + {imm(op[3])}) & {WORD_MASK}")
            emit(f"    if not b <= x < e: _oob(x, {op[2]}, {at})")
            emit("    x -= b")
            emit(f"    w[x] = v[{op[1]}]")
            emit(f"    d[x >> {PAGE_SHIFT}] = 1")
        elif code == "add":
            emit(f"    v[{op[1]}] = (v[{op[1]}] + v[{op[2]}]) & {WORD_MASK}")
        elif code == "addi":
            emit(f"    v[{op[1]}] = (v[{op[1]}] + {imm(op[2])}) & {WORD_MASK}")
        elif code == "xor":
            emit(f"    v[{op[1]}] ^= v[{op[2]}]")
        elif code == "chk":
            magic = imm(op[3])
            emit(f"    x = (v[{op[1]}] + {imm(op[2])}) & {WORD_MASK}")
            emit(f"    if not b <= x < e: _oob(x, {op[1]}, {at})")
            emit(f"    if w[x - b] != {magic}: "
                 f"_chk_fail(x, w[x - b], {magic}, {at})")
        elif code == "assert_eq":
            value = imm(op[2])
            emit(f"    if v[{op[1]}] != {value}: "
                 f"_aeq_fail({op[1]}, v[{op[1]}], {value}, {at})")
        elif code == "assert_range":
            lo, hi = imm(op[2]), imm(op[3])
            emit(f"    if not {lo} <= v[{op[1]}] <= {hi}: "
                 f"_arange_fail({op[1]}, v[{op[1]}], {lo}, {hi}, {at})")
        elif code == "loop":
            has_loop = True
            emit(f"    n = v[{op[1]}]")
            emit(f"    if n > {HANG_LIMIT}: _hang(n, {at})")
            emit(f"    cyc += n * {imm(op[2])}")
        elif code == "push":
            emit(f"    x = (v[{ESP}] - 1) & {WORD_MASK}")
            emit(f"    v[{ESP}] = x")
            emit(f"    if not b <= x < e: _oob(x, {ESP}, {at})")
            emit("    x -= b")
            emit(f"    w[x] = v[{op[1]}]")
            emit(f"    d[x >> {PAGE_SHIFT}] = 1")
        elif code == "pop":
            emit(f"    x = v[{ESP}]")
            emit(f"    if not b <= x < e: _oob(x, {ESP}, {at})")
            emit(f"    v[{op[1]}] = w[x - b]")
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
    lines[0] = f"def _compiled(v, w, d, {', '.join(params)}):"
    source = "\n".join(lines)
    shape = _SHAPES.get(source)
    if shape is None:
        scope: dict = {}
        exec(compile(source, "<fastpath>", "exec"), scope)
        if len(_SHAPES) >= _SHAPES_CAPACITY:
            _SHAPES.pop(next(iter(_SHAPES)))
        shape = _SHAPES[source] = scope["_compiled"].__code__
    run = types.FunctionType(
        shape, globals(), "_compiled", tuple(params.values())
    )
    return FastProgram(
        run, base, memory.size, component_name, n_ops, len(trace.ops)
    )


def try_execute_fast(
    trace: Trace, regs, memory, component_name: str = "?", recorder=None
) -> Optional[TraceResult]:
    """Execute ``trace`` on the compiled clean path, if eligible.

    Returns ``None`` when the fast path cannot be used (disabled, tainted
    register, tainted image word, or the trace's first clean execution)
    — the caller must then fall back to
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
        if not trace._clean_runs:
            # Warm-up: a trace attaches on its second clean execution,
            # so one-shot traces never pay for building a program.
            trace._clean_runs = 1
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
