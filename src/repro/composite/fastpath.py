"""Tier-2 execution engine: each clean trace compiled to its residual.

The authoritative interpreter (:func:`repro.composite.machine.execute_trace`)
dispatches every micro-op through a string-keyed if/elif chain and threads
taint through every register and memory access.  On the *clean* path — no
pending :class:`~repro.composite.machine.Injection`, no tainted register,
no tainted word in the image — all of that bookkeeping is provably inert:
taint can only be introduced by a bit flip, so a taint-free start implies a
taint-free trace.  That clean path is ~100% of campaign executions (each
run delivers at most one injection into exactly one trace) and 100% of
webserver traffic.

**Entry-state contract.**  Both tiers start from the same state:
``ESP = EBP = memory.stack_top``, then ``trace.entry_regs``; every other
register holds whatever the thread left there.  ``Component.execute``
writes those entry registers (clearing their taint) before the
interpreter or :func:`try_execute_fast` runs.  When it runs an attached
program directly (no injection, no taint, untraced), the residual sets
them itself: it reads only registers the entry state leaves alone, and
writes the whole register file on return, or :func:`_fault` writes
every register the entry state or the ops have set.
:func:`compile_trace` runs the trace once, abstractly, from the entry
state.  It folds every register value the ops determine, and remembers
every image word this execution has stored or checked (a store through
an address only the run knows forgets them all).

**The residual** is what is left: the reads nothing has established yet
and the checks on them, every store in op order (marking each page dirty
at its first store), one register-file write, and the
:class:`~repro.composite.machine.TraceResult` — a bound constant when
value and cycles are static.  Most ops of a service trace (argument
asserts, store readbacks, re-verification passes, the stack canary, the
checksum, the closing magic check) exist to keep registers live for the
register-flip fault model; from the entry state they are proved, so
they vanish from the residual.  A kept check that pins a value
(``assert_range`` with ``lo == hi``, ``assert_eq``, ``chk``) makes that
value known for the rest of the trace.

**The fault table.**  Each kept check that fails calls :func:`_fault`
with its entry in a per-program table: the op, its index, the static
cycles through it, and the register state before it (static values in
the table, values only the run knows passed in).  ``_fault`` writes that
state, runs the op on the interpreter — which raises the exact fault
type and message — and stamps the trace-level ``cycles_consumed`` and
``op_index``.  Memory needs no repair: stores run in op order, so the
image already holds exactly the stores before the faulting op.

Every constant in the residual is a parameter whose default is its
value, never a literal, so traces whose static decisions agree generate
the same source and share one ``compile()`` (a *shape*); a trace
relocated to another image of the same size always does.  A trace
attaches its program on its second clean execution; one-shot traces
stay on the slow path.  Attaching costs the abstract run and a function
object, not a compile, once the shape is known, so when a trace goes
fast depends on that trace alone, never on what the process ran before.

The slow path remains authoritative: :func:`try_execute_fast` returns
``None`` whenever its preconditions do not hold (pending injection is
checked by the caller; taint is checked here), and the caller falls back
to ``execute_trace``.  The differential test suite in
``tests/composite/test_fastpath.py`` holds the two tiers to identical
results — (value, taint, cycles, stores_tainted), register/memory end
state, and raised-fault parity — over randomized traces.

The engine configuration's ``fast_interp`` field (``REPRO_FAST_INTERP=0``,
or ``repro.config.override(fast_interp=False)``) disables compilation
(every execution then takes the slow path); the companion tier-1 trace
cache (:class:`repro.composite.services.common.TraceCache`) has no gate.
"""

from __future__ import annotations

import types
from itertools import count
from typing import Dict, Optional

from repro.composite.machine import (
    ESP,
    EBP,
    HANG_LIMIT,
    NUM_REGS,
    OP_CYCLES,
    RegisterFile,
    Trace,
    TraceResult,
    WORD_MASK,
    execute_trace,
)
from repro.composite.memory import PAGE_SHIFT
from repro.config import CONFIG
from repro.errors import SimulatedFault


class FastProgram:
    """A trace's program for one (image bounds, component) context.

    ``run`` is its shape's shared code with the trace's constants (and
    the fault table) bound as parameter defaults — never the image
    object — so a program is valid for *any* image with the same bounds.
    """

    __slots__ = ("run", "base", "size", "component_name", "n_ops", "trace_len")

    def __init__(self, run, base: int, size: int, component_name: str,
                 n_ops: int, trace_len: int):
        #: ``run(values, words, dirty) -> TraceResult`` from the entry
        #: state; raises the simulated-fault family exactly as the slow
        #: path would.  ``dirty`` is the image's dirty-page bitmap: the
        #: first store to each page marks it, as ``MemoryImage.write_word``
        #: would have.
        self.run = run
        self.base = base
        self.size = size
        self.component_name = component_name
        #: Ops up to the first unconditional ret (the ops that can run).
        self.n_ops = n_ops
        #: len(trace.ops) at compile time — staleness guard against a
        #: builder appending ops after compilation.
        self.trace_len = trace_len


#: Code object per trace shape, keyed by generated source: compiled once
#: per process and shared by every trace of that shape.  Bounded FIFO,
#: same policy as the tier-1 trace cache.
_SHAPES: Dict[str, types.CodeType] = {}
_SHAPES_CAPACITY = 4096


class _Window:
    """The image as the interpreter sees it: bounds plus the live words.

    Only a faulting op runs through it, and an op faults before it
    writes, so reads are all it serves (the clean path has no taint).
    """

    __slots__ = ("words", "base", "end")

    def __init__(self, words, base: int, end: int):
        self.words = words
        self.base = base
        self.end = end

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end

    def read_word(self, addr: int) -> int:
        return self.words[addr - self.base]

    def is_tainted(self, addr: int) -> bool:
        return False


def _fault(v, w, site, cyc, *dynamic):
    """Raise the fault of fault-table entry ``site``, exactly as the
    interpreter would have at that op.

    The entry's ``static`` holds one pre-op value per register, ``None``
    where only the run knows it; ``dynamic`` holds those run-time values
    in the entry's register order.  ``cyc`` is the run's dynamic loop
    cycles so far.
    """
    op, op_index, cycles, static, dynamic_regs, (base, end, component) = site
    for reg, value in enumerate(static):
        if value is not None:
            v[reg] = value
    for reg, value in zip(dynamic_regs, dynamic):
        v[reg] = value
    regs = RegisterFile()
    regs.values = v
    step = Trace()
    step.ops.append(op)
    try:
        execute_trace(step, regs, _Window(w, base, end), component)
    except SimulatedFault as fault:
        fault.cycles_consumed = cycles + cyc
        fault.op_index = op_index
        raise
    raise AssertionError(f"op {op_index} {op!r} passed its compiled check")


def compile_trace(trace: Trace, memory, component_name: str = "?") -> FastProgram:
    """Build the residual program of ``trace`` (see the module docstring).

    ``memory`` is the :class:`~repro.composite.memory.MemoryImage` the
    trace will execute against; only its bounds (and so its stack top)
    shape the program.  The ``words`` array is still passed per call so
    the program survives ``micro_reboot`` (which restores words in
    place) and transfers to any other image with the same bounds.  Only
    a shape's first trace pays ``compile()``.
    """
    base, size = memory.base, memory.size
    end = base + size
    params: Dict[str, object] = {}

    def param(value) -> str:
        """Pass ``value`` in as a new parameter (its default)."""
        name = f"a{len(params)}"
        params[name] = value
        return name

    def src(value) -> str:
        return param(value) if type(value) is int else value

    lines = [None]  # the ``def`` line, once the parameters are known
    emit = lines.append
    temps = count()

    def temp(expr: str) -> str:
        name = f"t{next(temps)}"
        emit(f"    {name} = {expr}")
        return name

    # Abstract state: an int is a value known at compile time, a str the
    # source of a value only the run knows (``v[i]`` while register i
    # still holds its unknown entry value).
    unknown = [f"v[{reg}]" for reg in range(NUM_REGS)]
    regs = unknown[:]
    regs[ESP] = regs[EBP] = memory.stack_top
    for reg, value in trace.entry_regs.items():
        regs[reg] = value & WORD_MASK
    known: Dict[int, object] = {}  # address -> word stored or checked
    marked = set()  # pages this execution has marked dirty
    context = (base, end, component_name)
    sites = []
    cycles = 0  # static cycle total; ``cyc`` holds the dynamic loop part
    looped = False

    def fault(op, op_index) -> str:
        """A call raising ``op``'s fault from the current (pre-op) state."""
        static, dynamic, args = [], [], ""
        for reg, value in enumerate(regs):
            if type(value) is int:
                static.append(value)
                continue
            static.append(None)
            if value != unknown[reg]:
                dynamic.append(reg)
                args += f", {value}"
        sites.append(
            (op, op_index, cycles, tuple(static), tuple(dynamic), context)
        )
        return (f"_fault(v, w, F[{len(sites) - 1}], "
                f"{'cyc' if looped else 0}{args})")

    def check(expr: str, value: int, call: str) -> None:
        """Keep the check ``expr == value``; past it, ``expr`` is known."""
        emit(f"    if {expr} != {param(value)}: {call}")
        for reg, held in enumerate(regs):
            if held == expr:
                regs[reg] = value
        for addr, held in known.items():
            if held == expr:
                known[addr] = value

    bounds = []  # parameters holding base and end, once needed

    def locate(addr, op, op_index):
        """The address if static and in bounds, ``"x"`` (its word index)
        once a run-time bounds check passes, or ``None`` after an
        unconditional fault."""
        if type(addr) is int:
            if base <= addr < end:
                return addr
            emit(f"    {fault(op, op_index)}")
            return None
        if not bounds:
            bounds.extend((param(base), param(end)))
        b, e = bounds
        emit(f"    if not {b} <= {addr} < {e}: {fault(op, op_index)}")
        emit(f"    x = {addr} - {b}")
        return "x"

    def offset(reg: int, off: int):
        value = regs[reg]
        if type(value) is int:
            return (value + off) & WORD_MASK
        return temp(f"({value} + {param(off)}) & {WORD_MASK}")

    def load(at):
        if at == "x":
            return temp("w[x]")
        if at not in known:
            known[at] = temp(f"w[{param(at - base)}]")
        return known[at]

    def store(at, value) -> None:
        if at == "x":
            emit(f"    w[x] = {src(value)}")
            emit(f"    d[x >> {PAGE_SHIFT}] = 1")
            known.clear()
            return
        index = at - base
        emit(f"    w[{param(index)}] = {src(value)}")
        if index >> PAGE_SHIFT not in marked:
            marked.add(index >> PAGE_SHIFT)
            emit(f"    d[{param(index >> PAGE_SHIFT)}] = 1")
        known[at] = value

    def step(value, delta: int):
        if type(value) is int:
            return (value + delta) & WORD_MASK
        return temp(f"({value} + {delta}) & {WORD_MASK}")

    result = None  # the returned value, once the trace returns normally
    for op_index, op in enumerate(trace.ops):
        code = op[0]
        cycles += OP_CYCLES[code]
        if code == "li":
            regs[op[1]] = op[2]
        elif code == "mov":
            regs[op[1]] = regs[op[2]]
        elif code in ("add", "addi", "xor"):
            x = regs[op[1]]
            y = op[2] if code == "addi" else regs[op[2]]
            if type(x) is int and type(y) is int:
                regs[op[1]] = x ^ y if code == "xor" else (x + y) & WORD_MASK
            elif code == "xor":
                regs[op[1]] = temp(f"{src(x)} ^ {src(y)}")
            else:
                regs[op[1]] = temp(f"({src(x)} + {src(y)}) & {WORD_MASK}")
        elif code in ("ld", "st", "chk"):
            reg, off = (op[2], op[3]) if code != "chk" else (op[1], op[2])
            at = locate(offset(reg, off), op, op_index)
            if at is None:
                break
            if code == "ld":
                regs[op[1]] = load(at)
            elif code == "st":
                store(at, regs[op[1]])
            else:
                word = known.get(at)
                if type(word) is int:
                    if word != op[3]:
                        emit(f"    {fault(op, op_index)}")
                        break
                elif word is not None:
                    check(word, op[3], fault(op, op_index))
                else:
                    index = "x" if at == "x" else param(at - base)
                    emit(f"    if w[{index}] != {param(op[3])}: "
                         f"{fault(op, op_index)}")
                    if at != "x":
                        known[at] = op[3]
        elif code in ("assert_eq", "assert_range"):
            value = regs[op[1]]
            lo, hi = (op[2], op[2]) if code == "assert_eq" else op[2:4]
            if type(value) is int:
                if not lo <= value <= hi:
                    emit(f"    {fault(op, op_index)}")
                    break
            elif lo == hi:
                check(value, lo, fault(op, op_index))
            else:
                emit(f"    if not {param(lo)} <= {value} <= {param(hi)}: "
                     f"{fault(op, op_index)}")
        elif code == "loop":
            value = regs[op[1]]
            if type(value) is int:
                if value > HANG_LIMIT:
                    emit(f"    {fault(op, op_index)}")
                    break
                cycles += value * op[2]
            else:
                emit(f"    if {value} > {HANG_LIMIT}: {fault(op, op_index)}")
                emit(f"    cyc {'+' if looped else ''}= "
                     f"{value} * {param(op[2])}")
                looped = True
        elif code == "push":
            top = step(regs[ESP], -1)
            at = locate(top, op, op_index)
            if at is None:
                break
            regs[ESP] = top
            store(at, regs[op[1]])
        elif code == "pop":
            at = locate(regs[ESP], op, op_index)
            if at is None:
                break
            regs[op[1]] = load(at)
            regs[ESP] = step(regs[ESP], 1)
        elif code == "ret":
            result = regs[op[1]]
            break  # straight-line ISA: ops past an unconditional ret are dead
        else:  # pragma: no cover - defensive, mirrors the slow path
            raise AssertionError(f"unknown micro-op {code!r}")
    else:
        result = 0  # fell off the end without a ret, as the slow path does
    # A ``break`` without a result follows an unconditional fault.
    if result is not None:
        if all(type(value) is int for value in regs):
            emit(f"    v[:] = {param(tuple(regs))}")
        else:
            emit(f"    v[:] = ({', '.join(map(src, regs))},)")
        if type(result) is int and not looped:
            emit(f"    return {param(TraceResult(result, False, cycles, 0))}")
        else:
            total = f"{param(cycles)} + cyc" if looped else param(cycles)
            emit(f"    return TraceResult({src(result)}, False, {total}, 0)")
    if sites:
        params["F"] = tuple(sites)
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
    n_ops = next(
        (at + 1 for at, op in enumerate(trace.ops) if op[0] == "ret"),
        len(trace.ops),
    )
    return FastProgram(
        run, base, size, component_name, n_ops, len(trace.ops)
    )


def attached_program(
    trace: Trace, memory, component_name: str
) -> Optional[FastProgram]:
    """``trace``'s attached program if it is valid for ``memory``'s
    bounds and ``component_name`` (and tier 2 is on), else ``None``."""
    program = trace._compiled
    if (
        CONFIG.fast_interp
        and program is not None
        and program.base == memory.base
        and program.size == memory.size
        and program.trace_len == len(trace.ops)
        and program.component_name == component_name
    ):
        return program
    return None


def try_execute_fast(
    trace: Trace, regs, memory, component_name: str = "?", recorder=None
) -> Optional[TraceResult]:
    """Execute ``trace`` on the compiled clean path, if eligible.

    ``regs`` must hold the entry state (see the module docstring).
    Returns ``None`` when the fast path cannot be used (disabled, tainted
    register, tainted image word, or the trace's first clean execution)
    — the caller must then fall back to
    :func:`~repro.composite.machine.execute_trace`.  The caller is
    responsible for ensuring no injection is pending.  Simulated faults
    propagate exactly as from the slow path.

    ``recorder`` is an (already enabled) flight recorder, or ``None``;
    it observes only the compile/attach boundary — nothing is emitted
    per executed micro-op, so tracing cannot perturb the fast path.
    """
    if not CONFIG.fast_interp:
        return None
    try:
        tainted = memory._taint_count
    except AttributeError:
        # Not a MemoryImage stand-in we know how to vet: stay slow.
        return None
    if tainted or True in regs.taint:
        return None
    program = attached_program(trace, memory, component_name)
    if program is None:
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
    return program.run(regs.values, memory.words, memory._dirty)
