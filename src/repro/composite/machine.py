"""Simulated machine: register files, micro-op traces, and their interpreter.

The paper injects transient faults by flipping bits in CPU registers of
threads executing *within* a target system component (Section V-A).  For
that to be meaningful in a simulation, component interface functions must
actually *execute* through registers and memory.  This module provides:

* an 8-register, 32-bit register file per thread (6 general-purpose
  registers plus ``ESP``/``EBP``, as in the paper);
* a tiny micro-op ISA (loads, stores, ALU ops, magic-word checks,
  assertions, bounded loops, stack push/pop, return);
* a :class:`Trace` builder that services use to mirror each interface
  operation onto simulated memory; and
* an interpreter that executes traces, accounts virtual cycles, applies a
  pending bit-flip injection, and lets the *natural* consequences of the
  flip surface: out-of-range addresses raise simulated segmentation faults,
  corrupted magic words raise corruption checks, corrupted loop bounds hang,
  dead registers go unnoticed.

Taint is tracked so that a corrupted value escaping through ``ret`` can be
flagged — this is how fault *propagation* into clients is modelled.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import (
    AssertionFault,
    CorruptionDetected,
    SegmentationFault,
    SimulatedFault,
    SystemCrash,
    SystemHang,
)

WORD_MASK = 0xFFFFFFFF
NUM_REGS = 8

# Register names (x86-32 flavoured, as in the paper's SWIFI setup:
# six general-purpose registers plus the two special registers ESP, EBP).
EAX, EBX, ECX, EDX, ESI, EDI, ESP, EBP = range(8)
REG_NAMES = ("EAX", "EBX", "ECX", "EDX", "ESI", "EDI", "ESP", "EBP")
GP_REGS = (EAX, EBX, ECX, EDX, ESI, EDI)

#: iterations above which a loop is declared hung (latent-fault detection
#: budget; C'MON-style watchdog).
HANG_LIMIT = 1 << 16

#: Per-op virtual cycle costs.  Loads/stores cost more than ALU ops; the
#: absolute values only matter relative to the invocation cost constants in
#: :mod:`repro.composite.kernel`.
OP_CYCLES = {
    "li": 1,
    "mov": 1,
    "add": 1,
    "addi": 1,
    "xor": 1,
    "ld": 3,
    "st": 3,
    "chk": 4,
    "assert_eq": 2,
    "assert_range": 2,
    "loop": 2,
    "push": 3,
    "pop": 3,
    "ret": 1,
}


class RegisterFile:
    """Eight 32-bit registers with per-register taint bits.

    Taint marks values derived from an injected bit flip; it is how the
    simulation distinguishes "the flip was overwritten before use"
    (undetected fault) from "the flip reached an observable action".
    """

    __slots__ = ("values", "taint")

    def __init__(self):
        self.values: List[int] = [0] * NUM_REGS
        self.taint: List[bool] = [False] * NUM_REGS

    def write(self, reg: int, value: int, tainted: bool = False) -> None:
        self.values[reg] = value & WORD_MASK
        self.taint[reg] = tainted

    def read(self, reg: int) -> int:
        return self.values[reg]

    def flip_bit(self, reg: int, bit: int) -> None:
        """Apply a single-event upset: flip one bit and mark the register."""
        self.values[reg] ^= (1 << bit) & WORD_MASK
        self.taint[reg] = True

    def clear_taint(self) -> None:
        for i in range(NUM_REGS):
            self.taint[i] = False

    def snapshot(self) -> Tuple[int, ...]:
        return tuple(self.values)


class Injection:
    """A pending single-bit flip to apply during trace execution.

    Attributes:
        reg: register index (0-7).
        bit: bit position (0-31).
        op_index: micro-op index before which the flip is applied.
    """

    __slots__ = ("reg", "bit", "op_index", "applied")

    def __init__(self, reg: int, bit: int, op_index: int):
        self.reg = reg
        self.bit = bit
        self.op_index = op_index
        self.applied = False

    def __repr__(self):
        return (
            f"Injection(reg={REG_NAMES[self.reg]}, bit={self.bit}, "
            f"op_index={self.op_index})"
        )


class Trace:
    """A straight-line micro-op trace for one interface operation.

    Services build one trace per interface call, mirroring the loads,
    stores, and consistency checks the real C implementation would perform
    on its data structures.
    """

    __slots__ = ("ops", "label", "entry_regs", "sealed", "_compiled", "_clean_runs")

    def __init__(self, label: str = ""):
        self.ops: List[tuple] = []
        self.label = label
        #: Register values the invocation delivers on entry (arguments and
        #: the record address travel in registers, so they are live — and
        #: flip-vulnerable — from the first micro-op).
        self.entry_regs: dict = {}
        #: Set by ServiceComponent.finish once the epilogue is appended;
        #: cached traces are sealed so a redundant finish cannot grow them.
        self.sealed = False
        #: Fast-path program (repro.composite.fastpath.FastProgram),
        #: attached lazily once the trace proves hot (second clean run).
        self._compiled = None
        #: 1 once a clean execution was seen; the fast path attaches a
        #: program only to a trace executed more than once, so
        #: single-shot traces never pay for building one.
        self._clean_runs = 0

    def __len__(self):
        return len(self.ops)

    # -- builders ----------------------------------------------------------
    def li(self, dst: int, imm: int) -> "Trace":
        self.ops.append(("li", dst, imm & WORD_MASK))
        return self

    def mov(self, dst: int, src: int) -> "Trace":
        self.ops.append(("mov", dst, src))
        return self

    def ld(self, dst: int, addr_reg: int, off: int = 0) -> "Trace":
        self.ops.append(("ld", dst, addr_reg, off))
        return self

    def st(self, src: int, addr_reg: int, off: int = 0) -> "Trace":
        self.ops.append(("st", src, addr_reg, off))
        return self

    def add(self, dst: int, src: int) -> "Trace":
        self.ops.append(("add", dst, src))
        return self

    def addi(self, dst: int, imm: int) -> "Trace":
        self.ops.append(("addi", dst, imm & WORD_MASK))
        return self

    def xor(self, dst: int, src: int) -> "Trace":
        self.ops.append(("xor", dst, src))
        return self

    def chk(self, addr_reg: int, off: int, magic: int) -> "Trace":
        """Load a word and verify it equals a magic value (fail-stop)."""
        self.ops.append(("chk", addr_reg, off, magic & WORD_MASK))
        return self

    def assert_eq(self, reg: int, imm: int) -> "Trace":
        self.ops.append(("assert_eq", reg, imm & WORD_MASK))
        return self

    def assert_range(self, reg: int, lo: int, hi: int) -> "Trace":
        self.ops.append(("assert_range", reg, lo & WORD_MASK, hi & WORD_MASK))
        return self

    def loop(self, reg: int, cost_per_iter: int = 2) -> "Trace":
        """Model a loop of ``reg`` iterations (e.g. a list/tree walk)."""
        self.ops.append(("loop", reg, cost_per_iter))
        return self

    def push(self, src: int) -> "Trace":
        self.ops.append(("push", src))
        return self

    def pop(self, dst: int) -> "Trace":
        self.ops.append(("pop", dst))
        return self

    def ret(self, src: int = EAX) -> "Trace":
        self.ops.append(("ret", src))
        return self

    # Conventional function prologue/epilogue: real stub/server code always
    # runs these, which is what exposes ESP/EBP to injections.
    def prologue(self) -> "Trace":
        return self.push(EBP).mov(EBP, ESP)

    def epilogue(self, retreg: int = EAX) -> "Trace":
        # x86 `leave`: restore the stack pointer from the frame pointer,
        # then pop the saved frame pointer.  This keeps EBP live (a flip in
        # it surfaces as a bad stack access) exactly as in real code.
        return self.mov(ESP, EBP).pop(EBP).ret(retreg)


class TraceResult:
    """Outcome of executing a trace."""

    __slots__ = ("value", "tainted", "cycles", "stores_tainted")

    def __init__(self, value: int, tainted: bool, cycles: int, stores_tainted: int):
        self.value = value
        self.tainted = tainted
        self.cycles = cycles
        self.stores_tainted = stores_tainted


def execute_trace(
    trace: Trace,
    regs: RegisterFile,
    memory,
    component_name: str = "?",
    injection: Optional[Injection] = None,
) -> TraceResult:
    """Interpret ``trace`` against ``regs`` and ``memory``.

    ``memory`` is a :class:`repro.composite.memory.MemoryImage`.  If
    ``injection`` is given, its bit flip is applied immediately before the
    micro-op at ``injection.op_index`` (clamped to the trace length), after
    which the corrupted register's effects play out naturally.

    Raises the :class:`~repro.errors.SimulatedFault` family on detected
    faults.  Returns a :class:`TraceResult` otherwise.
    """
    cycles = 0
    ret_value = 0
    ret_tainted = False
    stores_tainted = 0
    values = regs.values
    taint = regs.taint
    inj_index = -1
    if injection is not None and not injection.applied:
        inj_index = min(injection.op_index, max(len(trace.ops) - 1, 0))

    index = -1
    try:
        for index, op in enumerate(trace.ops):
            if index == inj_index:
                regs.flip_bit(injection.reg, injection.bit)
                injection.applied = True
            code = op[0]
            cycles += OP_CYCLES[code]

            if code == "li":
                values[op[1]] = op[2]
                taint[op[1]] = False
            elif code == "mov":
                values[op[1]] = values[op[2]]
                taint[op[1]] = taint[op[2]]
            elif code == "ld":
                addr = (values[op[2]] + op[3]) & WORD_MASK
                _check_addr(addr, memory, component_name, op[2], taint[op[2]], store=False)
                values[op[1]] = memory.read_word(addr)
                taint[op[1]] = taint[op[2]] or memory.is_tainted(addr)
            elif code == "st":
                addr = (values[op[2]] + op[3]) & WORD_MASK
                _check_addr(addr, memory, component_name, op[2], taint[op[2]], store=True)
                tainted_store = taint[op[1]] or taint[op[2]]
                memory.write_word(addr, values[op[1]], tainted=tainted_store)
                if tainted_store:
                    stores_tainted += 1
            elif code == "add":
                values[op[1]] = (values[op[1]] + values[op[2]]) & WORD_MASK
                taint[op[1]] = taint[op[1]] or taint[op[2]]
            elif code == "addi":
                values[op[1]] = (values[op[1]] + op[2]) & WORD_MASK
            elif code == "xor":
                values[op[1]] = values[op[1]] ^ values[op[2]]
                taint[op[1]] = taint[op[1]] or taint[op[2]]
            elif code == "chk":
                addr = (values[op[1]] + op[2]) & WORD_MASK
                _check_addr(addr, memory, component_name, op[1], taint[op[1]], store=False)
                word = memory.read_word(addr)
                if word != op[3]:
                    raise CorruptionDetected(
                        f"magic check failed at {addr:#x}: "
                        f"{word:#x} != {op[3]:#x}",
                        component=component_name,
                    )
            elif code == "assert_eq":
                if values[op[1]] != op[2]:
                    raise AssertionFault(
                        f"assertion failed: {REG_NAMES[op[1]]}="
                        f"{values[op[1]]:#x} != {op[2]:#x}",
                        component=component_name,
                    )
            elif code == "assert_range":
                if not (op[2] <= values[op[1]] <= op[3]):
                    raise AssertionFault(
                        f"range assertion failed: {REG_NAMES[op[1]]}="
                        f"{values[op[1]]:#x} not in [{op[2]:#x}, {op[3]:#x}]",
                        component=component_name,
                    )
            elif code == "loop":
                iters = values[op[1]]
                if iters > HANG_LIMIT:
                    raise SystemHang(
                        f"loop bound {iters:#x} exceeds hang budget",
                        component=component_name,
                    )
                cycles += iters * op[2]
            elif code == "push":
                values[ESP] = (values[ESP] - 1) & WORD_MASK
                addr = values[ESP]
                _check_addr(addr, memory, component_name, ESP, taint[ESP], store=True)
                memory.write_word(addr, values[op[1]], tainted=taint[op[1]] or taint[ESP])
            elif code == "pop":
                addr = values[ESP]
                _check_addr(addr, memory, component_name, ESP, taint[ESP], store=False)
                values[op[1]] = memory.read_word(addr)
                taint[op[1]] = taint[ESP] or memory.is_tainted(addr)
                values[ESP] = (values[ESP] + 1) & WORD_MASK
            elif code == "ret":
                ret_value = values[op[1]]
                ret_tainted = taint[op[1]]
                break
            else:  # pragma: no cover - defensive
                raise AssertionError(f"unknown micro-op {code!r}")
    except SimulatedFault as fault:
        # Tell the caller how far execution actually got: the virtual
        # time of the ops up to and including the faulting one, and the
        # faulting op's index.  Component.execute charges exactly this
        # instead of approximating with the full-trace cost (which
        # overcharged first-op faults by the whole trace length).
        fault.cycles_consumed = cycles
        fault.op_index = index
        raise

    return TraceResult(ret_value, ret_tainted, cycles, stores_tainted)


def _check_addr(addr, memory, component_name, addr_reg, addr_tainted, store):
    """Bounds-check a memory access; raise the appropriate fault.

    An out-of-range access is a segmentation fault.  If the bad address
    came from a corrupted *stack* register, the exception path itself —
    which diverts the thread to the booter via the thread's stack — is
    destroyed, so the whole system exits with a segmentation fault rather
    than fail-stopping; this models the paper's "Not recovered (segfault)"
    outcome (Section V-D: Sched shows the most such crashes).
    """
    if memory.contains(addr):
        return
    if addr_reg in (ESP, EBP) and addr_tainted:
        raise SystemCrash(
            f"stack access through corrupted {REG_NAMES[addr_reg]} "
            f"at {addr:#x}: exception path destroyed",
            component=component_name,
        )
    raise SegmentationFault(
        f"access to unmapped address {addr:#x} "
        f"(via {REG_NAMES[addr_reg]})",
        component=component_name,
    )
