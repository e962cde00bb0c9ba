"""Differential tests: compiled fast path vs authoritative interpreter.

The fast path (:mod:`repro.composite.fastpath`) is only correct if it is
*indistinguishable* from :func:`repro.composite.machine.execute_trace` on
every clean trace: same ``TraceResult`` fields, same final register and
memory state, and — when the trace faults — the same exception type with
the same message.  These tests hold the two tiers to that contract over
a large seeded-random trace population, plus handwritten edge cases for
every op and every fault family.  A trace compiles to the residual its
static decisions leave, so the same trace relocated to another image of
the same size shares its compiled code, while a sibling with redrawn
immediates only has to agree with the interpreter.  A twin with renamed
registers runs other code whenever the residual holds a run-time
register value, since the residual then names that register.
"""

from __future__ import annotations

import builtins
import random

import pytest

from repro.composite import component, fastpath
from repro.composite.component import Component
from repro.composite.fastpath import compile_trace, try_execute_fast
from repro.composite.kernel import Kernel
from repro.composite.machine import (
    EAX,
    EBP,
    EBX,
    ECX,
    EDX,
    EDI,
    ESI,
    ESP,
    HANG_LIMIT,
    Injection,
    RegisterFile,
    Trace,
    execute_trace,
)
from repro.composite.memory import MemoryImage
from repro.composite.services.common import ServiceComponent
from repro.composite.thread import SimThread
from repro.config import override
from repro.errors import SimulatedFault
from repro.idl_specs import SERVICES
from repro.swifi.campaign import CampaignRunner
from repro.webserver.campaign import WebRunSpec, execute_web_run, web_run_seeds

BASE = 0x0200_0000
WORDS = 2048
MAGIC = 0x5EC0FFEE

#: General-purpose registers a random trace computes with (stack registers
#: are exercised separately through push/pop and the harness entry values).
GP_REGS = (EAX, EBX, ECX, EDX, ESI, EDI)

#: Where each op keeps its immediates; everything else in an op (its
#: code and register operands) is part of the trace's shape.
IMMEDIATES = {
    "li": (2,), "addi": (2,), "ld": (3,), "st": (3,), "chk": (2, 3),
    "assert_eq": (2,), "assert_range": (2, 3), "loop": (2,),
}

#: A second image base, for relocated twins (same size) and redrawn
#: siblings (other size).
OTHER_BASE = BASE + 0x10000
OTHER_WORDS = 2 * WORDS

#: Every general-purpose register mapped to another one.
RENAME = dict(zip(GP_REGS, GP_REGS[1:] + GP_REGS[:1]))


def fill_record(image: MemoryImage) -> None:
    record = image.alloc_record(MAGIC, 8)
    for off in range(1, 8):
        image.write_word(record + off, off * 3)
    image.write_word(record + 8, record)  # a pointer to the record itself


def fresh_image(base: int = BASE, words: int = WORDS) -> MemoryImage:
    image = MemoryImage(base, words)
    fill_record(image)
    image.freeze_good_image()  # every page clean: stores must mark theirs
    return image


class TraceHost(Component):
    """A component whose attached image is :func:`fresh_image`'s."""

    image_words = WORDS

    def reinit(self):
        fill_record(self.image)


def fresh_regs(image: MemoryImage, entry: dict, junk=()) -> RegisterFile:
    """The entry state ``Component.execute`` gives both tiers; ``junk``
    is what the general-purpose registers held before it."""
    regs = RegisterFile()
    for reg, value in zip(GP_REGS, junk):
        regs.write(reg, value)
    regs.write(ESP, image.stack_top)
    regs.write(EBP, image.stack_top)
    for reg, value in entry.items():
        regs.write(reg, value)
    return regs


def random_trace(rng: random.Random, image: MemoryImage) -> Trace:
    """A random but *mostly valid* trace over the machine's full ISA.

    Valid-biased: address registers usually point into the record, checks
    usually pass.  A deliberate minority of ops is broken (bad address,
    wrong magic, failing assertion, hang-sized loop) so the fault paths
    are exercised too — parity matters on both.  Some registers are not
    delivered on entry (they keep whatever the thread left there), and
    some ops move, load, push and pop the stack registers themselves.
    """
    record = image.base + 16  # first record allocated by fresh_image
    trace = Trace(f"rand{rng.randrange(1 << 16)}")
    trace.entry_regs = {
        EAX: record,
        EBX: rng.randrange(1 << 8),
        ECX: rng.randrange(1 << 8),
        EDX: rng.randrange(1 << 8),
        ESI: rng.randrange(1 << 8),
        EDI: rng.randrange(1 << 8),
    }
    for reg in GP_REGS:
        if rng.random() < 0.15:
            del trace.entry_regs[reg]
    if rng.random() < 0.8:
        trace.prologue()
    depth = 0  # words pushed so far (keeps most pops balanced)
    for __ in range(rng.randrange(1, 40)):
        choice = rng.random()
        reg = rng.choice(GP_REGS)
        src = rng.choice(GP_REGS)
        if choice < 0.18:
            trace.li(reg, rng.randrange(1 << 32))
        elif choice < 0.30:
            trace.mov(reg, src)
        elif choice < 0.42:
            # Re-point a register at the record so loads/stores mostly hit.
            if rng.random() < 0.85:
                trace.li(EAX, record)
                trace.ld(reg, EAX, rng.randrange(9))
            else:
                trace.ld(reg, src, rng.randrange(16))
        elif choice < 0.52:
            if rng.random() < 0.8:
                trace.li(EAX, record)
                trace.st(reg, EAX, rng.randrange(1, 9))
            elif rng.random() < 0.5:
                # Store through the record's self pointer (an address
                # only the run knows), then reload the field directly:
                # often a word the trace has already loaded.
                field = rng.choice((8, rng.randrange(9)))
                trace.li(EAX, record)
                trace.ld(src, EAX, 8)
                trace.st(reg, src, field)
                trace.li(EAX, record)
                trace.ld(reg, EAX, field)
            else:
                trace.st(reg, src, rng.randrange(16))
        elif choice < 0.62:
            trace.add(reg, src) if rng.random() < 0.5 else trace.addi(
                reg, rng.randrange(-8, 64)
            )
        elif choice < 0.68:
            trace.xor(reg, src)
        elif choice < 0.76:
            if rng.random() < 0.85:
                trace.li(EAX, record)
                trace.chk(EAX, 0, MAGIC)
            else:
                trace.chk(src, rng.randrange(4), rng.randrange(1 << 32))
        elif choice < 0.84:
            # Mostly-true assertion: set then assert the same value, or
            # bound whatever the register holds (often a loaded field).
            value = rng.randrange(1 << 16)
            if rng.random() < 0.7:
                trace.li(reg, value)
                trace.assert_range(reg, value, value + rng.randrange(4))
            elif rng.random() < 0.5:
                trace.assert_range(reg, rng.randrange(4), rng.randrange(64))
            else:
                trace.assert_eq(reg, rng.randrange(1 << 16))
        elif choice < 0.90:
            bound = (
                rng.randrange(64)
                if rng.random() < 0.9
                else HANG_LIMIT + rng.randrange(1 << 8)
            )
            trace.li(ESI, bound)
            trace.loop(ESI, rng.randrange(1, 5))
        elif choice < 0.93:
            trace.push(reg)
            depth += 1
        elif choice < 0.96:
            stack_op(trace, rng, reg, image.stack_top)
        else:
            if depth > 0 or rng.random() < 0.2:
                trace.pop(reg)
                depth = max(depth - 1, 0)
    if rng.random() < 0.9:
        trace.li(EAX, rng.randrange(1 << 16))
        if rng.random() < 0.5 and trace.ops and trace.ops[0][0] == "push":
            trace.epilogue(EAX)
        else:
            trace.ret(EAX)
    return trace


def stack_op(trace: Trace, rng: random.Random, reg: int, top: int) -> None:
    """One op (or a short idiom) that reads or writes ESP or EBP."""
    stack = rng.choice((ESP, EBP))
    kind = rng.randrange(6)
    if kind == 0:
        # Point the stack a few words below the top, through the stack.
        trace.li(reg, top - rng.randrange(1, 9))
        trace.push(reg)
        trace.pop(stack)
    elif kind == 1:
        trace.push(stack)
    elif kind == 2:
        trace.pop(stack)
    elif kind == 3:
        trace.mov(stack, reg) if rng.random() < 0.5 else trace.mov(reg, stack)
    elif kind == 4:
        trace.ld(stack, reg, rng.randrange(4))
    else:
        trace.ld(reg, stack, rng.randrange(4))


def sibling(trace: Trace, rng: random.Random) -> Trace:
    """``trace`` with every immediate redrawn: the same shape."""
    twin = Trace(trace.label)
    twin.entry_regs = dict(trace.entry_regs)
    for op in trace.ops:
        op = list(op)
        for at in IMMEDIATES.get(op[0], ()):
            op[at] = rng.randrange(1 << 16)
        twin.ops.append(tuple(op))
    return twin


def relocated(trace: Trace, delta: int) -> Trace:
    """``trace`` moved ``delta`` words up together with its image: every
    address it carries (an immediate or entry value inside the image,
    stack top included) shifts, every other value stays."""
    def move(value: int) -> int:
        return value + delta if BASE <= value <= BASE + WORDS else value

    twin = Trace(trace.label)
    twin.entry_regs = {
        reg: move(value) for reg, value in trace.entry_regs.items()
    }
    for op in trace.ops:
        immediates = IMMEDIATES.get(op[0], ())
        twin.ops.append(tuple(
            move(field) if at in immediates else field
            for at, field in enumerate(op)
        ))
    return twin


def renamed(trace: Trace) -> Trace:
    """``trace`` with its general-purpose registers renamed: the same
    values in other registers."""
    twin = Trace(trace.label)
    twin.entry_regs = {
        RENAME.get(reg, reg): value for reg, value in trace.entry_regs.items()
    }
    for op in trace.ops:
        immediates = IMMEDIATES.get(op[0], ())
        twin.ops.append(tuple(
            RENAME.get(field, field) if 0 < at and at not in immediates
            else field
            for at, field in enumerate(op)
        ))
    return twin


def _outcome(execute):
    """The outcome of ``execute()``; a fault is its type, message,
    ``cycles_consumed`` and ``op_index``."""
    try:
        result = execute()
    except SimulatedFault as fault:
        return ("fault", type(fault).__name__, str(fault),
                fault.cycles_consumed, fault.op_index)
    return ("ok", result.value, result.tainted, result.cycles,
            result.stores_tainted)


def _observe(execute, trace: Trace, image: MemoryImage, junk=()):
    """Outcome, register and memory end state (words and dirty pages) of
    one execution."""
    regs = fresh_regs(image, trace.entry_regs, junk)
    outcome = _outcome(lambda: execute(trace, regs, image))
    return outcome, list(regs.values), (list(image.words), bytes(image._dirty))


def run_slow(trace: Trace, base: int = BASE, words: int = WORDS, junk=()):
    return _observe(
        lambda t, regs, image: execute_trace(
            t, regs, image, component_name="diff"
        ),
        trace, fresh_image(base, words), junk,
    )


def reads_junk(trace: Trace, junk) -> bool:
    """Whether what the registers held before entry reaches ``trace``'s
    outcome or memory, or its registers when it returns: if so, its
    residual holds a run-time register value (an entry-unknown register
    it reads, or one it writes back untouched)."""
    first = run_slow(trace, junk=junk)
    second = run_slow(trace, junk=[value ^ 1 for value in junk])
    if first[0][0] == "fault":
        # A fault leaves untouched registers as the thread left them.
        first, second = first[::2], second[::2]
    return first != second


def _fast(trace: Trace, regs, image: MemoryImage):
    result = try_execute_fast(trace, regs, image, "diff")
    assert result is not None, "fast path unexpectedly ineligible"
    return result


class CountingWords:
    """An indexable stand-in for an image's words that counts reads."""

    def __init__(self, words):
        self.words = words
        self.reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return self.words[index]

    def __setitem__(self, index, value):
        self.words[index] = value


def run_fast(trace: Trace, base: int = BASE, words: int = WORDS, junk=()):
    trace._clean_runs = 1  # past warm-up: attach now
    trace._compiled = None
    return _observe(_fast, trace, fresh_image(base, words), junk)


def run_attached(trace: Trace, junk, tainted):
    """``Component.execute`` of ``trace`` on an attached component, with
    tier 2 off and then on, each from ``junk`` in all eight registers
    and ``tainted`` registers tainted.  Each side is its outcome, end
    state (registers, taint, words, dirty pages), charged cycles and
    ``(interp_fast_runs, interp_slow_runs)``."""
    sides = []
    for enabled in (False, True):
        kernel = Kernel()
        host = TraceHost("diff")
        host.attach(kernel, BASE)
        thread = SimThread(1, "t", 1, "diff", None)
        regs = thread.regs
        regs.values[:] = junk
        for reg in tainted:
            regs.taint[reg] = True
        with override(fast_interp=enabled):
            outcome = _outcome(lambda: host.execute(thread, trace))
        image = host.image
        sides.append((
            outcome, list(regs.values), list(regs.taint), list(image.words),
            bytes(image._dirty), thread.cycles, kernel.clock.now,
            (kernel.stats["interp_fast_runs"],
             kernel.stats["interp_slow_runs"]),
        ))
    return sides


class TestDifferentialRandomTraces:
    def test_five_hundred_random_traces_agree(self, monkeypatch):
        rng = random.Random(0xD1FF)
        twins = random.Random(0x7715)  # leaves the trace population as is
        entries = random.Random(0xE7)  # attached pre-states, likewise
        faults = named = shortcuts = 0
        fast_calls = []

        def counted(*args, **kwargs):
            fast_calls.append(1)
            return try_execute_fast(*args, **kwargs)

        monkeypatch.setattr(component, "try_execute_fast", counted)
        for __ in range(500):
            trace = random_trace(rng, fresh_image())
            # What the registers held before entry, the same for both
            # tiers: words in the record (so stores through them alias
            # words the trace addresses directly), anywhere in the
            # image, or arbitrary.
            junk = [
                twins.choice((
                    BASE + 16 + twins.randrange(9),
                    BASE + twins.randrange(WORDS),
                    twins.randrange(1 << 32),
                ))
                for __ in GP_REGS
            ]
            # A sibling (other immediates, other image bounds) may flip
            # a static decision, so it only has to agree.
            twin = sibling(trace, twins)
            assert run_slow(twin, OTHER_BASE, OTHER_WORDS, junk) == run_fast(
                twin, OTHER_BASE, OTHER_WORDS, junk
            )
            slow, slow_regs, slow_memory = run_slow(trace, junk=junk)
            fast, fast_regs, fast_memory = run_fast(trace, junk=junk)
            # Relocated to an image of the same size, every static
            # decision holds: the twin runs on ``trace``'s code.
            moved = relocated(trace, OTHER_BASE - BASE)
            assert run_slow(moved, OTHER_BASE, WORDS, junk) == run_fast(
                moved, OTHER_BASE, WORDS, junk
            )
            assert moved._compiled.run.__code__ is trace._compiled.run.__code__
            assert slow == fast
            assert slow_regs == fast_regs
            assert slow_memory == fast_memory
            if slow[0] == "fault":
                faults += 1
            # Other registers: a residual that holds a run-time register
            # value names that register, so its renamed twin never runs
            # on ``trace``'s code.  One that holds none names no register
            # (the fault table and the defaults carry them) and may.
            other = renamed(trace)
            assert run_slow(other, junk=junk) == run_fast(other, junk=junk)
            if reads_junk(trace, junk):
                named += 1
                assert other._compiled.run.__code__ is not (
                    trace._compiled.run.__code__
                )
            # Through ``Component.execute`` (``trace``'s program is
            # attached for these bounds), from junk in all eight
            # registers: untainted, it runs the residual with no entry
            # setup; taint only on entry registers is cleared on entry
            # and still goes fast; taint elsewhere goes slow.  Tier 2
            # off, from the same pre-state, is the reference.
            entry = sorted({ESP, EBP, *trace.entry_regs})
            others = [reg for reg in GP_REGS if reg not in trace.entry_regs]
            cases = [((), 1), (entries.sample(entry, 2), 1)]
            if others:
                cases.append(([entries.choice(others)], 0))
            junk8 = [
                entries.choice((
                    BASE + 16 + entries.randrange(9),
                    BASE + entries.randrange(WORDS),
                    entries.randrange(1 << 32),
                ))
                for __ in range(8)
            ]
            for tainted, fast in cases:
                calls = len(fast_calls)
                off, on = run_attached(trace, junk8, tainted)
                assert on[:-1] == off[:-1]
                ran = 0 if on[0][0] == "fault" else 1
                assert off[-1] == (0, ran)
                assert on[-1] == (ran * fast, ran * (1 - fast))
                assert len(fast_calls) - calls == (2 if tainted else 1)
                if not tainted and ran:
                    shortcuts += 1
        # The population must exercise both outcomes to mean anything.
        assert 0 < faults < 500
        assert 0 < named < 500
        assert 0 < shortcuts < 500

    def test_random_traces_with_injection_agree_through_dispatch(self):
        """With an injection pending, both tiers are the slow tier.

        ``Component.execute`` sends injected runs to ``execute_trace``
        unconditionally; the engine-level contract is that an injected
        run behaves identically whether or not the fast path exists.  A
        pre-compiled program must not leak into an injected execution.
        """
        rng = random.Random(0xFA57)
        for __ in range(100):
            trace = random_trace(rng, fresh_image())
            injection_site = rng.randrange(max(len(trace), 1))
            spec = (rng.randrange(8), rng.randrange(32), injection_site)

            def injected_run(precompile: bool):
                image = fresh_image()
                regs = fresh_regs(image, trace.entry_regs)
                if precompile:
                    trace._compiled = compile_trace(trace, image, "diff")
                try:
                    result = execute_trace(
                        trace, regs, image, component_name="diff",
                        injection=Injection(*spec),
                    )
                except SimulatedFault as fault:
                    return ("fault", type(fault).__name__, str(fault))
                return (
                    "ok", result.value, result.tainted, result.cycles,
                    result.stores_tainted,
                )

            assert injected_run(False) == injected_run(True)


class TestEligibility:
    def _simple_trace(self) -> Trace:
        trace = Trace("simple")
        trace.entry_regs = {EBX: 5}
        trace.li(EAX, 7).add(EAX, EBX).ret(EAX)
        return trace

    def test_novel_shape_attaches_on_second_run(self, monkeypatch):
        # No shape compiled anywhere: the first clean execution declines,
        # the second compiles the shape once and runs on it.
        monkeypatch.setattr(fastpath, "_SHAPES", {})
        image = fresh_image()
        trace = self._simple_trace()
        regs = fresh_regs(image, trace.entry_regs)
        assert try_execute_fast(trace, regs, image, "t") is None
        assert trace._compiled is None
        result = try_execute_fast(trace, regs, image, "t")
        assert result is not None and result.value == 12
        assert trace._compiled is not None
        assert len(fastpath._SHAPES) == 1

    def test_warmup_cached_tuple_attaches_on_second_run(self, monkeypatch):
        # A trace whose shape is already compiled attaches on its second
        # clean execution onto the same code — no ``compile()`` call.
        monkeypatch.setattr(fastpath, "_SHAPES", {})
        image = fresh_image()
        donor = self._simple_trace()
        program = compile_trace(donor, image, "t")
        compiles = []
        real_compile = builtins.compile
        monkeypatch.setattr(
            builtins, "compile",
            lambda *a, **k: compiles.append(a) or real_compile(*a, **k),
        )
        trace = self._simple_trace()
        regs = fresh_regs(image, trace.entry_regs)
        assert try_execute_fast(trace, regs, image, "t") is None
        result = try_execute_fast(trace, regs, image, "t")
        assert result is not None and result.value == 12
        assert trace._compiled.run.__code__ is program.run.__code__
        assert compiles == []

    def test_disabled_flag_declines(self, engine):
        engine(fast_interp=False)
        image = fresh_image()
        trace = self._simple_trace()
        trace._clean_runs = 1
        assert try_execute_fast(
            trace, fresh_regs(image, trace.entry_regs), image, "t"
        ) is None

    def test_tainted_register_declines(self):
        image = fresh_image()
        trace = self._simple_trace()
        trace._clean_runs = 1
        regs = fresh_regs(image, trace.entry_regs)
        regs.flip_bit(ECX, 3)
        assert try_execute_fast(trace, regs, image, "t") is None

    def test_tainted_memory_declines(self):
        image = fresh_image()
        trace = self._simple_trace()
        trace._clean_runs = 1
        image.write_word(image.base + 2, 0xBAD, tainted=True)
        assert image.taint_count == 1
        assert try_execute_fast(
            trace, fresh_regs(image, trace.entry_regs), image, "t"
        ) is None
        # Micro-reboot clears the taint census; eligibility returns.
        image.freeze_good_image()
        image.micro_reboot()
        assert image.taint_count == 0
        assert try_execute_fast(
            trace, fresh_regs(image, trace.entry_regs), image, "t"
        ) is not None


class TestCompiledProgramLifecycle:
    def test_program_cached_on_trace(self):
        image = fresh_image()
        trace = Trace("cached")
        trace.li(EAX, 1).ret(EAX)
        trace._clean_runs = 1
        regs = fresh_regs(image, {})
        try_execute_fast(trace, regs, image, "t")
        program = trace._compiled
        assert program is not None
        try_execute_fast(trace, regs, image, "t")
        assert trace._compiled is program  # no recompilation
        # The program does only its residual's reads: a clean
        # ``checked_touch`` with k expected fields reads its magic word
        # and those k fields, nothing its own stores or checks
        # established; a ``checked_create`` reads nothing.
        service = ServiceComponent("svc")
        service.attach(None, BASE)
        image = service.image
        touched = service.new_record("touched", (7, 3, 0, 42))
        created = service.new_record("created", (5, 6))
        fields = ((1, 7), (2, 3), (3, 0), (4, 42))
        cases = [
            (service.checked_touch(
                touched, args=(k,), expected=fields[:k], stores=[(4, 42)],
                scan=k, label=f"touch{k}", retval=k,
            ), 1 + k)
            for k in range(len(fields) + 1)
        ]
        cases.append(
            (service.checked_create(created, args=(9,), retval=0), 0)
        )
        for trace, reads in cases:
            slow = execute_trace(
                trace, fresh_regs(image, trace.entry_regs), image, "svc"
            )
            program = compile_trace(trace, image, "svc")
            words = CountingWords(image.words)
            fast = program.run(
                fresh_regs(image, trace.entry_regs).values, words,
                image._dirty,
            )
            assert (fast.value, fast.cycles) == (slow.value, slow.cycles)
            assert words.reads == reads, trace.label

    def test_appending_ops_invalidates_program(self):
        image = fresh_image()
        trace = Trace("grow")
        trace.li(EAX, 1).ret(EAX)
        trace._clean_runs = 1
        regs = fresh_regs(image, {})
        assert try_execute_fast(trace, regs, image, "t").value == 1
        stale = trace._compiled
        trace.ops.insert(1, ("addi", EAX, 8))
        result = try_execute_fast(trace, regs, image, "t")
        assert trace._compiled is not stale
        assert result.value == 9

    def test_different_memory_recompiles(self):
        image_a = fresh_image()
        image_b = MemoryImage(BASE + 0x1000, WORDS)
        trace = Trace("move")
        trace.li(EAX, 3).ret(EAX)
        trace._clean_runs = 1
        try_execute_fast(trace, fresh_regs(image_a, {}), image_a, "t")
        in_a = trace._compiled
        try_execute_fast(trace, fresh_regs(image_b, {}), image_b, "t")
        assert trace._compiled is not in_a
        assert trace._compiled.base == image_b.base
        # Other bounds rebind the same shape: no second compile.
        assert trace._compiled.run.__code__ is in_a.run.__code__

    def test_fall_off_end_returns_zero(self):
        trace = Trace("noend")
        trace.li(EBX, 42)
        slow = run_slow(trace)
        assert slow == run_fast(trace)
        assert slow[0][1] == 0

    def test_ops_after_ret_are_dead(self):
        trace = Trace("deadtail")
        trace.li(EAX, 6).ret(EAX)
        trace.li(EAX, 99)  # unreachable in the straight-line ISA
        assert run_slow(trace) == run_fast(trace)

    def test_loop_cycles_match(self):
        for bound in (0, 1, 63, 4096):
            trace = Trace("loopcyc")
            trace.li(ESI, bound).loop(ESI, 3).li(EAX, 0).ret(EAX)
            assert run_slow(trace) == run_fast(trace)

    def test_hang_parity(self):
        trace = Trace("hang")
        trace.li(ESI, HANG_LIMIT + 1).loop(ESI, 2)
        slow = run_slow(trace)[0]
        fast = run_fast(trace)[0]
        assert slow == fast
        assert slow[1] == "SystemHang"


class TestFaultMessageParity:
    @pytest.mark.parametrize("build,expected", [
        (lambda t: t.li(EBX, 0x10).ld(ECX, EBX, 0), "SegmentationFault"),
        (lambda t: t.li(EBX, BASE).chk(EBX, 0, 0x1234), "CorruptionDetected"),
        (lambda t: t.li(EBX, 7).assert_eq(EBX, 8), "AssertionFault"),
        (lambda t: t.li(EBX, 7).assert_range(EBX, 9, 12), "AssertionFault"),
        (lambda t: t.push(EAX).pop(EBX).pop(ECX), "SegmentationFault"),
    ])
    def test_fault_type_and_message_identical(self, build, expected):
        trace = Trace("faulty")
        build(trace)
        slow = run_slow(trace)[0]
        fast = run_fast(trace)[0]
        assert slow == fast
        assert slow[0] == "fault" and slow[1] == expected


class TestShapeWork:
    def test_second_campaign_pass_compiles_nothing(self, monkeypatch):
        """A campaign's first pass compiles every shape it needs: a
        second identical pass attaches programs without ``compile()``."""
        spec = WebRunSpec(n_requests=120, n_faults=3)
        seeds = web_run_seeds(1, 3)
        campaigns = {
            "table2 reg": lambda: [
                CampaignRunner(
                    service, fault_class="reg", n_faults=20, seed=1
                ).run(workers=1).row()
                for service in SERVICES
            ],
            "fig7 closed": lambda: [
                execute_web_run(spec, seed) for seed in seeds
            ],
        }
        real_compile = builtins.compile
        for name, campaign in campaigns.items():
            first = campaign()
            compiles = []
            monkeypatch.setattr(
                builtins, "compile",
                lambda *a, **k: compiles.append(a) or real_compile(*a, **k),
            )
            assert campaign() == first, name
            monkeypatch.setattr(builtins, "compile", real_compile)
            assert compiles == [], name
