"""Shared machinery for service components.

Every service mirrors its descriptor bookkeeping into its simulated memory
image as fixed-layout *records* (a magic word followed by fields), and
executes micro-op traces that load, check, and store those records on each
interface operation.  The traces are what SWIFI bit flips land in.

Trace realism matters for the fault-activation profile (Table II reports
93-98% activation): real service code keeps nearly every register live
nearly all the time — arguments arrive *in registers*, record fields are
held in registers across computations, and stack registers are live from
prologue to epilogue.  The :class:`_CheckedTraceBuilder` skeleton
reproduces that density:

* the invocation pre-loads argument registers (``entry_regs``), and the
  trace validates them immediately — a flip at any point before the
  argument's last use is consumed;
* record fields load into distinct registers and are asserted against the
  authoritative python-side value — corruption of register *or* memory
  fail-stops;
* a stack canary is pushed at entry and popped+verified at exit, keeping
  ESP live across the whole body;
* every store is verified by an immediate readback;
* a cross-register checksum and a final magic-word re-check close the
  trace.

Only a flip landing in the last few ops — after a register's final use —
goes unobserved, which is the paper's small "undetected" residue.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro.composite.component import Component
from repro.composite.machine import (
    EAX,
    EBP,
    EBX,
    ECX,
    EDX,
    EDI,
    ESI,
    ESP,
    WORD_MASK,
    Trace,
)
from repro.errors import InvalidDescriptor

#: Upper bound used by range assertions on thread ids and small enums.
MAX_TID = 1 << 12
MAX_STATE = 8

#: Registers receiving interface arguments on entry, in order.
_ARG_REGS = (EBX, ECX, EDX, ESI)

#: Registers used to hold loaded record fields, in assignment order.
_FIELD_REGS = (EBX, ECX, EDX, ESI)

#: Base value folded into the entry digest / stack canary.
_CANARY = 0xCAFE57AC

#: Extra record re-verification passes per operation trace (body length
#: calibration; see the module docstring).
_VERIFY_ROUNDS = 2


def _always_plausible(value) -> bool:
    return True


def arg_word(value) -> int:
    """Map an interface argument to the 32-bit word it travels in."""
    if isinstance(value, int):
        # bools land here too: True & mask == 1 == int(True).
        return value & WORD_MASK
    if isinstance(value, (bytes, bytearray)):
        return zlib.crc32(bytes(value)) & WORD_MASK
    return zlib.crc32(str(value).encode("utf-8")) & WORD_MASK


#: Argument types whose raw equality implies equal :func:`arg_word` words.
#: A float does not qualify (``1.0 == 1``, but its word is a CRC), and
#: neither does anything unhashable.
_RAW_ARG_TYPES = frozenset((int, bool, str, bytes, type(None)))


def _args_key(args: Sequence) -> tuple:
    """The trace-cache key part for a call's interface arguments.

    Arguments of :data:`_RAW_ARG_TYPES` key as themselves; a call with
    any other argument keys on its argument words.  Such a word tuple can
    only equal a raw one whose arguments map to the same words.
    """
    for value in args:
        if type(value) not in _RAW_ARG_TYPES:
            return tuple([arg_word(a) for a in args])
    return tuple(args)


class Record:
    """A python-side handle onto an in-image record."""

    __slots__ = ("addr", "nfields")

    def __init__(self, addr: int, nfields: int):
        self.addr = addr
        self.nfields = nfields


#: Default per-component trace-cache capacity.  Service working sets are a
#: handful of (operation, argument) shapes; the bound only matters for
#: workloads cycling through unbounded value streams (e.g. timer expiries).
TRACE_CACHE_CAPACITY = 2048


class TraceCache:
    """Bounded memo of finished operation traces (tier 1 of the engine).

    Keys capture *every* input that determines the built op list, as the
    service passed it: the operation kind and label, the record address,
    the ``expected``/``stores`` pairs of a touch (the words read from the
    image for a create), the interface arguments, scan bounds, the return
    value, and any extension key.  A hit is one dict lookup: nothing is
    masked or mapped to an argument word on the way.

    Exactness rule: two calls share an entry only if their *word* keys
    (values masked to 32 bits, arguments mapped through :func:`arg_word`)
    are equal, so a hit is exactly the trace the builder would have
    produced.  Raw equality implies word equality for ``int``, ``bool``,
    ``str``, ``bytes`` and ``None``; a call carrying any other argument
    type (a float, a bytearray) keys on its argument words instead
    (:func:`_args_key`), so a float never hits an int's entry.  Record
    values are ints by contract.  The converse need not hold: word-equal
    but raw-unequal inputs (an int outside ``[0, 2**32)``, a ``str`` and
    a ``bytes`` with equal CRCs) get two entries with equal op lists.

    Values are sealed :class:`~repro.composite.machine.Trace` objects
    (epilogue already appended, fast-path program attached on its second
    clean execution), shared across invocations.

    Eviction is insertion-ordered (FIFO): steady-state working sets are
    tiny and re-inserted keys are rare, so LRU bookkeeping isn't worth its
    per-hit cost.
    """

    __slots__ = ("capacity", "entries")

    def __init__(self, capacity: int = TRACE_CACHE_CAPACITY):
        self.capacity = capacity
        self.entries: Dict[tuple, object] = {}

    def get(self, key: tuple):
        return self.entries.get(key)

    def put(self, key: tuple, trace) -> None:
        if len(self.entries) >= self.capacity:
            self.entries.pop(next(iter(self.entries)))
        self.entries[key] = trace


class _CheckedTraceBuilder:
    """Builds operation traces with full-register liveness (see module doc)."""

    def __init__(self, component: "ServiceComponent", label: str,
                 addr: int, args: Sequence = ()):
        self.component = component
        trace = Trace(label)
        # The invocation delivers the record address and the interface
        # arguments in registers: they are live from the first micro-op.
        words = [arg_word(a) for a in args][: len(_ARG_REGS)]
        digest = _CANARY
        for word in words:
            digest = (digest + word) & WORD_MASK
        digest = (digest + addr) & WORD_MASK
        trace.entry_regs = {EAX: addr & WORD_MASK, EDI: digest}
        self.known: Dict[int, Optional[int]] = {
            EAX: addr & WORD_MASK, EBX: None, ECX: None, EDX: None,
            ESI: None, EDI: digest,
        }
        for reg, word in zip(_ARG_REGS, words):
            trace.entry_regs[reg] = word
            self.known[reg] = word
        # Registers not carrying arguments hold caller state (callee-saved
        # contract): give them distinct live values; the closing checksum
        # consumes them, so corrupting "idle" caller state still activates.
        for index, reg in enumerate(_ARG_REGS[len(words):], start=1):
            value = (digest ^ (0x1010101 * index)) & WORD_MASK
            trace.entry_regs[reg] = value
            self.known[reg] = value
        self.trace = trace.prologue()
        # Validate the incoming argument registers and the digest.
        for reg, word in zip(_ARG_REGS, words):
            trace.assert_range(reg, word, word)
        trace.assert_range(EDI, digest, digest)
        # Spill the digest as a stack canary: ESP is live from here to the
        # closing pop.
        trace.push(EDI)
        self._canary = digest
        #: EBP/ESP value after the prologue (frame established one word
        #: below the stack top), asserted at close.
        self._frame = (component.image.stack_top - 1) & WORD_MASK

    def _consume(self, reg: int) -> None:
        """Verify a register's current value before overwriting it.

        Real code rarely clobbers a live value without having used it;
        this models that final use, so a flip in the window between a
        register's last read and its next write is still consumed instead
        of being silently overwritten.
        """
        known = self.known[reg]
        if known is not None:
            self.trace.assert_range(reg, known, known)

    def set(self, reg: int, value: int) -> None:
        value &= WORD_MASK
        self._consume(reg)
        self.trace.li(reg, value)
        self.known[reg] = value

    def load_expect(self, reg: int, addr_reg: int, off: int, value: int) -> None:
        value &= WORD_MASK
        self._consume(reg)
        self.trace.ld(reg, addr_reg, off)
        self.trace.assert_range(reg, value, value)
        self.known[reg] = value

    def scan(self, count: int) -> None:
        self.set(ESI, max(count, 0))
        self.trace.loop(ESI, 3)

    def close(self) -> None:
        t = self.trace
        # Consume the digest register, then pop and verify the canary
        # (consuming any ESP corruption).
        self._consume(EDI)
        t.pop(EDI)
        t.assert_range(EDI, self._canary, self._canary)
        self.known[EDI] = self._canary
        # Frame integrity: low-bit flips of ESP/EBP stay in the stack
        # range and would otherwise go unnoticed until the caller crashes.
        t.assert_range(ESP, self._frame, self._frame)
        t.assert_range(EBP, self._frame, self._frame)
        # Cross-register checksum over every register with a known value.
        total = self._canary
        for reg in (EBX, ECX, EDX, ESI):
            if self.known[reg] is not None:
                t.add(EDI, reg)
                total = (total + self.known[reg]) & WORD_MASK
        t.assert_range(EDI, total, total)
        t.chk(EAX, 0, self.component.MAGIC)


class ServiceComponent(Component):
    """Base class for the six recovery-target services.

    Subclasses set :attr:`MAGIC` and use :meth:`new_record` /
    :meth:`drop_record` plus the trace builders below.
    """

    MAGIC = 0x5EC0FFEE
    STATE_WARM = ("_trace_cache",)

    def __init__(self, name: str):
        super().__init__(name)
        self._records: Dict[object, Record] = {}
        #: Tier-1 trace compilation cache.
        self._trace_cache = TraceCache()

    def reinit(self) -> None:
        self._records = {}

    # -- record management ---------------------------------------------------
    def new_record(self, key, fields: Iterable[int]) -> Record:
        """Allocate and initialise an in-image record for ``key``."""
        values = [v & WORD_MASK for v in fields]
        addr = self.image.alloc_record(self.MAGIC, len(values))
        for off, value in enumerate(values, start=1):
            self.image.write_word(addr + off, value)
        record = Record(addr, len(values))
        self._records[key] = record
        return record

    def record_for(self, key) -> Record:
        try:
            return self._records[key]
        except KeyError:
            raise InvalidDescriptor(key, component=self.name) from None

    def has_record(self, key) -> bool:
        return key in self._records

    def drop_record(self, key) -> None:
        record = self._records.pop(key)
        self.image.free(record.addr, record.nfields + 1)

    def record_field(self, key, field: int) -> int:
        """Read a record field straight from the image (python-side)."""
        return self.image.read_word(self._records[key].addr + field)

    # -- trace builders --------------------------------------------------------
    def _cache_lookup(self, key: tuple) -> Optional[Trace]:
        trace = self._trace_cache.get(key)
        if self.kernel is not None:
            stat = "trace_cache_hits" if trace is not None else "trace_cache_misses"
            self.kernel.stats[stat] += 1
        return trace

    def _cache_store(self, key: tuple, trace: Trace) -> None:
        self._trace_cache.put(key, trace)
        if self.kernel is not None and self.kernel.recorder.enabled:
            # A store follows a cache miss: the builder just constructed
            # this trace from scratch.  Steady state hits the cache, so
            # these events mark working-set growth.
            self.kernel.recorder.emit(
                "trace_build",
                component=self.name,
                label=trace.label,
                ops=len(trace),
            )

    def checked_create(
        self,
        record: Record,
        args: Sequence = (),
        label: str = "create",
        scan: int = 0,
        retval: Optional[int] = None,
        extend: Optional[Callable[[Trace], None]] = None,
        extend_key: Optional[tuple] = None,
    ) -> Trace:
        """Trace creating a record: store magic + fields, then verify.

        With ``retval`` given, the returned trace is *finished* (return
        value loaded, epilogue appended, sealed) and memoized in the
        component's trace cache; steady-state invocations reuse the
        prebuilt op list instead of reconstructing it.  ``extend`` appends
        extra validation ops before the epilogue; every value it bakes
        into the ops must be captured in ``extend_key``, which is part of
        the cache key.
        """
        values = tuple(
            self.image.read_word(record.addr + off)
            for off in range(1, record.nfields + 1)
        )
        if retval is not None:
            key = (
                "create", label, record.addr, values, _args_key(args), scan,
                retval, extend_key,
            )
            cached = self._cache_lookup(key)
            if cached is not None:
                return cached
        builder = _CheckedTraceBuilder(self, label, record.addr, args)
        t = builder.trace
        builder.set(EBX, self.MAGIC)
        t.st(EBX, EAX, 0)
        for off, value in enumerate(values, start=1):
            builder.set(ECX, value)
            t.st(ECX, EAX, off)
        if scan:
            builder.scan(scan)
        # Readback verification of every field, repeated (see checked_touch
        # on why the body stays long relative to the closing validation).
        for __ in range(1 + _VERIFY_ROUNDS):
            for off, value in enumerate(values, start=1):
                builder.load_expect(EDX, EAX, off, value)
        builder.close()
        if extend is not None:
            extend(t)
        if retval is not None:
            self.finish(t, retval=retval)
            self._cache_store(key, t)
        return t

    def checked_touch(
        self,
        record: Record,
        args: Sequence = (),
        expected: Sequence[Tuple[int, int]] = (),
        stores: Sequence[Tuple[int, int]] = (),
        scan: int = 0,
        label: str = "touch",
        retval: Optional[int] = None,
        extend: Optional[Callable[[Trace], None]] = None,
        extend_key: Optional[tuple] = None,
    ) -> Trace:
        """The standard high-liveness operation skeleton.

        ``args`` are the interface arguments (delivered in registers and
        validated on entry).  ``expected`` is (field_off, expected_value)
        pairs checked against the service's authoritative python-side
        state.  ``stores`` is (field_off, new_value) pairs, each verified
        by readback.  ``scan`` models a bounded queue/tree walk.

        ``retval``/``extend``/``extend_key`` behave as in
        :meth:`checked_create`: a ``retval`` makes the result a finished,
        sealed trace memoized in the component's trace cache.
        """
        if retval is not None:
            key = (
                "touch", label, record.addr, tuple(expected), tuple(stores),
                _args_key(args), scan, retval, extend_key,
            )
            cached = self._cache_lookup(key)
            if cached is not None:
                return cached
        builder = _CheckedTraceBuilder(self, label, record.addr, args)
        t = builder.trace
        t.chk(EAX, 0, self.MAGIC)
        for (off, value), reg in zip(expected, _FIELD_REGS):
            builder.load_expect(reg, EAX, off, value)
        if scan:
            builder.scan(scan)
        for off, value in stores:
            value &= WORD_MASK
            builder.set(EDI, value)
            t.st(EDI, EAX, off)
            builder.load_expect(EDX, EAX, off, value)
        # Re-verification passes: real handlers touch their records many
        # times per invocation; this keeps the body long relative to the
        # closing validation (the only region where flips can still hide).
        current = {off: value for off, value in expected}
        for off, value in stores:
            current[off] = value & WORD_MASK
        for __ in range(_VERIFY_ROUNDS):
            for (off, value), reg in zip(sorted(current.items()), _FIELD_REGS):
                builder.load_expect(reg, EAX, off, value)
        builder.close()
        if extend is not None:
            extend(t)
        if retval is not None:
            self.finish(t, retval=retval)
            self._cache_store(key, t)
        return t

    def finish(self, trace: Trace, retval: Optional[int] = None) -> Trace:
        """Close a trace: load the return value and run the epilogue.

        Sealed traces (cache-resident, already finished) pass through
        unchanged, so legacy ``checked_*(...)``/``finish(...)`` call pairs
        cannot grow a shared trace on a cache hit.
        """
        if trace.sealed:
            return trace
        if retval is not None:
            trace.li(EAX, retval & WORD_MASK)
        trace.epilogue(EAX)
        trace.sealed = True
        return trace

    def run_op(self, thread, trace: Trace, plausible=None) -> int:
        """Execute an operation trace; validate a tainted return value.

        A tainted return that still passes the interface plausibility
        predicate escapes into the client (propagated fault, Table II);
        an implausible tainted value is caught at the boundary.
        """
        result = self.execute(thread, trace)
        if plausible is None:
            plausible = _always_plausible
        return self.check_return(result, plausible)
