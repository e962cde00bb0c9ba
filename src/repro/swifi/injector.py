"""Multi-class fault injector (Section V-A, extended fault space).

The original engine models the paper's evaluation fault model:

"Faults are injected by iterating through all threads and flipping
register bits only if they are executing within one of the target server
components ... randomly selecting a register from eight 32-bit registers
(6 general purpose registers and 2 special registers ESP and EBP) and
flipping a random bit in the selected register."

On top of those **register** single-event upsets the controller now
injects three further fault classes, each derived purely from the run's
seeded RNG so campaign outcomes stay a pure function of ``(spec,
run_seed)``:

* ``mem`` — **memory-image bit-flips**: one bit of one word of the target
  component's :class:`~repro.composite.memory.MemoryImage` is flipped,
  preferring *hot* (dirty) pages via the image's dirty-page bitmap.  The
  flip is written tainted, so the compiled fast path demotes to the
  authoritative interpreter and the corruption propagates (or is caught
  by a magic check) exactly like interpreter-level taint.
* ``idl`` — **IDL-boundary fuzzing**: one integer argument (or, for
  functions carrying no integer arguments, the next integer return
  value) of a client-stub invocation on the target server is bit-flipped
  — attacking exactly the surface the interface contracts protect.
* ``burst`` — **correlated bursts**: a register flip in the target
  followed by ``k - 1`` further flips delivered to *whichever* component
  executes next (cross-component) within a virtual-time window.

All three arm exactly one planned fault per run, mirroring the one-SEU
reg discipline; ``delivered`` accumulates a typed record per flip that
actually landed.
"""

from __future__ import annotations

import functools
import random
from typing import List, Optional, Tuple

from repro.composite.machine import NUM_REGS, Injection
from repro.composite.memory import PAGE_SHIFT, PAGE_WORDS

FULL_MASK = 0xFFFFFFFF

#: The campaign fault-class axis (``table2 --fault-class``).
FAULT_CLASSES = ("reg", "mem", "idl", "burst")

#: Correlated-burst defaults: total flips per burst and the virtual-time
#: window (cycles) within which the follow-up flips must land.
BURST_K = 3
BURST_WINDOW_CYCLES = 250_000


@functools.lru_cache(maxsize=None)
def _eligible_bits(mask: int) -> tuple:
    """The bit positions ``mask`` selects, once per mask: every run's
    controller draws its flipped bit from them."""
    return tuple(b for b in range(32) if (mask >> b) & 1)


class PlannedInjection:
    """One armed fault (any class); at most one is pending per run."""

    __slots__ = (
        "component", "reg", "bit", "after_executions", "seen",
        "fault_class", "burst_k", "burst_window",
    )

    def __init__(
        self,
        component: str,
        reg: Optional[int] = None,
        bit: Optional[int] = None,
        after_executions: int = 0,
        fault_class: str = "reg",
        burst_k: int = 1,
        burst_window: int = 0,
    ):
        self.component = component
        self.reg = reg
        self.bit = bit
        self.after_executions = after_executions
        self.fault_class = fault_class
        self.burst_k = burst_k
        self.burst_window = burst_window
        self.seen = 0

    def __repr__(self):
        return (
            f"PlannedInjection({self.component}, class={self.fault_class}, "
            f"reg={self.reg}, bit={self.bit}, after={self.after_executions})"
        )


class MemFlip:
    """Record of one delivered memory-image bit flip."""

    __slots__ = ("component", "addr", "bit", "page", "page_dirty")

    def __init__(self, component: str, addr: int, bit: int, page: int,
                 page_dirty: bool):
        self.component = component
        self.addr = addr
        self.bit = bit
        self.page = page
        self.page_dirty = page_dirty

    def __repr__(self):
        return (
            f"MemFlip({self.component}, addr={self.addr:#x}, bit={self.bit}, "
            f"page={self.page}, dirty={self.page_dirty})"
        )


class IdlFuzz:
    """Record of one delivered IDL-boundary corruption."""

    __slots__ = ("server", "fn", "target", "index", "bit")

    def __init__(self, server: str, fn: str, target: str, index: int, bit: int):
        self.server = server
        self.fn = fn
        self.target = target  # "arg" or "ret"
        self.index = index
        self.bit = bit

    def __repr__(self):
        return (
            f"IdlFuzz({self.server}.{self.fn}, {self.target}[{self.index}], "
            f"bit={self.bit})"
        )


class SwifiController:
    """Arms and delivers faults of every class into target components."""

    def __init__(self, kernel, seed: Optional[int] = None,
                 fault_mask: int = FULL_MASK):
        self.kernel = kernel
        kernel.swifi = self
        self.rng = random.Random(seed)
        self.fault_mask = fault_mask & FULL_MASK
        self._eligible_bits = _eligible_bits(self.fault_mask)
        if not self._eligible_bits:
            raise ValueError("fault mask selects no bits")
        self.pending: Optional[PlannedInjection] = None
        self.delivered: List[object] = []
        #: trace executions observed per component (for calibration)
        self.trace_counts = {}
        #: client-stub invocations observed per server (idl calibration)
        self.invoke_counts = {}
        #: Armed IDL fuzz: (server, after_invocations, seen) or None.
        self._idl_pending: Optional[List] = None
        #: A fired-but-unapplied retval fuzz: (server, bit) or None.
        self._idl_ret_pending: Optional[Tuple[str, int]] = None
        #: Burst follow-up state: flips left + virtual-time deadline.
        self._burst_remaining = 0
        self._burst_deadline = 0
        #: Virtual clock of the most recent delivery whose detection has
        #: not been observed yet; the kernel consumes it on the next
        #: vectored fault to compute the detection latency.
        self.last_delivery_clock: Optional[int] = None

    # ------------------------------------------------------------------
    def arm(
        self,
        component: str,
        reg: Optional[int] = None,
        bit: Optional[int] = None,
        after_executions: int = 0,
    ) -> PlannedInjection:
        """Arm one register SEU against ``component``.

        Register and bit default to uniform random choices, matching the
        paper's first-order-approximation fault distribution.
        """
        if reg is None:
            reg = self.rng.randrange(NUM_REGS)
        if bit is None:
            bit = self.rng.choice(self._eligible_bits)
        self.pending = PlannedInjection(component, reg, bit, after_executions)
        self._emit_arm(self.pending)
        return self.pending

    def arm_mem(self, component: str, after_executions: int = 0) -> PlannedInjection:
        """Arm one memory-image bit flip against ``component``.

        The page, word, and bit are drawn at fire time, when the dirty
        bitmap reflects the workload's actual write set.
        """
        self.pending = PlannedInjection(
            component, after_executions=after_executions, fault_class="mem"
        )
        self._emit_arm(self.pending)
        return self.pending

    def arm_burst(
        self,
        component: str,
        k: int = BURST_K,
        window: int = BURST_WINDOW_CYCLES,
        after_executions: int = 0,
    ) -> PlannedInjection:
        """Arm a correlated burst: a register flip in ``component`` then
        ``k - 1`` follow-up flips within ``window`` cycles, delivered to
        whichever component executes a trace next (cross-component)."""
        reg = self.rng.randrange(NUM_REGS)
        bit = self.rng.choice(self._eligible_bits)
        self.pending = PlannedInjection(
            component, reg, bit, after_executions,
            fault_class="burst", burst_k=max(k, 1), burst_window=window,
        )
        self._emit_arm(self.pending)
        return self.pending

    def arm_idl(self, server: str, after_invocations: int = 0) -> None:
        """Arm one IDL-boundary corruption against invocations of
        ``server`` through its client stubs."""
        self._idl_pending = [server, after_invocations, 0]
        recorder = self.kernel.recorder
        if recorder.enabled:
            recorder.emit(
                "swifi_arm",
                component=server,
                reg=None,
                bit=None,
                after_executions=after_invocations,
                fault_class="idl",
            )

    def _emit_arm(self, plan: PlannedInjection) -> None:
        recorder = self.kernel.recorder
        if not recorder.enabled:
            return
        fields = dict(
            component=plan.component,
            reg=plan.reg,
            bit=plan.bit,
            after_executions=plan.after_executions,
        )
        if plan.fault_class != "reg":
            fields["fault_class"] = plan.fault_class
        if plan.fault_class == "burst":
            fields["burst_k"] = plan.burst_k
            fields["burst_window"] = plan.burst_window
        recorder.emit("swifi_arm", **fields)

    def disarm(self) -> None:
        self.pending = None
        self._idl_pending = None
        self._idl_ret_pending = None
        self._burst_remaining = 0

    @property
    def delivered_count(self) -> int:
        return len(self.delivered)

    # ------------------------------------------------------------------
    # Called by Component.execute for every trace execution.
    # ------------------------------------------------------------------
    def take_injection(self, component_name: str, trace_len: int):
        self.trace_counts[component_name] = (
            self.trace_counts.get(component_name, 0) + 1
        )
        if self._burst_remaining > 0:
            return self._burst_follow_up(component_name, trace_len)
        pending = self.pending
        if pending is None or pending.component != component_name:
            return None
        if trace_len <= 0:
            return None
        pending.seen += 1
        if pending.seen <= pending.after_executions:
            return None
        if pending.fault_class == "mem":
            self.pending = None
            return self._deliver_mem_flip(component_name)
        injection = Injection(
            reg=pending.reg,
            bit=pending.bit,
            op_index=self.rng.randrange(trace_len),
        )
        self.pending = None
        if pending.fault_class == "burst" and pending.burst_k > 1:
            self._burst_remaining = pending.burst_k - 1
            self._burst_deadline = self.kernel.clock.now + pending.burst_window
        self.delivered.append(injection)
        self.last_delivery_clock = self.kernel.clock.now
        return injection

    def _burst_follow_up(self, component_name: str, trace_len: int):
        """Deliver the next flip of an in-flight burst, in any component.

        The window is virtual time: follow-ups landing past the deadline
        are cancelled, which lets a burst straddle (and be cut short by)
        a micro-reboot's image-restore cost.
        """
        if self.kernel.clock.now > self._burst_deadline:
            self._burst_remaining = 0
            return None
        if trace_len <= 0:
            return None
        injection = Injection(
            reg=self.rng.randrange(NUM_REGS),
            bit=self.rng.choice(self._eligible_bits),
            op_index=self.rng.randrange(trace_len),
        )
        self._burst_remaining -= 1
        self.delivered.append(injection)
        self.last_delivery_clock = self.kernel.clock.now
        return injection

    def _deliver_mem_flip(self, component_name: str) -> None:
        """Flip one bit of the target's memory image; returns ``None``
        (the corruption lives in memory, not in a register injection).

        Hot (dirty) pages are preferred: they hold the records the
        workload actually touches, and within the chosen page the flip
        targets a word whose value changed since boot (a live record
        field or stack slot) when one exists.  A component with no dirty
        pages — e.g. one the workload never wrote to — degrades to a
        uniform page draw, modelling a flip in cold state.  The flip is
        written tainted, so the fast path demotes and the usual
        taint-propagation / magic-check machinery decides detection.
        """
        image = self.kernel.component(component_name).image
        dirty_pages = image.dirty_page_indices()
        n_pages = (image.size + PAGE_WORDS - 1) >> PAGE_SHIFT
        # Stack pages are hot but self-overwriting (every trace entry
        # rebuilds its frame), so flips there are disproportionately
        # masked; prefer the dirty *heap* pages holding live records.
        stack_page = (image.stack_base - image.base) >> PAGE_SHIFT
        heap_pages = [p for p in dirty_pages if p < stack_page]
        if heap_pages:
            page = heap_pages[self.rng.randrange(len(heap_pages))]
        elif dirty_pages:
            page = dirty_pages[self.rng.randrange(len(dirty_pages))]
        else:
            page = self.rng.randrange(n_pages)
        live = image.modified_word_offsets(page)
        if live:
            offset = live[self.rng.randrange(len(live))]
        else:
            lo = page << PAGE_SHIFT
            hi = min(lo + PAGE_WORDS, image.size)
            offset = lo + self.rng.randrange(hi - lo)
        bit = self.rng.choice(self._eligible_bits)
        addr = image.base + offset
        image.write_word(addr, image.read_word(addr) ^ (1 << bit), tainted=True)
        flip = MemFlip(
            component_name, addr, bit, page, page_dirty=bool(dirty_pages)
        )
        self.delivered.append(flip)
        self.last_delivery_clock = self.kernel.clock.now
        recorder = self.kernel.recorder
        if recorder.enabled:
            recorder.emit(
                "swifi_mem_inject",
                component=component_name,
                addr=addr,
                bit=bit,
                page=page,
                page_dirty=flip.page_dirty,
            )
        return None

    # ------------------------------------------------------------------
    # IDL-boundary fuzzing, called by the client-stub layer around every
    # stub invocation (ClientStubRuntime.invoke / C3ClientStubBase.invoke).
    # ------------------------------------------------------------------
    def filter_idl_args(self, server: str, fn: str, args: tuple) -> tuple:
        """Count one stub invocation; corrupt its arguments if armed.

        Fires once: past the armed invocation count, one bit of one
        integer argument is flipped.  A function carrying no integer
        arguments (the zero-arg / principal-only edge case) converts the
        fault into a pending *return-value* flip applied by
        :meth:`filter_idl_ret` on the next completed invocation of the
        same server.
        """
        self.invoke_counts[server] = self.invoke_counts.get(server, 0) + 1
        pending = self._idl_pending
        if pending is None or pending[0] != server:
            return args
        pending[2] += 1
        if pending[2] <= pending[1]:
            return args
        self._idl_pending = None
        bit = self.rng.choice(self._eligible_bits)
        candidates = [
            i for i, value in enumerate(args)
            if isinstance(value, int) and not isinstance(value, bool)
        ]
        if not candidates:
            # Nothing to corrupt on the way in: corrupt the way out.
            self._idl_ret_pending = (server, bit)
            return args
        index = candidates[self.rng.randrange(len(candidates))]
        mutated = list(args)
        mutated[index] = mutated[index] ^ (1 << bit)
        fuzz = IdlFuzz(server, fn, "arg", index, bit)
        self.delivered.append(fuzz)
        self.last_delivery_clock = self.kernel.clock.now
        self._emit_idl(fuzz)
        return tuple(mutated)

    def filter_idl_ret(self, server: str, fn: str, value):
        """Apply a pending return-value flip to an integer result."""
        pending = self._idl_ret_pending
        if pending is None or pending[0] != server:
            return value
        if not isinstance(value, int) or isinstance(value, bool):
            return value
        self._idl_ret_pending = None
        bit = pending[1]
        fuzz = IdlFuzz(server, fn, "ret", -1, bit)
        self.delivered.append(fuzz)
        self.last_delivery_clock = self.kernel.clock.now
        self._emit_idl(fuzz)
        return value ^ (1 << bit)

    def _emit_idl(self, fuzz: IdlFuzz) -> None:
        recorder = self.kernel.recorder
        if recorder.enabled:
            recorder.emit(
                "swifi_idl_inject",
                server=fuzz.server,
                fn=fuzz.fn,
                target=fuzz.target,
                index=fuzz.index,
                bit=fuzz.bit,
            )

    # ------------------------------------------------------------------
    def consume_delivery_latency(self, now: int) -> Optional[int]:
        """Cycles since the last unobserved delivery; one-shot."""
        delivered_at = self.last_delivery_clock
        if delivered_at is None:
            return None
        self.last_delivery_clock = None
        return now - delivered_at
