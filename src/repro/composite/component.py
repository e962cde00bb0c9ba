"""Component base class: isolated memory, exported interface, micro-reboot.

A COMPOSITE component is a user-level, hardware-isolated module exporting a
set of interface functions (Section II-B).  Subclasses implement services
by:

* declaring interface functions with the :func:`export` decorator;
* keeping *authoritative* state in Python attributes (re-created by
  :meth:`Component.reinit`); and
* mirroring each operation onto the component's simulated
  :class:`~repro.composite.memory.MemoryImage` via micro-op traces executed
  with :meth:`Component.execute` — this is the surface SWIFI faults hit.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.composite.fastpath import attached_program, try_execute_fast
from repro.composite.machine import (
    EBP,
    ESP,
    WORD_MASK,
    Trace,
    TraceResult,
    execute_trace,
)
from repro.composite.memory import DEFAULT_IMAGE_WORDS, MemoryImage
from repro.errors import (
    AssertionFault,
    CapabilityError,
    PropagatedFault,
    ReproError,
)


def export(fn: Callable) -> Callable:
    """Mark a method as part of the component's exported interface."""
    fn.__exported__ = True
    return fn


class Component:
    """Base class for all simulated components.

    Attributes:
        name: unique component name (its "spdid" for interface purposes).
        kernel: back-reference, set when registered.
        image: the component's private simulated memory.
        reboot_epoch: incremented on every micro-reboot; client stubs compare
            it against the epoch they last synchronised with to detect that
            recovery is needed (the CSTUB_FAULT_UPDATE of Fig. 4).

    A component is a pooled root (see :class:`repro.system.StateModel`):
    the class attributes ``STATE_WIRING``, ``STATE_WARM`` and
    ``STATE_TOUCHED`` name the instance attributes that are not per-run
    state, and a subclass declares the ones it introduces.  Every other
    instance attribute, a subclass's included, is state: fingerprinted,
    sealed and restored by system snapshots without further code.  ``_ran``, the touched flag, is set on every dispatch, trace
    execution, micro-reboot and vectored fault.
    """

    #: Subclasses may override to size their image.
    image_words = DEFAULT_IMAGE_WORDS

    STATE_WIRING = ("name", "kernel", "image", "_exports")
    STATE_TOUCHED = "_ran"

    def __init__(self, name: str):
        self.name = name
        self.kernel = None
        self.image: Optional[MemoryImage] = None
        self.reboot_epoch = 0
        self.faults_detected = 0
        self._ran = False
        self._exports: Dict[str, Callable] = {}
        for attr in dir(type(self)):
            # Look on the class (not the instance) so properties are not
            # evaluated before subclass __init__ completes.
            class_attr = getattr(type(self), attr, None)
            if callable(class_attr) and getattr(class_attr, "__exported__", False):
                self._exports[attr] = getattr(self, attr)

    # -- lifecycle ----------------------------------------------------------
    def attach(self, kernel, image_base: int) -> None:
        """Wire the component into a kernel and build its initial state."""
        self.kernel = kernel
        self.image = MemoryImage(image_base, self.image_words)
        self.reinit()
        self.image.freeze_good_image()

    def reinit(self) -> None:
        """(Re-)create the component's internal state from scratch.

        Called at attach time and again after every micro-reboot.  Must not
        assume any prior state survives.
        """

    def micro_reboot(self) -> int:
        """Restore the good image and re-initialise; returns cycle cost."""
        self._ran = True
        self.image.micro_reboot()
        self.reinit()
        self.reboot_epoch += 1
        return self.image.reboot_cost_cycles

    # -- interface dispatch ---------------------------------------------------
    @property
    def exports(self):
        return frozenset(self._exports)

    def dispatch(self, fn: str, thread, args) -> object:
        if fn not in self._exports:
            raise CapabilityError(f"{self.name} does not export {fn!r}")
        self._ran = True
        return self._exports[fn](thread, *args)

    # -- trace execution --------------------------------------------------------
    def execute(self, thread, trace: Trace) -> TraceResult:
        """Run a micro-op trace in this component on behalf of ``thread``.

        Sets up the stack registers for entry into this component, pulls a
        pending SWIFI injection (if one is armed for this component), and
        charges the consumed cycles to the thread and the global clock.
        A clean execution (no injection, no taint, untraced) of a trace
        with an attached program runs that residual from the thread's
        registers as they are: the residual sets the entry registers.

        A tainted return value models a corrupted value crossing the
        interface; whether that becomes a *propagated* fault is decided by
        the caller (stub validation usually catches it).
        """
        self._ran = True
        regs = thread.regs
        image = self.image
        kernel = self.kernel
        program = injection = None
        if kernel is not None:
            recorder = kernel.recorder
            traced = recorder.enabled
            swifi = kernel.swifi
            if swifi is not None:
                injection = swifi.take_injection(self.name, len(trace.ops))
            if not (
                injection is not None or traced or image._taint_count
                or True in regs.taint
            ):
                program = attached_program(trace, image, self.name)
        if program is None:
            # Entry-register setup: poke the register file's lists
            # directly instead of paying a method call per register.
            values = regs.values
            taint = regs.taint
            top = image.stack_top
            values[ESP] = top
            taint[ESP] = False
            values[EBP] = top
            taint[EBP] = False
            for reg, value in trace.entry_regs.items():
                values[reg] = value & WORD_MASK
                taint[reg] = False
            if kernel is None:
                # Unattached execution (unit tests drive traces directly):
                # no SWIFI, no stats, no cycle accounting.
                result = try_execute_fast(trace, regs, image, self.name)
                if result is None:
                    result = execute_trace(
                        trace, regs, image, component_name=self.name,
                        injection=None,
                    )
                return result
            if injection is not None and traced:
                # The flip is applied inside the upcoming execution;
                # record exactly where it lands.  Events are emitted only
                # here, at the trace-execution boundary — never from
                # inside the interpreter or the compiled fast path.
                recorder.emit(
                    "swifi_inject",
                    component=self.name,
                    reg=injection.reg,
                    bit=injection.bit,
                    op_index=injection.op_index,
                    trace_len=len(trace),
                    label=trace.label,
                )
        try:
            # Tier 2: no pending injection and no live taint means the
            # taint machinery is provably inert — run the compiled clean
            # path.  Anything else takes the authoritative interpreter.
            if program is not None:
                result = program.run(regs.values, image.words, image._dirty)
            elif injection is None:
                result = try_execute_fast(
                    trace, regs, image, self.name,
                    recorder=recorder if traced else None,
                )
            else:
                result = None
            fast = result is not None
            if not fast:
                result = execute_trace(
                    trace, regs, image, component_name=self.name,
                    injection=injection,
                )
                kernel.stats["interp_slow_runs"] += 1
            else:
                kernel.stats["interp_fast_runs"] += 1
        except Exception as exc:
            # A faulting trace still consumed time.  The trace engines
            # stamp the exact cycle count on the fault as it unwinds;
            # only faults raised before any op ran (entry guards,
            # harness errors) lack it, and those fall back to the
            # conservative whole-trace estimate.
            consumed = getattr(exc, "cycles_consumed", None)
            kernel.charge(
                thread, 3 * len(trace) if consumed is None else consumed
            )
            raise
        if traced:
            recorder.emit(
                "trace_exec",
                component=self.name,
                label=trace.label,
                fast=fast,
                injected=injection is not None,
                cycles=result.cycles,
            )
        kernel.charge(thread, result.cycles)
        return result

    def check_return(self, result: TraceResult, plausible) -> int:
        """Validate a trace's return value against interface expectations.

        ``plausible`` is a predicate over the returned value.  A tainted
        value that still looks plausible escapes into the client: that is a
        propagated fault (unrecoverable, Table II "propagated").  A tainted
        value that fails the predicate is caught by the interface's error
        checking: it fail-stops here (recoverable) instead of escaping.
        """
        if result.tainted:
            if plausible(result.value):
                raise PropagatedFault(
                    f"corrupted value {result.value:#x} escaped {self.name}",
                    component=self.name,
                )
            raise AssertionFault(
                f"implausible return value {result.value:#x} caught at "
                f"{self.name}'s interface",
                component=self.name,
            )
        return result.value

    # -- convenience -----------------------------------------------------------
    def call(self, thread, server: str, fn: str, *args):
        """Invoke another component's interface on behalf of ``thread``.

        Services use this for their own server dependencies (e.g. RamFS
        calling the storage component).  The call goes through the kernel's
        normal invocation path, so capabilities and stubs apply.
        """
        from repro.composite.thread import Invoke

        return self.kernel.invoke(thread, Invoke(server, fn, *args))

    def require_image(self) -> MemoryImage:
        if self.image is None:
            raise ReproError(f"component {self.name} not attached")
        return self.image

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r} epoch={self.reboot_epoch}>"
