"""Application-level client components.

Client components host workload threads and, importantly for recovery,
receive *upcalls*: U0 recovery upcalls into the component that created a
global descriptor, and MM mapping-recovery upcalls (Section II-D).  The
handlers are registered dynamically (client stubs register themselves so
recovery can reach their tracking state).
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.composite.component import Component


class AppComponent(Component):
    """A client component with dynamically registered upcall handlers."""

    def __init__(self, name: str):
        super().__init__(name)
        self._handlers: Dict[str, Callable] = {}

    def reinit(self) -> None:
        # Application components are not micro-rebooted in this work
        # (SuperGlue does not target application-level faults).
        if not hasattr(self, "_handlers"):
            self._handlers = {}

    def register_handler(self, fn: str, handler: Callable) -> None:
        """Expose ``handler`` as an upcall entry point named ``fn``."""
        self._ran = True
        self._handlers[fn] = handler

    def dispatch(self, fn: str, thread, args):
        handler = self._handlers.get(fn)
        if handler is None:
            return super().dispatch(fn, thread, args)
        self._ran = True
        return handler(thread, *args)

    @property
    def handlers(self):
        return dict(self._handlers)
