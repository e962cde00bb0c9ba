"""Names ``bench/tracer.py`` still wraps; the tier-3 engine is gone.

Table II runs start at the rung of their spec's snapshot ladder
instead of replaying a recorded clean prefix (see
:func:`repro.swifi.campaign._campaign_recording`).  The frozen
benchmark resolves these methods as span boundaries, so each stays a
no-op until the benchmark drops its super-trace rows (ROADMAP item 9);
nothing in the program calls them.
"""

from __future__ import annotations


class ReplaySession:
    """Kept for ``bench/tracer.py``'s ``supertrace.session`` and
    ``supertrace.finalize`` spans."""

    def on_invoke(self, kernel, thread, action):
        """Kept for ``bench/tracer.py``; never called."""

    def on_unblock(self, kernel, thread, stub, action, value):
        """Kept for ``bench/tracer.py``; never called."""

    def finalize(self, kernel) -> None:
        """Kept for ``bench/tracer.py``; never called."""


class RecordingSession:
    """Kept for ``bench/tracer.py``'s ``supertrace.finish_tail`` span."""

    def finish_tail(self, sig: tuple) -> None:
        """Kept for ``bench/tracer.py``; never called."""
