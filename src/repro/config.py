"""The engine configuration: its four ``REPRO_*`` gates, read once.

Every switch of the execution engine is a typed field of one
:class:`EngineConfig`.  The process reads them from its environment
once, when this module is imported, into :data:`CONFIG`; no other
module reads a ``REPRO_*`` variable, and nothing re-reads one per run.
Each variable is named after its field (``system_pool`` is
``REPRO_SYSTEM_POOL``) and parsed by its field's type:

* **boolean:** ``1``/``true``/``yes``/``on`` or ``0``/``false``/``no``/``off``;
* **choice:** one of the field's listed values.

Unset or empty means the field's default; any other value raises
:class:`~repro.errors.ConfigurationError` naming the variable and the
value, so a mistyped value stops the program instead of silently
meaning the default.

Inside a process, :func:`override` is the only way to change the
configuration: a ``with`` block that sets some fields and puts them
back on exit (tests, benchmark sweeps, the traced campaign path).
Spawned campaign workers run under their parent's configuration (see
:func:`repro.swifi.parallel.run_seeded`); forked ones inherit it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Mapping

from repro.errors import ConfigurationError

#: The values ``worker_start`` accepts.
WORKER_STARTS = ("auto", "fork", "spawn")

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


@dataclass(frozen=True)
class EngineConfig:
    """The engine's gates (frozen: change them with :func:`override`)."""

    #: Runs restore a sealed pooled system instead of building one.
    system_pool: bool = True
    #: Tier 2: clean trace executions run compiled residual programs.
    fast_interp: bool = True
    #: Every pooled restore is diffed against a fresh build (driven
    #: through the same prefix for a mid-run snapshot), and negative
    #: histogram observations raise instead of clamping.
    pool_debug: bool = False
    #: Process-pool start method (``auto``: fork where available).
    worker_start: str = "auto"

    @classmethod
    def from_env(cls, environ: Mapping[str, str]) -> "EngineConfig":
        """The configuration ``environ`` (``os.environ`` or a dict)
        sets; raises ``ConfigurationError`` on an invalid value."""
        values = {}
        for name in _DEFAULTS:
            raw = environ.get(_env_var(name), "")
            if raw:
                values[name] = _parse(name, raw)
        return cls(**values)


_DEFAULTS = {f.name: f.default for f in fields(EngineConfig)}


def _env_var(name: str) -> str:
    """The environment variable of field ``name``."""
    return f"REPRO_{name.upper()}"


def _parse(name: str, raw: str):
    """``raw``, the value of ``name``'s variable, under its type's rule."""
    default = _DEFAULTS[name]
    text = raw.strip().lower()
    if isinstance(default, bool):
        if text in _TRUE or text in _FALSE:
            return text in _TRUE
        expected = "1/true/yes/on or 0/false/no/off"
    else:
        if text in WORKER_STARTS:
            return text
        expected = "one of " + ", ".join(WORKER_STARTS)
    raise ConfigurationError(f"{_env_var(name)}={raw!r}: expected {expected}")


def _check(name: str, value) -> None:
    """Raise unless ``value`` is a valid typed value of field ``name``."""
    if name not in _DEFAULTS:
        raise ConfigurationError(f"EngineConfig has no field {name!r}")
    kind = type(_DEFAULTS[name])
    if type(value) is not kind or (kind is str and value not in WORKER_STARTS):
        raise ConfigurationError(f"invalid {name}: {value!r}")


#: This process's configuration, read from its environment at import.
CONFIG = EngineConfig.from_env(os.environ)


@contextmanager
def override(**changes):
    """Set the given fields of :data:`CONFIG` for the ``with`` block.

    Values are typed (``override(system_pool=False)``) and checked
    like the environment's; every changed field is put back on exit.
    """
    for name, value in changes.items():
        _check(name, value)
    saved = {name: getattr(CONFIG, name) for name in changes}
    try:
        for name, value in changes.items():
            object.__setattr__(CONFIG, name, value)
        yield CONFIG
    finally:
        for name, value in saved.items():
            object.__setattr__(CONFIG, name, value)
