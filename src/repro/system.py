"""System builder: assemble a full simulated COMPOSITE system.

Wires the kernel, booter, the six system services plus their protected
helpers (storage, cbuf), application client components, and — depending on
the fault-tolerance mode — the SuperGlue-generated stubs, the hand-written
C^3 stubs, or no stubs at all (the unprotected baseline).

This is the main entry point of the library::

    from repro.system import build_system
    system = build_system(ft_mode="superglue")
    system.kernel.create_thread(...)
    system.kernel.run()
"""

from __future__ import annotations

import functools
import os
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.composite.app import AppComponent
from repro.composite.booter import Booter
from repro.composite.cbuf import CbufManager
from repro.composite.kernel import Kernel
from repro.composite.services import (
    EventService,
    LockService,
    MemoryManagerService,
    RamFSService,
    SchedService,
    StorageService,
    TimerService,
)
from repro.core.compiler import CompiledInterface, SuperGlueCompiler
from repro.core.runtime.recovery import RecoveryManager
from repro.errors import ConfigurationError, ReproError
from repro.idl_specs import SERVICES, load_all

#: Default application (client) components hosting workload threads.
DEFAULT_APPS = ("app0", "app1", "app2")

_compiled_cache: Optional[Dict[str, CompiledInterface]] = None


def compile_all_interfaces(force: bool = False) -> Dict[str, CompiledInterface]:
    """Compile the six service IDLs once and cache the result."""
    global _compiled_cache
    if _compiled_cache is None or force:
        compiler = SuperGlueCompiler()
        _compiled_cache = {
            name: compiler.compile_source(source, name=name)
            for name, source in load_all().items()
        }
    return _compiled_cache


@dataclass
class System:
    """A fully wired simulated system."""

    kernel: Kernel
    booter: Booter
    ft_mode: str
    apps: List[str]
    recovery_manager: Optional[RecoveryManager] = None
    compiled: Dict[str, CompiledInterface] = field(default_factory=dict)
    client_stubs: Dict[tuple, object] = field(default_factory=dict)

    def service(self, name: str):
        return self.kernel.component(name)

    def stub(self, client: str, server: str):
        return self.client_stubs.get((client, server))

    def run(self, **kwargs):
        return self.kernel.run(**kwargs)


def _make_services():
    return [
        SchedService(),
        MemoryManagerService(),
        RamFSService(),
        LockService(),
        EventService(),
        TimerService(),
    ]


def build_system(
    ft_mode: str = "superglue",
    apps=DEFAULT_APPS,
    recovery_mode: str = "ondemand",
) -> System:
    """Build a system in one of three fault-tolerance modes.

    * ``"none"`` — no stubs, no recovery: a detected service fault crashes
      the system (the unprotected COMPOSITE baseline of Fig. 7).
    * ``"c3"`` — hand-written C^3 stubs (Section II-C baseline).
    * ``"superglue"`` — SuperGlue-compiled stubs (the contribution).
    """
    if ft_mode not in ("none", "c3", "superglue"):
        raise ConfigurationError(f"unknown ft_mode {ft_mode!r}")
    kernel = Kernel(ft_mode=ft_mode)
    for app in apps:
        kernel.register_component(AppComponent(app))
    for service in _make_services():
        kernel.register_component(service)
    kernel.register_component(StorageService())
    kernel.register_component(CbufManager())
    kernel.grant_all_caps()
    booter = Booter(kernel)

    system = System(
        kernel=kernel, booter=booter, ft_mode=ft_mode, apps=list(apps)
    )

    if ft_mode == "none":
        return system

    manager = RecoveryManager(kernel, mode=recovery_mode)
    system.recovery_manager = manager

    if ft_mode == "superglue":
        compiled = compile_all_interfaces()
        system.compiled = compiled
        for name in SERVICES:
            interface = compiled[name]
            manager.register_interface(interface.ir)
            server_stub = interface.make_server_stub(kernel.component(name))
            kernel.register_server_stub(name, server_stub)
            for app in apps:
                stub = interface.make_client_stub(app)
                kernel.register_stub(app, name, stub)
                system.client_stubs[(app, name)] = stub
    else:  # c3
        from repro.c3 import make_c3_stubs

        irs, client_factory, server_factory = make_c3_stubs()
        for name in SERVICES:
            manager.register_interface(irs[name])
            server_stub = server_factory(name, kernel.component(name), irs[name])
            if server_stub is not None:
                kernel.register_server_stub(name, server_stub)
            for app in apps:
                stub = client_factory(name, app, irs[name])
                kernel.register_stub(app, name, stub)
                system.client_stubs[(app, name)] = stub
    return system


# ---------------------------------------------------------------------------
# System pooling: boot once, dirty-restore per run
# ---------------------------------------------------------------------------

def pooling_enabled() -> bool:
    """Is system pooling on?  ``REPRO_SYSTEM_POOL=0`` disables it."""
    return os.environ.get("REPRO_SYSTEM_POOL", "1") != "0"


def pool_debug_enabled() -> bool:
    """Is ``REPRO_POOL_DEBUG=1`` set?  Every pooled restore is then
    diffed against a fresh build, every super-trace recording unit
    against a whole-system diff, and negative histogram observations
    raise instead of clamping."""
    return os.environ.get("REPRO_POOL_DEBUG") == "1"


#: Plain-data classes that per-run state holds below its roots.  Every
#: cross-reference among them is by key (tids, cdescs, event ids,
#: mapping keys), never by object identity, so they can be copied
#: field by field: the pool seals and restores them, and tier 3 patches
#: and reconstructs them.  Any other object below a root is opaque:
#: tier 3 compares it by fingerprint and ends a recording that changes
#: it, and the pool cannot seal it.
_STATE_CLASSES = frozenset(
    {
        "_LockState",
        "_EventState",
        "_TimerState",
        "_Mapping",
        "_File",
        "_Cbuf",
        "Record",
        "DescriptorEntry",
        "TrackingTable",
        "HttpRequest",
    }
)


def _is_state_obj(value) -> bool:
    cls = type(value)
    return (
        cls.__name__ in _STATE_CLASSES
        and cls.__module__.startswith("repro.")
    )


def _obj_attrs(value) -> List[str]:
    slots = getattr(type(value), "__slots__", None)
    if slots is not None:
        return [s for s in slots if hasattr(value, s)]
    return list(value.__dict__)


class StateModel(NamedTuple):
    """What a pooled root class declares about its instance attributes.

    A root class (a component, client or server stub, the booter, the
    recovery manager) names the instance attributes it introduces that
    are *not* per-run state, by role:

    * ``STATE_WIRING``: references and names fixed at build time;
    * ``STATE_WARM``: caches kept warm across pooled runs on purpose
      (their keys capture every input, so reuse changes wall-clock
      only);
    * ``STATE_TOUCHED``: the touched flag (``_ran``), set whenever the
      root may have changed.

    Every other instance attribute is per-run state.  System
    fingerprints flatten it, tier-3 recordings diff it together with the
    touched flag, and :class:`SystemSnapshot` seals and restores it.
    """

    #: Wiring, warm caches and the touched flag: never per-run state.
    declared: frozenset
    #: The touched flag's name, or None for a root without one.
    touched: Optional[str]


@functools.lru_cache(maxsize=None)
def state_model(cls: type) -> StateModel:
    """``cls``'s state declaration, merged along its MRO (each class
    declares only the attributes it introduces) and cached per class."""
    declared = set()
    touched = None
    for klass in cls.__mro__:
        names = vars(klass)
        declared.update(names.get("STATE_WIRING", ()))
        declared.update(names.get("STATE_WARM", ()))
        touched = touched or names.get("STATE_TOUCHED")
    if touched is not None:
        declared.add(touched)
    return StateModel(frozenset(declared), touched)


_FINGERPRINT_MAX_DEPTH = 8


def _flatten(obj, path: str, out: Dict[str, object], depth: int = 0) -> None:
    """Flatten ``obj`` into ``out`` as deterministic path -> value pairs.

    An object contributes its per-run state only (see
    :class:`StateModel`): the attributes its class declares are skipped.
    """
    if depth > _FINGERPRINT_MAX_DEPTH:
        out[path] = f"<depth:{type(obj).__name__}>"
        return
    if obj is None or isinstance(obj, (bool, int, float, str)):
        out[path] = obj
    elif isinstance(obj, (bytes, bytearray)):
        out[path] = f"bytes:{len(obj)}:{zlib.crc32(bytes(obj)):08x}"
    elif callable(obj):
        out[path] = f"<fn:{getattr(obj, '__qualname__', repr(obj))}>"
    elif isinstance(obj, dict):
        out[f"{path}#len"] = len(obj)
        for key in sorted(obj, key=repr):
            _flatten(obj[key], f"{path}[{key!r}]", out, depth + 1)
    elif isinstance(obj, (list, tuple, deque)):
        out[f"{path}#len"] = len(obj)
        for index, item in enumerate(obj):
            _flatten(item, f"{path}[{index}]", out, depth + 1)
    elif isinstance(obj, (set, frozenset)):
        _flatten(sorted(obj, key=repr), path, out, depth)
    else:
        attrs: Dict[str, object] = {}
        for slot in getattr(type(obj), "__slots__", ()):
            if hasattr(obj, slot):
                attrs[slot] = getattr(obj, slot)
        attrs.update(getattr(obj, "__dict__", {}))
        if not attrs:
            out[path] = f"<{type(obj).__name__}>"
            return
        out[f"{path}#type"] = type(obj).__name__
        declared = state_model(type(obj)).declared
        for name in sorted(attrs):
            if name not in declared:
                _flatten(attrs[name], f"{path}.{name}", out, depth + 1)


_ATOMS = frozenset({type(None), bool, int, float, str, bytes, frozenset})


def _copy_state(value):
    """A fresh deep copy of per-run state: scalars, containers and
    :data:`_STATE_CLASSES` objects.  Anything else raises."""
    cls = type(value)
    if cls in _ATOMS:
        return value
    if cls is dict:
        return {key: _copy_state(item) for key, item in value.items()}
    if cls is list or cls is tuple or cls is deque:
        return cls(map(_copy_state, value))
    if cls is set or cls is bytearray:
        return cls(value)
    if _is_state_obj(value):
        copy = cls.__new__(cls)
        for attr in _obj_attrs(value):
            setattr(copy, attr, _copy_state(getattr(value, attr)))
        return copy
    raise ReproError(f"cannot copy a {cls.__name__}")


def system_fingerprint(system: System) -> Dict[str, object]:
    """A structural fingerprint of everything a run can mutate.

    Used by the pool's debug mode to prove a restored system is
    indistinguishable from a fresh build: two systems with equal
    fingerprints have identical images (CRC + allocator position),
    kernel counters, component state, stub tracking tables, and
    recovery/booter logs.
    """
    out: Dict[str, object] = {}
    kernel = system.kernel
    out["ft_mode"] = kernel.ft_mode
    out["clock.now"] = kernel.clock.now
    out["next_tid"] = kernel._next_tid
    out["crashed"] = repr(kernel.crashed)
    out["threads#len"] = len(kernel.threads)
    out["components"] = ",".join(kernel.components)
    _flatten(dict(kernel.stats), "kernel.stats", out)
    for name, component in kernel.components.items():
        image = component.image
        out[f"{name}.image.crc32"] = zlib.crc32(image.words.tobytes())
        out[f"{name}.image.alloc_ptr"] = image._alloc_ptr
        out[f"{name}.image.taint"] = image.taint_count
        _flatten(component, name, out)
    for (client, server), stub in sorted(kernel.all_client_stubs().items()):
        _flatten(stub, f"stub[{client}->{server}]", out)
    for server, stub in sorted(kernel.all_server_stubs().items()):
        _flatten(stub, f"server_stub[{server}]", out)
    _flatten(system.booter, "booter", out)
    if system.recovery_manager is not None:
        _flatten(system.recovery_manager, "recovery", out)
    return out


class SystemSnapshot:
    """Snapshot zero of a freshly built system, and its cheap restore.

    Sealing copies every pooled root's per-run state (each instance
    attribute its class does not declare, see :class:`StateModel`) into
    :attr:`state`, plus the kernel's fault observers.  A declared name
    the instance does not carry, or a state value that cannot be
    copied, raises here.

    Restoring resets the kernel's per-run structures and every root
    whose touched flag is set, by putting back fresh copies of its
    sealed values.  One touched rule covers every root kind, the one
    the tier-3 recorder applies: a component, its image and its server
    stub by the component's ``_ran`` (or by an image written without an
    entry, such as a flip delivered by hand), a client stub by its own
    ``_ran``, which the kernel sets on every entry.  Changes made
    outside any entry are covered as well: micro-reboots
    (monitor-driven ones included) and vectored faults set the
    component's flag, and a G0/U0 ``recover_by_old_sid`` upcall changes
    only a creator stub holding descriptors, which this run's entries
    made (tables are empty at seal).  The booter and the recovery
    manager have no flag and are always restored.  The restored system
    is structurally identical to a fresh :func:`build_system`.

    ``prepare`` is an optional post-build hook (e.g. registering the web
    server's application components) applied before sealing; the debug
    diff applies the same hook to its fresh reference build so prepared
    systems stay verifiable.  It must be deterministic and idempotent
    per fresh system.
    """

    def __init__(
        self,
        system: System,
        prepare: Optional[Callable[[System], None]] = None,
    ):
        self.system = system
        self.prepare = prepare
        self.params: Tuple[str, tuple, str] = (
            system.ft_mode,
            tuple(system.apps),
            system.recovery_manager.mode
            if system.recovery_manager is not None
            else "ondemand",
        )
        self.restores = 0
        kernel = system.kernel
        self._observers = tuple(kernel.fault_observers)
        self._zero_stats = dict.fromkeys(kernel.stats, 0)
        #: Root -> its sealed per-run state, by attribute.
        self.state: Dict[object, Dict[str, object]] = {}
        # ``(owner, image, roots)``: roots restored together when the
        # owner's touched flag is set or the image was written.
        groups = [
            (component, component.image,
             (component, kernel.server_stub_for(name)))
            for name, component in kernel.components.items()
        ]
        groups += [(stub, None, (stub,)) for stub in kernel._stubs.values()]
        groups.append((None, None, (system.booter, system.recovery_manager)))
        self._groups = tuple(
            (
                owner,
                None if owner is None else state_model(type(owner)).touched,
                image,
                tuple(
                    (root, self._seal(root)) for root in roots
                    if root is not None
                ),
            )
            for owner, image, roots in groups
        )

    def _seal(self, root) -> Dict[str, object]:
        declared = state_model(type(root)).declared
        missing = declared - vars(root).keys()
        if missing:
            raise ReproError(
                f"{type(root).__name__} declares {sorted(missing)}, "
                f"which {root!r} does not carry"
            )
        state = self.state[root] = {}
        for attr, value in vars(root).items():
            if attr in declared:
                continue
            try:
                state[attr] = _copy_state(value)
            except ReproError as exc:
                raise ReproError(
                    f"cannot seal {root!r}.{attr}: {exc}"
                ) from None
        return state

    def restore(self) -> System:
        system = self.system
        kernel = system.kernel
        kernel.reset()
        kernel.stats.update(self._zero_stats)
        kernel.fault_observers = list(self._observers)
        for owner, flag, image, roots in self._groups:
            if flag is not None and not getattr(owner, flag) and (
                image is None or image.is_pristine()
            ):
                continue
            if image is not None:
                image.restore()
            for root, state in roots:
                for attr, value in state.items():
                    setattr(root, attr, _copy_state(value))
            if flag is not None:
                setattr(owner, flag, False)
        self.restores += 1
        return system

    def diff_against_fresh(self) -> List[str]:
        """Structural differences between this system and a fresh build."""
        ft_mode, apps, recovery_mode = self.params
        fresh = build_system(ft_mode, apps=apps, recovery_mode=recovery_mode)
        if self.prepare is not None:
            self.prepare(fresh)
        pooled = system_fingerprint(self.system)
        reference = system_fingerprint(fresh)
        diffs = []
        for key in sorted(set(pooled) | set(reference)):
            mine = pooled.get(key, "<absent>")
            theirs = reference.get(key, "<absent>")
            if mine != theirs:
                diffs.append(f"{key}: pooled={mine!r} fresh={theirs!r}")
        return diffs


def system_snapshot(system: System, prepare=None) -> SystemSnapshot:
    """Seal ``system``'s current (post-boot) state for later restores."""
    return SystemSnapshot(system, prepare=prepare)


def _pool_key(ft_mode, apps, recovery_mode, prepare, instance) -> tuple:
    """A pooled system's identity: its build parameters, the ``prepare``
    hook by qualified name, and the private ``instance`` (if any)."""
    return (
        ft_mode,
        tuple(apps),
        recovery_mode,
        None
        if prepare is None
        else f"{prepare.__module__}.{prepare.__qualname__}",
        instance,
    )


class SystemPool:
    """Per-process pool of sealed systems, keyed by build parameters.

    ``acquire`` builds (and seals) on first use, then dirty-restores on
    every subsequent call.  With ``REPRO_POOL_DEBUG=1`` each restore is
    verified against a fresh build via :func:`system_fingerprint` — any
    structural divergence raises.
    """

    def __init__(self):
        self._snapshots: Dict[tuple, SystemSnapshot] = {}
        self.stats = {"builds": 0, "restores": 0}

    def acquire(
        self,
        ft_mode: str = "superglue",
        apps=DEFAULT_APPS,
        recovery_mode: str = "ondemand",
        prepare: Optional[Callable[[System], None]] = None,
        instance: Optional[object] = None,
    ) -> System:
        """Acquire a sealed system, building on first use.

        ``instance`` distinguishes otherwise-identical systems that must
        coexist live in one process — e.g. the simulated nodes of a
        cluster cell each pass their node id, so each node owns a
        private snapshot instead of all nodes sharing (and clobbering)
        one pooled image.
        """
        key = _pool_key(ft_mode, apps, recovery_mode, prepare, instance)
        snapshot = self._snapshots.get(key)
        if snapshot is None:
            system = build_system(
                ft_mode, apps=apps, recovery_mode=recovery_mode
            )
            if prepare is not None:
                prepare(system)
            self._snapshots[key] = SystemSnapshot(system, prepare=prepare)
            self.stats["builds"] += 1
            return system
        system = snapshot.restore()
        self.stats["restores"] += 1
        if pool_debug_enabled():
            diffs = snapshot.diff_against_fresh()
            if diffs:
                detail = "; ".join(diffs[:10])
                raise ReproError(
                    f"pooled system diverged from fresh build "
                    f"({len(diffs)} differences): {detail}"
                )
        return system

    def peek(
        self,
        ft_mode: str = "superglue",
        apps=DEFAULT_APPS,
        recovery_mode: str = "ondemand",
        prepare: Optional[Callable[[System], None]] = None,
        instance: Optional[object] = None,
    ) -> Optional[System]:
        """The pooled system for these parameters, *without* restoring.

        Identity-only lookup for caches that key state to a specific
        pooled system object (e.g. the super-trace registry): a restore
        here would double the per-run restore cost for nothing.
        """
        key = _pool_key(ft_mode, apps, recovery_mode, prepare, instance)
        snapshot = self._snapshots.get(key)
        return None if snapshot is None else snapshot.system

    def snapshot_for(
        self,
        ft_mode: str = "superglue",
        apps=DEFAULT_APPS,
        recovery_mode: str = "ondemand",
        prepare: Optional[Callable[[System], None]] = None,
        instance: Optional[object] = None,
    ) -> Optional[SystemSnapshot]:
        """The sealed snapshot for these parameters, if one exists.

        The cluster supervisor uses this to whole-node reboot: restoring
        a node's snapshot *is* the node reboot (dirty-page restore of
        every component image plus per-run structure resets).
        """
        return self._snapshots.get(
            _pool_key(ft_mode, apps, recovery_mode, prepare, instance)
        )

    def clear(self) -> None:
        self._snapshots.clear()


#: Process-wide pool used by the SWIFI campaign driver and workers.
GLOBAL_POOL = SystemPool()
