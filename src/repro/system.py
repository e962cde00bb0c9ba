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

import enum
import functools
import types
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
from repro.config import CONFIG
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
    #: The :class:`SystemSnapshot` this system was last sealed at or
    #: restored from (its touched flags count from there).
    origin: Optional[object] = field(default=None, repr=False, compare=False)

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

#: Plain-data classes that per-run state holds below its roots.  Every
#: cross-reference among them is by key (tids, cdescs, event ids,
#: mapping keys), never by object identity, so they can be copied
#: field by field: snapshots seal and restore them.  Any other object
#: below a root is opaque, and a snapshot cannot seal it.
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
        "RegisterFile",
        "Invoke",
    }
)


@functools.lru_cache(maxsize=None)
def _is_root(cls: type) -> bool:
    """Is ``cls`` a pooled root class (one with a state declaration)?"""
    return hasattr(cls, "STATE_WIRING")


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
    fingerprints flatten it, and :class:`SystemSnapshot` seals and
    restores it.
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
    elif isinstance(obj, enum.Enum):
        out[path] = obj.name
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


#: Types whose values snapshots share instead of copying: immutable
#: atoms, and every enum and root class (roots are restored in place)
#: met so far, added on first sight so later checks are one lookup.
_SHARED = {type(None), bool, int, float, str, bytes, frozenset}

#: Type -> the function that copies a value of it, built on first sight.
_COPIERS: Dict[type, Callable] = {}


def _copy_state(value):
    """A fresh deep copy of per-run state: scalars, containers and
    :data:`_STATE_CLASSES` objects.  Enum members, functions without a
    closure, roots (which snapshots restore in place) and tuples of
    shared values are shared, not copied.  Anything else raises."""
    cls = type(value)
    if cls in _SHARED:
        return value
    copier = _COPIERS.get(cls)
    if copier is None:
        if cls is types.FunctionType and value.__closure__ is None:
            return value
        copier = _copier(cls)
        if copier is None:
            _SHARED.add(cls)
            return value
    return copier(value)


class _FlatDict(dict):
    """A sealed dict whose values are all shared: restored by one
    C-level copy instead of one per value."""

    __slots__ = ()


class _FlatList(list):
    """A sealed list whose items are all shared (see :class:`_FlatDict`)."""

    __slots__ = ()


def _copier(cls: type) -> Optional[Callable]:
    """The copy function of ``cls``'s values (cached), or None when they
    are shared: enum members and roots.  Raises for any other type.
    Leaves of a shared type are copied inline, not by a call each.  A
    dict or list of shared values only is copied as a
    :class:`_FlatDict` or :class:`_FlatList`, and a tuple of them is
    shared, so that restoring a seal copies it in one call."""
    shared = _SHARED
    copy = _copy_state
    if cls is dict:
        def copier(value):
            for item in value.values():
                if type(item) not in shared:
                    return {
                        key: item if type(item) in shared else copy(item)
                        for key, item in value.items()
                    }
            return _FlatDict(value)
    elif cls is list or cls is tuple:
        flat = _FlatList if cls is list else None
        def copier(value):
            for item in value:
                if type(item) not in shared:
                    return cls([
                        item if type(item) in shared else copy(item)
                        for item in value
                    ])
            return value if flat is None else flat(value)
    elif cls is _FlatDict:
        copier = dict
    elif cls is _FlatList:
        copier = list
    elif cls is deque:
        def copier(value):
            return deque([
                item if type(item) in shared else copy(item)
                for item in value
            ])
    elif cls is set or cls is bytearray:
        copier = cls
    elif (
        cls.__name__ in _STATE_CLASSES and cls.__module__.startswith("repro.")
    ):
        slots = getattr(cls, "__slots__", None)
        if slots is None:
            def copier(value):
                duplicate = cls.__new__(cls)
                duplicate.__dict__.update(
                    (attr, item if type(item) in shared else copy(item))
                    for attr, item in value.__dict__.items()
                )
                return duplicate
        else:
            def copier(value):
                duplicate = cls.__new__(cls)
                for attr in slots:
                    item = getattr(value, attr, _UNSET)
                    if item is not _UNSET:
                        setattr(
                            duplicate, attr,
                            item if type(item) in shared else copy(item),
                        )
                return duplicate
    elif issubclass(cls, enum.Enum) or _is_root(cls):
        return None
    else:
        raise ReproError(f"cannot copy a {cls.__name__}")
    _COPIERS[cls] = copier
    return copier


_UNSET = object()


def _timer_entry(entry) -> tuple:
    """A timer heap entry as data: ``(due, seq, kind, tid, token)``."""
    due, seq, wake = entry
    return (due, seq, wake.kind, wake.tid, wake.token)


def system_fingerprint(system: System, roots=()) -> Dict[str, object]:
    """A structural fingerprint of everything a run can mutate.

    Used by the pool's debug mode to prove a restored system is
    indistinguishable from a fresh build: two systems with equal
    fingerprints have identical images (CRC, allocator position, taint
    and dirty pages), kernel counters, clock and timer heap, run queue,
    threads (state, registers with taint, pending resume, block fields
    and body fields), component state, stub tracking tables, and
    recovery/booter logs.  ``roots`` are further objects a snapshot
    restores (the web server its threads drive), flattened under their
    class names.
    """
    out: Dict[str, object] = {}
    kernel = system.kernel
    clock = kernel.clock
    out["ft_mode"] = kernel.ft_mode
    out["clock.now"] = clock.now
    out["clock.seq"] = clock._seq
    for index, entry in enumerate(sorted(clock._timers, key=lambda e: e[:2])):
        _flatten(_timer_entry(entry), f"clock.timers[{index}]", out)
    out["next_tid"] = kernel._next_tid
    out["crashed"] = repr(kernel.crashed)
    out["run_queue"] = ",".join(str(t.tid) for t in kernel.run_queue._threads)
    out["run_queue.rr"] = kernel.run_queue._rr
    out["resume"] = None if kernel.resume is None else kernel.resume.tid
    for tid, thread in sorted(kernel.threads.items()):
        _flatten(thread, f"thread[{tid}]", out)
    out["components"] = ",".join(kernel.components)
    _flatten(dict(kernel.stats), "kernel.stats", out)
    for name, component in kernel.components.items():
        image = component.image
        out[f"{name}.image.crc32"] = zlib.crc32(image.words.tobytes())
        out[f"{name}.image.alloc_ptr"] = image._alloc_ptr
        out[f"{name}.image.taint"] = image.taint_count
        out[f"{name}.image.dirty"] = ",".join(
            map(str, image.dirty_page_indices())
        )
        _flatten(component, name, out)
    for (client, server), stub in sorted(kernel.all_client_stubs().items()):
        _flatten(stub, f"stub[{client}->{server}]", out)
    for server, stub in sorted(kernel.all_server_stubs().items()):
        _flatten(stub, f"server_stub[{server}]", out)
    _flatten(system.booter, "booter", out)
    if system.recovery_manager is not None:
        _flatten(system.recovery_manager, "recovery", out)
    for root in roots:
        _flatten(root, type(root).__name__, out)
    return out


#: Kernel stats counters that warm trace caches move: a snapshot taken
#: mid-run on a warm pooled system and a fresh build driven through the
#: same prefix differ only there.
ENGINE_STATS = (
    "interp_fast_runs", "interp_slow_runs", "trace_cache_hits",
    "trace_cache_misses",
)


class SystemSnapshot:
    """A sealed system state and its cheap restore.

    Snapshot zero is sealed right after boot (the pool's).  A snapshot
    with a ``prefix`` is sealed part-way through a run, where the
    system stands: ``prefix(system)`` describes how a fresh build gets
    there (it installs threads, runs the system to the same point and
    returns the further roots its threads drive), and ``roots`` are
    those roots on the sealed system.  Both Table II rungs and the
    Fig. 7 first-arm snapshot run their prefix on the pooled system
    first and seal it there.

    Sealing copies every pooled root's per-run state (each instance
    attribute its class does not declare, see :class:`StateModel`) into
    :attr:`state`: the components and their server stubs, the client
    stubs, the booter and recovery manager, the threads, their bodies
    when these are objects, and ``roots``.  It also seals each image
    that is not its good image (its dirty pages,
    :meth:`MemoryImage.seal`) and the kernel's scheduling state
    (:meth:`Kernel.run_state`).  A declared name the instance does not
    carry, or a state value that cannot be copied, raises here.

    Every root but the threads, their bodies and ``roots`` belongs to a
    group with a touched flag: a component, its image and its server
    stub by the component's ``_ran`` (or by an image written without an
    entry, such as a flip delivered by hand); a client stub by its own
    ``_ran``, which the kernel sets on every entry; the booter and the
    recovery manager by theirs, set when they log a reboot or a
    recovery.  Changes made outside any entry are covered as well:
    micro-reboots (monitor-driven ones included) and vectored faults
    set the component's flag, and the recovery entry points that reach
    a client stub from outside an entry (a G0/U0 ``recover_by_old_sid``
    upcall, eager ``recover_all``) set the stub's.  A group not touched
    since the snapshot the system last came from (:attr:`System.origin`)
    shares that snapshot's sealed group, which is never mutated,
    instead of copying it again.  Every flag is then cleared, so the
    flags count from the seal.

    Restoring this snapshot S while the system came from snapshot O
    puts back the kernel's scheduling state, the threads, bodies and
    ``roots``, and every group that was touched since O or that S does
    not share with O.  Any other group holds O's sealed state, which is
    S's.  The restored system is structurally identical to a fresh
    :func:`build_system` driven through the same ``prepare`` and
    ``prefix``.

    ``prepare`` is an optional post-build hook (e.g. registering the web
    server's application components) applied before sealing; the debug
    diff applies the same hook and prefix to its fresh reference build
    so prepared systems stay verifiable.  Both must be deterministic.
    """

    def __init__(
        self,
        system: System,
        prepare: Optional[Callable[[System], None]] = None,
        prefix: Optional[Callable[[System], tuple]] = None,
        roots: tuple = (),
    ):
        self.system = system
        self.prepare = prepare
        self.prefix = prefix
        self.params: Tuple[str, tuple, str] = (
            system.ft_mode,
            tuple(system.apps),
            system.recovery_manager.mode
            if system.recovery_manager is not None
            else "ondemand",
        )
        self.restores = 0
        #: Run starts derived from this snapshot, by key: Table II
        #: snapshot ladders and Fig. 7 first-arm snapshots.  They live
        #: and die with it, so a pool rebuild drops them.
        self.starts: Dict[tuple, object] = {}
        #: The prefix's roots (empty for snapshot zero).
        self.roots: tuple = tuple(roots)
        kernel = system.kernel
        #: Kernel steps run before the seal.
        self.steps = kernel.stats["steps"]
        self._kernel = kernel.run_state()
        # The flagged groups: ``(owner, image, roots)``, restored
        # together when the owner's touched flag is set or the image
        # was written.  Every snapshot of a system lists them in the
        # same order.
        owners = [
            (component, component.image,
             (component, kernel.server_stub_for(name)))
            for name, component in kernel.components.items()
        ]
        owners += [(stub, None, (stub,)) for stub in kernel._stubs.values()]
        owners += [
            (root, None, (root,))
            for root in (system.booter, system.recovery_manager)
            if root is not None
        ]
        #: The groups' owners, one tuple shared by every snapshot of the
        #: system sealed since they last changed.
        self._owners = tuple(owner for owner, __, __ in owners)
        origin = system.origin
        since = None
        if origin is not None and origin._owners == self._owners:
            self._owners = origin._owners
            since = origin._groups
        groups = []
        for index, (owner, image, roots) in enumerate(owners):
            if since is not None and not _touched(since[index]):
                groups.append(since[index])
                continue
            flag = state_model(type(owner)).touched
            if flag is None:
                raise ReproError(
                    f"{type(owner).__name__} declares no touched flag"
                )
            groups.append((
                owner,
                flag,
                image,
                None if image is None else image.seal(
                    None if since is None else since[index][3]
                ),
                tuple(
                    (root, _seal(root)) for root in roots if root is not None
                ),
            ))
        #: ``(owner, flag, image, sealed image, ((root, state), ...))``.
        self._groups = tuple(groups)
        threads = tuple(kernel.threads.values())
        #: The roots without a flag, restored on every restore.
        self._always = tuple(
            (root, _seal(root)) for root in (
                *threads,
                *(t.body for t in threads if _is_root(type(t.body))),
                *self.roots,
            )
        )
        for owner, flag, __, __, __ in self._groups:
            setattr(owner, flag, False)
        system.origin = self

    @property
    def state(self) -> Dict[object, Dict[str, object]]:
        """Root -> its sealed per-run state, by attribute (a state
        shared with an earlier snapshot included)."""
        state = {
            root: sealed
            for __, __, __, __, roots in self._groups
            for root, sealed in roots
        }
        state.update(self._always)
        return state

    def restore(self) -> System:
        system = self.system
        origin = system.origin
        groups = self._groups
        if origin is self:
            since = groups
        elif origin is None or origin._owners is not self._owners:
            since = None
        else:
            since = origin._groups
        system.kernel.restore_run_state(self._kernel)
        for index, group in enumerate(groups):
            owner, flag, image, sealed, roots = group
            # :func:`_touched`, inline: this loop runs once per run.
            if (
                since is not None and since[index] is group
                and not getattr(owner, flag)
                and (image is None or image.is_pristine(sealed))
            ):
                continue
            if image is not None:
                image.restore(sealed)
            _put_back(roots)
            setattr(owner, flag, False)
        _put_back(self._always)
        system.origin = self
        self.restores += 1
        return system

    def diff_against_fresh(self) -> List[str]:
        """Structural differences between this system and a fresh build
        driven through the same ``prepare`` and ``prefix``; engine
        counters (:data:`ENGINE_STATS`) are left out after a prefix."""
        ft_mode, apps, recovery_mode = self.params
        fresh = build_system(ft_mode, apps=apps, recovery_mode=recovery_mode)
        if self.prepare is not None:
            self.prepare(fresh)
        roots = tuple(self.prefix(fresh)) if self.prefix is not None else ()
        pooled = system_fingerprint(self.system, self.roots)
        reference = system_fingerprint(fresh, roots)
        if self.prefix is not None:
            for name in ENGINE_STATS:
                key = f"kernel.stats[{name!r}]"
                pooled.pop(key, None)
                reference.pop(key, None)
        diffs = []
        for key in sorted(set(pooled) | set(reference)):
            mine = pooled.get(key, "<absent>")
            theirs = reference.get(key, "<absent>")
            if mine != theirs:
                diffs.append(f"{key}: pooled={mine!r} fresh={theirs!r}")
        return diffs


def _seal(root) -> Dict[str, object]:
    """``root``'s per-run state: copies of the instance attributes its
    class does not declare."""
    declared = state_model(type(root)).declared
    attrs = _obj_attrs(root)
    missing = declared.difference(attrs)
    if missing:
        raise ReproError(
            f"{type(root).__name__} declares {sorted(missing)}, "
            f"which {root!r} does not carry"
        )
    state = {}
    for attr in attrs:
        if attr in declared:
            continue
        try:
            state[attr] = _copy_state(getattr(root, attr))
        except ReproError as exc:
            raise ReproError(f"cannot seal {root!r}.{attr}: {exc}") from None
    return state


def _put_back(roots) -> None:
    """Restore each ``(root, state)`` pair's sealed state, as copies."""
    shared = _SHARED
    for root, state in roots:
        for attr, value in state.items():
            setattr(
                root, attr,
                value if type(value) in shared else _copy_state(value),
            )


def _touched(group: tuple) -> bool:
    """Was ``group``'s owner touched since the group was sealed: its
    flag is set, or its image's dirty pages or taint moved from the
    seal."""
    owner, flag, image, sealed, __ = group
    return getattr(owner, flag) or (
        image is not None and not image.is_pristine(sealed)
    )


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

    ``acquire`` builds and seals on first use and dirty-restores the
    sealed snapshot on every call.  With ``REPRO_POOL_DEBUG=1`` each
    restore is verified against a fresh build via
    :func:`system_fingerprint` — any structural divergence raises.

    ``instance`` distinguishes otherwise-identical systems that must
    coexist live in one process — e.g. the simulated nodes of a cluster
    cell each pass their node id, so each node owns a private snapshot
    instead of all nodes sharing (and clobbering) one pooled image.
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
        at: Optional[SystemSnapshot] = None,
    ) -> System:
        """Restore a sealed system, building and sealing it on first use.

        ``at`` restores that snapshot of a pooled system instead of the
        one the build parameters name: the pool's own (a campaign looks
        it up once, see :meth:`snapshot_for`) or one sealed later in a
        run (a Fig. 7 first-arm snapshot).
        """
        if at is None:
            at = self.snapshot_for(
                ft_mode, apps, recovery_mode, prepare, instance
            )
        system = at.restore()
        self.stats["restores"] += 1
        if CONFIG.pool_debug:
            diffs = at.diff_against_fresh()
            if diffs:
                detail = "; ".join(diffs[:10])
                raise ReproError(
                    f"pooled system diverged from fresh build "
                    f"({len(diffs)} differences): {detail}"
                )
        return system

    def snapshot_for(
        self,
        ft_mode: str = "superglue",
        apps=DEFAULT_APPS,
        recovery_mode: str = "ondemand",
        prepare: Optional[Callable[[System], None]] = None,
        instance: Optional[object] = None,
    ) -> SystemSnapshot:
        """The sealed snapshot for these parameters, building on first
        use, without restoring it: campaigns look it up once and hang
        the run starts they derive from it on :attr:`SystemSnapshot.starts`.
        """
        key = _pool_key(ft_mode, apps, recovery_mode, prepare, instance)
        snapshot = self._snapshots.get(key)
        if snapshot is None:
            system = build_system(
                ft_mode, apps=apps, recovery_mode=recovery_mode
            )
            if prepare is not None:
                prepare(system)
            snapshot = self._snapshots[key] = SystemSnapshot(
                system, prepare=prepare
            )
            self.stats["builds"] += 1
        return snapshot

    def clear(self) -> None:
        self._snapshots.clear()


#: Process-wide pool used by the SWIFI campaign driver and workers.
GLOBAL_POOL = SystemPool()
