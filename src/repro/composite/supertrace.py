"""Tier-3 execution engine: invocation super-traces.

The two-tier trace engine (PR 2) stops at the trace boundary: a clean
invocation still pays kernel dispatch, client-stub transition,
trace-cache lookups, and one Python call per micro-op trace.  This
module records the *whole clean invocation sequence* of a workload —
kernel ``invoke`` -> client stub -> service traces -> return, plus the
post-wakeup stub tracking that runs when a blocked invocation completes
— as a **super-trace**: an ordered list of invocation *units*, each
carrying the unit's complete observable effect (virtual-clock delta,
per-thread cycle/register end state, kernel statistics deltas, memory-
image stores and dirty-page transitions, Python-state patch operations,
thread wakeups, and its return value).  Replaying a unit applies those
effects directly — one compiled guard+apply call instead of the full
dispatch pipeline — while ``execute_trace`` stays authoritative for
everything after the replayed prefix.

Soundness model
---------------

A recording is made once per run spec, on the *pooled* system (the same
sealed system every pooled campaign run restores), by running the spec's
workload with no fault armed.  A recording is its **replayable prefix**:
the recorder diffs every unit against a model of everything its roots
hold (the per-run state and touched flag of each component, client stub
and server stub, as their classes declare them), and the first unit
whose effect it cannot prove reproducible — it schedules a timer,
creates a thread, leaves register or memory taint, changes an opaque
object, returns or stores a value it cannot freeze, or defeats the code
generator — ends the recording just before that unit.  There are no
bypass units and no interpreted fallback: every recorded unit replays
through one compiled function, and replay is a strict prefix discipline
over the units:

* Each unit's **guard** proves the run's trajectory is still identical
  to the recording's: same invocation signature, same virtual clock,
  no fault delivered, and — decisively — that the armed injection
  *would not have fired inside this unit* (the unit records how many
  eligible trace executions each component would have contributed to an
  armed fault's countdown; the guard adds that to the live countdown
  and fails if it would cross the firing threshold, so the fault is
  delivered by the authoritative path at exactly the execution the
  two-tier engine would deliver it).
* A unit that parks its thread replays its effects and re-raises a
  fresh, equivalent :class:`BlockThread`, so blocking workloads (lock
  contention, event waits) stay replayable around their parks.  A
  non-scalar return value is frozen at record time and materialised
  fresh on every replay, so no run sees another run's objects.
* Any guard failure — most importantly the first fault delivery — and
  running past the recording's last unit permanently **diverge** the
  session: every subsequent invocation runs authoritatively.  Replay
  never approximates; it either proves equivalence or steps aside.
  Post-divergence units are not cached: keying, recording and sealing
  them costs several times the authoritative execution a cache would
  save (README, "No divergence-tail cache").

The SWIFI purity contract is preserved: the seeded RNG is consumed only
at arm and delivery time (never while counting executions), replayed
units advance all injection countdowns exactly as the authoritative
path would, and replay reproduces memory-image *dirty-page transitions*
as well as word values, so a later authoritative memory-class delivery
draws its flip target from a bit-identical dirty set.

Super-traces are active only for pooled, untraced runs
(``REPRO_SUPER_TRACE=0`` disables them entirely; ``REPRO_SYSTEM_POOL=0``
and flight-recorder runs never attach one), because a recording binds
the sealed system object it was made on: it is kept on that system's
pooled snapshot (:attr:`repro.system.SystemSnapshot.starts`).
"""

from __future__ import annotations

import builtins
import types
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.composite.memory import PAGE_SHIFT, PAGE_WORDS
from repro.composite.thread import ThreadState
from repro.config import CONFIG
from repro.errors import BlockThread
from repro.system import _flatten, _is_state_obj, _obj_attrs, state_model

__all__ = ["Recording", "RecordingSession", "ReplaySession"]


# ---------------------------------------------------------------------------
# Snapshot / diff / patch engine for authoritative Python state
# ---------------------------------------------------------------------------

class _NotReplayable(Exception):
    """This unit's effects cannot be proven reproducible; the recording
    ends before it."""


_SCALARS = (bool, int, float, str, bytes, type(None))

_MAX_DEPTH = 12


class _Snap:
    """One snapshotted slot value: kind tag, data, original reference."""

    __slots__ = ("kind", "data", "ref")

    def __init__(self, kind: str, data, ref=None):
        self.kind = kind
        self.data = data
        self.ref = ref


class _Frozen:
    """A record-time deep copy of a new value, materialised per apply."""

    __slots__ = ("kind", "data", "cls")

    def __init__(self, kind: str, data, cls=None):
        self.kind = kind
        self.data = data
        self.cls = cls


def _fingerprint(value):
    """Order-stable structural fingerprint for non-whitelisted objects."""
    out: Dict[str, object] = {}
    _flatten(value, "x", out)
    return out


def _snap_value(value, depth: int = 0) -> _Snap:
    if depth > _MAX_DEPTH:
        raise _NotReplayable("snapshot depth exceeded")
    if isinstance(value, _SCALARS):
        return _Snap("s", value)
    if isinstance(value, tuple):
        return _Snap("t", tuple(_snap_value(v, depth + 1) for v in value))
    if isinstance(value, list):
        return _Snap(
            "l", [_snap_value(v, depth + 1) for v in value], value
        )
    if isinstance(value, deque):
        return _Snap(
            "q", [_snap_value(v, depth + 1) for v in value], value
        )
    if isinstance(value, (set, frozenset)):
        for item in value:
            if not isinstance(item, _SCALARS + (tuple,)):
                raise _NotReplayable("set of non-scalars")
        return _Snap("e", frozenset(value), value)
    if isinstance(value, bytearray):
        return _Snap("b", bytes(value), value)
    if isinstance(value, dict):
        return _Snap(
            "d", {k: _snap_value(v, depth + 1) for k, v in value.items()},
            value,
        )
    if _is_state_obj(value):
        return _Snap(
            "o",
            {a: _snap_value(getattr(value, a), depth + 1)
             for a in _obj_attrs(value)},
            value,
        )
    if callable(value):
        return _Snap("c", None, value)
    return _Snap("x", _fingerprint(value), value)


def _freeze(value, depth: int = 0) -> object:
    """Record-time deep copy of a *new* value into plain data."""
    if depth > _MAX_DEPTH:
        raise _NotReplayable("freeze depth exceeded")
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, tuple):
        return _Frozen("t", tuple(_freeze(v, depth + 1) for v in value))
    if isinstance(value, list):
        return _Frozen("l", [_freeze(v, depth + 1) for v in value])
    if isinstance(value, deque):
        return _Frozen("q", [_freeze(v, depth + 1) for v in value])
    if isinstance(value, (set, frozenset)):
        return _Frozen("e", frozenset(value))
    if isinstance(value, bytearray):
        return _Frozen("b", bytes(value))
    if isinstance(value, dict):
        return _Frozen("d", [(k, _freeze(v, depth + 1))
                             for k, v in value.items()])
    if _is_state_obj(value):
        return _Frozen(
            "o",
            [(a, _freeze(getattr(value, a), depth + 1))
             for a in _obj_attrs(value)],
            type(value),
        )
    raise _NotReplayable(f"cannot freeze {type(value).__name__}")


def _materialize(frozen):
    """Build a fresh instance of a frozen value (one per apply)."""
    if not isinstance(frozen, _Frozen):
        return frozen
    kind = frozen.kind
    if kind == "t":
        return tuple(_materialize(v) for v in frozen.data)
    if kind == "l":
        return [_materialize(v) for v in frozen.data]
    if kind == "q":
        return deque(_materialize(v) for v in frozen.data)
    if kind == "e":
        return set(frozen.data)
    if kind == "b":
        return bytearray(frozen.data)
    if kind == "d":
        return {k: _materialize(v) for k, v in frozen.data}
    if kind == "o":
        obj = frozen.cls.__new__(frozen.cls)
        for attr, value in frozen.data:
            setattr(obj, attr, _materialize(value))
        return obj
    raise AssertionError(f"bad frozen kind {kind!r}")


def _scalar_equal(a, b) -> bool:
    return type(a) is type(b) and a == b


def _snap_equal(snap: _Snap, live) -> bool:
    """Value equality between a snapshot node and a live value."""
    kind = snap.kind
    if kind == "s":
        return isinstance(live, _SCALARS) and _scalar_equal(snap.data, live)
    if kind == "t":
        return (
            isinstance(live, tuple)
            and len(live) == len(snap.data)
            and all(_snap_equal(s, v) for s, v in zip(snap.data, live))
        )
    if kind in ("l", "q"):
        return (
            live is snap.ref
            and len(live) == len(snap.data)
            and all(_snap_equal(s, v) for s, v in zip(snap.data, live))
        )
    if kind == "e":
        return live is snap.ref and frozenset(live) == snap.data
    if kind == "b":
        return live is snap.ref and bytes(live) == snap.data
    if kind == "c":
        return live is snap.ref
    return False  # dict / obj / opaque: diffed structurally, not by value


def _diff_slot(snap: Optional[_Snap], live, path: tuple, ops: list) -> _Snap:
    """Emit patch operations turning the snapshotted slot into ``live``,
    and return the slot's refreshed snapshot.

    ``path`` is the navigation from the root object: ``("a", name)`` for
    an attribute step, ``("k", key)`` for a container key.  Containers
    and whitelisted state objects are patched *in place* (closures and
    wait queues alias them); rebound or newly created values are frozen
    at record time and materialised fresh on every apply.

    The refreshed snapshot is ``snap`` itself when nothing changed, else
    a node equal to ``_snap_value(live)`` that shares ``snap``'s
    unchanged children (dict and object nodes keep ``live``'s key order,
    which orders the ``del`` operations of a later diff).
    """
    depth = len(path) - 1
    if snap is None:  # newly added slot
        ops.append(("set", path, _freeze(live)))
        return _snap_value(live, depth)
    kind = snap.kind
    if kind == "s":
        if isinstance(live, _SCALARS) and _scalar_equal(snap.data, live):
            return snap
        ops.append(("set", path, _freeze(live)))
        return _snap_value(live, depth)
    if kind == "t":
        if _snap_equal(snap, live):
            return snap
        ops.append(("set", path, _freeze(live)))
        return _snap_value(live, depth)
    if kind in ("l", "q"):
        if live is not snap.ref:
            ops.append(("set", path, _freeze(live)))
        elif not (
            len(live) == len(snap.data)
            and all(_snap_equal(s, v) for s, v in zip(snap.data, live))
        ):
            code = "fill_list" if kind == "l" else "fill_deque"
            ops.append((code, path, _freeze(list(live))))
        else:
            return snap
        return _snap_value(live, depth)
    if kind == "e":
        if live is not snap.ref:
            ops.append(("set", path, _freeze(live)))
        elif frozenset(live) != snap.data:
            ops.append(("fill_set", path, frozenset(live)))
        else:
            return snap
        return _snap_value(live, depth)
    if kind == "b":
        if live is not snap.ref:
            ops.append(("set", path, _freeze(live)))
        elif bytes(live) != snap.data:
            ops.append(("fill_bytes", path, bytes(live)))
        else:
            return snap
        return _snap_value(live, depth)
    if kind == "d" or kind == "o":
        if live is not snap.ref:
            ops.append(("set", path, _freeze(live)))
            return _snap_value(live, depth)
        if kind == "d":
            step, names, items = "k", live, live.items()
        else:
            names = _obj_attrs(live)
            step, items = "a", ((a, getattr(live, a)) for a in names)
        old = snap.data
        same = True
        for key in old:
            if key not in names:
                ops.append(("del", path + ((step, key),), None))
                same = False
        new = {}
        for key, value in items:
            child = old.get(key)
            new[key] = fresh = _diff_slot(
                child, value, path + ((step, key),), ops
            )
            if fresh is not child:
                same = False
        if same and list(old) == list(new):
            return snap
        return _Snap(kind, new, live)
    if kind == "c":
        if live is not snap.ref:
            raise _NotReplayable("callable slot rebound")
        return snap
    # opaque object: any structural change ends the recording
    if live is not snap.ref or _fingerprint(live) != snap.data:
        raise _NotReplayable(f"opaque object changed: {type(live).__name__}")
    return snap


# ---------------------------------------------------------------------------
# Unit records
# ---------------------------------------------------------------------------

class Unit:
    """One recorded invocation (or post-wakeup tracking) unit."""

    __slots__ = (
        "kind",          # "invoke" | "unblock"
        "sig",           # (tid, client, server, fn, args[, value_in])
        "start_clock",
        "end_clock",
        "retval",         # scalar (or scalar tuple), else a _Frozen copy
        "threads_delta",  # ((tid, dcycles, dinvocations), ...)
        "regs_end",       # ((tid, (v0..v7)), ...)
        "stats_delta",    # ((key, delta), ...)
        "tc_delta",       # ((component, delta), ...) swifi.trace_counts
        "ic_delta",       # ((server, delta), ...)    swifi.invoke_counts
        "armed_hits",     # {component: eligible trace executions}
        "images",         # ((image, stores, dirty_pages, alloc, free), ...)
        "ops",            # ((root_obj, op), ...)
        "wakes",          # ((tid, value, blocked_in, token, has_stub), ...)
        "fast",           # exec-compiled guard+apply function
        "block",          # parking units: (component, token, timeout,
                          # on_wake) of the BlockThread, else None
    )


#: Divergence sentinel returned by compiled unit functions.  A unique
#: object, so an ``is`` check against it can never collide with a real
#: result (a scalar or a freshly materialised value).
_NO = object()


def _key_expr(key) -> str:
    """A scalar (or tuple) as source text; raises unless repr round-trips."""
    if isinstance(key, (bool, int, str, bytes)) or key is None:
        return repr(key)
    if isinstance(key, float):
        if key != key or key in (float("inf"), float("-inf")):
            raise _NotReplayable("non-finite float literal")
        return repr(key)
    if isinstance(key, tuple):
        return (
            "(" + ", ".join(_key_expr(k) for k in key)
            + ("," if len(key) == 1 else "") + ")"
        )
    raise _NotReplayable(f"unliteralisable key {type(key).__name__}")


#: The one globals dict of every compiled unit function.  Everything
#: unit-specific is a parameter instead, so functions that share a code
#: object also share its global-lookup caches.
_UNIT_GLOBALS = {
    "__builtins__": builtins,
    "_NO": _NO,
    "_READY": ThreadState.READY,
    "_BLOCKED": ThreadState.BLOCKED,
    "_M": _materialize,
}


def _compile_unit(unit: Unit, codes: Dict[str, types.CodeType]):
    """Compile one replayable unit into a single guard+apply function.

    The generated function takes the kernel and either returns the
    unit's recorded value after applying its whole effect, or the
    :data:`_NO` sentinel if any guard fails (caller then diverges to the
    authoritative path).  All constant effects — clock delta, register
    files, memory stores, patch targets — are straight-line code, so a
    replayed invocation costs one Python call.  Everything the unit
    binds is a parameter whose default is the unit's value: the objects
    it patches (images, roots, payloads, the return value) and its
    integers (clock values, deltas, register files, store indices and
    values, pages, keys).  Units that differ only in those values
    generate the same source, and ``codes`` (source -> code object)
    compiles each such shape once.  A frozen return value is
    materialised fresh on every call.  Raises :class:`_NotReplayable`
    when a key or value has no source literal.
    """
    params: Dict[str, object] = {}

    def bind(name: str, value) -> str:
        """Pass ``value`` in as parameter ``name`` (its default)."""
        params[name] = value
        return name

    def lit(value, text=repr) -> str:
        """``value`` as source: an integer (or tuple of integers) becomes
        a parameter, anything else ``text(value)``."""
        if type(value) is int or (
            type(value) is tuple and all(type(v) is int for v in value)
        ):
            return bind(f"a{len(params)}", value)
        return text(value)

    L = [None]  # the ``def`` line, once the parameters are known
    emit = L.append
    # ---- guards -----------------------------------------------------
    emit(f" if k.clock.now != {lit(unit.start_clock)}: return _NO")
    emit(" if k.crashed is not None: return _NO")
    emit(" b = k.booter")
    emit(" if b is not None and b.reboot_log: return _NO")
    emit(" s = k.swifi")
    emit(" if s is not None:")
    emit("  if s.delivered or s._idl_ret_pending is not None"
         " or s._burst_remaining: return _NO")
    if unit.armed_hits:
        emit("  p = s.pending")
        emit("  if p is not None:")
        for comp, hits in unit.armed_hits.items():
            emit(f"   if p.component == {comp!r} and"
                 f" p.seen + {lit(hits)} > p.after_executions: return _NO")
    if unit.ic_delta:
        emit("  i = s._idl_pending")
        emit("  if i is not None:")
        for server, delta in unit.ic_delta:
            emit(f"   if i[0] == {server!r} and"
                 f" i[2] + {lit(delta)} > i[1]: return _NO")
    emit(" T = k.threads")
    tids = sorted(
        {tid for tid, __, __ in unit.threads_delta}
        | {tid for tid, __ in unit.regs_end}
        | {w[0] for w in unit.wakes}
    )
    for tid in tids:
        emit(f" t{tid} = T.get({tid})")
        emit(f" if t{tid} is None: return _NO")
    for tid, value, blocked_in, token, has_stub in unit.wakes:
        emit(f" if t{tid}.state is not _BLOCKED: return _NO")
        emit(f" if t{tid}.blocked_in != {blocked_in!r}"
             f" or t{tid}.block_token != {lit(token)}: return _NO")
        emit(f" if (t{tid}.block_stub is not None and"
             f" t{tid}.block_invoke is not None) != {bool(has_stub)}:"
             " return _NO")
    for tid, __ in unit.regs_end:
        emit(f" if True in t{tid}.regs.taint: return _NO")
    for n, (image, __, __, __, __) in enumerate(unit.images):
        emit(f" if {bind(f'I{n}', image)}._taint_count: return _NO")
    # ---- apply ------------------------------------------------------
    delta = unit.end_clock - unit.start_clock
    if delta:
        emit(f" k.clock.now += {lit(delta)}")
    for tid, dc, di in unit.threads_delta:
        if dc:
            emit(f" t{tid}.cycles += {lit(dc)}")
        if di:
            emit(f" t{tid}.invocations += {lit(di)}")
    for tid, values in unit.regs_end:
        emit(f" t{tid}.regs.values[:] = {lit(values)}")
    emit(" S = k.stats")
    for key, d in unit.stats_delta:
        emit(f" S[{key!r}] += {lit(d)}")
    emit(" S['super_trace_runs'] += 1")
    if unit.tc_delta or unit.ic_delta or unit.armed_hits:
        emit(" if s is not None:")
        emit("  c_ = s.trace_counts")
        for comp, d in unit.tc_delta:
            emit(f"  c_[{comp!r}] = c_.get({comp!r}, 0) + {lit(d)}")
        emit("  v_ = s.invoke_counts")
        for server, d in unit.ic_delta:
            emit(f"  v_[{server!r}] = v_.get({server!r}, 0) + {lit(d)}")
        if unit.armed_hits:
            emit("  p = s.pending")
            emit("  if p is not None:")
            for comp, hits in unit.armed_hits.items():
                emit(f"   if p.component == {comp!r}: p.seen += {lit(hits)}")
        if unit.ic_delta:
            emit("  i = s._idl_pending")
            emit("  if i is not None:")
            for server, d in unit.ic_delta:
                emit(f"   if i[0] == {server!r}: i[2] += {lit(d)}")
    for n, (image, stores, new_dirty, alloc, free) in enumerate(unit.images):
        if stores:
            bind(f"W{n}", image.words)
            for index, value in stores:
                emit(f" W{n}[{lit(index)}] = {lit(value)}")
        if new_dirty:
            bind(f"D{n}", image._dirty)
            for page in new_dirty:
                emit(f" D{n}[{lit(page)}] = 1")
        if alloc is not None:
            emit(f" I{n}._alloc_ptr = {lit(alloc)}")
        if free is not None:
            emit(f" f_ = I{n}._free_lists")
            emit(" f_.clear()")
            for nwords, addrs in free:
                emit(f" f_[{lit(nwords)}] = [*{lit(addrs)}]")
    npay = 0
    for n, (root, (code, path, payload)) in enumerate(unit.ops):
        expr = bind(f"R{n}", root)
        for scode, skey in path[:-1]:
            expr += (
                f".{skey}" if scode == "a" else f"[{lit(skey, _key_expr)}]"
            )
        scode, skey = path[-1]
        last = f".{skey}" if scode == "a" else f"[{lit(skey, _key_expr)}]"
        if code == "set":
            if isinstance(payload, _SCALARS):
                emit(f" {expr}{last} = {lit(payload, _key_expr)}")
            else:
                emit(f" {expr}{last} = _M({bind(f'P{npay}', payload)})")
                npay += 1
        elif code == "del":
            emit(f" del {expr}{last}")
        else:
            bind(f"P{npay}", payload)
            target = expr + last
            if code == "fill_list":
                emit(f" {target}[:] = _M(P{npay})")
            elif code == "fill_deque":
                emit(f" x_ = {target}")
                emit(" x_.clear()")
                emit(f" x_.extend(_M(P{npay}))")
            elif code == "fill_set":
                emit(f" x_ = {target}")
                emit(" x_.clear()")
                emit(f" x_.update(P{npay})")
            else:  # fill_bytes
                emit(f" {target}[:] = P{npay}")
            npay += 1
    for tid, value, __, __, __ in unit.wakes:
        value = lit(value)
        emit(f" t{tid}.state = _READY")
        emit(f" t{tid}.blocked_in = None")
        emit(f" t{tid}.block_token = None")
        emit(f" t{tid}.block_on_wake = None")
        emit(f" s_ = t{tid}.block_stub")
        emit(f" t{tid}.block_stub = None")
        emit(f" a_ = t{tid}.block_invoke")
        emit(f" t{tid}.block_invoke = None")
        emit(" if s_ is not None and a_ is not None:")
        emit(f"  t{tid}.pending = ('unblock', s_, a_, {value})")
        emit(" else:")
        emit(f"  t{tid}.pending = ('value', {value})")
    rv = bind("RV", unit.retval)
    emit(f" return _M({rv})" if isinstance(unit.retval, _Frozen)
         else f" return {rv}")
    L[0] = f"def _fast(k, {', '.join(params)}):"
    source = "\n".join(L)
    code = codes.get(source)
    if code is None:
        scope: dict = {}
        exec(compile(source, "<supertrace>", "exec"), scope)
        code = codes[source] = scope["_fast"].__code__
    return types.FunctionType(
        code, _UNIT_GLOBALS, "_fast", tuple(params.values())
    )


class Recording:
    """A finished super-trace: the replayable prefix of a clean run.

    Every unit carries one exec-generated function (guard checks and
    effect stores inlined as straight-line code, the same technique as
    :mod:`repro.composite.fastpath`), compiled as the unit is recorded;
    a unit that cannot be compiled ends the recording like any other
    unit the recorder cannot replay.  ``meta`` also carries the
    recording's work counts (``root_snapshots``, ``unit_shapes``,
    ``checked_units``).
    """

    __slots__ = ("units", "kernel", "meta")

    def __init__(self, units: List[Unit], kernel, meta: dict):
        self.units = units
        self.kernel = kernel
        self.meta = meta


# ---------------------------------------------------------------------------
# Recording session
# ---------------------------------------------------------------------------

def _root_slots(kernel, key: tuple) -> Tuple[object, Dict[str, object]]:
    """A root object and its diffed slots, by root key: ``("comp",
    name)``, ``("cstub", client, server)`` or ``("sstub", server)``.
    Every root follows one rule: its per-run state plus its touched flag
    (see :class:`repro.system.StateModel`), which replay must reproduce
    so a pooled restore knows the root was entered."""
    tag = key[0]
    if tag == "comp":
        root = kernel.components[key[1]]
    elif tag == "cstub":
        root = kernel._stubs[key[1:]]
    else:
        root = kernel._server_stubs[key[1]]
    declared, touched = state_model(type(root))
    return root, {
        attr: value
        for attr, value in root.__dict__.items()
        if attr not in declared or attr == touched
    }


def _snap_image(image) -> tuple:
    """``(dirty bitmap, dirty page words, alloc ptr, free lists)``."""
    dirty = bytes(image._dirty)
    pages = {}
    words = image.words
    size = image.size
    for page in range(len(dirty)):
        if dirty[page]:
            lo = page << PAGE_SHIFT
            pages[page] = words[lo:min(lo + PAGE_WORDS, size)]
    return (
        dirty, pages, image._alloc_ptr,
        {k: tuple(v) for k, v in image._free_lists.items()},
    )


def _diff_images(kernel, snaps: dict, names) -> Tuple[list, dict]:
    """Image effects since ``snaps`` of the named components' images, and
    each image's refreshed snapshot (``snaps``' own when it is unchanged;
    only the pages whose words changed are copied)."""
    images = []
    fresh = {}
    for name in names:
        image = kernel.components[name].image
        if image._taint_count:
            raise _NotReplayable("memory taint at unit end")
        snap = snaps[name]
        p_dirty, p_pages, p_alloc, p_free = snap
        stores = []
        new_dirty = []
        pages = None  # copy of p_pages, made on the first changed page
        dirty = image._dirty
        words = image.words
        good = image._good_words
        size = image.size
        page = dirty.find(1)
        while page >= 0:
            lo = page << PAGE_SHIFT
            hi = min(lo + PAGE_WORDS, size)
            now = words[lo:hi]
            if p_dirty[page]:
                old = p_pages[page]
                changed = now != old
                if changed:
                    stores.extend(
                        (i, words[i])
                        for i in range(lo, hi)
                        if words[i] != old[i - lo]
                    )
            else:
                changed = True
                new_dirty.append(page)
                if good is not None and now != good[lo:hi]:
                    stores.extend(
                        (i, words[i])
                        for i in range(lo, hi)
                        if words[i] != good[i]
                    )
            if changed:
                if pages is None:
                    pages = dict(p_pages)
                pages[page] = now
            page = dirty.find(1, page + 1)
        live_free = {k: tuple(v) for k, v in image._free_lists.items()}
        alloc = image._alloc_ptr if image._alloc_ptr != p_alloc else None
        free = tuple(live_free.items()) if live_free != p_free else None
        if stores or new_dirty or alloc is not None or free is not None:
            images.append(
                (image, tuple(stores), tuple(new_dirty), alloc, free)
            )
        if pages is None and alloc is None and free is None:
            fresh[name] = snap
        else:
            fresh[name] = (
                bytes(dirty),
                p_pages if pages is None else pages,
                image._alloc_ptr,
                live_free,
            )
    return images, fresh


def _diff_roots(kernel, snaps: dict, keys) -> Tuple[list, dict]:
    """``(root, op)`` patch operations since ``snaps`` of the keyed
    roots, and each root's refreshed snapshot."""
    ops = []
    fresh = {}
    for key in keys:
        slots = snaps[key]
        root, live_slots = _root_slots(kernel, key)
        root_ops: List[tuple] = []
        for attr in slots:
            if attr not in live_slots:
                root_ops.append(("del", (("a", attr),), None))
        try:
            fresh[key] = {
                attr: _diff_slot(
                    slots.get(attr), value, (("a", attr),), root_ops
                )
                for attr, value in live_slots.items()
            }
        except _NotReplayable as exc:
            raise _NotReplayable(f"root {key}: {exc}") from None
        ops.extend((root, op) for op in root_ops)
    return ops, fresh


def _same(a, b) -> bool:
    """Structural equality of recorded unit fields (frozen payloads
    included); scalars must also match in type."""
    if isinstance(a, _Frozen):
        return (
            isinstance(b, _Frozen) and a.kind == b.kind and a.cls is b.cls
            and _same(a.data, b.data)
        )
    if isinstance(a, (tuple, list)):
        return (
            type(a) is type(b) and len(a) == len(b)
            and all(_same(x, y) for x, y in zip(a, b))
        )
    if isinstance(a, dict):
        return (
            type(b) is dict and a.keys() == b.keys()
            and all(_same(v, b[k]) for k, v in a.items())
        )
    return type(a) is type(b) and a == b


class RecordingSession:
    """Attached to a kernel (``kernel._supertrace``) during the one
    clean recording run; builds the unit list as the run executes.

    Recording cost follows what each unit touches.  The session keeps a
    *shadow* snapshot of every root (component, client stub, server
    stub) and every memory image, taken when it attaches.  Each unit
    runs with every touched flag (``_ran``) cleared, each component's
    and each client stub's; afterwards the flags are put back, and only
    the *touched* roots are diffed against the shadow: each component
    the unit entered (``_ran`` set), its image and server stub, and each
    client stub the unit entered.  ``_ran`` is the signal the pool's
    restore trusts too: components set it on every dispatch, trace
    execution and direct entry, and the kernel sets a client stub's on
    every entry (top-level and nested calls).  A client stub's tracking
    state (Fig. 4) changes only inside the stub; an unblock unit starts
    with the stub whose ``post_unblock`` it runs.  Nothing in-tree
    changes a root between units (clock callbacks and ``on_wake``
    lambdas change thread state only).

    The diff is also the refresh: it returns each touched root's and
    image's new snapshot, which replaces the shadow's.  A snapshot node
    nothing changed is kept as it is, a changed one is rebuilt around
    its unchanged children, and an image copies only the pages whose
    words changed, so a unit costs one walk over the roots it entered.

    Each diffed unit is compiled on the spot (see :func:`_compile_unit`).
    The first unit that cannot be diffed or compiled ends the recording:
    the session detaches there, the run finishes authoritatively, and
    the recording is the prefix before that unit.

    With ``REPRO_POOL_DEBUG=1`` every unit is checked against the
    whole-system path: at unit start the shadow must diff empty against
    the live system, and at unit end the touched-only unit must equal
    the diff of every root and image, field by field.  A mismatch
    raises :class:`AssertionError` naming the first differing root key
    and path — never a ``ReproError``, which recording would turn into
    a silent "no recording".
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.units: List[Unit] = []
        self.failed: Optional[str] = None
        self._hits: Dict[str, int] = {}
        self._swifi = None
        self._check = CONFIG.pool_debug
        #: Unit source -> code object: one compile per unit shape.
        self._codes: Dict[str, types.CodeType] = {}
        self.checked_units = 0
        components = kernel.components
        self._components = tuple(components.values())
        self._names = tuple(components)
        #: Every root with a touched flag: components, then client stubs.
        self._flagged = self._components + tuple(kernel._stubs.values())
        #: ``(root key, owner)`` pairs: a unit touches the root only if
        #: it entered the owner — the component for a component or
        #: server stub root, the stub itself for a client stub root.
        self._owners = tuple(
            [(("comp", name), comp) for name, comp in components.items()]
            + [(("cstub",) + key, stub) for key, stub in kernel._stubs.items()]
            + [(("sstub", name), components[name])
               for name in kernel._server_stubs]
        )
        self._keys = tuple(key for key, __ in self._owners)
        self._shadow = self._snapshot_state(self._keys, self._names)
        #: Work count, reported in the sealed recording's ``meta``: the
        #: attach shadow plus each recorded unit's touched roots (the
        #: ``REPRO_POOL_DEBUG`` oracle's whole-system snapshots are not
        #: recording work).
        self.root_snapshots = len(self._keys)

    # -- swifi instrumentation -----------------------------------------
    def instrument(self, swifi) -> None:
        """Count, per unit, the trace executions that would advance an
        armed fault's countdown (component match and non-empty trace)."""
        self._swifi = swifi
        hits = self._hits
        original = type(swifi).take_injection.__get__(swifi)

        def counting(component_name: str, trace_len: int):
            if trace_len > 0:
                hits[component_name] = hits.get(component_name, 0) + 1
            return original(component_name, trace_len)

        swifi.take_injection = counting

    # -- kernel hooks ----------------------------------------------------
    def on_invoke(self, kernel, thread, action):
        client = thread.executing_in or thread.home
        sig = (thread.tid, client, action.server, action.fn, action.args)
        return self._record_unit(
            kernel, "invoke", sig,
            lambda: kernel._invoke_impl(thread, action),
        )

    def on_unblock(self, kernel, thread, stub, action, value):
        sig = (
            thread.tid,
            getattr(stub, "client", None),
            getattr(stub, "server", None),
            action.fn,
            action.args,
            value if isinstance(value, _SCALARS) else "<nonscalar>",
        )
        return self._record_unit(
            kernel, "unblock", sig,
            lambda: stub.post_unblock(kernel, thread, action.fn,
                                      action.args, value),
            stub,
        )

    def _record_unit(self, kernel, kind, sig, body, stub=None):
        """Run ``body`` as one unit.  ``stub`` is the client stub an
        unblock unit enters before its body runs."""
        whole = None
        if self._check:
            self._check_shadow(kernel)
            whole = self._snapshot_state(self._keys, self._names)
        pre = self._snapshot_kernel(kernel)
        start = kernel.clock.now
        flagged = self._flagged
        saved = [root._ran for root in flagged]
        for root in flagged:
            root._ran = False
        block = None
        result = None
        try:
            result = body()
        except BlockThread as exc:
            # A blocking invocation is unit-shaped too: its effects (wait
            # -queue insertion, trace-op accounting, cycle charges) end at
            # the raise, and the park itself happens in the kernel's run
            # loop *after* it.  The unit records the effect diff plus the
            # reconstructible exception, so replay applies the diff and
            # re-raises instead of re-executing the server.
            block = exc
        except BaseException as exc:
            self.failed = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            entered = {root for root in flagged if root._ran}
            for root, ran in zip(flagged, saved):
                if ran:
                    root._ran = True
        if stub is not None:
            entered.add(stub)
        names = [comp.name for comp in self._components if comp in entered]
        keys = [key for key, owner in self._owners if owner in entered]
        unit, fresh = self._diff_unit(
            kernel, kind, sig, pre, start, result, block, self._shadow,
            keys, names,
        )
        if whole is not None:
            self._check_unit(unit, self._diff_unit(
                kernel, kind, sig, pre, start, result, block, whole,
                self._keys, self._names,
            )[0])
        if not isinstance(unit, str):
            try:
                unit.fast = _compile_unit(unit, self._codes)
            except _NotReplayable as exc:
                unit = str(exc)
        if isinstance(unit, str):
            kernel._supertrace = None  # the recording ends before this unit
        else:
            self.root_snapshots += len(keys)
            self._shadow[0].update(fresh[0])
            self._shadow[1].update(fresh[1])
            self.units.append(unit)
        if block is not None:
            raise block
        return result

    # -- snapshot --------------------------------------------------------
    def _snapshot_state(self, keys, names) -> Tuple[dict, dict]:
        """Snapshot the keyed roots and the named components' images."""
        kernel = self.kernel
        roots = {}
        for key in keys:
            roots[key] = {
                attr: _snap_value(value)
                for attr, value in _root_slots(kernel, key)[1].items()
            }
        images = {
            name: _snap_image(kernel.components[name].image)
            for name in names
        }
        return roots, images

    def _snapshot_kernel(self, kernel):
        """The kernel-level state every unit diffs (threads, stats,
        SWIFI counts)."""
        self._hits.clear()
        swifi = kernel.swifi
        threads = {
            tid: (
                t.state,
                t.blocked_in,
                t.block_token,
                t.cycles,
                t.invocations,
                tuple(t.regs.values),
            )
            for tid, t in kernel.threads.items()
        }
        return {
            "timers": len(kernel.clock._timers),
            "next_tid": kernel._next_tid,
            "n_threads": len(kernel.threads),
            "reboots": len(kernel.booter.reboot_log)
            if kernel.booter is not None else 0,
            "threads": threads,
            "stats": dict(kernel.stats),
            "tc": dict(swifi.trace_counts) if swifi is not None else {},
            "ic": dict(swifi.invoke_counts) if swifi is not None else {},
        }

    # -- diff ------------------------------------------------------------
    def _diff_unit(self, kernel, kind, sig, pre, start, result, block,
                   state, keys, names):
        """``(unit, refreshed state)``: the unit diffed against ``state``
        over ``keys``/``names`` and the refreshed snapshots of those
        roots and images, or ``(why it cannot be replayed, None)``."""
        try:
            return self._finish_unit(
                kernel, kind, sig, pre, start, result, block, state, keys,
                names,
            )
        except _NotReplayable as exc:
            return str(exc), None

    def _finish_unit(self, kernel, kind, sig, pre, start, result, block,
                     state, keys, names) -> Tuple[Unit, tuple]:
        if block is not None and not _block_replayable(block):
            raise _NotReplayable("unreconstructible block")
        if kernel.crashed is not None:
            raise _NotReplayable("kernel crashed inside unit")
        if len(kernel.clock._timers) != pre["timers"]:
            raise _NotReplayable("unit scheduled a timer")
        if kernel._next_tid != pre["next_tid"]:
            raise _NotReplayable("unit created a thread")
        if len(kernel.threads) != pre["n_threads"]:
            raise _NotReplayable("thread set changed")
        booter = kernel.booter
        if booter is not None and len(booter.reboot_log) != pre["reboots"]:
            raise _NotReplayable("unit micro-rebooted a component")

        threads_delta = []
        regs_end = []
        wakes = []
        for tid, t in kernel.threads.items():
            p_state, p_blocked, p_token, p_cycles, p_inv, p_regs = (
                pre["threads"][tid]
            )
            if True in t.regs.taint:
                raise _NotReplayable("register taint at unit end")
            if t.state is not p_state:
                if (
                    p_state is ThreadState.BLOCKED
                    and t.state is ThreadState.READY
                    and t.pending is not None
                    and t.pending[0] in ("unblock", "value")
                ):
                    value = (
                        t.pending[3] if t.pending[0] == "unblock"
                        else t.pending[1]
                    )
                    if not isinstance(value, _SCALARS):
                        raise _NotReplayable("non-scalar wake value")
                    wakes.append(
                        (tid, value, p_blocked, p_token,
                         t.pending[0] == "unblock")
                    )
                else:
                    raise _NotReplayable(
                        f"thread state {p_state}->{t.state}"
                    )
            dc = t.cycles - p_cycles
            di = t.invocations - p_inv
            if dc or di:
                threads_delta.append((tid, dc, di))
            regs = tuple(t.regs.values)
            if regs != p_regs:
                regs_end.append((tid, regs))

        stats_delta = tuple(
            (key, value - pre["stats"][key])
            for key, value in kernel.stats.items()
            if value != pre["stats"].get(key, 0)
        )
        swifi = kernel.swifi
        tc_delta: Tuple = ()
        ic_delta: Tuple = ()
        if swifi is not None:
            tc_delta = tuple(
                (c, n - pre["tc"].get(c, 0))
                for c, n in swifi.trace_counts.items()
                if n != pre["tc"].get(c, 0)
            )
            ic_delta = tuple(
                (s, n - pre["ic"].get(s, 0))
                for s, n in swifi.invoke_counts.items()
                if n != pre["ic"].get(s, 0)
            )

        roots, images = state
        unit = Unit()
        image_effects, images = _diff_images(kernel, images, names)
        unit.images = tuple(image_effects)
        ops, roots = _diff_roots(kernel, roots, keys)
        unit.ops = tuple(ops)
        unit.kind = kind
        unit.sig = sig
        unit.start_clock = start
        unit.end_clock = kernel.clock.now
        unit.retval = result if _is_scalar_result(result) else _freeze(result)
        unit.threads_delta = tuple(threads_delta)
        unit.regs_end = tuple(regs_end)
        unit.stats_delta = stats_delta
        unit.tc_delta = tc_delta
        unit.ic_delta = ic_delta
        unit.armed_hits = dict(self._hits)
        unit.wakes = tuple(wakes)
        unit.block = None if block is None else (
            block.component, block.token, block.timeout, block.on_wake,
        )
        return unit, (roots, images)

    # -- REPRO_POOL_DEBUG oracle ---------------------------------------
    def _check_shadow(self, kernel) -> None:
        """The shadow must diff empty against the live system."""
        roots, images = self._shadow
        try:
            stale = (
                _diff_roots(kernel, roots, self._keys)[0]
                or _diff_images(kernel, images, self._names)[0]
            )
        except _NotReplayable as exc:
            stale, detail = True, str(exc)
        else:
            detail = self._locate(stale[0]) if stale else ""
        if stale:
            raise AssertionError(
                f"stale super-trace shadow before unit {len(self.units)}: "
                f"{detail}"
            )

    def _check_unit(self, unit, expected) -> None:
        """The touched-only unit must equal the whole-system one."""
        index = len(self.units)
        if isinstance(unit, str) or isinstance(expected, str):
            if not (isinstance(unit, str) and isinstance(expected, str)):
                raise AssertionError(
                    f"super-trace unit {index}: touched roots gave "
                    f"{unit if isinstance(unit, str) else 'a unit'}, "
                    f"the whole system gave "
                    f"{expected if isinstance(expected, str) else 'a unit'}"
                )
        else:
            for field in Unit.__slots__:
                mine = getattr(unit, field, None)
                theirs = getattr(expected, field, None)
                if not _same(mine, theirs):
                    raise AssertionError(
                        f"super-trace unit {index} differs from the "
                        f"whole-system diff in {field}: "
                        f"{self._first_difference(field, mine, theirs)}"
                    )
        self.checked_units += 1

    def _first_difference(self, field, mine, theirs) -> str:
        if field not in ("ops", "images"):
            return f"touched={mine!r} whole={theirs!r}"
        for index in range(max(len(mine), len(theirs))):
            a = mine[index] if index < len(mine) else None
            b = theirs[index] if index < len(theirs) else None
            if not _same(a, b):
                return self._locate(b if b is not None else a)
        return "unknown"  # pragma: no cover - _same already differed

    def _locate(self, entry) -> str:
        """Name the root key and path of an ``ops`` entry, or the
        component of an ``images`` entry."""
        owner = entry[0]
        kernel = self.kernel
        for name in self._names:
            if kernel.components[name].image is owner:
                return f"image of {name!r}"
        for key in self._keys:
            if _root_slots(kernel, key)[0] is owner:
                return f"root {key} path {entry[1][1]}"
        return repr(owner)  # pragma: no cover - every entry has an owner

    # -- completion ------------------------------------------------------
    def finish(self, meta: dict) -> Optional[Recording]:
        """Validate and seal the recording; ``None`` if the run failed.

        ``unit_shapes`` counts the code objects the units share: units
        of one shape (the same source once integers are parameters)
        share one.
        """
        if self.failed is not None:
            return None
        kernel = self.kernel
        if kernel.crashed is not None or kernel.last_run_exhausted:
            return None
        if kernel.booter is not None and kernel.booter.reboot_log:
            return None
        recorder = kernel.recorder
        if recorder.enabled:
            recorder.emit(
                "super_trace_record",
                units=len(self.units),
                replayable=len(self.units),
                service=str(meta.get("service", "")),
            )
        return Recording(list(self.units), kernel, dict(
            meta,
            root_snapshots=self.root_snapshots,
            unit_shapes=len(self._codes),
            checked_units=self.checked_units,
        ))

    def finish_tail(self, sig: tuple) -> None:
        """No-op kept for ``bench/tracer.py``, its only reader: the
        engine records no divergence tails."""


def _is_scalar_result(result) -> bool:
    if isinstance(result, _SCALARS):
        return True
    return isinstance(result, tuple) and all(
        isinstance(v, _SCALARS) for v in result
    )


def _block_replayable(block: BlockThread) -> bool:
    """Can this :class:`BlockThread` be reconstructed at replay time?

    The component and token are plain data; ``on_wake`` must be a
    closure-free plain function (every in-tree service raises with
    ``lambda t, token, timeout: 0``), so its behavior depends only on
    its arguments and module globals.  A closure could capture
    record-run locals no replay can prove equal, and a bound method
    could pin record-run object identity — both end the recording.
    """
    on_wake = block.on_wake
    if on_wake is not None and (
        not isinstance(on_wake, types.FunctionType) or on_wake.__closure__
    ):
        return False
    if not (block.timeout is None or isinstance(block.timeout, int)):
        return False
    return _is_scalar_result(block.token)


def _replay_block(unit: Unit) -> BlockThread:
    """A fresh :class:`BlockThread` equivalent to the recorded raise.

    Fresh per replay (never the record-time exception object): raising
    mutates ``__traceback__``, and the kernel's park path reads only the
    component/token/timeout/on_wake attributes reproduced here.
    """
    component, token, timeout, on_wake = unit.block
    return BlockThread(component, token, timeout=timeout, on_wake=on_wake)


# ---------------------------------------------------------------------------
# Replay session
# ---------------------------------------------------------------------------

class ReplaySession:
    """Attached to a kernel for one run; replays the recording prefix.

    Once the prefix diverges, every later unit of the run executes
    authoritatively.
    """

    __slots__ = ("recording", "cursor", "diverged")

    def __init__(self, recording: Recording):
        self.recording = recording
        self.cursor = 0
        self.diverged = False

    # -- kernel hooks ----------------------------------------------------
    def on_invoke(self, kernel, thread, action):
        if not self.diverged:
            result = self._replay(kernel, "invoke", (
                thread.tid,
                thread.executing_in or thread.home,
                action.server,
                action.fn,
                action.args,
            ))
            if result is not _NO:
                return result
        kernel.stats["super_trace_divergent_units"] += 1
        return kernel._invoke_impl(thread, action)

    def on_unblock(self, kernel, thread, stub, action, value):
        if not self.diverged:
            result = self._replay(kernel, "unblock", (
                thread.tid,
                getattr(stub, "client", None),
                getattr(stub, "server", None),
                action.fn,
                action.args,
                value if isinstance(value, _SCALARS) else "<nonscalar>",
            ))
            if result is not _NO:
                return result
        kernel.stats["super_trace_divergent_units"] += 1
        return stub.post_unblock(kernel, thread, action.fn, action.args, value)

    def _replay(self, kernel, kind, sig):
        """Replay the next unit if it is this one and its guard holds;
        otherwise diverge (counted once per run) and return :data:`_NO`."""
        units = self.recording.units
        cursor = self.cursor
        if cursor < len(units):
            unit = units[cursor]
            if unit.kind == kind and unit.sig == sig:
                result = unit.fast(kernel)
                if result is not _NO:
                    self.cursor = cursor + 1
                    if unit.block is not None:
                        raise _replay_block(unit)
                    return result
        self.diverged = True
        kernel.stats["super_trace_divergences"] += 1
        return _NO

    # -- run completion --------------------------------------------------
    def finalize(self, kernel) -> None:
        """No-op kept for ``bench/tracer.py``, its only reader: there is
        no divergence tail to seal at run end."""
