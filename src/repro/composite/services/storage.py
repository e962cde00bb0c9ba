"""Storage component: redundant state for G0/G1 recovery.

A trusted, protected component (never a fault target, Section II-E) that
keeps:

* creator records — which component created a given *global* descriptor
  (G0: the server-side stub queries this on EINVAL and upcalls the creator);
* alias records — old-id → new-id translations established when a global
  descriptor is recreated after a micro-reboot;
* resource data — ⟨id, offset, length, data⟩ slices for services whose
  resources carry data (G1: RamFS file contents, via cbuf references).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.composite.component import Component, export

#: Flat per-operation cost (protected component, no traces executed).
STORE_OP_CYCLES = 120


class StorageService(Component):
    def __init__(self, name: str = "storage"):
        super().__init__(name)
        self._data: Dict[Tuple[str, object], object] = {}

    def reinit(self) -> None:
        # Storage is protected: its contents deliberately survive any
        # micro-reboot of *other* components.  reinit only runs at attach.
        if not hasattr(self, "_data") or self._data is None:
            self._data = {}

    # ------------------------------------------------------------------
    @export
    def store_put(self, thread, ns, key, value) -> int:
        # _ran is set here (not only in dispatch) because stubs and
        # recovery call the typed helpers below as plain methods; the
        # pool's touched rule must still see the mutation.
        self._ran = True
        self.kernel.charge(thread, STORE_OP_CYCLES)
        self._data[(ns, key)] = value
        return 0

    @export
    def store_get(self, thread, ns, key):
        self.kernel.charge(thread, STORE_OP_CYCLES)
        return self._data.get((ns, key))

    @export
    def store_del(self, thread, ns, key) -> int:
        self._ran = True
        self.kernel.charge(thread, STORE_OP_CYCLES)
        self._data.pop((ns, key), None)
        return 0

    @export
    def store_list(self, thread, ns):
        """All (key, value) pairs in a namespace (used by eager recovery)."""
        self.kernel.charge(thread, STORE_OP_CYCLES)
        return [(k, v) for (n, k), v in self._data.items() if n == ns]

    # -- typed helpers used by stubs/recovery (python-level, same charges) ----
    def record_creator(self, thread, service: str, desc_id, creator: str) -> None:
        self.store_put(thread, f"creator:{service}", desc_id, creator)

    def lookup_creator(self, thread, service: str, desc_id) -> Optional[str]:
        return self.store_get(thread, f"creator:{service}", desc_id)

    def record_alias(self, thread, service: str, old_id, new_id) -> None:
        self.store_put(thread, f"alias:{service}", old_id, new_id)

    def resolve_alias(self, thread, service: str, desc_id):
        """Follow alias chains old→new until a fixed point."""
        seen = set()
        current = desc_id
        while current not in seen:
            seen.add(current)
            nxt = self.store_get(thread, f"alias:{service}", current)
            if nxt is None:
                break
            current = nxt
        return current
