"""Zero-copy shared buffer manager (cbufs).

Models the CBufs subsystem the paper's RamFS uses to share file data with
the storage component: all but the producing component get *read-only*
access, which prevents fault propagation through the buffer
(Section II-C).  Like the kernel and storage, this component is assumed
protected and is never a fault-injection target (Section II-E).
"""

from __future__ import annotations

from typing import Dict, Set

from repro.composite.component import Component, export
from repro.errors import ReproError

#: Per-operation base cost plus a per-16-bytes transfer cost.
CBUF_OP_CYCLES = 80
CBUF_BYTE_CYCLES_SHIFT = 4


class _Cbuf:
    __slots__ = ("owner", "data", "readers")

    def __init__(self, owner: str, size: int):
        self.owner = owner
        self.data = bytearray(size)
        self.readers: Set[str] = set()


class CbufManager(Component):
    def __init__(self, name: str = "cbuf"):
        super().__init__(name)
        self.buffers: Dict[int, _Cbuf] = {}
        self._next_id = 1

    def reinit(self) -> None:
        # Protected component: contents survive other components' reboots.
        if not hasattr(self, "buffers") or self.buffers is None:
            self.buffers = {}
            self._next_id = 1

    def _charge(self, thread, nbytes: int = 0) -> None:
        self.kernel.charge(
            thread, CBUF_OP_CYCLES + (nbytes >> CBUF_BYTE_CYCLES_SHIFT)
        )

    # ------------------------------------------------------------------
    @export
    def cbuf_alloc(self, thread, spdid, size) -> int:
        self._charge(thread)
        cbid = self._next_id
        self._next_id += 1
        self.buffers[cbid] = _Cbuf(spdid, size)
        return cbid

    @export
    def cbuf_map(self, thread, spdid, cbid) -> int:
        """Grant ``spdid`` read-only access to the buffer."""
        self._charge(thread)
        if cbid not in self.buffers:
            return -1
        self.buffers[cbid].readers.add(spdid)
        return 0

    @export
    def cbuf_write(self, thread, spdid, cbid, offset, data) -> int:
        """Write into the buffer; only the producer may write."""
        self._charge(thread, len(data))
        buf = self.buffers.get(cbid)
        if buf is None:
            return -1
        if buf.owner != spdid:
            raise ReproError(
                f"{spdid} attempted to write read-only cbuf {cbid} "
                f"owned by {buf.owner}"
            )
        end = offset + len(data)
        if end > len(buf.data):
            buf.data.extend(b"\x00" * (end - len(buf.data)))
        buf.data[offset:end] = data
        return len(data)

    @export
    def cbuf_read(self, thread, spdid, cbid, offset, nbytes) -> bytes:
        self._charge(thread, nbytes)
        buf = self.buffers.get(cbid)
        if buf is None:
            return b""
        if spdid != buf.owner and spdid not in buf.readers:
            raise ReproError(f"{spdid} has no mapping for cbuf {cbid}")
        return bytes(buf.data[offset:offset + nbytes])

    @export
    def cbuf_size(self, thread, spdid, cbid) -> int:
        self._charge(thread)
        buf = self.buffers.get(cbid)
        return -1 if buf is None else len(buf.data)

    @export
    def cbuf_free(self, thread, spdid, cbid) -> int:
        self._charge(thread)
        buf = self.buffers.get(cbid)
        if buf is None:
            return -1
        if buf.owner != spdid:
            return -1
        del self.buffers[cbid]
        return 0
