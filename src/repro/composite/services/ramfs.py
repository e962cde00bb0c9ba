"""RAM filesystem service component (the paper's RamFS / "FS").

Interface (COMPOSITE's torrent-style API):

* ``tsplit(spdid, parent_fd, subpath) -> fd`` — open/create a file below an
  existing descriptor (``parent_fd``; the root directory is fd 1).
* ``tread(spdid, fd, nbytes) -> bytes``       — read at the descriptor's
  offset, advancing it.
* ``twrite(spdid, fd, data) -> count``        — write at the offset,
  advancing it.
* ``tseek(spdid, fd, offset) -> 0``           — reposition.
* ``trelease(spdid, fd) -> 0``                — terminate the descriptor
  (file *data* persists; only the descriptor goes away).

Model instance: non-blocking, **has resource data** (file contents),
local descriptors, ``Parent`` dependencies (fds derive from the root fd),
close-removes-dependency.

Resource data recovery (G1): file contents live in cbuf buffers owned by
RamFS; the storage component redundantly keeps ``path -> (cbid, length)``.
Those storage interactions happen *inside the critical region* that
mutates the RamFS structures — the paper adds them manually to close the
non-atomicity race (Section III-C, G1).  After a micro-reboot, a tsplit of
a known path finds its data again through storage.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional, Tuple

from repro.composite.component import export
from repro.composite.services.common import ServiceComponent
from repro.errors import InvalidDescriptor

FIELD_OFFSET = 1
FIELD_PATHHASH = 2
FIELD_FD = 3

ROOT_FD = 1
DATA_NS = "ramfs:data"


def path_hash(path: str) -> int:
    """Stable 32-bit id for a path (the paper: "a hash on its path")."""
    return zlib.crc32(path.encode("utf-8")) & 0xFFFFFFFF


class _File:
    __slots__ = ("path", "offset")

    def __init__(self, path: str, offset: int = 0):
        self.path = path
        self.offset = offset


class RamFSService(ServiceComponent):
    MAGIC = 0x4A3F5001
    STATE_WIRING = ("storage_name", "cbuf_name")

    def __init__(self, name: str = "ramfs", storage: str = "storage",
                 cbuf: str = "cbuf"):
        super().__init__(name)
        self.storage_name = storage
        self.cbuf_name = cbuf
        self.files: Dict[int, _File] = {}
        self._path_info: Dict[str, Tuple[int, int]] = {}  # path -> (cbid, len)
        self._next_fd = ROOT_FD + 1

    def reinit(self) -> None:
        super().reinit()
        self.files = {ROOT_FD: _File("/")}
        self._path_info = {}
        self._next_fd = ROOT_FD + 1
        self.new_record(ROOT_FD, [0, path_hash("/"), ROOT_FD])

    # ------------------------------------------------------------------
    def _lookup_path_info(self, thread, path: str) -> Optional[Tuple[int, int]]:
        """Find the file's backing cbuf: local cache first, then G1 storage."""
        info = self._path_info.get(path)
        if info is not None:
            return info
        stored = self.call(thread, self.storage_name, "store_get", DATA_NS, path)
        if stored is not None:
            self._path_info[path] = stored
            return stored
        return None

    def _store_path_info(self, thread, path: str, cbid: int, length: int):
        """Update the redundant storage record inside the critical region."""
        self._path_info[path] = (cbid, length)
        self.call(
            thread, self.storage_name, "store_put", DATA_NS, path, (cbid, length)
        )

    # ------------------------------------------------------------------
    @export
    def tsplit(self, thread, spdid, parent_fd, subpath) -> int:
        if parent_fd not in self.files:
            raise InvalidDescriptor(parent_fd, component=self.name)
        parent = self.files[parent_fd]
        parent_record = self.record_for(parent_fd)
        path = parent.path.rstrip("/") + "/" + str(subpath).lstrip("/")
        fd = self._next_fd
        self._next_fd += 1
        record = self.new_record(fd, [0, path_hash(path), fd])
        # Namespace walk proportional to the path length, plus validation
        # of the parent descriptor's record.
        trace = self.checked_create(
            record,
            args=[spdid, parent_fd, subpath],
            label="tsplit",
            scan=len(path),
            retval=fd,
            extend=lambda t: self._with_parent_check(t, parent_record, parent),
            extend_key=(parent_record.addr, path_hash(parent.path)),
        )
        info = self._lookup_path_info(thread, path)
        if info is None:
            cbid = self.call(thread, self.cbuf_name, "cbuf_alloc", self.name, 0)
            self.call(thread, self.cbuf_name, "cbuf_map", "storage", cbid)
            self._store_path_info(thread, path, cbid, 0)
        self.files[fd] = _File(path)
        return self.run_op(thread, trace, plausible=lambda v: 0 < v < (1 << 16))

    def _with_parent_check(self, trace, parent_record, parent: _File):
        from repro.composite.machine import EBX, ECX

        trace.li(EBX, parent_record.addr)
        trace.chk(EBX, 0, self.MAGIC)
        trace.ld(ECX, EBX, FIELD_PATHHASH)
        expected = path_hash(parent.path)
        trace.assert_range(ECX, expected, expected)
        return trace

    @export
    def twrite(self, thread, spdid, fd, data) -> int:
        if fd not in self.files:
            raise InvalidDescriptor(fd, component=self.name)
        file = self.files[fd]
        record = self.record_for(fd)
        info = self._lookup_path_info(thread, file.path)
        if info is None:
            # A known fd with no backing buffer is the root directory
            # (or a fuzzed fd that landed on it): writes to it are as
            # invalid as writes to an unknown descriptor.
            raise InvalidDescriptor(fd, component=self.name)
        cbid, length = info
        payload = bytes(data)
        trace = self.checked_touch(
            record,
            expected=[
                (FIELD_OFFSET, file.offset),
                (FIELD_PATHHASH, path_hash(file.path)),
                (FIELD_FD, fd),
            ],
            stores=[(FIELD_OFFSET, file.offset + len(payload))],
            scan=max(len(payload) >> 4, 1),
            args=[spdid, fd, payload],
            label="twrite",
            retval=len(payload),
        )
        value = self.run_op(
            thread, trace, plausible=lambda v: v == len(payload)
        )
        # Critical region: cbuf write and the redundant storage record are
        # updated together (manual G1).
        self.call(
            thread, self.cbuf_name, "cbuf_write", self.name, cbid,
            file.offset, payload,
        )
        new_length = max(length, file.offset + len(payload))
        self._store_path_info(thread, file.path, cbid, new_length)
        file.offset += len(payload)
        return value

    @export
    def tread(self, thread, spdid, fd, nbytes) -> bytes:
        if fd not in self.files:
            raise InvalidDescriptor(fd, component=self.name)
        file = self.files[fd]
        record = self.record_for(fd)
        info = self._lookup_path_info(thread, file.path)
        if info is None:
            return b""
        cbid, length = info
        count = max(min(nbytes, length - file.offset), 0)
        trace = self.checked_touch(
            record,
            expected=[
                (FIELD_OFFSET, file.offset),
                (FIELD_PATHHASH, path_hash(file.path)),
                (FIELD_FD, fd),
            ],
            stores=[(FIELD_OFFSET, file.offset + count)],
            scan=max(count >> 4, 1),
            args=[spdid, fd, nbytes],
            label="tread",
            retval=count,
        )
        self.run_op(thread, trace, plausible=lambda v: v == count)
        data = self.call(
            thread, self.cbuf_name, "cbuf_read", self.name, cbid,
            file.offset, count,
        )
        file.offset += count
        return data

    @export
    def tseek(self, thread, spdid, fd, offset) -> int:
        if fd not in self.files:
            raise InvalidDescriptor(fd, component=self.name)
        record = self.record_for(fd)
        file = self.files[fd]
        trace = self.checked_touch(
            record,
            expected=[(FIELD_OFFSET, file.offset), (FIELD_FD, fd)],
            stores=[(FIELD_OFFSET, offset)],
            args=[spdid, fd, offset],
            label="tseek",
            retval=0,
        )
        value = self.run_op(thread, trace, plausible=lambda v: v == 0)
        file.offset = offset
        return value

    @export
    def trelease(self, thread, spdid, fd) -> int:
        if fd == ROOT_FD:
            return -1
        if fd not in self.files:
            raise InvalidDescriptor(fd, component=self.name)
        record = self.record_for(fd)
        file = self.files[fd]
        trace = self.checked_touch(
            record,
            expected=[(FIELD_FD, fd), (FIELD_PATHHASH, path_hash(file.path))],
            args=[spdid, fd],
            label="trelease",
            retval=0,
        )
        value = self.run_op(thread, trace, plausible=lambda v: v == 0)
        self.drop_record(fd)
        del self.files[fd]
        return value

    # -- test introspection ----------------------------------------------------
    def offset_of(self, fd: int) -> int:
        return self.files[fd].offset if fd in self.files else -1

    def path_of(self, fd: int) -> Optional[str]:
        return self.files[fd].path if fd in self.files else None
