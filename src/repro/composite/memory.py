"""Per-component simulated memory images.

Hardware page-table isolation in COMPOSITE gives each component a private
address space; a component can only corrupt *its own* memory, which is what
bounds fault propagation (Section II-B).  We model that with one
:class:`MemoryImage` per component: a flat array of 32-bit words at a unique
base address.  Any access outside the image is a simulated segmentation
fault (raised by the trace interpreter, which bounds-checks through
:meth:`MemoryImage.contains`).

The image supports the booter's micro-reboot: after a component initialises,
:meth:`MemoryImage.freeze_good_image` snapshots the words ("a good image");
:meth:`MemoryImage.micro_reboot` memcpys it back (Section II-C step 3).
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.composite.machine import WORD_MASK

#: Default image size in words.  Kept deliberately small so that a bit flip
#: in an address register usually lands outside the image (segfault), while
#: low-bit flips stay inside (silent corruption) — mirroring real address
#: fault behaviour.
DEFAULT_IMAGE_WORDS = 1 << 14

#: Words reserved at the top of each image for the execution stack.
STACK_WORDS = 1 << 10

#: Dirty-tracking page size: 2**PAGE_SHIFT words per page.  Coarse on
#: purpose — the tracking cost is one bytearray store per write (cheap
#: enough for the compiled fast path), and a SWIFI run touches a handful
#: of record pages plus the stack page, so restores copy a few pages
#: instead of the whole image.
PAGE_SHIFT = 8
PAGE_WORDS = 1 << PAGE_SHIFT

#: First heap word: the low words are reserved as a component header.
INITIAL_ALLOC_PTR = 16


class MemoryImage:
    """A component's private, bounds-checked flat memory.

    Attributes:
        base: lowest valid address.
        size: number of words.
        words: backing store — a compact ``array('I')`` so the fast-path
            interpreter indexes raw 32-bit words instead of boxed list
            entries.
    """

    def __init__(self, base: int, size: int = DEFAULT_IMAGE_WORDS):
        if base & 0xFFF:
            raise ReproError("image base must be page aligned")
        self.base = base & WORD_MASK
        self.size = size
        self.words: array = array("I", bytes(4 * size))
        # Per-word taint bits plus an O(1) census: the fast-path
        # interpreter is only eligible while the image is taint-free.
        self._taint: bytearray = bytearray(size)
        self._taint_count = 0
        #: Coarse dirty-page bitmap: one byte per PAGE_WORDS-word page,
        #: set by every write.  Taint is only ever introduced through a
        #: write, so tainted words always lie on dirty pages — restoring
        #: the dirty pages provably clears all taint.
        self._dirty: bytearray = bytearray((size + PAGE_WORDS - 1) >> PAGE_SHIFT)
        self._alloc_ptr = INITIAL_ALLOC_PTR  # low words reserved (header)
        self._good_words: Optional[array] = None
        self._good_alloc_ptr: Optional[int] = None
        self._free_lists: Dict[int, List[int]] = {}

    # -- address arithmetic -------------------------------------------------
    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size

    def _index(self, addr: int) -> int:
        if not self.contains(addr):
            raise ReproError(f"address {addr:#x} outside image")
        return addr - self.base

    @property
    def stack_top(self) -> int:
        """Initial ESP for a thread entering this component."""
        return self.base + self.size  # pre-decrement push: first store is top-1

    @property
    def stack_base(self) -> int:
        return self.base + self.size - STACK_WORDS

    # -- raw access (used by the trace interpreter) -------------------------
    def read_word(self, addr: int) -> int:
        return self.words[addr - self.base]

    def write_word(self, addr: int, value: int, tainted: bool = False) -> None:
        index = addr - self.base
        self.words[index] = value & WORD_MASK
        self._dirty[index >> PAGE_SHIFT] = 1
        taint = self._taint
        if tainted:
            if not taint[index]:
                taint[index] = 1
                self._taint_count += 1
        elif taint[index]:
            taint[index] = 0
            self._taint_count -= 1

    def is_tainted(self, addr: int) -> bool:
        index = addr - self.base
        return 0 <= index < self.size and self._taint[index] != 0

    @property
    def taint_count(self) -> int:
        """Number of tainted words (0 means the fast path is eligible)."""
        return self._taint_count

    # -- allocation ----------------------------------------------------------
    def alloc(self, nwords: int) -> int:
        """Bump/free-list allocate ``nwords`` words; returns the address."""
        free = self._free_lists.get(nwords)
        if free:
            return free.pop()
        if self._alloc_ptr + nwords > self.size - STACK_WORDS:
            raise ReproError("component heap exhausted")
        addr = self.base + self._alloc_ptr
        self._alloc_ptr += nwords
        return addr

    def free(self, addr: int, nwords: int) -> None:
        """Zero a freed block and recycle it onto the size's free list.

        Zeroing goes through slice assignment (not a per-word
        ``write_word`` loop): one memset-style store for the words, one
        for the taint bits, keeping the taint census exact.
        """
        start = addr - self.base
        end = start + nwords
        self.words[start:end] = array("I", bytes(4 * nwords))
        tainted = self._taint.count(1, start, end)
        if tainted:
            self._taint[start:end] = bytes(nwords)
            self._taint_count -= tainted
        for page in range(start >> PAGE_SHIFT, ((end - 1) >> PAGE_SHIFT) + 1):
            self._dirty[page] = 1
        self._free_lists.setdefault(nwords, []).append(addr)

    def alloc_record(self, magic: int, nfields: int) -> int:
        """Allocate a record: one magic word followed by ``nfields`` fields."""
        addr = self.alloc(1 + nfields)
        self.write_word(addr, magic)
        return addr

    # -- dirty tracking --------------------------------------------------------
    @property
    def dirty_page_count(self) -> int:
        """Number of pages written since the last freeze/restore."""
        return self._dirty.count(1)

    def is_page_dirty(self, index: int) -> bool:
        """Has the page holding word ``index`` been written?"""
        return self._dirty[index >> PAGE_SHIFT] != 0

    def is_pristine(self, sealed: Optional[tuple] = None) -> bool:
        """True when no word was written (or tainted) since the last
        freeze/restore — i.e. a restore would be a no-op memcpy.

        Against a :meth:`seal` state: True when the taint census and
        the dirty bitmap are still the sealed ones.  A write to a page
        that was already dirty at the seal does not show there; every
        write from a component entry also sets the component's touched
        flag, which snapshots read first.
        """
        if sealed is None:
            return self._taint_count == 0 and 1 not in self._dirty
        return (
            self._taint_count == sealed[1] and self._dirty == sealed[2]
        )

    def dirty_page_indices(self) -> List[int]:
        """Page numbers written since the last freeze/restore, ascending.

        These are the *hot* pages — the fault injector's memory class
        draws its flip targets from them, and a pooled restore copies
        exactly this set back from the good image.
        """
        dirty = self._dirty
        return [page for page in range(len(dirty)) if dirty[page]]

    def modified_word_offsets(self, page: int) -> List[int]:
        """Word offsets in ``page`` whose value differs from the good image.

        These are the *live* words — records and stack slots the workload
        actually changed.  Empty when no good image is frozen yet, or
        when every write to the page restored the boot-time value.
        """
        if self._good_words is None:
            return []
        lo = page << PAGE_SHIFT
        hi = min(lo + PAGE_WORDS, self.size)
        words = self.words
        good = self._good_words
        return [i for i in range(lo, hi) if words[i] != good[i]]

    def _copy_back_dirty_pages(self) -> int:
        """Copy dirty pages back from the good image; returns the count.

        Taint is cleared alongside: tainted words can only exist on dirty
        pages (taint is introduced exclusively through writes), so
        zeroing the taint slice of each restored page clears all of it.
        """
        if self._good_words is None:
            raise ReproError("no good image frozen; cannot restore")
        dirty = self._dirty
        words = self.words
        good = self._good_words
        taint = self._taint
        size = self.size
        restored = 0
        page = dirty.find(1)
        while page >= 0:
            lo = page << PAGE_SHIFT
            hi = min(lo + PAGE_WORDS, size)
            words[lo:hi] = good[lo:hi]
            taint[lo:hi] = bytes(hi - lo)
            dirty[page] = 0
            restored += 1
            page = dirty.find(1, page + 1)
        self._taint_count = 0
        return restored

    # -- micro-reboot support -------------------------------------------------
    def freeze_good_image(self) -> None:
        """Snapshot the post-initialisation state as the reboot image."""
        self._good_words = self.words[:]
        self._good_alloc_ptr = self._alloc_ptr
        # The image now *is* the good image: every page is clean, so the
        # next restore copies only what gets written from here on.
        self._dirty[:] = bytes(len(self._dirty))

    def seal(self, base: Optional[tuple] = None) -> Optional[tuple]:
        """This image's state, for a snapshot taken at any point of a run.

        None while the image is its good image (nothing written, the
        allocator where the freeze left it): :meth:`restore` then brings
        it back.  Otherwise the dirty pages only — every clean page
        equals the good image — as copies of their words and of their
        taint bits (None for a page without taint), with the taint
        census, dirty bitmap, allocator position and free lists.  A
        page equal to its copy in ``base``, an earlier seal of this
        image, shares that copy (sealed state is never changed), so a
        snapshot ladder of many rungs stays small.
        """
        if (
            self.is_pristine()
            and self._alloc_ptr == self._good_alloc_ptr
            and not self._free_lists
        ):
            return None
        words = self.words
        taint = self._taint
        size = self.size
        shared = {} if base is None else base[0]
        pages = {}
        for page in self.dirty_page_indices():
            lo = page << PAGE_SHIFT
            hi = min(lo + PAGE_WORDS, size)
            saved = (
                words[lo:hi],
                bytes(taint[lo:hi]) if 1 in taint[lo:hi] else None,
            )
            earlier = shared.get(page)
            pages[page] = earlier if earlier == saved else saved
        return (
            pages, self._taint_count, bytearray(self._dirty),
            self._alloc_ptr,
            {nwords: tuple(free) for nwords, free in self._free_lists.items()},
        )

    def restore(self, sealed: Optional[tuple] = None) -> int:
        """Reset to the good image in O(dirty pages); returns pages copied.

        Wall-clock cost is proportional to what was written since the
        last freeze/restore, not to image size.  The *virtual* cost of a
        micro-reboot (:attr:`reboot_cost_cycles`) is unchanged: the
        modelled hardware still memcpys the whole image.

        With a :meth:`seal` state, reset to it instead.  A page can
        differ from the sealed image only if it is dirty now or was
        dirty at the seal (any other page equals the good image in
        both), so exactly those pages are copied back: a page dirty at
        the seal from its sealed copy, any other from the good image.
        The sealed dirty bitmap, taint, allocator and free lists come
        back with them; the sealed state itself is never changed.
        """
        if sealed is None:
            restored = self._copy_back_dirty_pages()
            self._alloc_ptr = self._good_alloc_ptr
            self._free_lists.clear()
            return restored
        pages, taint_count, dirty, alloc_ptr, free_lists = sealed
        mine = self._dirty
        words = self.words
        taint = self._taint
        good = self._good_words
        size = self.size
        restored = len(pages)
        page = mine.find(1)
        while page >= 0:
            if page not in pages:
                lo = page << PAGE_SHIFT
                hi = min(lo + PAGE_WORDS, size)
                words[lo:hi] = good[lo:hi]
                taint[lo:hi] = bytes(hi - lo)
                restored += 1
            page = mine.find(1, page + 1)
        for page, (saved, saved_taint) in pages.items():
            lo = page << PAGE_SHIFT
            hi = min(lo + PAGE_WORDS, size)
            words[lo:hi] = saved
            taint[lo:hi] = saved_taint or bytes(hi - lo)
        mine[:] = dirty
        self._taint_count = taint_count
        self._alloc_ptr = alloc_ptr
        self._free_lists.clear()
        for nwords, free in free_lists.items():
            self._free_lists[nwords] = list(free)
        return restored

    def restore_initial(self) -> int:
        """Pool reset: like :meth:`restore`, but rewind the allocator to
        its pre-initialisation position so a replayed ``reinit()``
        allocates at exactly the addresses a fresh build would.
        """
        restored = self._copy_back_dirty_pages()
        self._alloc_ptr = INITIAL_ALLOC_PTR
        self._free_lists.clear()
        return restored

    def micro_reboot(self) -> None:
        """Restore the good image over this component's memory."""
        self.restore()

    @property
    def reboot_cost_cycles(self) -> int:
        """Virtual cost of the reboot memcpy (one cycle per 4 words)."""
        return max(self.size // 4, 1)

    # -- debugging -------------------------------------------------------------
    def corrupt_word(self, addr: int, value: int) -> None:
        """Deliberately corrupt a word (used by tests and fault injection)."""
        self.write_word(addr, value, tainted=True)

    def __repr__(self):
        return (
            f"MemoryImage(base={self.base:#x}, size={self.size}, "
            f"alloc_ptr={self._alloc_ptr})"
        )
