"""The Java heap: areas, page states, and the mutator/GC write stream.

Table IV's "Java heap" category.  The paper identifies three reasons the
heap defeats TPS (§III.B):

* object *headers* are written even on logically read-only objects
  (monitor acquisition flat-locks, GC mark bits) — modelled as the
  per-tick mutator dirtying;
* the GC *moves* objects (compaction; every minor GC under generational
  policies), changing page offsets — modelled as an epoch bump that
  re-tokenises live pages;
* the GC *zero-fills* reclaimed space, which briefly creates mergeable
  zero pages that are "soon modified and divided" when allocation reuses
  them — modelled by the zero tail and its reallocation schedule.

A :class:`HeapArea` tracks one contiguous heap range at page granularity:
each page is untouched, zero, or live at some epoch.  Policies in
:mod:`repro.jvm.gc` orchestrate the areas.
"""

from __future__ import annotations

from typing import List

from repro.guestos.process import GuestProcess, Vma
from repro.mem.content import ZERO_TOKEN
from repro.sim.rng import encode_parts, stable_hash64_column

TAG_HEAP = "java:heap"

#: Page-state sentinels (non-negative values are live epochs).
UNTOUCHED = -2
ZEROED = -1

#: Knuth multiplicative constant used for cheap deterministic sampling.
_MIX = 2654435761


class HeapArea:
    """One contiguous heap range (whole flat heap, nursery, or tenured)."""

    def __init__(
        self,
        process: GuestProcess,
        area_name: str,
        size_bytes: int,
        tag: str = TAG_HEAP,
    ) -> None:
        self.process = process
        self.area_name = area_name
        self.vma: Vma = process.mmap_anon(size_bytes, tag)
        self.npages = self.vma.npages
        self._state: List[int] = [UNTOUCHED] * self.npages
        self._prefix = encode_parts(
            "heap", process.kernel.vm.name, process.pid, area_name
        )
        self._live_count = 0
        self._zero_count = 0

    # ------------------------------------------------------------------
    # Page writes
    # ------------------------------------------------------------------

    def _write_live_pages(self, pages: List[int], epoch: int) -> None:
        """Write live content at ``epoch`` to ``pages`` in one batch."""
        # Heap content is process-unique: object graphs, addresses and
        # headers never coincide between two JVM processes.  A token is
        # stable_hash64("heap", vm, pid, area, page, epoch).
        tokens = stable_hash64_column(self._prefix, pages, encode_parts(epoch))
        self.process.write_pages(self.vma, pages, tokens)
        state = self._state
        for page in pages:
            previous = state[page]
            if previous < 0:
                self._live_count += 1
                if previous == ZEROED:
                    self._zero_count -= 1
            state[page] = epoch

    def write_live(self, page: int, epoch: int) -> None:
        self._write_live_pages([page], epoch)

    def write_zero(self, page: int) -> None:
        previous = self._state[page]
        if previous == ZEROED:
            return
        if previous >= 0:
            self._live_count -= 1
        self._state[page] = ZEROED
        self._zero_count += 1
        self.process.write_token(self.vma, page, ZERO_TOKEN)

    def fill_live(self, first_page: int, count: int, epoch: int) -> None:
        self._write_live_pages(
            list(range(first_page, first_page + count)), epoch
        )

    # ------------------------------------------------------------------
    # Bulk operations used by the GC policies
    # ------------------------------------------------------------------

    def rewrite_live(self, epoch: int) -> int:
        """Re-tokenise every live page (object movement under compaction)."""
        pages = [page for page, state in enumerate(self._state) if state >= 0]
        self._write_live_pages(pages, epoch)
        return len(pages)

    def dirty_fraction(self, fraction: float, epoch: int) -> int:
        """Dirty a deterministic sample of live pages (headers, stores)."""
        if fraction <= 0:
            return 0
        threshold = int(fraction * (1 << 32))
        salt = epoch * 0x9E3779B9
        pages = [
            page
            for page, state in enumerate(self._state)
            if state >= 0
            and (((page * _MIX) ^ salt) & 0xFFFFFFFF) < threshold
        ]
        self._write_live_pages(pages, epoch)
        return len(pages)

    def zero_tail(self, num_pages: int) -> int:
        """Zero-fill the top ``num_pages`` of the touched range (post-GC)."""
        zeroed = 0
        for page in range(self.npages - 1, -1, -1):
            if zeroed >= num_pages:
                break
            if self._state[page] >= 0:
                self.write_zero(page)
                zeroed += 1
        return zeroed

    def allocate_from_zeros(self, num_pages: int, epoch: int) -> int:
        """Reuse zeroed pages for fresh allocation (TLAB refills)."""
        pages: List[int] = []
        if num_pages > 0:
            for page, state in enumerate(self._state):
                if state == ZEROED:
                    pages.append(page)
                    if len(pages) >= num_pages:
                        break
        self._write_live_pages(pages, epoch)
        return len(pages)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def live_pages(self) -> int:
        return self._live_count

    @property
    def zero_pages(self) -> int:
        return self._zero_count

    @property
    def touched_pages(self) -> int:
        return self._live_count + self._zero_count

    def resident_bytes(self) -> int:
        return self.touched_pages * self.process.page_size

    def __repr__(self) -> str:
        return (
            f"HeapArea({self.area_name!r}, live={self._live_count}, "
            f"zero={self._zero_count}, total={self.npages} pages)"
        )
