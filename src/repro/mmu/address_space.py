"""Address spaces: virtual memory ranges over a page table.

A workload owns one address space (two workloads sharing pages own two
spaces mapping the same frames, which is how the multi-mapped-page
fallback of Section 3.3 is exercised). ``mmap`` hands out contiguous
virtual page ranges; actual frames arrive on first touch (demand paging)
or via :meth:`populate`, which models the paper's pre-allocation /
initial-placement step.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from .page_table import PageTable

__all__ = ["AddressSpace", "Vma"]

_ASIDS = itertools.count(1)


class Vma:
    """One mapped virtual range [start, start + nr_pages)."""

    __slots__ = ("start", "nr_pages", "name", "shared", "thp")

    def __init__(
        self,
        start: int,
        nr_pages: int,
        name: str,
        shared: bool,
        thp: bool = False,
    ) -> None:
        self.start = start
        self.nr_pages = nr_pages
        self.name = name
        self.shared = shared
        # madvise(MADV_HUGEPAGE)-style hint: demand paging and populate
        # may back aligned sub-ranges of this VMA with huge folios.
        self.thp = thp

    @property
    def end(self) -> int:
        return self.start + self.nr_pages

    def __contains__(self, vpn: int) -> bool:
        return self.start <= vpn < self.end

    def vpns(self) -> range:
        return range(self.start, self.end)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Vma {self.name} [{self.start}, {self.end})>"


class AddressSpace:
    """Virtual address space: VMAs + a page table."""

    def __init__(
        self, nr_vpns: int, name: str = "", folio_pages: int = 1
    ) -> None:
        self.asid = next(_ASIDS)
        self.name = name or f"as{self.asid}"
        self.page_table = PageTable(nr_vpns)
        self.vmas: List[Vma] = []
        # Huge-folio span (machine's 1 << thp_order); THP-hinted VMAs are
        # aligned to it so PMD mappings sit on natural boundaries.
        self.folio_pages = folio_pages
        self._brk = 0

    # ------------------------------------------------------------------
    def mmap(
        self,
        nr_pages: int,
        name: str = "anon",
        shared: bool = False,
        thp: bool = False,
    ) -> Vma:
        """Reserve a contiguous virtual range (no frames yet).

        ``thp=True`` marks the region THP-eligible and aligns its start
        to the huge-folio boundary (mmap with MAP_HUGE-style alignment);
        frames still arrive on first touch or via populate.
        """
        if nr_pages <= 0:
            raise ValueError(f"mmap of {nr_pages} pages")
        start = self._brk
        if thp and self.folio_pages > 1:
            start = -(-start // self.folio_pages) * self.folio_pages
        if start + nr_pages > self.page_table.nr_vpns:
            raise MemoryError(
                f"address space {self.name} exhausted: brk={self._brk}, "
                f"want {nr_pages}, size {self.page_table.nr_vpns}"
            )
        vma = Vma(start, nr_pages, name, shared, thp=thp)
        self._brk = start + nr_pages
        self.vmas.append(vma)
        return vma

    def vma_of(self, vpn: int) -> Optional[Vma]:
        for vma in self.vmas:
            if vpn in vma:
                return vma
        return None

    @property
    def rss_pages(self) -> int:
        """Resident set size in pages."""
        return int(len(self.page_table.mapped_vpns()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AddressSpace {self.name} asid={self.asid} vmas={len(self.vmas)}>"
