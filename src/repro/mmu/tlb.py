"""Per-CPU TLBs and shootdown bookkeeping.

The vectorized access path assumes TLB-coherent PTEs (every shootdown in
the protocols is modelled as a cost event and an invalidation), but the
TLB objects themselves track which CPUs may hold a stale translation for
a page so that migration code can compute *who* must receive an IPI --
the paper's Section 3.3 overhead argument (multi-mapped pages need
multiple simultaneous shootdowns) falls out of this bookkeeping.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

import numpy as np

__all__ = ["Tlb", "TlbDirectory"]


class Tlb:
    """One CPU's TLB: a set of cached (asid, vpn) translations."""

    def __init__(self, cpu_name: str, capacity: int = 1536) -> None:
        self.cpu_name = cpu_name
        self.capacity = capacity
        self._entries: Dict[Tuple[int, int], int] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, asid: int, vpn: int) -> bool:
        key = (asid, vpn)
        if key in self._entries:
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, asid: int, vpn: int) -> None:
        if len(self._entries) >= self.capacity:
            # FIFO-ish eviction: drop the oldest insertion.
            self._entries.pop(next(iter(self._entries)))
        self._entries[(asid, vpn)] = 1

    def invalidate(self, asid: int, vpn: int) -> None:
        self._entries.pop((asid, vpn), None)

    def flush(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class TlbDirectory:
    """Tracks, per page, the set of CPUs that may cache its translation.

    This is what the kernel's ``mm_cpumask`` approximates; shootdowns are
    sent to exactly this set ("TPM issues a TLB shootdown to all cores
    that ever accessed this page", Section 3.1).
    """

    def __init__(self) -> None:
        # One boolean page-mask per (asid, cpu): ``mask[vpn]`` is True
        # when that CPU may cache a translation for the page. The access
        # path notes whole chunks with one fancy store (duplicates are
        # harmless), where a per-page dict of sets paid a Python loop per
        # access.
        self._masks: Dict[int, Dict[str, np.ndarray]] = {}
        self.shootdowns = 0
        self.ipis_sent = 0

    def page_mask(self, asid: int, cpu_name: str, nr_pages: int) -> np.ndarray:
        """The (asid, cpu) page mask, covering at least ``nr_pages`` pages.

        The access path asks with its address space's size, so the mask
        is sized once and stays the same array while it sets bits in it:
        no later note can need a bigger one.
        """
        cpus = self._masks.setdefault(asid, {})
        mask = cpus.get(cpu_name)
        if mask is None or len(mask) < nr_pages:
            grown = np.zeros(max(nr_pages, 1024), dtype=bool)
            if mask is not None:
                grown[: len(mask)] = mask
            cpus[cpu_name] = mask = grown
        return mask

    def note_access(self, cpu_name: str, asid: int, vpn: int) -> None:
        self.page_mask(asid, cpu_name, vpn + 1)[vpn] = True

    def holders(self, asid: int, vpn: int) -> Set[str]:
        return {
            cpu
            for cpu, mask in self._masks.get(asid, {}).items()
            if vpn < len(mask) and mask[vpn]
        }

    def shootdown(self, asid: int, vpn: int) -> Set[str]:
        """Invalidate all cached translations of a page; returns the
        CPUs that had to be interrupted."""
        cpus = set()
        for cpu, mask in self._masks.get(asid, {}).items():
            if vpn < len(mask) and mask[vpn]:
                cpus.add(cpu)
                mask[vpn] = False
        self.shootdowns += 1
        self.ipis_sent += len(cpus)
        return cpus
