"""Array-backed page tables.

One page table per address space. Entries are stored as parallel numpy
arrays indexed by virtual page number so the hot access path can operate
on whole chunks of the access trace at once (see
:mod:`repro.mmu.access`), while individual-entry operations expose the
atomic primitives the migration protocols rely on
(:meth:`PageTable.get_and_clear` is Nomad's step-4 atomic).

``last_write`` records the simulated timestamp of the most recent store
through each entry. It is the vectorized equivalent of observing the
dirty bit's set *time*: transactional migration aborts iff a store hit
the page after the transaction cleared the dirty bit.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .pte import (
    PTE_ACCESSED,
    PTE_DIRTY,
    PTE_HUGE,
    PTE_PRESENT,
    PTE_PROT_NONE,
    PTE_WRITE,
)

__all__ = ["PageTable"]

_NEVER = -np.inf


class PageTable:
    """Flat page table covering ``nr_vpns`` virtual pages."""

    def __init__(self, nr_vpns: int) -> None:
        if nr_vpns <= 0:
            raise ValueError(f"page table needs at least one entry: {nr_vpns}")
        self.nr_vpns = nr_vpns
        self.flags = np.zeros(nr_vpns, dtype=np.uint32)
        self.gpfn = np.full(nr_vpns, -1, dtype=np.int64)
        self.last_write = np.full(nr_vpns, _NEVER, dtype=np.float64)
        self.last_access = np.full(nr_vpns, _NEVER, dtype=np.float64)
        # Structural-mutation epoch. Every operation that can change
        # which accesses would fault (mapping, unmapping, permission or
        # hint bits, a gpfn move) bumps it; AccessEngine.run_chunk
        # rescans a chunk when a ChunkExecuted subscriber changed it
        # mid-chunk. The access path's own accessed/dirty ORs and
        # timestamp stores do NOT bump it -- they never change
        # fault-ness or page placement.
        self.version = 0

    # ------------------------------------------------------------------
    # Entry-level primitives
    # ------------------------------------------------------------------
    def map(self, vpn: int, gpfn: int, flags: int) -> None:
        """Install a mapping. The entry must currently be empty."""
        self._check(vpn)
        if self.flags[vpn] & PTE_PRESENT:
            raise RuntimeError(f"vpn {vpn} is already mapped")
        if gpfn < 0:
            raise ValueError(f"invalid gpfn {gpfn}")
        self.version += 1
        self.gpfn[vpn] = gpfn
        self.flags[vpn] = np.uint32(flags | PTE_PRESENT)

    def map_many(self, vpns: np.ndarray, gpfns: np.ndarray, flags: int) -> None:
        """Install many base mappings in one vectorized store.

        Bulk equivalent of calling :meth:`map` per entry (one version
        bump instead of N -- the version is an equality-compared epoch,
        not a mutation count). Every entry must currently be empty.
        """
        if len(vpns) == 0:
            return
        if int(vpns.min()) < 0 or int(vpns.max()) >= self.nr_vpns:
            raise IndexError(f"vpns outside [0, {self.nr_vpns})")
        if (self.flags[vpns] & PTE_PRESENT).any():
            raise RuntimeError("map_many over already-mapped entries")
        if (gpfns < 0).any():
            raise ValueError("invalid gpfn in map_many")
        self.version += 1
        self.gpfn[vpns] = gpfns
        self.flags[vpns] = np.uint32(flags | PTE_PRESENT)

    def get_and_clear(self, vpn: int) -> Tuple[int, int]:
        """Atomically read and zero the entry (Nomad TPM step 4).

        Returns ``(flags, gpfn)`` as they were before clearing.
        """
        self._check(vpn)
        flags = int(self.flags[vpn])
        gpfn = int(self.gpfn[vpn])
        self.version += 1
        self.flags[vpn] = 0
        self.gpfn[vpn] = -1
        return flags, gpfn

    def restore(self, vpn: int, flags: int, gpfn: int) -> None:
        """Reinstall an entry captured by :meth:`get_and_clear` (abort path)."""
        self._check(vpn)
        if self.flags[vpn] & PTE_PRESENT:
            raise RuntimeError(f"vpn {vpn} was remapped during the transaction")
        self.version += 1
        self.flags[vpn] = np.uint32(flags)
        self.gpfn[vpn] = gpfn

    def unmap(self, vpn: int) -> Tuple[int, int]:
        """Remove a mapping, returning its prior (flags, gpfn)."""
        flags, gpfn = self.get_and_clear(vpn)
        if not flags & PTE_PRESENT:
            raise RuntimeError(f"vpn {vpn} was not mapped")
        return flags, gpfn

    # -- flag manipulation ----------------------------------------------
    def set_flags(self, vpn: int, flags: int) -> None:
        self._check(vpn)
        self.version += 1
        self.flags[vpn] |= np.uint32(flags)

    def clear_flags(self, vpn: int, flags: int) -> None:
        self._check(vpn)
        self.version += 1
        self.flags[vpn] &= np.uint32(~flags & 0xFFFFFFFF)

    def test_flags(self, vpn: int, flags: int) -> bool:
        if not 0 <= vpn < self.nr_vpns:
            raise IndexError(f"vpn {vpn} outside [0, {self.nr_vpns})")
        return self.flags[vpn].item() & flags != 0

    # -- queries ----------------------------------------------------------
    def is_present(self, vpn: int) -> bool:
        return self.test_flags(vpn, PTE_PRESENT)

    def is_writable(self, vpn: int) -> bool:
        return self.test_flags(vpn, PTE_WRITE)

    def is_dirty(self, vpn: int) -> bool:
        return self.test_flags(vpn, PTE_DIRTY)

    def is_accessed(self, vpn: int) -> bool:
        return self.test_flags(vpn, PTE_ACCESSED)

    def is_prot_none(self, vpn: int) -> bool:
        return self.test_flags(vpn, PTE_PROT_NONE)

    def entry(self, vpn: int) -> Tuple[int, int]:
        self._check(vpn)
        return int(self.flags[vpn]), int(self.gpfn[vpn])

    def mapped_vpns(self) -> np.ndarray:
        """All vpns with a present mapping (ascending)."""
        return np.nonzero(self.flags & PTE_PRESENT)[0]

    def written_since(self, vpn: int, when: float) -> bool:
        """Was there a store to ``vpn`` at or after ``when``?

        This is the simulator's observation channel for the
        dirty-during-copy race: the access path timestamps every store.
        """
        return bool(self.last_write[vpn] >= when)

    # ------------------------------------------------------------------
    # Folio (PMD-level) primitives
    # ------------------------------------------------------------------
    # A huge mapping occupies a naturally aligned run of ``nr`` entries,
    # each tagged PTE_HUGE and pointing at consecutive gpfns. Hardware
    # would hold a single PMD; the flat table stores the expansion so
    # the vectorized access path needs no second lookup level, but the
    # operations below act on the run as one atomic entry.

    def map_folio(self, head_vpn: int, head_gpfn: int, flags) -> None:
        """Install a PMD-level mapping over ``len(flags)`` entries.

        ``flags`` is a per-entry uint32 array (or a sequence coercible to
        one); PTE_PRESENT and PTE_HUGE are added to every entry.
        """
        flags = np.asarray(flags, dtype=np.uint32)
        nr = len(flags)
        self._check_folio(head_vpn, nr)
        sl = slice(head_vpn, head_vpn + nr)
        if (self.flags[sl] & PTE_PRESENT).any():
            raise RuntimeError(f"folio at vpn {head_vpn} overlaps a mapping")
        if head_gpfn < 0:
            raise ValueError(f"invalid gpfn {head_gpfn}")
        self.version += 1
        self.gpfn[sl] = np.arange(head_gpfn, head_gpfn + nr, dtype=np.int64)
        self.flags[sl] = flags | np.uint32(PTE_PRESENT | PTE_HUGE)

    def get_and_clear_folio(self, head_vpn: int, nr: int):
        """Atomically read and zero a huge mapping's entries.

        Returns per-entry ``(flags, gpfns)`` copies as they were before
        clearing -- the folio analogue of :meth:`get_and_clear`.
        """
        self._check_folio(head_vpn, nr)
        sl = slice(head_vpn, head_vpn + nr)
        flags = self.flags[sl].copy()
        gpfns = self.gpfn[sl].copy()
        self.version += 1
        self.flags[sl] = 0
        self.gpfn[sl] = -1
        return flags, gpfns

    def restore_folio(self, head_vpn: int, flags, gpfns) -> None:
        """Reinstall a huge mapping captured by :meth:`get_and_clear_folio`."""
        flags = np.asarray(flags, dtype=np.uint32)
        nr = len(flags)
        self._check_folio(head_vpn, nr)
        sl = slice(head_vpn, head_vpn + nr)
        if (self.flags[sl] & PTE_PRESENT).any():
            raise RuntimeError(
                f"folio at vpn {head_vpn} was remapped during the transaction"
            )
        self.version += 1
        self.flags[sl] = flags
        self.gpfn[sl] = np.asarray(gpfns, dtype=np.int64)

    def unmap_folio(self, head_vpn: int, nr: int):
        """Remove a huge mapping, returning its prior per-entry state."""
        flags, gpfns = self.get_and_clear_folio(head_vpn, nr)
        if not (flags & PTE_PRESENT).all():
            raise RuntimeError(f"folio at vpn {head_vpn} was not fully mapped")
        return flags, gpfns

    def is_huge(self, vpn: int) -> bool:
        return self.test_flags(vpn, PTE_HUGE)

    def folio_head(self, vpn: int, nr: int) -> int:
        """Head vpn of the aligned ``nr``-page folio containing ``vpn``."""
        return vpn & ~(nr - 1)

    def set_flags_range(self, head_vpn: int, nr: int, flags: int) -> None:
        self._check_folio(head_vpn, nr)
        self.version += 1
        self.flags[head_vpn : head_vpn + nr] |= np.uint32(flags)

    def clear_flags_range(self, head_vpn: int, nr: int, flags: int) -> None:
        self._check_folio(head_vpn, nr)
        self.version += 1
        self.flags[head_vpn : head_vpn + nr] &= np.uint32(~flags & 0xFFFFFFFF)

    def any_flags_range(self, head_vpn: int, nr: int, flags: int) -> bool:
        self._check_folio(head_vpn, nr)
        sl = slice(head_vpn, head_vpn + nr)
        return bool((self.flags[sl] & np.uint32(flags)).any())

    def written_since_range(self, head_vpn: int, nr: int, when: float) -> bool:
        """Was any sub-page of the folio stored to at or after ``when``?"""
        self._check_folio(head_vpn, nr)
        return bool((self.last_write[head_vpn : head_vpn + nr] >= when).any())

    def last_access_range(self, head_vpn: int, nr: int) -> float:
        """Most recent access timestamp across the folio's sub-pages."""
        self._check_folio(head_vpn, nr)
        return float(self.last_access[head_vpn : head_vpn + nr].max())

    def _check_folio(self, head_vpn: int, nr: int) -> None:
        self._check(head_vpn)
        if nr <= 0 or head_vpn + nr > self.nr_vpns:
            raise IndexError(
                f"folio [{head_vpn}, {head_vpn + nr}) outside "
                f"[0, {self.nr_vpns})"
            )

    def _check(self, vpn: int) -> None:
        if not 0 <= vpn < self.nr_vpns:
            raise IndexError(f"vpn {vpn} outside [0, {self.nr_vpns})")
