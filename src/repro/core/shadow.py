"""Page shadowing: the non-exclusive tier state (Section 3.2).

After a successful transactional promotion the old slow-tier frame is
*kept* as a shadow copy of the new fast-tier master. The kernel
prototype indexes shadows in an XArray keyed by the master's physical
address and reclaims them by marked iteration. The model keeps that
contract, not the radix-tree layout: a dict maps the master's global
frame number to the shadow frame, and reclaim walks the entries in
ascending master gpfn, the order the XArray iterates in.

Invariants maintained here (and asserted in tests):

* a master is mapped read-only with its true write permission saved in
  the ``shadow r/w`` PTE soft bit; the first store takes a *shadow page
  fault* which restores the permission and discards the shadow -- so a
  live shadow always matches its master's content (the master cannot
  have been dirtied);
* shadow frames are unmapped, off-LRU, and carry ``IS_SHADOW``;
* reclaiming a shadow never loses data (the master is authoritative).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, TYPE_CHECKING

import numpy as np

from ..mem.frame import Frame, FrameFlags

if TYPE_CHECKING:  # pragma: no cover
    from ..system import Machine

__all__ = ["ShadowIndex"]


class ShadowIndex:
    """Index of master -> shadow frames, keyed by the master's gpfn."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self.shadows: Dict[int, Frame] = {}
        # Base pages held by live shadows (a huge-folio shadow keeps the
        # whole slow-tier folio, so it pins nr_pages, not 1).
        self._pages = 0

    # ------------------------------------------------------------------
    @property
    def nr_shadows(self) -> int:
        return len(self.shadows)

    @property
    def nr_shadow_pages(self) -> int:
        return self._pages

    def lookup(self, master: Frame) -> Optional[Frame]:
        return self.shadows.get(self.machine.tiers.gpfn(master))

    # ------------------------------------------------------------------
    def insert(self, master: Frame, shadow: Frame) -> None:
        """Record ``shadow`` as the shadow copy of ``master``."""
        if shadow.mapped or shadow.on_lru:
            raise RuntimeError(
                f"shadow pfn {shadow.pfn} must be unmapped and off-LRU"
            )
        if shadow.order != master.order:
            raise RuntimeError(
                f"shadow order {shadow.order} != master order {master.order}"
            )
        gpfn = self.machine.tiers.gpfn(master)
        if gpfn in self.shadows:
            raise RuntimeError(f"master gpfn {gpfn} already shadowed")
        master.set_flag(FrameFlags.SHADOWED)
        shadow.set_flag(FrameFlags.IS_SHADOW)
        self.shadows[gpfn] = shadow
        self._pages += shadow.nr_pages
        self.machine.stats.bump("nomad.shadows_created")
        self.machine.obs.emit(
            "shadow.create",
            gpfn=gpfn,
            vpn=master.rmap[0][1] if master.rmap else -1,
            pages=shadow.nr_pages,
        )

    def discard(self, master: Frame, reason: str = "discard") -> Optional[Frame]:
        """Drop the shadow of ``master`` (freeing the slow-tier frame).

        ``reason`` only labels the ``shadow.drop`` tracepoint (the
        shadow-fault collapse path passes ``"fault"``); the mechanism is
        identical for every caller.
        """
        gpfn = self.machine.tiers.gpfn(master)
        shadow = self.shadows.pop(gpfn, None)
        if shadow is None:
            return None
        master.clear_flag(FrameFlags.SHADOWED)
        shadow.clear_flag(FrameFlags.IS_SHADOW)
        self._pages -= shadow.nr_pages
        self.machine.tiers.free_folio(shadow)
        self.machine.stats.bump("nomad.shadows_discarded")
        self.machine.obs.emit(
            "shadow.drop", gpfn=gpfn, reason=reason, pages=shadow.nr_pages
        )
        return shadow

    def detach(self, master: Frame) -> Optional[Frame]:
        """Remove the index entry but hand the shadow frame back to the
        caller without freeing it (remap-demotion reuses the frame)."""
        gpfn = self.machine.tiers.gpfn(master)
        shadow = self.shadows.pop(gpfn, None)
        if shadow is None:
            return None
        master.clear_flag(FrameFlags.SHADOWED)
        shadow.clear_flag(FrameFlags.IS_SHADOW)
        self._pages -= shadow.nr_pages
        self.machine.obs.emit(
            "shadow.drop", gpfn=gpfn, reason="detach", pages=shadow.nr_pages
        )
        return shadow

    def rekey(self, old_master: Frame, new_master: Frame) -> None:
        """The master frame moved (e.g. stock migration); re-index."""
        old_gpfn = self.machine.tiers.gpfn(old_master)
        shadow = self.shadows.pop(old_gpfn, None)
        if shadow is None:
            return
        old_master.clear_flag(FrameFlags.SHADOWED)
        new_gpfn = self.machine.tiers.gpfn(new_master)
        new_master.set_flag(FrameFlags.SHADOWED)
        self.shadows[new_gpfn] = shadow
        # Same shadow, new index key: close the old lifetime span and
        # open a fresh one so span keys stay consistent with the index.
        self.machine.obs.emit(
            "shadow.drop", gpfn=old_gpfn, reason="rekey",
            pages=shadow.nr_pages,
        )
        self.machine.obs.emit(
            "shadow.create",
            gpfn=new_gpfn,
            vpn=new_master.rmap[0][1] if new_master.rmap else -1,
            pages=shadow.nr_pages,
        )

    # ------------------------------------------------------------------
    def reclaim(
        self, nr: int, node_id: Optional[int] = None
    ) -> Tuple[int, float]:
        """Free up to ``nr`` shadow pages; returns (freed, cycles).

        Used both by kswapd (priority reclaim) and the allocation-failure
        path (which asks for 10x the failed request, Section 3.2). With
        ``node_id`` set, only shadows resident on that tier are eligible
        (per-node kswapd on chains deeper than two tiers).
        """
        m = self.machine
        freed = 0
        cycles = 0.0
        # Lowest master gpfn first, as the kernel's marked XArray walk
        # goes. Nothing in the loop adds a shadow, so one sort on entry
        # gives the order of picking the lowest live entry each pass.
        shadows = self.shadows
        eligible = iter(sorted([
            gpfn for gpfn, shadow in shadows.items()
            if node_id is None or shadow.node_id == node_id
        ]))
        while freed < nr:
            if m.debug.should_fail("shadow.reclaim_fail"):
                # Injection: the batch stops early, as if every
                # remaining shadow were pinned or already raced away.
                break
            gpfn = next(eligible, None)
            if gpfn is None:
                break
            shadow = shadows.pop(gpfn)
            master = m.tiers.frame(gpfn)
            master.clear_flag(FrameFlags.SHADOWED)
            self.restore_master_write(master)
            shadow.clear_flag(FrameFlags.IS_SHADOW)
            self._pages -= shadow.nr_pages
            m.tiers.free_folio(shadow)
            m.obs.emit(
                "shadow.drop",
                gpfn=gpfn,
                reason="reclaim",
                pages=shadow.nr_pages,
            )
            freed += shadow.nr_pages
            cycles += m.costs.free_page + m.costs.pte_update
        if freed:
            m.stats.bump("nomad.shadows_reclaimed", freed)
            m.obs.emit("shadow.reclaim", freed=freed, requested=nr)
        return freed, cycles

    def restore_master_write(self, master: Frame) -> None:
        """A master without a shadow no longer needs write protection;
        restore its true permission so future stores skip the fault."""
        from ..mmu.pte import PTE_SOFT_SHADOW_RW, PTE_WRITE

        if master.is_huge:
            # Huge master: the soft bit was applied per sub-page (only
            # originally-writable entries carry it), restore the range.
            nr = master.nr_pages
            for space, vpn in master.rmap:
                pt = space.page_table
                sl = slice(vpn, vpn + nr)
                f = pt.flags[sl]
                soft = (f & np.uint32(PTE_SOFT_SHADOW_RW)) != 0
                if soft.any():
                    restored = (f | np.uint32(PTE_WRITE)) & np.uint32(
                        ~PTE_SOFT_SHADOW_RW & 0xFFFFFFFF
                    )
                    pt.version += 1
                    pt.flags[sl] = np.where(soft, restored, f)
            return
        for space, vpn in master.rmap:
            pt = space.page_table
            if pt.test_flags(vpn, PTE_SOFT_SHADOW_RW):
                pt.set_flags(vpn, PTE_WRITE)
                pt.clear_flags(vpn, PTE_SOFT_SHADOW_RW)
