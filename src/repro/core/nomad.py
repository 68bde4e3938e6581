"""The Nomad tiering policy: TPM + page shadowing + two-queue promotion.

Wires the pieces of Section 3 together:

* hint faults (same NUMA-hint arming as TPP) feed the promotion
  candidate queue instead of triggering synchronous migration -- the
  fault handler only flips PTE bits and does queue work, so the
  application resumes almost immediately;
* ``kpromote`` asynchronously runs transactional migrations off the MPQ;
* committed promotions leave a shadow copy behind; demotion of a still-
  shadowed (hence clean) master is a pure remap;
* shadow pages are reclaimed by kswapd first and, on allocation failure,
  in 10x-the-request batches.

Ablation switches: ``shadowing=False`` gives the TPM-only exclusive
variant; ``tpm=False`` degrades promotion to synchronous migration while
keeping shadowing (shadowing-only variant); ``throttle=True`` enables the
Section-5 thrashing throttle.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..kernel.migrate import sync_migrate_page
from ..mem.frame import Frame, FrameFlags, compound_head
from ..mmu.faults import Fault, UnhandledFault
from ..obs.counters import tier_migration_key
from ..mmu.pte import (
    PTE_ACCESSED,
    PTE_HUGE,
    PTE_PRESENT,
    PTE_PROT_NONE,
    PTE_SOFT_SHADOW_RW,
    PTE_WRITE,
)
from ..policies.base import TieringPolicy
from .kpromote import Kpromote
from .queues import MigrationPendingQueue, MigrationRequest, PromotionCandidateQueue
from .shadow import ShadowIndex
from .tpm import TransactionalMigrator

__all__ = ["NomadPolicy"]

ALLOC_FAIL_RECLAIM_FACTOR = 10  # Section 3.2's heuristic

# Hot-path constant for _is_hot: referenced-or-active as one flag mask.
_REF_OR_ACTIVE = FrameFlags.REFERENCED | FrameFlags.ACTIVE


class NomadPolicy(TieringPolicy):
    """Non-exclusive memory tiering via transactional page migration."""

    name = "nomad"

    def __init__(
        self,
        machine,
        shadowing: bool = True,
        tpm: bool = True,
        throttle: bool = False,
        pcq_capacity: int = 4096,
        mpq_capacity: int = 4096,
        pcq_scan_limit: int = 16,
        mpq_max_attempts: int = 4,
        alloc_fail_factor: int = ALLOC_FAIL_RECLAIM_FACTOR,
        shadow_chain: str = "drop",
        admission_filter=None,
    ) -> None:
        super().__init__(machine)
        self.shadowing = shadowing
        self.tpm = tpm
        self.alloc_fail_factor = alloc_fail_factor
        # TierBPF-style admission seam: a predicate
        # ``(request, src_tier, dst_tier) -> bool`` consulted before any
        # MPQ enqueue, per tier boundary. None passes everything through;
        # rejections bump ``nomad.admission_rejected`` and the candidate
        # stays off the MPQ (it may re-qualify on a later scan).
        self.admission_filter = admission_filter
        self.shadow_index = ShadowIndex(machine)
        self.pcq = PromotionCandidateQueue(
            pcq_capacity, obs=machine.obs, debug=machine.debug
        )
        self.mpq = MigrationPendingQueue(
            mpq_capacity, mpq_max_attempts, obs=machine.obs, debug=machine.debug
        )
        self.pcq_scan_limit = pcq_scan_limit
        self.migrator = TransactionalMigrator(
            machine,
            self.shadow_index,
            shadowing=shadowing,
            shadow_chain=shadow_chain,
        )
        self.kpromote = Kpromote(
            machine, self.mpq, self.migrator, throttle_enabled=throttle
        )
        # Reuse-evidence gap (see _is_hot), hoisted: config and cost
        # model are frozen for the machine's lifetime.
        self._hot_gap = machine.config.chunk_size * machine.costs.read_latency[1]
        if machine.folio_pages > 1:
            # With huge folios, hint faults are ~folio_pages times rarer,
            # so fault-driven PCQ scanning starves and then dumps its
            # backlog onto single faults; drain in daemon context instead.
            self.kpromote.candidate_scan = self._daemon_scan_candidates

    def install(self) -> None:
        super().install()
        self.machine.start_numa_scanner()
        if self.tpm:
            self.kpromote.start()

    def uninstall(self) -> None:
        self.kpromote.stop()
        super().uninstall()

    # ------------------------------------------------------------------
    # Hint faults: queue work only, never migration (Section 3.1)
    # ------------------------------------------------------------------
    def handle_hint_fault(self, fault: Fault, cpu) -> float:
        m = self.machine
        pt = fault.space.page_table
        cycles = 0.0

        vpn = fault.vpn
        huge = m.folio_pages > 1 and pt.is_huge(vpn)
        if huge:
            # One PMD covers the whole folio: disarm the range in a
            # single update and track the head from here on.
            vpn = pt.folio_head(vpn, m.folio_pages)
            pt.clear_flags_range(vpn, m.folio_pages, PTE_PROT_NONE)
            cycles += m.costs.pmd_update
        else:
            pt.clear_flags(vpn, PTE_PROT_NONE)
            cycles += m.costs.pte_update
        m.stats.bump("nomad.hint_faults")

        _flags, gpfn = pt.entry(fault.vpn)
        frame = compound_head(m.tiers.frame(gpfn))
        if m.tiers.promotion_target(frame.node_id) is None:
            return cycles

        # Keep feeding the stock temperature protocol (Nomad does not
        # change how Linux determines page temperature).
        m.lru.mark_accessed(frame)
        cycles += m.costs.lru_op

        if not self.tpm:
            # Shadowing-only ablation: promote synchronously like TPP,
            # but still through the shadow-aware commit path.
            cycles += self._sync_promote_with_shadow(frame, fault, cpu)
            return cycles

        # Scan the PCQ for hot candidates, then enqueue the faulting
        # page. A candidate is promoted only once hardware has touched it
        # *after* the fault that enqueued it (the accessed-bit evidence
        # of Figure 4); the page stays mapped, so that re-touch needs no
        # fault -- the "one page fault per migration" property. On a
        # folio machine the scan runs in kpromote context instead (see
        # Kpromote.candidate_scan): the handler only enqueues and wakes.
        daemon_scan = self.kpromote.candidate_scan is not None
        hot = (
            []
            if daemon_scan
            else self.pcq.scan_hot(self._is_hot, self.pcq_scan_limit)
        )
        self.pcq.push(
            MigrationRequest(
                frame,
                fault.space,
                vpn,
                frame.generation,
                enqueue_ts=m.engine.now,
            )
        )
        cycles += m.costs.queue_op
        for request in hot:
            if self._admit(request) and self.mpq.push(request):
                cycles += m.costs.queue_op
        if hot or daemon_scan:
            self.kpromote.wake()
        return cycles

    def _daemon_scan_candidates(self) -> float:
        """Drain hot PCQ entries into the MPQ from kpromote's context."""
        hot = self.pcq.scan_hot(self._is_hot, self.pcq_scan_limit)
        cycles = 0.0
        for request in hot:
            if self._admit(request) and self.mpq.push(request):
                cycles += self.machine.costs.queue_op
        return cycles

    def _admit(self, request) -> bool:
        """Consult the admission filter before an MPQ enqueue."""
        if self.admission_filter is None:
            return True
        src = request.frame.node_id
        dst = self.machine.tiers.promotion_target(src)
        if dst is None or self.admission_filter(request, src, dst):
            return True
        self.machine.stats.bump("nomad.admission_rejected")
        return False

    def _is_hot(self, request) -> bool:
        """Temperature check (Figure 4): a referenced/active page whose
        accessed state shows a touch after the fault that enqueued it.

        The enqueueing fault's own (retried) access lands within the same
        execution chunk, so reuse means a recorded access at least one
        chunk past the enqueue time.
        """
        frame = request.frame
        if not frame.flags & _REF_OR_ACTIVE:
            return False
        threshold = request.enqueue_ts + self._hot_gap
        order = frame.order
        for space, vpn in frame.rmap:
            pt = space.page_table
            if order:
                nr = frame.nr_pages
                if (
                    pt.any_flags_range(vpn, nr, PTE_ACCESSED)
                    and pt.last_access_range(vpn, nr) > threshold
                ):
                    return True
            elif (
                pt.flags.item(vpn) & PTE_ACCESSED
                and pt.last_access.item(vpn) > threshold
            ):
                return True
        return False

    # ------------------------------------------------------------------
    # Shadow page faults (Section 3.2, Figure 5)
    # ------------------------------------------------------------------
    def handle_wp_fault(self, fault: Fault, cpu) -> float:
        m = self.machine
        pt = fault.space.page_table
        flags, gpfn = pt.entry(fault.vpn)
        frame = compound_head(m.tiers.frame(gpfn))
        if not (frame.shadowed and flags & PTE_SOFT_SHADOW_RW):
            raise UnhandledFault(fault, "write to a genuinely read-only page")

        if frame.is_huge:
            # First store into any sub-page dirties the folio, so the
            # whole shadow is stale: restore every saved permission and
            # drop the slow-tier folio in one go (a single PMD update).
            self.shadow_index.restore_master_write(frame)
            self.shadow_index.discard(frame, reason="fault")
            m.stats.bump("nomad.shadow_faults")
            m.stats.bump("thp.shadow_collapses")
            m.obs.emit("shadow.fault", vpn=fault.vpn, gpfn=gpfn)
            return m.costs.pmd_update + m.costs.free_page

        # Restore the true write permission from the soft bit and
        # discard the (about to become stale) shadow copy.
        pt.set_flags(fault.vpn, PTE_WRITE)
        pt.clear_flags(fault.vpn, PTE_SOFT_SHADOW_RW)
        self.shadow_index.discard(frame, reason="fault")
        m.stats.bump("nomad.shadow_faults")
        m.obs.emit("shadow.fault", vpn=fault.vpn, gpfn=gpfn)
        return m.costs.pte_update + m.costs.free_page

    # ------------------------------------------------------------------
    # Demotion (kswapd victim callback)
    # ------------------------------------------------------------------
    def demote_page(self, frame: Frame, cpu) -> Tuple[bool, float]:
        m = self.machine
        dst_tier = m.tiers.demotion_target(frame.node_id)
        if dst_tier is None:
            return False, 0.0
        if frame.shadowed:
            # A shadowed master remaps to wherever its shadow lives --
            # the adjacent tier normally, or the deep tier when the
            # shadow chain was re-keyed across a multi-step promotion.
            return self._remap_demote(frame, cpu)
        result = sync_migrate_page(m, frame, dst_tier, cpu, category="demotion")
        if result.success:
            m.stats.bump("nomad.copy_demotions")
        return result.success, result.cycles

    def wants_split(self, frame: Frame) -> bool:
        """A shadowed huge master demotes for free (remap); anything else
        huge and cold is better split so reclaim works page-wise."""
        return frame.is_huge and not frame.shadowed

    def _remap_demote(self, master: Frame, cpu) -> Tuple[bool, float]:
        """Demote a clean shadowed master by remapping to its shadow --
        no page copy (the headline win of non-exclusive tiering)."""
        m = self.machine
        mapping = master.sole_mapping()
        if mapping is None or master.locked:
            return False, 0.0
        space, vpn = mapping
        pt = space.page_table
        shadow = self.shadow_index.detach(master)
        if shadow is None:  # raced with a shadow fault
            return False, 0.0

        if master.is_huge:
            return self._remap_demote_folio(master, shadow, space, vpn, cpu)

        cycles = m.costs.migrate_setup
        old_flags, _old_gpfn = pt.unmap(vpn)
        cycles += m.costs.pte_update
        cycles += m.tlb_shootdown(space, vpn, cpu)

        # Rebuild the slow-tier mapping with the true write permission.
        new_flags = old_flags & ~(
            0xFFFFFFFF & (PTE_SOFT_SHADOW_RW | PTE_ACCESSED)
        )
        new_flags &= ~0x1  # clear PRESENT; map() sets it
        if old_flags & PTE_SOFT_SHADOW_RW:
            new_flags |= PTE_WRITE
        pt.map(vpn, m.tiers.gpfn(shadow), new_flags)
        cycles += m.costs.pte_update

        shadow.add_rmap(space, vpn)
        master.remove_rmap(space, vpn)
        m.lru.transfer(master, shadow)
        master.clear_flag(FrameFlags.REFERENCED | FrameFlags.ACTIVE)
        m.tiers.free_page(master)
        cycles += m.costs.free_page

        cpu.account("demotion", cycles)
        m.stats.bump("nomad.remap_demotions")
        m.stats.bump("migrate.demotions")
        if len(m.tiers.nodes) > 2:
            m.stats.bump(tier_migration_key("demote", shadow.node_id))
        return True, cycles

    def _remap_demote_folio(
        self, master: Frame, shadow: Frame, space, vpn: int, cpu
    ) -> Tuple[bool, float]:
        """Folio remap-demotion: one PMD rewrite points the whole huge
        mapping back at the still-clean slow-tier shadow folio."""
        m = self.machine
        pt = space.page_table
        nr = master.nr_pages

        cycles = m.costs.migrate_setup
        old_flags, _old_gpfns = pt.get_and_clear_folio(vpn, nr)
        cycles += m.costs.pmd_update
        cycles += m.tlb_shootdown(space, vpn, cpu)

        drop = np.uint32(
            ~(PTE_PRESENT | PTE_SOFT_SHADOW_RW | PTE_ACCESSED | PTE_HUGE)
            & 0xFFFFFFFF
        )
        new_flags = old_flags & drop
        soft = (old_flags & np.uint32(PTE_SOFT_SHADOW_RW)) != 0
        new_flags = np.where(
            soft, new_flags | np.uint32(PTE_WRITE), new_flags
        ).astype(np.uint32)
        pt.map_folio(vpn, m.tiers.gpfn(shadow), new_flags)
        cycles += m.costs.pmd_update

        shadow.add_rmap(space, vpn)
        master.remove_rmap(space, vpn)
        m.lru.transfer(master, shadow)
        master.clear_flag(FrameFlags.REFERENCED | FrameFlags.ACTIVE)
        m.tiers.free_folio(master)
        cycles += m.costs.free_page

        cpu.account("demotion", cycles)
        m.stats.bump("nomad.remap_demotions")
        m.stats.bump("thp.folio_remap_demotions")
        m.stats.bump("migrate.demotions")
        if len(m.tiers.nodes) > 2:
            m.stats.bump(tier_migration_key("demote", shadow.node_id))
        return True, cycles

    # ------------------------------------------------------------------
    # Shadow reclamation (Section 3.2)
    # ------------------------------------------------------------------
    def reclaim_hint(self, node_id: int, target: int, cpu) -> Tuple[int, float]:
        # Shadows never live on tier 0 (masters promote *into* it); on
        # deeper chains each kswapd only reclaims shadows on its own node
        # so tier-1 pressure does not eat tier-2 shadows and vice versa.
        if node_id == 0:
            return 0, 0.0
        m = self.machine
        node_filter = node_id if len(m.tiers.nodes) > 2 else None
        freed, cycles = self.shadow_index.reclaim(target, node_id=node_filter)
        if cycles:
            cpu.account("reclaim", cycles)
        return freed, cycles

    def on_alloc_fail(self, tier: int, nr: int) -> int:
        freed, _cycles = self.shadow_index.reclaim(nr * self.alloc_fail_factor)
        if freed:
            self.machine.stats.bump("nomad.alloc_fail_reclaims")
        return freed

    # ------------------------------------------------------------------
    def on_frame_replaced(self, old: Frame, new: Frame) -> None:
        if old.shadowed:
            self.shadow_index.rekey(old, new)

    # ------------------------------------------------------------------
    def _sync_promote_with_shadow(self, frame: Frame, fault: Fault, cpu) -> float:
        """Shadowing-only ablation: synchronous promotion that still
        leaves a shadow copy behind."""
        m = self.machine
        if not frame.active:
            return 0.0
        # Guaranteed non-None: the hint-fault gate filters pages that
        # have no faster tier before this ablation path is reached.
        dst_tier = m.tiers.promotion_target(frame.node_id)
        mapping = frame.sole_mapping()
        if frame.is_huge or mapping is None or frame.locked:
            # Huge folios go through the stock sync path (no shadow is
            # left behind for them in this ablation).
            result = sync_migrate_page(m, frame, dst_tier, cpu, "promotion")
            return result.cycles

        space, vpn = mapping
        pt = space.page_table
        src_tier = frame.node_id
        new_frame = m.tiers.alloc_on(dst_tier)
        if new_frame is None:
            return 0.0
        costs = m.costs
        cycles = costs.migrate_setup + costs.alloc_page
        old_flags, old_gpfn = pt.unmap(vpn)
        cycles += costs.pte_update + m.tlb_shootdown(space, vpn, cpu)
        cycles += costs.page_copy_cycles(src_tier, dst_tier)
        new_flags = old_flags & ~(0x1 | PTE_PROT_NONE)
        if self.shadowing and new_flags & PTE_WRITE:
            new_flags = (new_flags & ~PTE_WRITE) | PTE_SOFT_SHADOW_RW
        pt.map(vpn, m.tiers.gpfn(new_frame), new_flags)
        cycles += costs.pte_update
        new_frame.add_rmap(space, vpn)
        frame.remove_rmap(space, vpn)
        m.lru.transfer(frame, new_frame)
        frame.clear_flag(FrameFlags.REFERENCED | FrameFlags.ACTIVE)
        if self.shadowing:
            # Shadow-chain aware: return value deliberately discarded so
            # the two-tier cycle accounting stays byte-identical (the
            # legacy path charged no queue_op here).
            self.migrator._shadow_after_commit(frame, new_frame)
        else:
            m.tiers.free_page(frame)
        m.stats.bump("migrate.promotions")
        if len(m.tiers.nodes) > 2:
            m.stats.bump(tier_migration_key("promote", dst_tier))
        cpu.account("promotion", cycles)
        return cycles
