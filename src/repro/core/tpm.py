"""Transactional page migration (TPM) -- Figure 3's eight-step protocol.

The migrating page stays mapped and accessible during the copy. The
transaction commits only if no store hit the page while it was being
copied; otherwise the original PTE is restored and the copy discarded.
The page is inaccessible only between the atomic ``get_and_clear``
(step 4) and the remap/restore (step 7/8) -- two PTE updates and one TLB
shootdown, not an entire page copy.

The migrator is written as a generator so the driving daemon
(:mod:`repro.core.kpromote`) advances simulation time between protocol
steps; application stores genuinely race with the copy window, and the
dirty check observes them exactly as the hardware dirty bit would.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

import numpy as np

from ..mem.frame import Frame, FrameFlags
from ..mmu.pte import (
    PTE_ACCESSED,
    PTE_DIRTY,
    PTE_HUGE,
    PTE_PRESENT,
    PTE_PROT_NONE,
    PTE_SOFT_SHADOW_RW,
    PTE_WRITE,
)
from ..obs.counters import tier_migration_key
from .queues import MigrationRequest
from .shadow import ShadowIndex

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.cpu import Cpu
    from ..system import Machine

__all__ = ["TpmOutcome", "TpmResult", "TransactionalMigrator"]


class TpmOutcome(enum.Enum):
    COMMITTED = "committed"
    ABORTED_DIRTY = "aborted_dirty"
    FAILED_NOMEM = "failed_nomem"
    FAILED_STALE = "failed_stale"
    FAILED_BUSY = "failed_busy"


@dataclass
class TpmResult:
    outcome: TpmOutcome
    cycles: float
    new_frame: Optional[Frame] = None

    @property
    def committed(self) -> bool:
        return self.outcome is TpmOutcome.COMMITTED


class TransactionalMigrator:
    """Executes TPM transactions for a machine.

    Promotion always targets the next-faster tier of the chain
    (``frame.node_id - 1``); a frame already on tier 0 fails validation
    as stale. On chains longer than two tiers a promoted master may
    *itself* still own a shadow one tier below its old home (a 2->1
    promotion leaves a shadow in tier 2; the master then climbs 1->0).
    ``shadow_chain`` picks what that second promotion does with the deep
    shadow:

    * ``"drop"`` (default): discard the deep shadow and shadow the
      master at the adjacent tier, exactly like a first promotion -- the
      chain never grows beyond one link;
    * ``"rekey"``: keep the deep shadow, re-keyed to the new master, and
      free the intermediate frame -- a later remap-demotion then drops
      the page straight back to the deep tier.
    """

    def __init__(
        self,
        machine: "Machine",
        shadow_index: Optional[ShadowIndex],
        shadowing: bool = True,
        shadow_chain: str = "drop",
    ) -> None:
        if shadow_chain not in ("drop", "rekey"):
            raise ValueError(
                f"shadow_chain must be 'drop' or 'rekey', got {shadow_chain!r}"
            )
        self.machine = machine
        self.shadow_index = shadow_index
        self.shadowing = shadowing and shadow_index is not None
        self.shadow_chain = shadow_chain

    def _shadow_after_commit(self, old_frame: Frame, new_frame: Frame) -> float:
        """Commit-time shadow bookkeeping; returns extra blocked cycles.

        ``old_frame`` (the source copy) normally becomes the shadow of
        ``new_frame``. When ``old_frame`` is itself a shadowed master
        (cross-chain case, >= 3 tiers) the ``shadow_chain`` knob decides
        between collapsing the chain and re-keying the deep shadow.
        """
        m = self.machine
        costs = m.costs
        if old_frame.shadowed and self.shadow_chain == "rekey":
            # Keep the deep shadow: re-key it to the new master and
            # retire the intermediate frame entirely.
            self.shadow_index.rekey(old_frame, new_frame)
            m.tiers.free_folio(old_frame)
            m.stats.bump("nomad.shadow_chain_rekeys")
            return costs.queue_op + costs.free_page
        blocked = 0.0
        if old_frame.shadowed:
            # Collapse the chain: the deep shadow dies, the adjacent
            # tier's copy takes over as the only shadow.
            self.shadow_index.discard(old_frame, reason="chain_drop")
            m.stats.bump("nomad.shadow_chain_drops")
            blocked += costs.free_page
        self.shadow_index.insert(new_frame, old_frame)
        return blocked + costs.queue_op

    # ------------------------------------------------------------------
    def migrate(self, request: MigrationRequest, cpu: "Cpu"):
        """Generator: run one transaction; returns a :class:`TpmResult`.

        Drive with ``result = yield from migrator.migrate(req, cpu)``.
        """
        if request.frame.is_huge:
            result = yield from self._migrate_folio(request, cpu)
            return result
        m = self.machine
        costs = m.costs
        frame = request.frame
        space = request.space
        vpn = request.vpn
        pt = space.page_table
        total = 0.0

        def spend(cycles: float, category: str = "tpm") -> float:
            nonlocal total
            total += cycles
            cpu.account(category, cycles)
            return cycles

        # -- validation ------------------------------------------------
        dst_tier = m.tiers.promotion_target(frame.node_id)
        if (
            frame.generation != request.generation
            or not frame.mapped
            or dst_tier is None
            or frame.sole_mapping() != (space, vpn)
        ):
            m.stats.bump("nomad.tpm_stale")
            return TpmResult(TpmOutcome.FAILED_STALE, total)
        if frame.locked:
            m.stats.bump("nomad.tpm_busy")
            return TpmResult(TpmOutcome.FAILED_BUSY, total)

        src_tier = frame.node_id
        frame.set_flag(FrameFlags.LOCKED)
        copy_cycles = costs.page_copy_cycles(src_tier, dst_tier)
        m.obs.emit("tpm.begin", vpn=vpn, attempt=request.attempts)
        try:
            yield spend(costs.migrate_setup)

            # Step 1: open the transaction -- clear the PTE dirty bit.
            t_open = m.engine.now
            pt.clear_flags(vpn, PTE_DIRTY)
            yield spend(costs.pte_update)

            # Step 2: TLB shootdown so subsequent stores re-set the bit.
            yield spend(m.tlb_shootdown(space, vpn, cpu))

            # Allocate the destination page one tier up the chain.
            new_frame = m.tiers.alloc_on(dst_tier)
            if new_frame is None:
                m.stats.bump("nomad.tpm_nomem")
                m.obs.emit(
                    "tpm.abort",
                    vpn=vpn,
                    reason="nomem",
                    copy_cycles=0.0,
                    total_cycles=total,
                )
                return TpmResult(TpmOutcome.FAILED_NOMEM, total)
            yield spend(costs.alloc_page)

            # Step 3: copy while the page remains mapped and accessible.
            yield spend(copy_cycles, "tpm_copy")

            # Steps 4-8 execute as one engine-atomic block: the window in
            # which the page is unmapped must not be visible to the
            # application process (in the kernel, a racing fault would
            # spin on the PTL / migration entry; here we simply do not
            # yield while the PTE is cleared). The costs of the block are
            # charged in a single final yield.

            # Step 4: atomic get_and_clear -- page becomes inaccessible.
            old_flags, old_gpfn = pt.get_and_clear(vpn)
            blocked = costs.pte_update

            # Step 5: second shootdown for the cleared PTE.
            blocked += m.tlb_shootdown(space, vpn, cpu)

            # Step 6: commit check -- was the page dirtied during copy?
            # The tpm.dirty injection site forces the abort path as if a
            # store had raced the copy; the injected dirt self-heals
            # because the retry's step 1 clears PTE_DIRTY again.
            dirtied = (
                bool(old_flags & PTE_DIRTY)
                or pt.written_since(vpn, t_open)
                or m.debug.should_fail("tpm.dirty")
            )

            if dirtied:
                # Step 8: abort -- restore the original PTE verbatim.
                pt.restore(vpn, old_flags | PTE_DIRTY, old_gpfn)
                blocked += costs.pte_update
                m.tiers.free_page(new_frame)
                blocked += costs.free_page
                m.stats.bump("nomad.tpm_aborts")
                yield spend(blocked)
                m.obs.emit(
                    "tpm.abort",
                    vpn=vpn,
                    reason="dirty",
                    copy_cycles=copy_cycles,
                    total_cycles=total,
                )
                return TpmResult(TpmOutcome.ABORTED_DIRTY, total)

            # Step 7: commit -- remap to the fast tier.
            new_gpfn = m.tiers.gpfn(new_frame)
            new_flags = old_flags & ~(PTE_PRESENT | PTE_DIRTY | PTE_PROT_NONE)
            if self.shadowing:
                # Master becomes read-only; true permission parks in the
                # shadow r/w soft bit (Figure 5).
                if new_flags & PTE_WRITE:
                    new_flags = (new_flags & ~PTE_WRITE) | PTE_SOFT_SHADOW_RW
            pt.map(vpn, new_gpfn, new_flags | PTE_ACCESSED)
            blocked += costs.pte_update

            new_frame.add_rmap(space, vpn)
            frame.remove_rmap(space, vpn)
            if frame.referenced:
                new_frame.set_flag(FrameFlags.REFERENCED)
            m.lru.transfer(frame, new_frame)
            frame.clear_flag(FrameFlags.REFERENCED | FrameFlags.ACTIVE)

            if self.shadowing:
                # The old frame lives on as the shadow copy (or the
                # shadow-chain knob resolves a deeper shadow first).
                frame.clear_flag(FrameFlags.LOCKED)
                blocked += self._shadow_after_commit(frame, new_frame)
            else:
                # TPM-only ablation: exclusive tiering, free the source.
                frame.clear_flag(FrameFlags.LOCKED)
                m.tiers.free_page(frame)
                blocked += costs.free_page

            m.stats.bump("nomad.tpm_commits")
            m.stats.bump("migrate.promotions")
            if len(m.tiers.nodes) > 2:
                m.stats.bump(tier_migration_key("promote", dst_tier))
            yield spend(blocked)
            m.obs.emit(
                "tpm.commit",
                vpn=vpn,
                copy_cycles=copy_cycles,
                total_cycles=total,
            )
            m.obs.observe("tpm.copy_cycles", copy_cycles)
            m.obs.observe("tpm.total_cycles", total)
            return TpmResult(TpmOutcome.COMMITTED, total, new_frame)
        finally:
            frame.clear_flag(FrameFlags.LOCKED)

    # ------------------------------------------------------------------
    def _migrate_folio(self, request: MigrationRequest, cpu: "Cpu"):
        """The huge-folio transaction: Nomad's chunked copy (Section 3.4).

        Same eight steps as the base protocol, at PMD granularity: one
        dirty-state clear, one shootdown of the single PMD TLB entry,
        then the copy proceeds in ``costs.thp_chunk_pages``-sized chunks
        with a dirty re-check after each. A store into *any* sub-page
        during the copy window is observed by the next chunk's re-check
        and aborts the transaction early -- the PMD was never cleared, so
        abort leaves the original mapping untouched. Only after the last
        chunk's re-check passes does the engine-atomic commit block run
        (clear, shoot down, remap), during which no application store can
        land; the defensive final dirty check there is unreachable from
        application races by construction.
        """
        m = self.machine
        costs = m.costs
        frame = request.frame  # folio head
        space = request.space
        vpn = request.vpn  # head vpn
        pt = space.page_table
        fp = frame.nr_pages
        total = 0.0

        def spend(cycles: float, category: str = "tpm") -> float:
            nonlocal total
            total += cycles
            cpu.account(category, cycles)
            return cycles

        # -- validation ------------------------------------------------
        dst_tier = m.tiers.promotion_target(frame.node_id)
        if (
            frame.generation != request.generation
            or not frame.mapped
            or dst_tier is None
            or frame.is_tail
            or frame.sole_mapping() != (space, vpn)
        ):
            m.stats.bump("nomad.tpm_stale")
            return TpmResult(TpmOutcome.FAILED_STALE, total)
        if frame.locked:
            m.stats.bump("nomad.tpm_busy")
            return TpmResult(TpmOutcome.FAILED_BUSY, total)

        src_tier = frame.node_id
        frame.set_flag(FrameFlags.LOCKED)
        chunk_sizes = costs.chunk_plan(fp)
        nr_chunks = len(chunk_sizes)
        copy_cycles = 0.0
        m.obs.emit("tpm.begin", vpn=vpn, attempt=request.attempts)
        try:
            yield spend(costs.migrate_setup)

            # Step 1: open the transaction -- clear the folio's dirty
            # state (one PMD-level operation).
            t_open = m.engine.now
            pt.clear_flags_range(vpn, fp, PTE_DIRTY)
            yield spend(costs.pmd_update)

            # Step 2: single shootdown of the PMD TLB entry.
            yield spend(m.tlb_shootdown(space, vpn, cpu))

            # Destination folio one tier up the chain.
            new_head = m.tiers.alloc_folio_on(dst_tier, frame.order)
            if new_head is None:
                m.stats.bump("nomad.tpm_nomem")
                m.obs.emit(
                    "tpm.abort",
                    vpn=vpn,
                    reason="nomem",
                    copy_cycles=0.0,
                    total_cycles=total,
                )
                return TpmResult(TpmOutcome.FAILED_NOMEM, total)
            yield spend(costs.alloc_page)

            # Step 3: chunked copy. The folio stays mapped throughout;
            # each chunk's re-check observes the dirty state exactly at
            # the end of its copy slice (no time passes between the copy
            # yield and the check).
            for i, pages in enumerate(chunk_sizes):
                c = costs.folio_copy_cycles(src_tier, dst_tier, pages)
                copy_cycles += c
                yield spend(c, "tpm_copy")
                dirty = (
                    pt.any_flags_range(vpn, fp, PTE_DIRTY)
                    or pt.written_since_range(vpn, fp, t_open)
                    or m.debug.should_fail("tpm.chunk_dirty")
                )
                m.obs.emit(
                    "tpm.chunk",
                    vpn=vpn,
                    chunk=i,
                    nr_chunks=nr_chunks,
                    dirty=dirty,
                )
                if dirty:
                    # Early abort: the PMD was never cleared, so the
                    # original mapping is intact -- just drop the copy.
                    m.tiers.free_folio(new_head)
                    m.stats.bump("nomad.tpm_aborts")
                    m.stats.bump("nomad.tpm_chunk_aborts")
                    yield spend(costs.thp_chunk_check + costs.free_page)
                    m.obs.emit(
                        "tpm.abort",
                        vpn=vpn,
                        reason="chunk_dirty",
                        copy_cycles=copy_cycles,
                        total_cycles=total,
                    )
                    return TpmResult(TpmOutcome.ABORTED_DIRTY, total)
                if i < nr_chunks - 1:
                    yield spend(costs.thp_chunk_check)
            # The last chunk's re-check cost is charged inside the
            # commit block so no yield separates check and commit.
            blocked = costs.thp_chunk_check

            # Steps 4-8, engine-atomic (see the base protocol above).

            # Step 4: atomic get_and_clear of the PMD.
            old_flags, old_gpfns = pt.get_and_clear_folio(vpn, fp)
            blocked += costs.pmd_update

            # Step 5: second shootdown for the cleared PMD.
            blocked += m.tlb_shootdown(space, vpn, cpu)

            # Step 6: defensive final dirty check. Application stores
            # cannot reach here (the last chunk re-check ran atomically
            # with this block), so this only guards protocol bugs.
            dirtied = bool(
                (old_flags & np.uint32(PTE_DIRTY)).any()
            ) or pt.written_since_range(vpn, fp, t_open)

            if dirtied:  # pragma: no cover - unreachable from app races
                pt.restore_folio(vpn, old_flags | np.uint32(PTE_DIRTY), old_gpfns)
                blocked += costs.pmd_update
                m.tiers.free_folio(new_head)
                blocked += costs.free_page
                m.stats.bump("nomad.tpm_aborts")
                yield spend(blocked)
                m.obs.emit(
                    "tpm.abort",
                    vpn=vpn,
                    reason="dirty",
                    copy_cycles=copy_cycles,
                    total_cycles=total,
                )
                return TpmResult(TpmOutcome.ABORTED_DIRTY, total)

            # Step 7: commit -- remap the whole folio to the fast tier.
            new_flags = old_flags & np.uint32(
                ~(PTE_PRESENT | PTE_DIRTY | PTE_PROT_NONE | PTE_HUGE)
                & 0xFFFFFFFF
            )
            if self.shadowing:
                # The whole folio's master becomes read-only; the first
                # sub-page store collapses the shadow (handle_wp_fault).
                writable = (new_flags & np.uint32(PTE_WRITE)) != 0
                new_flags = np.where(
                    writable,
                    (new_flags & np.uint32(~PTE_WRITE & 0xFFFFFFFF))
                    | np.uint32(PTE_SOFT_SHADOW_RW),
                    new_flags,
                ).astype(np.uint32)
            pt.map_folio(vpn, m.tiers.gpfn(new_head), new_flags | np.uint32(PTE_ACCESSED))
            blocked += costs.pmd_update

            new_head.add_rmap(space, vpn)
            frame.remove_rmap(space, vpn)
            if frame.referenced:
                new_head.set_flag(FrameFlags.REFERENCED)
            m.lru.transfer(frame, new_head)
            frame.clear_flag(FrameFlags.REFERENCED | FrameFlags.ACTIVE)

            if self.shadowing:
                # The whole source folio lives on as the shadow copy (or
                # the shadow-chain knob resolves a deeper shadow first).
                frame.clear_flag(FrameFlags.LOCKED)
                blocked += self._shadow_after_commit(frame, new_head)
            else:
                frame.clear_flag(FrameFlags.LOCKED)
                m.tiers.free_folio(frame)
                blocked += costs.free_page

            m.stats.bump("nomad.tpm_commits")
            m.stats.bump("thp.folio_promotions")
            m.stats.bump("migrate.promotions")
            if len(m.tiers.nodes) > 2:
                m.stats.bump(tier_migration_key("promote", dst_tier))
            yield spend(blocked)
            m.obs.emit(
                "tpm.commit",
                vpn=vpn,
                copy_cycles=copy_cycles,
                total_cycles=total,
            )
            m.obs.observe("tpm.copy_cycles", copy_cycles)
            m.obs.observe("tpm.total_cycles", total)
            return TpmResult(TpmOutcome.COMMITTED, total, new_head)
        finally:
            frame.clear_flag(FrameFlags.LOCKED)
