"""Synchronous migration: the unmap-copy-remap pipeline."""

import pytest

from repro.kernel.migrate import MAX_RETRIES, sync_migrate_page
from repro.mem.frame import FrameFlags
from repro.mmu.pte import PTE_ACCESSED, PTE_DIRTY, PTE_WRITE

from ..conftest import make_machine


def setup_page(machine, tier=1, flags_extra=0):
    space = machine.create_space()
    vma = space.mmap(4)
    machine.populate(space, [vma.start], tier)
    if flags_extra:
        space.page_table.set_flags(vma.start, flags_extra)
    gpfn = int(space.page_table.gpfn[vma.start])
    return space, vma.start, machine.tiers.frame(gpfn)


def test_successful_promotion_moves_frame():
    m = make_machine()
    space, vpn, frame = setup_page(m, 1)
    cpu = m.cpus.get("kswapd0")
    result = sync_migrate_page(m, frame, 0, cpu, "promotion")
    assert result.success
    new_gpfn = int(space.page_table.gpfn[vpn])
    assert m.tiers.tier_of(new_gpfn) == 0
    assert result.new_frame.mapcount == 1
    # Old frame freed back to the slow node.
    assert m.tiers.slow.nr_free == m.tiers.slow.nr_pages


def test_migration_preserves_permissions_and_bits():
    m = make_machine()
    space, vpn, frame = setup_page(m, 1, PTE_ACCESSED | PTE_DIRTY)
    assert space.page_table.is_writable(vpn)
    result = sync_migrate_page(m, frame, 0, m.cpus.get("c"), "promotion")
    assert result.success
    assert space.page_table.is_writable(vpn)
    assert space.page_table.is_accessed(vpn)
    assert space.page_table.is_dirty(vpn)


def test_migration_transfers_lru_membership():
    m = make_machine()
    space, vpn, frame = setup_page(m, 1)
    m.lru.force_activate(frame)
    result = sync_migrate_page(m, frame, 0, m.cpus.get("c"), "promotion")
    assert result.new_frame.on_lru
    assert result.new_frame.active
    assert not frame.on_lru


def test_locked_page_fails_after_retries():
    m = make_machine()
    space, vpn, frame = setup_page(m)
    frame.set_flag(FrameFlags.LOCKED)
    result = sync_migrate_page(m, frame, 0, m.cpus.get("c"), "promotion")
    assert not result.success
    assert result.reason == "busy"
    assert result.retries == MAX_RETRIES
    # Page untouched.
    assert space.page_table.is_present(vpn)


def test_unmapped_page_fails():
    m = make_machine()
    frame = m.tiers.alloc_on(1)
    result = sync_migrate_page(m, frame, 0, m.cpus.get("c"), "promotion")
    assert not result.success
    assert result.reason == "unmapped"


def test_full_destination_fails_gracefully():
    m = make_machine()
    space, vpn, frame = setup_page(m, 1)
    while m.tiers.fast.nr_free:
        m.tiers.alloc_on(0)
    result = sync_migrate_page(m, frame, 0, m.cpus.get("c"), "promotion")
    assert not result.success
    assert result.reason == "nomem"
    assert space.page_table.is_present(vpn)
    assert not frame.locked


def test_migration_shoots_down_tlbs():
    m = make_machine()
    space, vpn, frame = setup_page(m, 1)
    m.tlb_directory.note_access("app0", space.asid, vpn)
    before = m.stats.get("tlb.shootdowns")
    sync_migrate_page(m, frame, 0, m.cpus.get("c"), "promotion")
    assert m.stats.get("tlb.shootdowns") == before + 1
    assert m.tlb_directory.holders(space.asid, vpn) == set()


def test_multi_mapped_page_migrates_all_mappings():
    m = make_machine()
    space_a = m.create_space("a")
    space_b = m.create_space("b")
    vma_a = space_a.mmap(1)
    m.populate(space_a, [vma_a.start], 1)
    gpfn = int(space_a.page_table.gpfn[vma_a.start])
    frame = m.tiers.frame(gpfn)
    vma_b = space_b.mmap(1)
    space_b.page_table.map(vma_b.start, gpfn, PTE_WRITE)
    frame.add_rmap(space_b, vma_b.start)

    result = sync_migrate_page(m, frame, 0, m.cpus.get("c"), "promotion")
    assert result.success
    new_gpfn = m.tiers.gpfn(result.new_frame)
    assert int(space_a.page_table.gpfn[vma_a.start]) == new_gpfn
    assert int(space_b.page_table.gpfn[vma_b.start]) == new_gpfn
    assert result.new_frame.mapcount == 2


def test_counters_updated():
    m = make_machine()
    _, _, frame = setup_page(m, 1)
    sync_migrate_page(m, frame, 0, m.cpus.get("c"), "promotion")
    assert m.stats.get("migrate.promotions") == 1
    assert m.stats.get("migrate.sync_success") == 1
    _, _, frame2 = setup_page(m, 0)
    sync_migrate_page(m, frame2, 1, m.cpus.get("c"), "demotion")
    assert m.stats.get("migrate.demotions") == 1


def test_cycles_accounted_to_category():
    m = make_machine()
    _, _, frame = setup_page(m, 1)
    cpu = m.cpus.get("worker")
    result = sync_migrate_page(m, frame, 0, cpu, "promotion")
    assert m.stats.breakdown("worker")["promotion"] == pytest.approx(result.cycles)
    # Copy dominates: at least the raw page-copy cost is included.
    assert result.cycles > m.costs.page_copy_cycles(1, 0)
