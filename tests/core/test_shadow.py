"""Shadow index: insert/discard/detach/rekey/reclaim and invariants."""

import pytest

from repro.core.shadow import ShadowIndex
from repro.mmu.pte import PTE_SOFT_SHADOW_RW
from repro.sim.costs import PAGE_SIZE

from ..conftest import make_machine


def make_pair(machine):
    """A fast master frame and a slow shadow frame."""
    master = machine.tiers.alloc_on(0)
    shadow = machine.tiers.alloc_on(1)
    return master, shadow


def test_insert_sets_flags_and_indexes():
    m = make_machine()
    index = ShadowIndex(m)
    master, shadow = make_pair(m)
    index.insert(master, shadow)
    assert master.shadowed
    assert shadow.is_shadow
    assert index.lookup(master) is shadow
    assert index.nr_shadows == 1
    assert index.shadow_bytes == PAGE_SIZE


def test_insert_rejects_mapped_shadow():
    m = make_machine()
    index = ShadowIndex(m)
    master, shadow = make_pair(m)
    space = m.create_space()
    shadow.add_rmap(space, 0)
    with pytest.raises(RuntimeError):
        index.insert(master, shadow)


def test_insert_rejects_double_shadowing():
    m = make_machine()
    index = ShadowIndex(m)
    master, shadow = make_pair(m)
    index.insert(master, shadow)
    other = m.tiers.alloc_on(1)
    with pytest.raises(RuntimeError):
        index.insert(master, other)


def test_discard_frees_shadow():
    m = make_machine()
    index = ShadowIndex(m)
    master, shadow = make_pair(m)
    free_before = m.tiers.slow.nr_free
    index.insert(master, shadow)
    returned = index.discard(master)
    assert returned is shadow
    assert not master.shadowed
    assert not shadow.is_shadow
    assert m.tiers.slow.nr_free == free_before + 1
    assert index.lookup(master) is None


def test_discard_without_shadow_is_none():
    m = make_machine()
    index = ShadowIndex(m)
    master, _ = make_pair(m)
    assert index.discard(master) is None


def test_detach_keeps_frame_allocated():
    m = make_machine()
    index = ShadowIndex(m)
    master, shadow = make_pair(m)
    index.insert(master, shadow)
    free_before = m.tiers.slow.nr_free
    returned = index.detach(master)
    assert returned is shadow
    assert m.tiers.slow.nr_free == free_before  # not freed
    assert not shadow.is_shadow
    assert index.nr_shadows == 0


def test_rekey_follows_master_migration():
    m = make_machine()
    index = ShadowIndex(m)
    master, shadow = make_pair(m)
    index.insert(master, shadow)
    new_master = m.tiers.alloc_on(0)
    index.rekey(master, new_master)
    assert not master.shadowed
    assert new_master.shadowed
    assert index.lookup(new_master) is shadow
    assert index.lookup(master) is None


def test_reclaim_frees_up_to_target():
    m = make_machine()
    index = ShadowIndex(m)
    pairs = [make_pair(m) for _ in range(5)]
    for master, shadow in pairs:
        index.insert(master, shadow)
    freed, cycles = index.reclaim(3)
    assert freed == 3
    assert cycles > 0
    assert index.nr_shadows == 2
    assert m.stats.get("nomad.shadows_reclaimed") == 3


def test_reclaim_stops_when_empty():
    m = make_machine()
    index = ShadowIndex(m)
    master, shadow = make_pair(m)
    index.insert(master, shadow)
    freed, _ = index.reclaim(10)
    assert freed == 1
    assert index.reclaim(10) == (0, 0.0)


def test_reclaim_restores_master_write_permission():
    m = make_machine()
    index = ShadowIndex(m)
    space = m.create_space()
    vma = space.mmap(1)
    master, shadow = make_pair(m)
    space.page_table.map(vma.start, m.tiers.gpfn(master), PTE_SOFT_SHADOW_RW)
    master.add_rmap(space, vma.start)
    index.insert(master, shadow)
    index.reclaim(1)
    # Without a shadow the master needs no write protection.
    assert space.page_table.is_writable(vma.start)
    assert not space.page_table.test_flags(vma.start, PTE_SOFT_SHADOW_RW)


def test_live_shadow_invariant_master_clean():
    """A live shadow implies its master has never been written: the
    master is read-only, so any store would have faulted and discarded
    the shadow first."""
    m = make_machine()
    index = ShadowIndex(m)
    space = m.create_space()
    vma = space.mmap(1)
    master, shadow = make_pair(m)
    space.page_table.map(vma.start, m.tiers.gpfn(master), PTE_SOFT_SHADOW_RW)
    master.add_rmap(space, vma.start)
    index.insert(master, shadow)
    assert not space.page_table.is_writable(vma.start)
    assert not space.page_table.is_dirty(vma.start)
