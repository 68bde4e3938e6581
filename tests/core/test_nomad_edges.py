"""Nomad corner cases: queue pressure, slow-node reclaim integration,
interactions between shadowing and the stock kernel paths."""

import numpy as np

from repro.core.nomad import NomadPolicy
from repro.mem.frame import FrameFlags
from repro.mmu.pte import PTE_PROT_NONE

from ..conftest import make_machine


def build(**kwargs):
    m = make_machine(fast_gb=2.0, slow_gb=2.0)
    policy = NomadPolicy(m, **kwargs)
    m.set_policy(policy)
    space = m.create_space()
    return m, policy, space


def touch(m, space, vpns, write=False):
    arr = np.asarray(vpns, dtype=np.int64)
    return m.access.run_chunk(
        space, m.cpus.get("app0"), arr, np.full(len(arr), write, dtype=bool)
    )


def test_pcq_eviction_under_fault_flood():
    m, policy, space = build(pcq_capacity=8)
    vma = space.mmap(32)
    m.populate(space, vma.vpns(), 1)
    for vpn in vma.vpns():
        space.page_table.set_flags(vpn, PTE_PROT_NONE)
        touch(m, space, [vpn])
    # Capacity bound held: at most 8 candidates retained.
    assert len(policy.pcq) <= 8


def test_hint_fault_on_fast_page_is_cheap_noop():
    m, policy, space = build()
    vma = space.mmap(1)
    m.populate(space, [vma.start], 0)
    space.page_table.set_flags(vma.start, PTE_PROT_NONE)
    result = touch(m, space, [vma.start])
    assert result.faults == 1
    assert len(policy.pcq) == 0
    assert m.stats.get("migrate.promotions") == 0


def test_slow_node_pressure_reclaims_shadows_via_kswapd():
    """Fill the slow node until its watermark wakes kswapd; the policy's
    reclaim hint must free shadow pages."""
    m, policy, space = build()
    # Manufacture shadows directly through the index.
    masters, shadows = [], []
    for _ in range(12):
        master = m.tiers.alloc_on(0)
        shadow = m.tiers.alloc_on(1)
        policy.shadow_index.insert(master, shadow)
    # Drain the slow node below its low watermark.
    hold = []
    while m.tiers.slow.nr_free >= m.tiers.slow.wmark_low:
        hold.append(m.tiers.alloc_on(1))
    m.engine.run(until=5_000_000)
    assert m.stats.get("nomad.shadows_reclaimed") > 0
    assert policy.shadow_index.nr_shadows < 12


def test_remap_demote_declines_for_multimapped_master():
    m, policy, space = build()
    other = m.create_space("o")
    master = m.tiers.alloc_on(0)
    shadow = m.tiers.alloc_on(1)
    vma = space.mmap(1)
    ovma = other.mmap(1)
    gpfn = m.tiers.gpfn(master)
    space.page_table.map(vma.start, gpfn, 0)
    other.page_table.map(ovma.start, gpfn, 0)
    master.add_rmap(space, vma.start)
    master.add_rmap(other, ovma.start)
    policy.shadow_index.insert(master, shadow)
    ok, cycles = policy._remap_demote(master, m.cpus.get("kswapd0"))
    assert not ok
    # Shadow untouched.
    assert policy.shadow_index.lookup(master) is shadow


def test_remap_demote_declines_for_locked_master():
    m, policy, space = build()
    master = m.tiers.alloc_on(0)
    shadow = m.tiers.alloc_on(1)
    vma = space.mmap(1)
    space.page_table.map(vma.start, m.tiers.gpfn(master), 0)
    master.add_rmap(space, vma.start)
    policy.shadow_index.insert(master, shadow)
    master.set_flag(FrameFlags.LOCKED)
    ok, _ = policy.demote_page(master, m.cpus.get("kswapd0"))
    assert not ok
    master.clear_flag(FrameFlags.LOCKED)


def test_alloc_fail_with_no_shadows_returns_zero():
    m, policy, space = build()
    assert policy.on_alloc_fail(0, 1) == 0


def test_mpq_capacity_drops_excess_hot_pages():
    m, policy, space = build(mpq_capacity=2, pcq_capacity=64, pcq_scan_limit=64)
    vma = space.mmap(8)
    m.populate(space, vma.vpns(), 1)
    from repro.core.queues import MigrationRequest

    for vpn in vma.vpns():
        frame = m.tiers.frame(int(space.page_table.gpfn[vpn]))
        policy.mpq.push(MigrationRequest(frame, space, vpn, frame.generation))
    assert len(policy.mpq) == 2
    assert policy.mpq.dropped == 6


def test_shadowed_master_survives_kswapd_copy_demotion_path():
    """If stock migration demotes a shadowed master (e.g. via the Memtis
    valve or fallback), the shadow index follows the frame."""
    m, policy, space = build()
    master = m.tiers.alloc_on(0)
    shadow = m.tiers.alloc_on(1)
    vma = space.mmap(1)
    space.page_table.map(vma.start, m.tiers.gpfn(master), 0)
    master.add_rmap(space, vma.start)
    m.lru.add_new_page(master)
    policy.shadow_index.insert(master, shadow)

    from repro.kernel.migrate import sync_migrate_page

    result = sync_migrate_page(m, master, 1, m.cpus.get("c"), "demotion")
    assert result.success
    assert policy.shadow_index.lookup(result.new_frame) is shadow
    assert result.new_frame.shadowed
    assert not master.shadowed


def test_wp_fault_after_shadow_reclaim_does_not_fire():
    """Reclaiming a shadow restores the master's write permission, so
    no write-protect fault remains."""
    m, policy, space = build()
    from repro.mmu.pte import PTE_SOFT_SHADOW_RW

    master = m.tiers.alloc_on(0)
    shadow = m.tiers.alloc_on(1)
    vma = space.mmap(1)
    space.page_table.map(vma.start, m.tiers.gpfn(master), PTE_SOFT_SHADOW_RW)
    master.add_rmap(space, vma.start)
    policy.shadow_index.insert(master, shadow)
    policy.shadow_index.reclaim(1)
    result = touch(m, space, [vma.start], write=True)
    assert result.faults == 0
    assert space.page_table.is_dirty(vma.start)
