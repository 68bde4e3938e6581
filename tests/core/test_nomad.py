"""The Nomad policy: hint-fault pipeline, shadow faults, remap demotion,
shadow reclamation, ablation switches."""

import numpy as np
import pytest

from repro.core.nomad import NomadPolicy
from repro.core.queues import MigrationRequest
from repro.mem.frame import FrameFlags
from repro.mmu.faults import UnhandledFault
from repro.mmu.pte import PTE_ACCESSED, PTE_PROT_NONE, PTE_SOFT_SHADOW_RW

from ..conftest import make_machine


def build(machine=None, **policy_kwargs):
    m = machine or make_machine()
    policy = NomadPolicy(m, **policy_kwargs)
    m.set_policy(policy)
    space = m.create_space()
    return m, policy, space


def slow_page(m, space, n=1):
    vma = space.mmap(n)
    m.populate(space, vma.vpns(), 1)
    return list(vma.vpns())


def touch(m, space, vpns, write=False):
    vpns = np.asarray(vpns, dtype=np.int64)
    writes = np.full(len(vpns), write, dtype=bool)
    return m.access.run_chunk(space, m.cpus.get("app0"), vpns, writes)


def arm(space, vpn):
    space.page_table.set_flags(vpn, PTE_PROT_NONE)


def advance(m, dt=200_000.0):
    """Advance simulated time (daemons keep the event queue non-empty)."""
    m.engine.run(until=m.engine.now + dt)


def test_hint_fault_unprotects_without_migrating():
    m, policy, space = build()
    (vpn,) = slow_page(m, space)
    arm(space, vpn)
    result = touch(m, space, [vpn])
    assert result.faults == 1
    assert not space.page_table.is_prot_none(vpn)
    # No migration happened on the critical path.
    assert m.stats.get("migrate.promotions") == 0
    assert m.tiers.tier_of(int(space.page_table.gpfn[vpn])) == 1


def test_one_fault_per_migration():
    """The Figure-4 property: after one hint fault plus a hardware
    re-touch, kpromote promotes the page with no further faults."""
    m, policy, space = build()
    (vpn,) = slow_page(m, space)
    arm(space, vpn)
    touch(m, space, [vpn])  # the only fault: enters the PCQ
    advance(m)
    touch(m, space, [vpn])  # hardware re-touch, a chunk later: no fault
    # Another page's fault triggers the PCQ scan.
    (other,) = slow_page(m, space)
    arm(space, other)
    touch(m, space, [other])
    m.engine.run(until=m.engine.now + 10_000_000)
    assert m.stats.get("fault.hint") == 2  # one per page
    assert m.tiers.tier_of(int(space.page_table.gpfn[vpn])) == 0
    assert m.stats.get("nomad.tpm_commits") == 1


def test_untouched_candidate_is_not_promoted():
    m, policy, space = build()
    (vpn,) = slow_page(m, space)
    arm(space, vpn)
    touch(m, space, [vpn])  # the enqueueing fault is not reuse evidence
    advance(m)
    # Scan via another page's fault, with no re-touch of `vpn`.
    (other,) = slow_page(m, space)
    arm(space, other)
    touch(m, space, [other])
    m.engine.run(until=m.engine.now + 5_000_000)
    assert m.tiers.tier_of(int(space.page_table.gpfn[vpn])) == 1


def promote_page(m, policy, space, vpn):
    """Drive one page through the full Nomad promotion pipeline."""
    arm(space, vpn)
    touch(m, space, [vpn])
    advance(m)
    touch(m, space, [vpn])
    (helper,) = slow_page(m, space)
    arm(space, helper)
    touch(m, space, [helper])
    m.engine.run(until=m.engine.now + 10_000_000)
    assert m.tiers.tier_of(int(space.page_table.gpfn[vpn])) == 0


def test_shadow_fault_restores_write_and_discards_shadow():
    m, policy, space = build()
    (vpn,) = slow_page(m, space)
    promote_page(m, policy, space, vpn)
    pt = space.page_table
    assert not pt.is_writable(vpn)
    assert policy.shadow_index.nr_shadows == 1
    result = touch(m, space, [vpn], write=True)
    assert result.faults == 1
    assert pt.is_writable(vpn)
    assert not pt.test_flags(vpn, PTE_SOFT_SHADOW_RW)
    assert policy.shadow_index.nr_shadows == 0
    assert m.stats.get("nomad.shadow_faults") == 1


def test_reads_on_master_take_no_fault():
    m, policy, space = build()
    (vpn,) = slow_page(m, space)
    promote_page(m, policy, space, vpn)
    result = touch(m, space, [vpn] * 10)
    assert result.faults == 0


def test_wp_fault_on_unshadowed_readonly_page_raises():
    m, policy, space = build()
    vma = space.mmap(1)
    m.populate(space, [vma.start], 0, writable=False)
    with pytest.raises(UnhandledFault):
        touch(m, space, [vma.start], write=True)


def test_remap_demotion_needs_no_copy():
    m, policy, space = build()
    (vpn,) = slow_page(m, space)
    promote_page(m, policy, space, vpn)
    master = m.tiers.frame(int(space.page_table.gpfn[vpn]))
    copies_before = m.stats.get("migrate.sync_success")
    ok, cycles = policy.demote_page(master, m.cpus.get("kswapd0"))
    assert ok
    # Pure remap: no synchronous copy-migration happened.
    assert m.stats.get("migrate.sync_success") == copies_before
    assert m.stats.get("nomad.remap_demotions") == 1
    # Page is back on the slow tier with write permission restored.
    pt = space.page_table
    assert m.tiers.tier_of(int(pt.gpfn[vpn])) == 1
    assert pt.is_writable(vpn)
    # Cheaper than a copy demotion (which pays setup + allocation + the
    # page copy itself).
    copy_demotion = (
        m.costs.migrate_setup
        + m.costs.alloc_page
        + m.costs.page_copy_cycles(0, 1)
    )
    assert cycles < copy_demotion


def test_remap_demotion_frees_the_master_frame():
    m, policy, space = build()
    (vpn,) = slow_page(m, space)
    promote_page(m, policy, space, vpn)
    fast_free = m.tiers.fast.nr_free
    master = m.tiers.frame(int(space.page_table.gpfn[vpn]))
    policy.demote_page(master, m.cpus.get("kswapd0"))
    assert m.tiers.fast.nr_free == fast_free + 1
    assert policy.shadow_index.nr_shadows == 0


def test_demotion_of_unshadowed_page_copies():
    m, policy, space = build()
    vma = space.mmap(1)
    m.populate(space, [vma.start], 0)
    frame = m.tiers.frame(int(space.page_table.gpfn[vma.start]))
    ok, _ = policy.demote_page(frame, m.cpus.get("kswapd0"))
    assert ok
    assert m.stats.get("nomad.copy_demotions") == 1


def test_reclaim_hint_frees_shadows_on_slow_node():
    m, policy, space = build()
    vpns = slow_page(m, space, 3)
    for vpn in vpns:
        promote_page(m, policy, space, vpn)
    assert policy.shadow_index.nr_shadows == 3
    freed, cycles = policy.reclaim_hint(1, 2, m.cpus.get("kswapd1"))
    assert freed == 2
    assert policy.shadow_index.nr_shadows == 1
    # Fast node gets no shadow help (shadows live on the slow tier).
    assert policy.reclaim_hint(0, 2, m.cpus.get("kswapd0")) == (0, 0.0)


def test_alloc_fail_reclaims_10x():
    m, policy, space = build()
    vpns = slow_page(m, space, 15)
    for vpn in vpns:
        promote_page(m, policy, space, vpn)
    before = policy.shadow_index.nr_shadows
    assert before == 15
    freed = policy.on_alloc_fail(1, 1)
    assert freed == 10  # 10x the request (Section 3.2)
    assert policy.shadow_index.nr_shadows == before - 10


def test_on_frame_replaced_rekeys_shadow():
    m, policy, space = build()
    (vpn,) = slow_page(m, space)
    promote_page(m, policy, space, vpn)
    master = m.tiers.frame(int(space.page_table.gpfn[vpn]))
    shadow = policy.shadow_index.lookup(master)
    from repro.kernel.migrate import sync_migrate_page

    result = sync_migrate_page(m, master, 1, m.cpus.get("c"), "demotion")
    assert result.success
    assert policy.shadow_index.lookup(result.new_frame) is shadow


def test_multimapped_page_falls_back_to_sync():
    m, policy, space = build()
    other = m.create_space("other")
    (vpn,) = slow_page(m, space)
    gpfn = int(space.page_table.gpfn[vpn])
    frame = m.tiers.frame(gpfn)
    ovma = other.mmap(1)
    other.page_table.map(ovma.start, gpfn, 0)
    frame.add_rmap(other, ovma.start)

    arm(space, vpn)
    touch(m, space, [vpn])
    advance(m)
    touch(m, space, [vpn])
    (helper,) = slow_page(m, space)
    arm(space, helper)
    touch(m, space, [helper])
    m.engine.run(until=m.engine.now + 10_000_000)
    assert m.stats.get("nomad.sync_fallbacks") == 1
    assert m.stats.get("nomad.tpm_commits") == 0
    assert m.tiers.tier_of(int(space.page_table.gpfn[vpn])) == 0


def test_is_hot_reads_every_mapping_of_a_shared_base_frame():
    """A doubly-mapped base frame is hot when only its second mapping was
    touched after the threshold; a touch at exactly the threshold is
    not reuse."""
    m, policy, space = build()
    (vpn,) = slow_page(m, space)
    pt = space.page_table
    gpfn = int(pt.gpfn[vpn])
    frame = m.tiers.frame(gpfn)
    frame.set_flag(FrameFlags.REFERENCED)
    request = MigrationRequest(frame, space, vpn, frame.generation, enqueue_ts=1e6)
    threshold = request.enqueue_ts + policy._hot_gap

    # Sole mapping: accessed at exactly the threshold is not reuse.
    pt.set_flags(vpn, PTE_ACCESSED)
    pt.last_access[vpn] = threshold
    assert not policy._is_hot(request)
    pt.last_access[vpn] = threshold + 1.0
    assert policy._is_hot(request)
    pt.clear_flags(vpn, PTE_ACCESSED)
    assert not policy._is_hot(request)

    # Second mapping, touched after the threshold; the first is stale.
    other = m.create_space("other")
    ovma = other.mmap(1)
    other.page_table.map(ovma.start, gpfn, PTE_ACCESSED)
    frame.add_rmap(other, ovma.start)
    pt.set_flags(vpn, PTE_ACCESSED)
    pt.last_access[vpn] = threshold - 1.0
    other.page_table.last_access[ovma.start] = threshold
    assert not policy._is_hot(request)
    other.page_table.last_access[ovma.start] = threshold + 1.0
    assert policy._is_hot(request)
    # Cold frames skip the walk.
    frame.clear_flag(FrameFlags.REFERENCED | FrameFlags.ACTIVE)
    assert not policy._is_hot(request)


def test_shadowing_disabled_ablation():
    m, policy, space = build(shadowing=False)
    (vpn,) = slow_page(m, space)
    promote_page(m, policy, space, vpn)
    assert policy.shadow_index.nr_shadows == 0
    assert space.page_table.is_writable(vpn)


def test_tpm_disabled_ablation_promotes_synchronously():
    m, policy, space = build(tpm=False)
    (vpn,) = slow_page(m, space)
    gpfn = int(space.page_table.gpfn[vpn])
    frame = m.tiers.frame(gpfn)
    m.lru.force_activate(frame)
    arm(space, vpn)
    touch(m, space, [vpn])
    # Promotion happened inside the fault, no kpromote involved.
    assert m.tiers.tier_of(int(space.page_table.gpfn[vpn])) == 0
    assert m.stats.get("nomad.tpm_commits") == 0
    # Shadow still created by the shadow-aware sync path.
    assert policy.shadow_index.nr_shadows == 1
