"""Nomad at folio granularity: PMD hint faults, daemon-side candidate
scanning, whole-folio shadows, first-store shadow collapse, free remap
demotion of shadowed folios."""

import numpy as np

from repro.core.nomad import NomadPolicy
from repro.mmu.pte import PTE_PROT_NONE, PTE_SOFT_SHADOW_RW

from ..conftest import make_machine


def build(**policy_kwargs):
    m = make_machine(thp_enabled=True, thp_order=4)
    policy = NomadPolicy(m, **policy_kwargs)
    m.set_policy(policy)
    space = m.create_space()
    return m, policy, space


def slow_folio(m, space):
    vma = space.mmap(m.folio_pages, thp=True)
    m.populate(space, [vma.start], 1)
    return vma.start


def touch(m, space, vpns, write=False):
    vpns = np.asarray(vpns, dtype=np.int64)
    writes = np.full(len(vpns), write, dtype=bool)
    return m.access.run_chunk(space, m.cpus.get("app0"), vpns, writes)


def arm_folio(m, space, head_vpn):
    space.page_table.set_flags_range(head_vpn, m.folio_pages, PTE_PROT_NONE)


def advance(m, dt=200_000.0):
    m.engine.run(until=m.engine.now + dt)


def folio_tiers(m, space, head_vpn):
    pt = space.page_table
    return {
        m.tiers.tier_of(int(pt.gpfn[head_vpn + off]))
        for off in range(m.folio_pages)
    }


def test_daemon_candidate_scan_installed_only_on_folio_machines():
    m, policy, _space = build()
    assert policy.kpromote.candidate_scan is not None
    base = make_machine()
    base_policy = NomadPolicy(base)
    assert base_policy.kpromote.candidate_scan is None


def test_folio_hint_fault_disarms_whole_block_without_migrating():
    m, policy, space = build()
    head = slow_folio(m, space)
    arm_folio(m, space, head)
    result = touch(m, space, [head + 7])  # any sub-page
    assert result.faults == 1
    pt = space.page_table
    for off in range(m.folio_pages):
        assert not pt.is_prot_none(head + off)
    assert m.stats.get("migrate.promotions") == 0
    assert folio_tiers(m, space, head) == {1}


def promote_folio(m, policy, space, head):
    """Drive one folio through the Nomad pipeline: hint fault, hardware
    re-touch, then a helper fault to wake the scanning daemon."""
    arm_folio(m, space, head)
    touch(m, space, [head])
    advance(m)
    touch(m, space, [head])  # re-touch: accessed-bit evidence, no fault
    helper = slow_folio(m, space)
    arm_folio(m, space, helper)
    touch(m, space, [helper])
    m.engine.run(until=m.engine.now + 20_000_000)
    assert folio_tiers(m, space, head) == {0}


def test_one_fault_per_folio_migration():
    m, policy, space = build()
    head = slow_folio(m, space)
    promote_folio(m, policy, space, head)
    assert m.stats.get("fault.hint") == 2  # one per folio, helper included
    assert m.stats.get("nomad.tpm_commits") == 1
    assert m.stats.get("thp.folio_promotions") == 1
    # The whole slow folio lives on as one shadow.
    assert policy.shadow_index.nr_shadow_pages == m.folio_pages


def test_first_subpage_store_collapses_the_folio_shadow():
    m, policy, space = build()
    head = slow_folio(m, space)
    promote_folio(m, policy, space, head)
    pt = space.page_table
    assert not pt.is_writable(head)
    result = touch(m, space, [head + 5], write=True)
    assert result.faults == 1
    # One fault restores write permission to every sub-page.
    for off in range(m.folio_pages):
        assert pt.is_writable(head + off)
        assert not pt.test_flags(head + off, PTE_SOFT_SHADOW_RW)
    assert policy.shadow_index.nr_shadows == 0
    assert m.stats.get("thp.shadow_collapses") == 1
    # Later stores to other sub-pages fault no further.
    assert touch(m, space, [head + 11], write=True).faults == 0


def test_shadowed_folio_demotes_by_remap_without_copy():
    m, policy, space = build()
    head = slow_folio(m, space)
    promote_folio(m, policy, space, head)
    master = m.tiers.frame(int(space.page_table.gpfn[head]))
    fast_free = m.tiers.fast.nr_free
    ok, cycles = policy.demote_page(master, m.cpus.get("kswapd0"))
    assert ok
    assert folio_tiers(m, space, head) == {1}
    pt = space.page_table
    for off in range(m.folio_pages):
        assert pt.is_huge(head + off)
        assert pt.is_writable(head + off)  # soft r/w restored
    assert m.stats.get("thp.folio_remap_demotions") == 1
    # The fast folio was freed; no page copy was charged.
    assert m.tiers.fast.nr_free == fast_free + m.folio_pages
    assert policy.shadow_index.nr_shadows == 0


def test_wants_split_only_for_unshadowed_huge_frames():
    m, policy, space = build()
    head = slow_folio(m, space)
    frame = m.tiers.frame(int(space.page_table.gpfn[head]))
    assert policy.wants_split(frame)
    promote_folio(m, policy, space, head)
    master = m.tiers.frame(int(space.page_table.gpfn[head]))
    assert master.shadowed
    assert not policy.wants_split(master)  # remap demotion is free
    vma = space.mmap(1)
    m.populate(space, [vma.start], 1)
    base = m.tiers.frame(int(space.page_table.gpfn[vma.start]))
    assert not policy.wants_split(base)
