"""TPP: synchronous promotion, activation gating, retry storms."""

import numpy as np

from repro.mmu.pte import PTE_PROT_NONE
from repro.policies.tpp import TppPolicy

from ..conftest import make_machine


def build(**kwargs):
    m = make_machine()
    policy = TppPolicy(m, **kwargs)
    m.set_policy(policy)
    space = m.create_space()
    return m, policy, space


def slow_page(m, space):
    vma = space.mmap(1)
    m.populate(space, [vma.start], 1)
    return vma.start


def touch(m, space, vpn, write=False):
    return m.access.run_chunk(
        space,
        m.cpus.get("app0"),
        np.array([vpn], dtype=np.int64),
        np.array([write], dtype=bool),
    )


def arm(space, vpn):
    space.page_table.set_flags(vpn, PTE_PROT_NONE)


def test_hint_fault_unprotects():
    m, policy, space = build()
    vpn = slow_page(m, space)
    arm(space, vpn)
    result = touch(m, space, vpn)
    assert result.faults == 1
    assert not space.page_table.is_prot_none(vpn)
    assert m.stats.get("tpp.hint_faults") == 1


def test_first_fault_does_not_promote():
    m, policy, space = build()
    vpn = slow_page(m, space)
    arm(space, vpn)
    touch(m, space, vpn)
    assert m.tiers.tier_of(int(space.page_table.gpfn[vpn])) == 1


def test_active_page_promoted_synchronously():
    m, policy, space = build(hint_fault_latency_cycles=0.0)
    vpn = slow_page(m, space)
    frame = m.tiers.frame(int(space.page_table.gpfn[vpn]))
    m.lru.force_activate(frame)
    arm(space, vpn)
    result = touch(m, space, vpn)
    assert m.tiers.tier_of(int(space.page_table.gpfn[vpn])) == 0
    assert m.stats.get("tpp.promotions") == 1
    # The whole migration happened inside the fault, on the app's time.
    assert result.fault_cycles > m.costs.page_copy_cycles(1, 0)
    assert m.stats.breakdown("app0").get("promotion", 0) > 0


def test_low_fault_latency_promotes_without_activation():
    m, policy, space = build(hint_fault_latency_cycles=1e9)
    vpn = slow_page(m, space)
    arm(space, vpn)
    touch(m, space, vpn)  # first fault: records the timestamp
    arm(space, vpn)
    touch(m, space, vpn)  # second fault soon after: promote
    assert m.tiers.tier_of(int(space.page_table.gpfn[vpn])) == 0


def test_inactive_page_needs_up_to_pagevec_worth_of_faults():
    """With the latency path disabled, the Section-3.1 pathology: the
    page is re-armed and re-faulted until the pagevec drains."""
    m, policy, space = build(hint_fault_latency_cycles=0.0)
    vpn = slow_page(m, space)
    faults = 0
    while m.tiers.tier_of(int(space.page_table.gpfn[vpn])) == 1:
        arm(space, vpn)
        touch(m, space, vpn)
        faults += 1
        assert faults < 25, "page never promoted"
    assert faults >= 15  # referenced + 15-slot pagevec + promoting fault


def test_promotion_disabled():
    m, policy, space = build(promotion_enabled=False, hint_fault_latency_cycles=1e9)
    vpn = slow_page(m, space)
    for _ in range(5):
        arm(space, vpn)
        touch(m, space, vpn)
    assert m.tiers.tier_of(int(space.page_table.gpfn[vpn])) == 1


def test_retry_storm_on_full_fast_tier():
    m, policy, space = build(hint_fault_latency_cycles=1e9)
    vpn = slow_page(m, space)
    while m.tiers.fast.nr_free:
        m.tiers.alloc_on(0)
    arm(space, vpn)
    touch(m, space, vpn)
    arm(space, vpn)
    result = touch(m, space, vpn)
    assert m.stats.get("tpp.promotion_retry_storms") == 1
    # The storm burns app-side cycles: the kernel-CPU-burst pathology.
    assert result.fault_cycles > 9 * m.costs.migrate_setup


def test_demote_page_moves_to_slow():
    m, policy, space = build()
    vma = space.mmap(1)
    m.populate(space, [vma.start], 0)
    frame = m.tiers.frame(int(space.page_table.gpfn[vma.start]))
    ok, cycles = policy.demote_page(frame, m.cpus.get("kswapd0"))
    assert ok
    assert cycles > 0
    assert m.tiers.tier_of(int(space.page_table.gpfn[vma.start])) == 1
    assert m.stats.get("tpp.demotions") == 1


def test_demote_rejects_slow_page():
    m, policy, space = build()
    vpn = slow_page(m, space)
    frame = m.tiers.frame(int(space.page_table.gpfn[vpn]))
    assert policy.demote_page(frame, m.cpus.get("kswapd0")) == (False, 0.0)


def test_fast_tier_hint_fault_is_noop_promotion():
    m, policy, space = build()
    vma = space.mmap(1)
    m.populate(space, [vma.start], 0)
    arm(space, vma.start)  # should not normally happen; be robust
    touch(m, space, vma.start)
    assert m.stats.get("tpp.promotions") == 0
