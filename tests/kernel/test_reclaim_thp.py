"""Reclaim and stock migration at folio granularity."""

from repro.core.nomad import NomadPolicy
from repro.kernel.migrate import sync_migrate_page
from repro.policies import make_policy

from ..conftest import make_machine


def thp_machine():
    return make_machine(thp_enabled=True, thp_order=4)


def map_fast_folio(m):
    space = m.create_space()
    vma = space.mmap(m.folio_pages, thp=True)
    m.populate(space, [vma.start], 0)
    head = m.tiers.frame(int(space.page_table.gpfn[vma.start]))
    return space, vma.start, head


def test_sync_migrate_moves_whole_folio():
    m = thp_machine()
    m.set_policy(make_policy("tpp", m))
    space, vpn, head = map_fast_folio(m)
    result = sync_migrate_page(
        m, head, 1, m.cpus.get("kswapd0"), category="demotion"
    )
    assert result.success
    pt = space.page_table
    for off in range(m.folio_pages):
        assert m.tiers.tier_of(int(pt.gpfn[vpn + off])) == 1
        assert pt.is_huge(vpn + off)
    assert m.tiers.fast.nr_free == m.tiers.fast.nr_pages
    assert m.stats.get("thp.folio_sync_migrations") == 1


def test_reclaim_splits_cold_folio_instead_of_demoting():
    m = thp_machine()
    policy = NomadPolicy(m)
    m.set_policy(policy)
    space, vpn, head = map_fast_folio(m)
    assert policy.wants_split(head)
    kswapd = m.kswapd[0]
    freed, _cycles, progressed = kswapd._reclaim_pass(
        m.folio_pages, priority=3
    )
    # The cold huge folio was split, not demoted wholesale: nothing
    # freed yet, but the pass made progress.
    assert m.stats.get("thp.folio_splits") == 1
    assert progressed
    pt = space.page_table
    assert not pt.is_huge(vpn)
    assert m.tiers.tier_of(int(pt.gpfn[vpn])) == 0
    # A follow-up pass can now demote the split base pages one by one.
    freed2, _c, _p = kswapd._reclaim_pass(m.folio_pages, priority=3)
    assert freed2 > 0


def test_tpp_reclaim_demotes_whole_folio():
    m = thp_machine()
    m.set_policy(make_policy("tpp", m))  # stock policy: no split hook
    space, vpn, head = map_fast_folio(m)
    kswapd = m.kswapd[0]
    freed, _cycles, _progressed = kswapd._reclaim_pass(
        m.folio_pages, priority=3
    )
    assert freed == m.folio_pages  # one demotion event frees 16 pages
    assert m.stats.get("migrate.demotions") == 1
    pt = space.page_table
    assert m.tiers.tier_of(int(pt.gpfn[vpn])) == 1
    assert pt.is_huge(vpn)


def test_numa_scanner_arms_folios_at_pmd_cost():
    m = thp_machine()
    m.set_policy(make_policy("tpp", m))
    space = m.create_space()
    fp = m.folio_pages
    vma = space.mmap(fp * 2, thp=True)
    m.populate(space, [vma.start, vma.start + fp], 1)
    base_vma = space.mmap(4)
    m.populate(space, base_vma.vpns(), 1)
    m.start_numa_scanner()
    m.engine.run(until=m.config.numa_scan_period * 40)
    assert m.stats.get("numa.folios_armed") >= 2
    pt = space.page_table
    # A whole folio is armed together: its sub-pages agree.
    armed = [
        pt.is_prot_none(vma.start + off) for off in range(fp)
    ]
    assert len(set(armed)) == 1
