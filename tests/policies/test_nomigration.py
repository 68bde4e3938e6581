"""The no-migration baseline."""

import numpy as np

from repro.policies import make_policy
from repro.policies.nomigration import NoMigrationPolicy

from ..conftest import make_machine


def test_pages_never_move():
    m = make_machine()
    m.set_policy(NoMigrationPolicy(m))
    space = m.create_space()
    vma = space.mmap(4)
    m.populate(space, list(vma.vpns())[:2], 0)
    m.populate(space, list(vma.vpns())[2:], 1)
    vpns = np.asarray(list(vma.vpns()) * 100, dtype=np.int64)
    m.access.run_chunk(space, m.cpus.get("app0"), vpns, np.zeros(len(vpns), bool))
    m.engine.run(until=10_000_000)
    assert m.stats.get("migrate.promotions") == 0
    assert m.stats.get("migrate.demotions") == 0
    assert m.stats.get("fault.hint") == 0


def test_demote_page_declines():
    m = make_machine()
    policy = NoMigrationPolicy(m)
    m.set_policy(policy)
    frame = m.tiers.alloc_on(0)
    assert policy.demote_page(frame, m.cpus.get("kswapd0")) == (False, 0.0)


def test_allocations_spill_when_fast_full():
    m = make_machine()
    m.set_policy(NoMigrationPolicy(m))
    space = m.create_space()
    vma = space.mmap(m.tiers.fast.nr_pages + 10)
    m.populate(space, vma.vpns(), 0)
    pt = space.page_table
    tiers = [m.tiers.tier_of(int(pt.gpfn[v])) for v in vma.vpns()]
    assert tiers.count(1) >= 10


def test_factory_registry():
    m = make_machine()
    policy = make_policy("no-migration", m)
    assert isinstance(policy, NoMigrationPolicy)
