"""Memtis: sampling, cooling, LLC filtering, background migration."""

import numpy as np
import pytest

from repro.policies.memtis import MemtisPolicy

from ..conftest import make_machine


def build(**kwargs):
    m = make_machine()
    kwargs.setdefault("sample_period", 5)
    kwargs.setdefault("llc_pages", 0)
    policy = MemtisPolicy(m, **kwargs)
    m.set_policy(policy)
    space = m.create_space()
    return m, policy, space


def touch_many(m, space, vpns, writes=None):
    vpns = np.asarray(vpns, dtype=np.int64)
    if writes is None:
        writes = np.zeros(len(vpns), dtype=bool)
    return m.access.run_chunk(space, m.cpus.get("app0"), vpns, writes)


def test_sampling_counts_accumulate():
    m, policy, space = build()
    vma = space.mmap(2)
    m.populate(space, vma.vpns(), 1)
    touch_many(m, space, [vma.start] * 50)
    m.engine.run(until=500_000)  # let ksampled drain
    counts = policy._counts[space.asid]
    assert counts[vma.start] >= 5  # ~50/5 samples
    assert m.stats.get("memtis.samples") >= 5


def test_sample_period_thins_samples():
    m, policy, space = build(sample_period=50)
    vma = space.mmap(1)
    m.populate(space, vma.vpns(), 1)
    touch_many(m, space, [vma.start] * 100)
    m.engine.run(until=500_000)
    assert m.stats.get("memtis.samples") <= 3


def test_cooling_halves_counts():
    m, policy, space = build(cooling_samples=10)
    vma = space.mmap(1)
    m.populate(space, vma.vpns(), 1)
    touch_many(m, space, [vma.start] * 300)
    m.engine.run(until=2_000_000)
    assert m.stats.get("memtis.coolings") >= 1


def test_llc_resident_pages_produce_few_samples():
    m, policy, space = build(llc_pages=1, llc_hit_rate=1.0, sample_period=3)
    vma = space.mmap(2)
    m.populate(space, vma.vpns(), 1)
    hot, cold = vma.start, vma.start + 1
    # Make `hot` clearly the most-touched page, refresh the LLC model,
    # then compare sampling rates (period 3 over an alternating pattern
    # samples both pages).
    touch_many(m, space, [hot] * 200 + [cold] * 10)
    m.engine.run(until=2_000_000)  # kmigrated refreshes the LLC set
    counts_before = policy._counts[space.asid].copy()
    touch_many(m, space, [hot, cold] * 150)
    m.engine.run(until=4_000_000)
    delta = policy._counts[space.asid] - counts_before
    # The cache-resident hot page is invisible; the cold one is sampled.
    assert delta[cold] > 0
    assert delta[hot] == 0


def test_cxl_read_invisibility():
    m, policy, space = build(cxl_reads_invisible=True, sample_period=1, seed=3)
    vma = space.mmap(2)
    m.populate(space, vma.vpns(), 1)
    reads = [vma.start] * 200
    writes_vpns = [vma.start + 1] * 200
    touch_many(m, space, reads)
    touch_many(m, space, writes_vpns, np.ones(200, dtype=bool))
    m.engine.run(until=2_000_000)
    counts = policy._counts[space.asid]
    # Store samples survive; slow-tier load samples mostly vanish.
    assert counts[vma.start + 1] > 2 * counts[vma.start]


def test_kmigrated_promotes_hot_pages():
    m, policy, space = build(min_hot_samples=1.0)
    vma = space.mmap(4)
    m.populate(space, vma.vpns(), 1)
    hot = vma.start
    for _ in range(10):
        touch_many(m, space, [hot] * 40)
        m.engine.run(until=m.engine.now + 300_000)
    assert m.tiers.tier_of(int(space.page_table.gpfn[hot])) == 0
    assert m.stats.get("memtis.promotions") >= 1


def test_cold_pages_demoted_to_make_room_for_hot():
    m, policy, space = build(min_hot_samples=1.0)
    # Fill fast with cold pages, put a hot page on slow.
    cold_vma = space.mmap(m.tiers.fast.nr_pages)
    m.populate(space, cold_vma.vpns(), 0)
    hot_vma = space.mmap(1)
    m.populate(space, hot_vma.vpns(), 1)
    for _ in range(10):
        touch_many(m, space, [hot_vma.start] * 40)
        m.engine.run(until=m.engine.now + 300_000)
    # Cold pages were demoted (by kmigrated or the kswapd valve) and the
    # hot page made it to the fast tier.
    assert m.stats.get("migrate.demotions") >= 1
    assert m.tiers.tier_of(int(space.page_table.gpfn[hot_vma.start])) == 0


def test_no_hint_faults_under_memtis():
    m, policy, space = build()
    vma = space.mmap(8)
    m.populate(space, vma.vpns(), 1)
    result = touch_many(m, space, list(vma.vpns()) * 5)
    assert result.faults == 0
    assert m.stats.get("fault.hint") == 0


def test_migration_runs_on_kmemtis_core():
    m, policy, space = build(min_hot_samples=1.0)
    vma = space.mmap(2)
    m.populate(space, vma.vpns(), 1)
    for _ in range(10):
        touch_many(m, space, [vma.start] * 40)
        m.engine.run(until=m.engine.now + 300_000)
    breakdown = m.stats.breakdown("kmemtis")
    assert breakdown.get("memtis_migrate", 0) > 0
    assert m.stats.breakdown("app0").get("memtis_migrate", 0) == 0


def test_invalid_sample_period():
    m = make_machine()
    with pytest.raises(ValueError):
        MemtisPolicy(m, sample_period=0)
