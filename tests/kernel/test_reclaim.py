"""kswapd: watermark-driven reclaim with policy demotion."""

from repro.kernel.reclaim import MAX_RECLAIM_RETRIES
from repro.mem.tiers import FAST_TIER, SLOW_TIER
from repro.policies import make_policy
from repro.sim.bus import LowWatermark

from ..conftest import make_machine


def fill_fast_with_cold_pages(machine, space):
    """Map pages covering the whole fast tier (inactive, never accessed)."""
    vma = space.mmap(machine.tiers.fast.nr_pages)
    machine.populate(space, vma.vpns(), FAST_TIER)
    return vma


def kswapd_counts(machine):
    return tuple(
        machine.stats.get(f"kswapd.{name}")
        for name in ("passes", "gave_up", "backoffs")
    )


def full_fast_machine(policy, slow_free=None):
    """A full fast tier under ``policy``, with only the fast daemon live.

    ``slow_free`` exhausts the slow tier down to that many free frames
    (the frames are allocated but unmapped) and returns them for the
    test to free later. The slow-tier daemon is stopped so every kswapd
    counter belongs to the fast-tier daemon.
    """
    m = make_machine()
    m.set_policy(make_policy(policy, m))
    m.kswapd[SLOW_TIER].stop()
    fill_fast_with_cold_pages(m, m.create_space())
    held = []
    if slow_free is not None:
        while m.tiers.slow.nr_free > slow_free:
            held.append(m.tiers.alloc_on(SLOW_TIER))
    return m, m.kswapd[FAST_TIER], held


def test_kswapd_restores_high_watermark_with_tpp():
    m = make_machine()
    m.set_policy(make_policy("tpp", m))
    space = m.create_space()
    fill_fast_with_cold_pages(m, space)
    assert m.tiers.fast.nr_free == 0
    m.kswapd[FAST_TIER].wake()
    m.engine.run(until=50_000_000)
    assert m.tiers.fast.nr_free >= m.tiers.fast.wmark_high
    assert m.stats.get("migrate.demotions") > 0


def test_kswapd_noop_without_policy():
    m = make_machine()
    space = m.create_space()
    fill_fast_with_cold_pages(m, space)
    m.kswapd[FAST_TIER].wake()
    m.engine.run(until=10_000_000)
    assert m.tiers.fast.nr_free == 0


def test_kswapd_gives_up_when_slow_tier_full():
    m = make_machine()
    m.set_policy(make_policy("tpp", m))
    space = m.create_space()
    fill_fast_with_cold_pages(m, space)
    # Exhaust the slow tier so demotion cannot allocate.
    while m.tiers.slow.nr_free:
        m.tiers.alloc_on(SLOW_TIER)
    m.kswapd[FAST_TIER].wake()
    m.engine.run(until=30_000_000)
    assert m.stats.get("kswapd.gave_up") > 0


def test_reclaim_work_accounted_on_kswapd_cpu():
    m = make_machine()
    m.set_policy(make_policy("tpp", m))
    space = m.create_space()
    fill_fast_with_cold_pages(m, space)
    m.kswapd[FAST_TIER].wake()
    m.engine.run(until=50_000_000)
    breakdown = m.stats.breakdown("kswapd0")
    assert breakdown.get("reclaim", 0) > 0
    assert breakdown.get("demotion", 0) > 0
    # No user execution was charged to the application core (the only
    # app-core charge can be the NUMA scanner's task-context work).
    app = m.stats.breakdown("app0")
    assert set(app) <= {"numa_scan"}


def test_second_chance_protects_recently_accessed_pages():
    m = make_machine()
    m.set_policy(make_policy("tpp", m))
    space = m.create_space()
    vma = fill_fast_with_cold_pages(m, space)
    # Touch the first pages so their PTE accessed bits are set.
    import numpy as np

    hot = np.asarray(list(vma.vpns())[:8])
    m.access.run_chunk(
        space, m.cpus.get("app0"), hot, np.zeros(len(hot), dtype=bool)
    )
    m.kswapd[FAST_TIER].wake()
    m.engine.run(until=5_000_000)
    pt = space.page_table
    tiers = m.tiers
    still_fast = sum(
        1 for vpn in hot if tiers.tier_of(int(pt.gpfn[vpn])) == FAST_TIER
    )
    # The polite first passes demote cold pages, not the touched ones.
    assert still_fast == len(hot)


def test_low_watermark_allocation_wakes_kswapd():
    m = make_machine()
    m.set_policy(make_policy("tpp", m))
    space = m.create_space()
    fill_fast_with_cold_pages(m, space)
    # populate() used alloc_on which fires the hook; run the engine and
    # reclaim should happen without an explicit wake().
    m.engine.run(until=50_000_000)
    assert m.tiers.fast.nr_free > 0


# ----------------------------------------------------------------------
# Hopeless nodes (pgdat->kswapd_failures)
# ----------------------------------------------------------------------
def test_no_migration_full_fast_tier_parks_after_max_retries():
    m, daemon, _ = full_fast_machine("no-migration")
    m.obs.enable(sample_period=None)
    daemon.wake()
    m.engine.run(until=50_000_000)
    # 16 fruitless runs of 4 passes each, then the daemon parks for good.
    assert kswapd_counts(m) == (4 * MAX_RECLAIM_RETRIES, MAX_RECLAIM_RETRIES, 1)
    assert daemon.parked_at is not None
    assert daemon.failures == MAX_RECLAIM_RETRIES
    [backoff] = m.obs.select("reclaim.backoff")
    assert backoff.args == {"node": FAST_TIER, "failures": MAX_RECLAIM_RETRIES}
    m.engine.run(until=100_000_000)
    assert kswapd_counts(m) == (4 * MAX_RECLAIM_RETRIES, MAX_RECLAIM_RETRIES, 1)


def test_low_watermark_while_parked_runs_no_pass():
    m, daemon, _ = full_fast_machine("no-migration")
    daemon.wake()
    m.engine.run(until=50_000_000)
    assert daemon.parked_at is not None
    before = kswapd_counts(m)
    m.bus.publish(LowWatermark(FAST_TIER))
    daemon.wake()
    m.engine.run(until=60_000_000)
    assert kswapd_counts(m) == before
    assert daemon.parked_at is not None
    assert m.stats.get("kswapd.rearms") == 0


def test_slow_tier_free_rearms_a_hopeless_tpp_kswapd():
    m, daemon, held = full_fast_machine("tpp", slow_free=0)
    daemon.wake()
    m.engine.run(until=50_000_000)
    assert daemon.parked_at is not None
    assert m.stats.get("migrate.demotions") == 0
    # Room on the demotion target makes the node reclaimable again, but
    # the free alone wakes nobody: the next watermark wakeup re-arms.
    for frame in held[: 2 * m.tiers.fast.wmark_high]:
        m.tiers.free_page(frame)
    m.engine.run(until=55_000_000)
    assert daemon.parked_at is not None
    m.bus.publish(LowWatermark(FAST_TIER))
    m.engine.run(until=100_000_000)
    assert m.stats.get("kswapd.rearms") == 1
    assert daemon.parked_at is None and daemon.failures == 0
    assert m.stats.get("migrate.demotions") > 0
    assert m.tiers.fast.nr_free >= m.tiers.fast.wmark_high
    assert m.stats.get("kswapd.backoffs") == 1


def test_run_that_frees_a_page_resets_the_failure_count():
    m, daemon, _ = full_fast_machine("tpp")
    daemon.failures = MAX_RECLAIM_RETRIES - 1
    daemon.wake()
    m.engine.run(until=50_000_000)
    assert m.tiers.fast.nr_free >= m.tiers.fast.wmark_high
    assert daemon.failures == 0
    assert m.stats.get("kswapd.backoffs") == 0


def test_run_that_freed_pages_before_giving_up_is_no_failure():
    # Three free slow frames: the first run demotes three pages, then
    # gives up short of the high watermark.
    m, daemon, _ = full_fast_machine("tpp", slow_free=3)
    daemon.wake()
    while m.stats.get("kswapd.gave_up") < 1:
        m.engine.run(max_events=1)
    assert m.stats.get("migrate.demotions") == 3
    assert daemon.failures == 0
    # The next run frees nothing: that one counts.
    while m.stats.get("kswapd.gave_up") < 2:
        m.engine.run(max_events=1)
    assert daemon.failures == 1
    m.engine.run(until=100_000_000)
    assert kswapd_counts(m) == (
        5 + 4 * MAX_RECLAIM_RETRIES, 1 + MAX_RECLAIM_RETRIES, 1
    )


def test_new_policy_rearms_a_hopeless_kswapd():
    m, daemon, _ = full_fast_machine("no-migration")
    daemon.wake()
    m.engine.run(until=50_000_000)
    assert daemon.parked_at is not None
    m.clear_policy()
    m.set_policy(make_policy("tpp", m))
    assert daemon.parked_at is None and daemon.failures == 0
    m.engine.run(until=100_000_000)
    assert m.tiers.fast.nr_free >= m.tiers.fast.wmark_high
