"""Memtis internals: threshold sizing, margins, migration mechanics."""

import numpy as np

from repro.mem.frame import FrameFlags
from repro.policies.memtis import MemtisPolicy

from ..conftest import make_machine


def build(**kwargs):
    m = make_machine()
    kwargs.setdefault("sample_period", 1)
    kwargs.setdefault("llc_pages", 0)
    policy = MemtisPolicy(m, **kwargs)
    m.set_policy(policy)
    space = m.create_space()
    return m, policy, space


def seed_counts(policy, space, counts_by_vpn):
    counts, _touch, _llc = policy._state(space)
    for vpn, value in counts_by_vpn.items():
        counts[vpn] = value


def test_migrate_round_promotes_above_threshold_only():
    m, policy, space = build(min_hot_samples=3.0, promote_budget=64)
    vma = space.mmap(6)
    m.populate(space, vma.vpns(), 1)
    seed_counts(
        policy,
        space,
        {vma.start: 10.0, vma.start + 1: 5.0, vma.start + 2: 1.0},
    )
    policy._migrate_round()
    pt = space.page_table
    tiers = m.tiers.tier_of_gpfn[pt.gpfn[np.asarray(list(vma.vpns()))]]
    assert tiers[0] == 0
    assert tiers[1] == 0
    assert tiers[2] == 1  # below min_hot_samples
    assert (tiers[3:] == 1).all()  # never sampled


def test_promotion_margin_blocks_borderline_pages():
    m, policy, space = build(min_hot_samples=3.0, promotion_margin=5.0)
    vma = space.mmap(2)
    m.populate(space, vma.vpns(), 1)
    seed_counts(policy, space, {vma.start: 4.0, vma.start + 1: 9.0})
    policy._migrate_round()
    pt = space.page_table
    assert m.tiers.tier_of(int(pt.gpfn[vma.start])) == 1  # 4 < 3+5
    assert m.tiers.tier_of(int(pt.gpfn[vma.start + 1])) == 0  # 9 >= 8


def test_promote_budget_caps_per_round():
    m, policy, space = build(min_hot_samples=1.0, promote_budget=2)
    vma = space.mmap(8)
    m.populate(space, vma.vpns(), 1)
    seed_counts(policy, space, {v: 10.0 for v in vma.vpns()})
    policy._migrate_round()
    pt = space.page_table
    tiers = m.tiers.tier_of_gpfn[pt.gpfn[np.asarray(list(vma.vpns()))]]
    assert int((tiers == 0).sum()) == 2


def test_threshold_rises_with_occupancy():
    """When more hot pages exist than fast capacity, the kth-largest
    count gates promotion, not min_hot_samples."""
    m, policy, space = build(min_hot_samples=1.0, promote_budget=1000)
    capacity = m.tiers.fast.nr_pages
    vma = space.mmap(capacity + 64)
    m.populate(space, vma.vpns(), 1)
    # All pages sampled, with the last 64 clearly hotter.
    seed_counts(policy, space, {v: 2.0 for v in vma.vpns()})
    seed_counts(
        policy, space, {v: 50.0 for v in list(vma.vpns())[-64:]}
    )
    policy._migrate_round()
    pt = space.page_table
    hot_tiers = m.tiers.tier_of_gpfn[pt.gpfn[np.asarray(list(vma.vpns())[-64:])]]
    assert (hot_tiers == 0).all()


def test_migrate_vpn_skips_locked_frames():
    m, policy, space = build()
    vma = space.mmap(1)
    m.populate(space, [vma.start], 1)
    frame = m.tiers.frame(int(space.page_table.gpfn[vma.start]))
    frame.set_flag(FrameFlags.LOCKED)
    assert policy._migrate_vpn(space, vma.start, 0) == 0.0
    frame.clear_flag(FrameFlags.LOCKED)


def test_migrate_vpn_noop_for_unmapped():
    m, policy, space = build()
    vma = space.mmap(1)
    assert policy._migrate_vpn(space, vma.start, 0) == 0.0


def test_observer_ignores_foreign_space_after_free():
    """Samples for a space created later still work (lazy state)."""
    m, policy, space = build()
    other = m.create_space("other")
    vma = other.mmap(1)
    m.populate(other, [vma.start], 1)
    m.access.run_chunk(
        other,
        m.cpus.get("app0"),
        np.array([vma.start] * 50, dtype=np.int64),
        np.zeros(50, dtype=bool),
    )
    m.engine.run(until=200_000)
    assert policy._counts[other.asid][vma.start] > 0


def test_cooling_preserves_relative_order():
    m, policy, space = build(cooling_samples=5)
    vma = space.mmap(2)
    m.populate(space, vma.vpns(), 1)
    counts, _t, _l = policy._state(space)
    counts[vma.start] = 40.0
    counts[vma.start + 1] = 10.0
    policy._samples_since_cooling = 10  # force a cooling on next drain
    policy._buffer.append((space.asid, np.array([vma.start])))
    m.engine.run(until=200_000)
    assert counts[vma.start] > counts[vma.start + 1] > 0
