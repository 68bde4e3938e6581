"""Tier topology: chain validation, chain-walk allocation, tier names."""

import pytest

from repro.mem.tiers import TieredMemory
from repro.mem.topology import TierSpec, TierTopology


def spec(name, gb=0.25, lat=300.0, rd=12.0, wr=20.0):
    return TierSpec(name, gb, lat, rd, wr)


def three_chain():
    """A tiny DRAM/CXL/SSD-style chain: 64 pages per 0.25 GB tier."""
    return TierTopology(
        (
            spec("dram", lat=300.0),
            spec("cxl", lat=900.0, rd=4.0),
            spec("ssd", gb=1.0, lat=4500.0, rd=1.5, wr=1.0),
        )
    )


# ----------------------------------------------------------------------
# TierSpec / TierTopology validation
# ----------------------------------------------------------------------
def test_tier_spec_rejects_bad_figures():
    with pytest.raises(ValueError):
        spec("")
    with pytest.raises(ValueError):
        spec("t", gb=0.0)
    with pytest.raises(ValueError):
        spec("t", lat=-1.0)
    with pytest.raises(ValueError):
        spec("t", rd=0.0)
    with pytest.raises(ValueError):
        spec("t", wr=0.0)


def test_tier_spec_pages_uses_simulation_scale():
    from repro.sim.platform import gb_to_pages

    assert spec("t", gb=0.25).pages == gb_to_pages(0.25)
    assert spec("t", gb=1.0).pages == 4 * spec("t", gb=0.25).pages


def test_topology_needs_at_least_two_tiers():
    with pytest.raises(ValueError):
        TierTopology((spec("only"),))


def test_topology_rejects_duplicate_names():
    with pytest.raises(ValueError):
        TierTopology((spec("a"), spec("a", lat=900.0)))


def test_topology_rejects_latency_inversion():
    # A "slower" tier with lower load-to-use latency is a mis-ordered chain.
    with pytest.raises(ValueError):
        TierTopology((spec("a", lat=900.0), spec("b", lat=300.0)))


def test_topology_targets_walk_one_step():
    topo = three_chain()
    assert topo.nr_tiers == 3
    assert topo.bottom_tier == 2
    assert topo.promotion_target(0) is None
    assert topo.promotion_target(1) == 0
    assert topo.promotion_target(2) == 1
    assert topo.demotion_target(0) == 1
    assert topo.demotion_target(1) == 2
    assert topo.demotion_target(2) is None
    with pytest.raises(IndexError):
        topo.demotion_target(3)
    with pytest.raises(IndexError):
        topo.promotion_target(-1)


def test_topology_cost_vectors_are_per_tier():
    topo = three_chain()
    assert topo.read_latencies == (300.0, 900.0, 4500.0)
    assert topo.read_bandwidths == (12.0, 4.0, 1.5)
    assert topo.write_bandwidths == (20.0, 20.0, 1.0)


# ----------------------------------------------------------------------
# TieredMemory on a chain
# ----------------------------------------------------------------------
def test_fast_and_slow_name_tiers_0_and_1():
    # On a longer chain ``slow`` is the first capacity tier, not the bottom.
    tiers = TieredMemory(topology=three_chain())
    assert tiers.fast is tiers.nodes[0]
    assert tiers.slow is tiers.nodes[1]
    assert tiers.bottom_tier == 2


def test_two_tier_alloc_order_matches_historical_flip():
    tiers = TieredMemory(fast_pages=8, slow_pages=8)
    assert tiers.alloc_order(0) == (0, 1)
    assert tiers.alloc_order(1) == (1, 0)


def test_three_tier_alloc_order_walks_down_then_up():
    tiers = TieredMemory(topology=three_chain())
    assert tiers.nr_tiers == 3
    assert tiers.bottom_tier == 2
    assert tiers.alloc_order(0) == (0, 1, 2)
    assert tiers.alloc_order(1) == (1, 2, 0)
    assert tiers.alloc_order(2) == (2, 1, 0)


def test_three_tier_gpfn_addressing_is_cumulative():
    tiers = TieredMemory(topology=three_chain())
    sizes = [node.nr_pages for node in tiers.nodes]
    assert tiers.total_pages == sum(sizes)
    mid = tiers.alloc_on(1)
    bot = tiers.alloc_on(2)
    assert tiers.gpfn(mid) >= sizes[0]
    assert tiers.gpfn(bot) >= sizes[0] + sizes[1]
    assert tiers.tier_of(tiers.gpfn(mid)) == 1
    assert tiers.tier_of(tiers.gpfn(bot)) == 2
    assert tiers.frame(tiers.gpfn(bot)) is bot


def test_alloc_page_spills_down_the_whole_chain():
    tiers = TieredMemory(topology=three_chain())
    while tiers.nodes[0].nr_free:
        tiers.alloc_on(0)
    while tiers.nodes[1].nr_free:
        tiers.alloc_on(1)
    frame = tiers.alloc_page()
    assert frame.node_id == 2


def test_alloc_page_falls_back_up_from_the_bottom():
    tiers = TieredMemory(topology=three_chain())
    while tiers.nodes[2].nr_free:
        tiers.alloc_on(2)
    while tiers.nodes[1].nr_free:
        tiers.alloc_on(1)
    frame = tiers.alloc_page(preferred=2)
    assert frame.node_id == 0


def test_tiered_memory_demands_sizes_or_topology():
    with pytest.raises(ValueError):
        TieredMemory(fast_pages=8)


def test_usage_reports_per_tier_keys_only_on_deep_chains():
    two = TieredMemory(fast_pages=8, slow_pages=8)
    assert "tier2_used" not in two.usage()
    three = TieredMemory(topology=three_chain())
    three.alloc_on(2)
    usage = three.usage()
    # Legacy keys stay for the paper's fast/slow pair...
    assert usage["fast_used"] == 0
    assert usage["slow_used"] == 0
    # ...and the chain view names every tier.
    assert usage["tier0_used"] == 0
    assert usage["tier2_used"] == 1
    assert usage["tier2_free"] == three.nodes[2].nr_pages - 1
