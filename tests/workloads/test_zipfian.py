"""Zipfian micro-benchmark: layout fidelity and distribution shape."""

import numpy as np
import pytest

from repro.sim.platform import gb_to_pages
from repro.workloads import SCENARIOS, ZipfianMicrobench
from repro.workloads.base import ZipfGenerator

from ..conftest import make_machine


def test_zipf_generator_rank_zero_hottest():
    gen = ZipfGenerator(1000, theta=0.99, seed=1)
    ranks = gen.sample(50_000)
    counts = np.bincount(ranks, minlength=1000)
    assert counts[0] == counts.max()
    assert counts[0] > 5 * counts[500]


def test_zipf_generator_bounds():
    gen = ZipfGenerator(10, seed=2)
    ranks = gen.sample(10_000)
    assert ranks.min() >= 0
    assert ranks.max() < 10


def test_zipf_theta_zero_is_uniform():
    gen = ZipfGenerator(100, theta=0.0, seed=3)
    ranks = gen.sample(100_000)
    counts = np.bincount(ranks, minlength=100)
    assert counts.min() > 0.7 * counts.mean()


def test_zipf_probability_sums_to_one():
    gen = ZipfGenerator(50, theta=0.9)
    total = sum(gen.probability(r) for r in range(50))
    assert total == pytest.approx(1.0)


def test_zipf_invalid_args():
    with pytest.raises(ValueError):
        ZipfGenerator(0)
    with pytest.raises(ValueError):
        ZipfGenerator(10, theta=-1)


def test_scenarios_match_paper():
    assert SCENARIOS["small"] == (10.0, 20.0)
    assert SCENARIOS["medium"] == (13.5, 27.0)
    assert SCENARIOS["large"] == (27.0, 27.0)


def test_layout_small_scenario():
    """Section 4.1's small WSS: 10 GB prefill in fast, then the WSS fills
    the rest of fast and spills to slow."""
    m = make_machine(fast_gb=16.0, slow_gb=16.0)
    wl = ZipfianMicrobench(wss_gb=10.0, rss_gb=20.0, total_accesses=100)
    wl.bind(m)
    assert wl.prefill_pages == gb_to_pages(10.0)
    assert wl.wss_pages == gb_to_pages(10.0)
    pt = wl.space.page_table
    wss_vpns = np.arange(wl.prefill_pages, wl.prefill_pages + wl.wss_pages)
    tiers = m.tiers.tier_of_gpfn[pt.gpfn[wss_vpns]]
    on_fast = int((tiers == 0).sum())
    on_slow = int((tiers == 1).sum())
    # ~6 GB of WSS in fast, ~4 GB spilled (modulo the watermark reserve).
    assert on_slow >= gb_to_pages(4.0)
    assert on_fast + on_slow == wl.wss_pages
    assert on_fast > gb_to_pages(5.0)


def test_frequency_opt_places_hottest_in_fast():
    m = make_machine(fast_gb=1.0, slow_gb=1.0)
    wl = ZipfianMicrobench(
        wss_gb=2.0, rss_gb=2.0, placement="frequency-opt", total_accesses=100
    )
    wl.bind(m)
    pt = wl.space.page_table
    hottest = wl.hot_pages(50)
    tiers = m.tiers.tier_of_gpfn[pt.gpfn[hottest]]
    assert (tiers == 0).all()


def test_random_placement_mixes_tiers():
    m = make_machine(fast_gb=1.0, slow_gb=1.0)
    wl = ZipfianMicrobench(
        wss_gb=2.0, rss_gb=2.0, placement="random", total_accesses=100, seed=5
    )
    wl.bind(m)
    pt = wl.space.page_table
    hottest = wl.hot_pages(50)
    tiers = m.tiers.tier_of_gpfn[pt.gpfn[hottest]]
    assert (tiers == 0).any()
    assert (tiers == 1).any()


def test_accesses_stay_inside_wss():
    m = make_machine()
    wl = ZipfianMicrobench(wss_gb=0.5, rss_gb=1.0, total_accesses=2000)
    wl.bind(m)
    lo = wl.prefill_pages
    hi = lo + wl.wss_pages
    for vpns, writes in wl.chunks():
        assert vpns.min() >= lo
        assert vpns.max() < hi


def test_write_ratio_extremes():
    m = make_machine()
    wl = ZipfianMicrobench(wss_gb=0.5, rss_gb=0.5, write_ratio=1.0, total_accesses=256)
    wl.bind(m)
    _, writes = wl.generate(100)
    assert writes.all()
    wl2 = ZipfianMicrobench(wss_gb=0.5, rss_gb=0.5, write_ratio=0.0, total_accesses=256)
    m2 = make_machine()
    wl2.bind(m2)
    _, writes2 = wl2.generate(100)
    assert not writes2.any()


def test_seeded_determinism():
    def trace(seed):
        m = make_machine()
        wl = ZipfianMicrobench(
            wss_gb=0.5, rss_gb=0.5, total_accesses=500, seed=seed
        )
        wl.bind(m)
        return np.concatenate([v for v, _ in wl.chunks()])

    assert np.array_equal(trace(7), trace(7))
    assert not np.array_equal(trace(7), trace(8))


def test_invalid_parameters():
    with pytest.raises(ValueError):
        ZipfianMicrobench(wss_gb=10, rss_gb=5)
    with pytest.raises(ValueError):
        ZipfianMicrobench(write_ratio=1.5)
    with pytest.raises(ValueError):
        ZipfianMicrobench(placement="hottest-first")


def test_chunks_respect_total_accesses():
    m = make_machine()
    wl = ZipfianMicrobench(wss_gb=0.5, rss_gb=0.5, total_accesses=1000)
    wl.bind(m)
    total = sum(len(v) for v, _ in wl.chunks())
    assert total == 1000
