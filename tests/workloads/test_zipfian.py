"""Zipfian micro-benchmark: layout fidelity and distribution shape."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.platform import gb_to_pages
from repro.workloads import (
    SCENARIOS,
    YCSB_CASES,
    PointerChase,
    YcsbWorkload,
    ZipfianMicrobench,
)
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


class _Keys:
    """Stands in for a generator's RNG: hands out fixed keys."""

    def __init__(self, keys):
        self.keys = keys

    def random(self, size):
        assert size == len(self.keys)
        return self.keys


def _assert_sampler_exact(gen, seed, size):
    """``gen`` (seeded ``seed``) draws searchsorted's ranks, for random
    keys and for the keys at and next to every CDF point and, with a
    guide table, every bucket edge."""
    cdf = gen._cdf
    keys = np.random.default_rng(seed).random(size)
    np.testing.assert_array_equal(
        gen.sample(size), np.searchsorted(cdf, keys, side="left")
    )
    edges = [cdf]
    if gen._guide is not None:
        edges.append(np.arange(len(gen._guide)) / len(gen._guide))
    edges = np.concatenate(edges)
    keys = np.concatenate(
        [edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)]
    )
    keys = keys[(keys >= 0.0) & (keys < 1.0)]
    gen._rng = _Keys(keys)
    np.testing.assert_array_equal(
        gen.sample(len(keys)), np.searchsorted(cdf, keys, side="left")
    )


def _workload_distributions():
    """Every (n, theta) a shipped workload samples from."""
    theta = ZipfianMicrobench().theta
    for wss_gb, _ in SCENARIOS.values():
        yield gb_to_pages(wss_gb), theta
    for case in YCSB_CASES:
        wl = YcsbWorkload.case(case)
        yield wl.layout.nr_records, wl.theta
    # Figure 10's WSS sweep (fig10_pointer_chase's default wss_blocks).
    for blocks in (8, 12, 16, 20, 24):
        yield blocks, PointerChase(nr_blocks=blocks).theta


@pytest.mark.parametrize("n, theta", sorted(set(_workload_distributions())))
def test_guide_table_sampler_equals_searchsorted(n, theta):
    gen = ZipfGenerator(n, theta, seed=5)
    assert gen._guide is not None
    # The smallest grid: at half the buckets two CDF points would share one.
    m = len(gen._guide)
    if m > 1:
        shared = np.bincount((gen._cdf * (m // 2)).astype(np.int64))
        assert shared.max() > 1
    _assert_sampler_exact(gen, 5, 50_000)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5000),
    theta=st.floats(min_value=0.0, max_value=3.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sampler_equals_searchsorted_for_any_distribution(n, theta, seed):
    """With or without a guide table."""
    _assert_sampler_exact(ZipfGenerator(n, theta, seed), seed, 2000)


def test_sampler_falls_back_to_searchsorted_without_a_guide_table():
    """Its tail points lie closer together than 2**-20, so two of them
    share a bucket on every grid up to 2**20 buckets: the generator
    searches the CDF instead."""
    gen = ZipfGenerator(5000, theta=2.0, seed=3)
    assert gen._guide is None
    _assert_sampler_exact(gen, 3, 20_000)


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


@pytest.mark.parametrize("write_ratio", [0.0, 0.5, 1.0])
def test_chunks_equal_per_chunk_generate(write_ratio):
    """chunks() draws 32 chunks per generate() call, the last call
    short; a same-seeded twin calling generate() once per chunk sees
    the same chunks, the partial tail included."""

    def bound():
        wl = ZipfianMicrobench(
            wss_gb=0.5,
            rss_gb=0.5,
            write_ratio=write_ratio,
            total_accesses=100 * 64 + 37,
            seed=9,
        )
        wl.bind(make_machine(chunk_size=64))
        return wl

    batched, twin = bound(), bound()
    calls = []
    generate = batched.generate

    def spy(n):
        calls.append(n)
        return generate(n)

    batched.generate = spy
    chunks = list(batched.chunks())
    assert calls == [32 * 64] * 3 + [4 * 64 + 37]
    assert [len(v) for v, _ in chunks] == [64] * 100 + [37]
    for vpns, writes in chunks:
        ref_vpns, ref_writes = twin.generate(len(vpns))
        np.testing.assert_array_equal(vpns, ref_vpns)
        np.testing.assert_array_equal(writes, ref_writes)
