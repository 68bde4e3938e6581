"""Application workload models: YCSB/KV store, PageRank, Liblinear,
sequential scan, pointer chase."""

import numpy as np
import pytest

from repro.sim.platform import gb_to_pages
from repro.workloads import (
    KvStoreLayout,
    LiblinearWorkload,
    PageRankWorkload,
    PointerChase,
    SeqScanWorkload,
    YcsbWorkload,
)

from ..conftest import make_machine


# ----------------------------------------------------------------------
# KV store layout
# ----------------------------------------------------------------------
def test_kv_layout_sizing():
    layout = KvStoreLayout.for_rss_gb(2.0)
    assert abs(layout.total_pages - gb_to_pages(2.0)) <= 2
    assert layout.index_pages >= 1
    assert layout.value_pages > layout.index_pages


def test_kv_layout_page_mapping_in_bounds():
    layout = KvStoreLayout(nr_records=1000)
    keys = np.arange(1000)
    index_vpns, value_vpns = layout.pages_for_keys(keys, 100, 200)
    assert index_vpns.min() >= 100
    assert index_vpns.max() < 100 + layout.index_pages
    assert value_vpns.min() >= 200
    assert value_vpns.max() < 200 + layout.value_pages


def test_kv_layout_records_share_pages():
    layout = KvStoreLayout(nr_records=100, records_per_page=2)
    keys = np.array([0, 1, 2, 3])
    _, value_vpns = layout.pages_for_keys(keys, 0, 0)
    assert value_vpns[0] == value_vpns[1]
    assert value_vpns[2] == value_vpns[3]
    assert value_vpns[0] != value_vpns[2]


def test_kv_layout_validation():
    with pytest.raises(ValueError):
        KvStoreLayout(nr_records=0)


# ----------------------------------------------------------------------
# YCSB
# ----------------------------------------------------------------------
def test_ycsb_case_table():
    wl = YcsbWorkload.case("case1", total_accesses=100)
    assert wl.rss_gb == 13.0 and wl.demote_all
    wl3 = YcsbWorkload.case("case3", total_accesses=100)
    assert not wl3.demote_all


def test_ycsb_ops_touch_index_then_value():
    m = make_machine(fast_gb=4.0, slow_gb=4.0)
    wl = YcsbWorkload(rss_gb=2.0, total_accesses=1000)
    wl.bind(m)
    vpns, writes = wl.generate(100)
    assert len(vpns) == 100
    # Even positions are index lookups (never written).
    assert not writes[0::2].any()
    index_hi = wl._index_start + wl.layout.index_pages
    assert (vpns[0::2] < index_hi).all()
    assert (vpns[1::2] >= wl._value_start).all()


def test_ycsb_update_ratio_roughly_half():
    m = make_machine(fast_gb=4.0, slow_gb=4.0)
    wl = YcsbWorkload(rss_gb=2.0, total_accesses=4000, seed=9)
    wl.bind(m)
    vpns, writes = wl.generate(4000)
    frac = writes[1::2].mean()
    assert 0.4 < frac < 0.6  # workload A: 50/50


def test_ycsb_demote_all_starts_cold():
    m = make_machine(fast_gb=4.0, slow_gb=8.0)
    wl = YcsbWorkload(rss_gb=3.0, demote_all=True, total_accesses=100)
    wl.bind(m)
    pt = wl.space.page_table
    mapped = pt.mapped_vpns()
    tiers = m.tiers.tier_of_gpfn[pt.gpfn[mapped]]
    assert (tiers == 1).all()


def test_ycsb_throughput_math():
    wl = YcsbWorkload(rss_gb=1.0, total_accesses=100)
    # 1000 accesses = 500 ops over 1e9 cycles at 1 GHz = 1 second.
    assert wl.throughput_ops(1000, 1e9, 1.0) == pytest.approx(500.0)


# ----------------------------------------------------------------------
# PageRank
# ----------------------------------------------------------------------
def test_pagerank_geometry():
    m = make_machine(fast_gb=16.0, slow_gb=16.0)
    wl = PageRankWorkload(rss_gb=22.0, total_accesses=100)
    wl.bind(m)
    assert wl.edge_pages > 10 * wl.rank_pages  # edges dominate the RSS
    assert wl.edge_pages + 2 * wl.rank_pages == pytest.approx(
        gb_to_pages(22.0), abs=2
    )


def test_pagerank_access_mix():
    m = make_machine(fast_gb=16.0, slow_gb=16.0)
    wl = PageRankWorkload(rss_gb=4.0, total_accesses=10_000)
    wl.bind(m)
    vpns, writes = wl.generate(600)
    group = 2 + wl.gathers_per_edge_page
    # One write (next-rank update) per group.
    assert writes.sum() == len(vpns) // group
    # Edge reads are sequential.
    edge_reads = vpns[0::group]
    assert ((edge_reads[1:] - edge_reads[:-1]) % wl.edge_pages == 1).all()


def test_pagerank_iterations_counted():
    m = make_machine(fast_gb=16.0, slow_gb=16.0)
    wl = PageRankWorkload(rss_gb=0.5, total_accesses=10_000)
    wl.bind(m)
    for _ in wl.chunks():
        pass
    assert wl.iterations_completed >= 1


def test_pagerank_is_compute_heavy():
    assert PageRankWorkload.compute_cycles_per_access > 0


# ----------------------------------------------------------------------
# Liblinear
# ----------------------------------------------------------------------
def test_liblinear_geometry():
    m = make_machine(fast_gb=8.0, slow_gb=8.0)
    wl = LiblinearWorkload(rss_gb=10.0, total_accesses=100)
    wl.bind(m)
    assert wl.model_pages < wl.data_pages
    assert wl.model_pages + wl.data_pages == gb_to_pages(10.0)


def test_liblinear_model_is_write_hot():
    m = make_machine(fast_gb=8.0, slow_gb=8.0)
    wl = LiblinearWorkload(rss_gb=2.0, total_accesses=10_000, seed=4)
    wl.bind(m)
    vpns, writes = wl.generate(7000)
    model_mask = (vpns >= wl._model_start) & (
        vpns < wl._model_start + wl.model_pages
    )
    data_mask = vpns >= wl._data_start
    assert not writes[data_mask].any()  # data is read-only
    model_write_frac = writes[model_mask].mean()
    assert 0.3 < model_write_frac < 0.7


def test_liblinear_model_writes_are_bursty():
    """Model touches cluster in a drifting window (Table 4's abort
    driver)."""
    m = make_machine(fast_gb=8.0, slow_gb=8.0)
    wl = LiblinearWorkload(rss_gb=4.0, total_accesses=10_000, seed=4)
    wl.bind(m)
    vpns, _ = wl.generate(700)
    model = vpns[(vpns >= wl._model_start) & (vpns < wl._model_start + wl.model_pages)]
    spread = np.ptp(model)
    assert spread <= 2 * wl.model_window_pages + wl.model_pages // 8


def test_liblinear_demote_all_default():
    m = make_machine(fast_gb=8.0, slow_gb=16.0)
    wl = LiblinearWorkload(rss_gb=4.0, total_accesses=100)
    wl.bind(m)
    pt = wl.space.page_table
    mapped = pt.mapped_vpns()
    tiers = m.tiers.tier_of_gpfn[pt.gpfn[mapped]]
    assert (tiers == 1).all()


# ----------------------------------------------------------------------
# SeqScan
# ----------------------------------------------------------------------
def test_seqscan_is_sequential_and_wraps():
    m = make_machine(fast_gb=8.0, slow_gb=8.0)
    wl = SeqScanWorkload(rss_gb=0.5, total_accesses=1000)
    wl.bind(m)
    vpns, _ = wl.generate(300)
    diffs = (vpns[1:] - vpns[:-1]) % wl.rss_pages
    assert (diffs == 1).all()
    for _ in wl.chunks():
        pass
    assert wl.scans_completed >= 1


def test_seqscan_write_ratio():
    m = make_machine(fast_gb=8.0, slow_gb=8.0)
    wl = SeqScanWorkload(rss_gb=0.5, write_ratio=1.0, total_accesses=100)
    wl.bind(m)
    _, writes = wl.generate(50)
    assert writes.all()


# ----------------------------------------------------------------------
# Pointer chase
# ----------------------------------------------------------------------
def test_pointer_chase_block_structure():
    m = make_machine(fast_gb=8.0, slow_gb=8.0)
    wl = PointerChase(nr_blocks=4, block_gb=1.0, total_accesses=20_000, seed=2)
    wl.bind(m)
    vpns, writes = wl.generate(10_000)
    assert not writes.any()
    blocks = (vpns - wl._start) // wl.block_pages
    counts = np.bincount(blocks, minlength=4)
    # Inter-block zipfian: the hottest block dominates.
    assert counts.max() > 2 * np.sort(counts)[-3]
    # Intra-block uniform: pages within the hottest block are even.
    hot_block = int(np.argmax(counts))
    in_hot = vpns[blocks == hot_block] - wl._start - hot_block * wl.block_pages
    page_counts = np.bincount(in_hot, minlength=wl.block_pages)
    assert page_counts.min() > 0.3 * page_counts.mean()


def test_pointer_chase_validation():
    with pytest.raises(ValueError):
        PointerChase(nr_blocks=0)


# ----------------------------------------------------------------------
# Workload base behaviours
# ----------------------------------------------------------------------
def test_rebinding_same_machine_is_idempotent():
    m = make_machine()
    wl = SeqScanWorkload(rss_gb=0.25, total_accesses=100)
    wl.bind(m)
    space = wl.space
    wl.bind(m)
    assert wl.space is space


def test_binding_two_machines_rejected():
    m1, m2 = make_machine(), make_machine()
    wl = SeqScanWorkload(rss_gb=0.25, total_accesses=100)
    wl.bind(m1)
    with pytest.raises(RuntimeError):
        wl.bind(m2)


def test_invalid_total_accesses():
    with pytest.raises(ValueError):
        SeqScanWorkload(total_accesses=0)
