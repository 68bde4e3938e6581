"""The reusable histogram: bucket semantics, percentiles, merging."""

import numpy as np
import pytest

from repro.obs.hist import Histogram, bucket_values, percentile_from_counts

EDGES = np.array([10.0, 100.0, 1000.0])


# ----------------------------------------------------------------------
# bucket_values
# ----------------------------------------------------------------------
def test_bucket_boundaries():
    # bucket 0: < 10; bucket 1: [10, 100); bucket 2: [100, 1000); over: >= 1000
    counts = bucket_values(EDGES, np.array([5.0, 9.9, 10.0, 99.0, 100.0, 999.0, 1000.0]))
    assert counts.tolist() == [2, 2, 2, 1]


def test_bucket_count_is_edges_plus_one():
    assert len(bucket_values(EDGES, np.array([]))) == len(EDGES) + 1


# ----------------------------------------------------------------------
# percentile_from_counts
# ----------------------------------------------------------------------
def test_percentile_empty_histogram_is_zero():
    assert percentile_from_counts(np.zeros(4, dtype=np.int64), EDGES, 50.0) == 0.0


def test_percentile_first_bucket_reports_its_upper_edge():
    # Every value below edges[0]: the containing bucket's upper edge is
    # edges[0], same convention as every other bucket.
    counts = bucket_values(EDGES, np.array([1.0, 2.0, 3.0]))
    assert percentile_from_counts(counts, EDGES, 50.0) == EDGES[0]
    assert percentile_from_counts(counts, EDGES, 99.0) == EDGES[0]


def test_percentile_interior_bucket_upper_edge():
    counts = bucket_values(EDGES, np.full(100, 50.0))  # all in [10, 100)
    assert percentile_from_counts(counts, EDGES, 50.0) == 100.0


def test_percentile_overflow_clamps_to_last_edge():
    counts = bucket_values(EDGES, np.full(10, 5000.0))  # all >= edges[-1]
    assert percentile_from_counts(counts, EDGES, 99.0) == EDGES[-1]


def test_percentile_split_population():
    # 90 cheap values, 10 expensive ones: p50 in the cheap bucket, p99 in
    # the expensive one.
    values = np.concatenate([np.full(90, 50.0), np.full(10, 500.0)])
    counts = bucket_values(EDGES, values)
    assert percentile_from_counts(counts, EDGES, 50.0) == 100.0
    assert percentile_from_counts(counts, EDGES, 99.0) == 1000.0


def test_stats_histogram_percentile_delegates_to_shared_helper():
    from repro.sim.stats import LATENCY_BIN_EDGES, histogram_percentile, latency_histogram

    values = np.array([10.0, 20.0, 30.0])  # all below LATENCY_BIN_EDGES[0]
    hist = latency_histogram(values)
    assert histogram_percentile(hist, 50.0) == LATENCY_BIN_EDGES[0]
    assert histogram_percentile(hist, 50.0) == percentile_from_counts(
        hist, LATENCY_BIN_EDGES, 50.0
    )


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------
def test_observe_matches_bucket_values():
    # ``observe`` bins one value at a time; ``bucket_values`` is the
    # vectorized binning that the run's latency histograms use.
    h = Histogram(EDGES)
    values = np.array([1.0, 10.0, 55.0, 150.0, 2000.0])
    for v in values:
        h.observe(v)
    assert h.counts.tolist() == bucket_values(EDGES, values).tolist()
    assert h.total == 5
    assert h.sum == pytest.approx(values.sum())


def test_mean_is_exact_not_bucketed():
    h = Histogram(EDGES)
    h.observe(7.0)
    h.observe(13.0)
    assert h.mean == pytest.approx(10.0)


def test_empty_mean_and_percentile():
    h = Histogram(EDGES)
    assert h.mean == 0.0
    assert h.percentile(50.0) == 0.0
    assert len(h) == 0
    assert bool(h)  # an empty histogram is still truthy


def test_merge_accumulates():
    a = Histogram(EDGES)
    b = Histogram(EDGES)
    a.observe(5.0)
    b.observe(500.0, n=3)
    a.merge(b)
    assert a.total == 4
    assert a.sum == pytest.approx(5.0 + 3 * 500.0)
    assert a.counts.tolist() == [1, 0, 3, 0]


def test_merge_rejects_different_edges():
    with pytest.raises(ValueError):
        Histogram(EDGES).merge(Histogram([1.0, 2.0]))


def test_geometric_constructor():
    h = Histogram.geometric(100.0, 10_000.0, 3, name="g")
    assert h.edges.tolist() == pytest.approx([100.0, 1000.0, 10_000.0])
    assert h.name == "g"


def test_constructor_validation():
    with pytest.raises(ValueError):
        Histogram([])
    with pytest.raises(ValueError):
        Histogram([10.0, 10.0])
    with pytest.raises(ValueError):
        Histogram(EDGES, counts=np.zeros(2, dtype=np.int64))


def test_summary_keys():
    h = Histogram(EDGES)
    h.observe(50.0)
    s = h.summary()
    assert set(s) == {"count", "sum", "mean", "p50", "p95", "p99"}
    assert s["count"] == 1.0
    assert s["p50"] == 100.0
