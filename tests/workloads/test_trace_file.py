"""Trace record/replay workloads."""

import numpy as np
import pytest

from repro.obs.export import counter_digest
from repro.policies import make_policy
from repro.workloads import (
    StreamingTraceWorkload,
    TraceWorkload,
    ZipfianMicrobench,
    build_trace,
    record_trace,
)

from ..conftest import make_machine


def simple_trace(n=500, pages=32, seed=0):
    rng = np.random.default_rng(seed)
    vpns = rng.integers(0, pages, n)
    writes = rng.random(n) < 0.3
    return vpns, writes


def test_replay_matches_input():
    vpns, writes = simple_trace()
    wl = TraceWorkload(vpns, writes, nr_pages=32, chunk_size=64)
    m = make_machine()
    wl.bind(m)
    replayed_v, replayed_w = [], []
    for v, w in wl.chunks():
        replayed_v.append(v - wl._start)
        replayed_w.append(w)
    assert np.array_equal(np.concatenate(replayed_v), vpns)
    assert np.array_equal(np.concatenate(replayed_w), writes)


def test_fast_fraction_placement():
    vpns, writes = simple_trace(pages=100)
    wl = TraceWorkload(vpns, writes, nr_pages=100, fast_fraction=0.5)
    m = make_machine()
    wl.bind(m)
    pt = wl.space.page_table
    tiers = m.tiers.tier_of_gpfn[pt.gpfn[np.arange(wl._start, wl._start + 100)]]
    assert (tiers[:50] == 0).all()
    assert (tiers[50:] == 1).all()


def test_save_load_roundtrip(tmp_path):
    vpns, writes = simple_trace()
    wl = TraceWorkload(vpns, writes, nr_pages=40, fast_fraction=0.25)
    path = tmp_path / "trace.npz"
    wl.save(path)
    loaded = TraceWorkload.load(path)
    assert np.array_equal(loaded.trace_vpns, vpns)
    assert np.array_equal(loaded.trace_writes, writes)
    assert loaded.nr_pages == 40
    assert loaded.fast_fraction == 0.25


def test_load_rejects_future_version(tmp_path):
    vpns, writes = simple_trace()
    path = tmp_path / "trace.npz"
    np.savez_compressed(
        path,
        version=np.int64(99),
        vpns=vpns,
        writes=writes,
        nr_pages=np.int64(32),
        fast_fraction=np.float64(1.0),
    )
    with pytest.raises(ValueError, match="version"):
        TraceWorkload.load(path)


def test_validation():
    with pytest.raises(ValueError):
        TraceWorkload(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        TraceWorkload(np.array([1, 2]), np.array([True]))
    with pytest.raises(ValueError):
        TraceWorkload(np.array([-1]), np.array([True]))
    with pytest.raises(ValueError):
        TraceWorkload(np.array([5]), np.array([True]), nr_pages=3)
    with pytest.raises(ValueError):
        TraceWorkload(np.array([0]), np.array([True]), fast_fraction=2.0)


def test_record_trace_from_synthetic_workload():
    m = make_machine()
    source = ZipfianMicrobench(
        wss_gb=0.5, rss_gb=0.5, total_accesses=1000, seed=9
    )
    captured = record_trace(source, m)
    assert captured.total_accesses == 1000
    assert captured.nr_pages <= 128  # 0.5 GB = 128 pages footprint


def test_replay_is_policy_comparable():
    """The same trace replays identically under two machines, making
    cross-policy comparisons exact."""
    vpns, writes = simple_trace(n=2000, pages=600, seed=4)

    def run(policy):
        m = make_machine(fast_gb=1.0, slow_gb=2.0)
        m.set_policy(make_policy(policy, m))
        wl = TraceWorkload(vpns, writes, nr_pages=600, fast_fraction=0.3)
        return m.run_workload(wl)

    a = run("no-migration")
    b = run("nomad")
    assert a.overall.accesses == b.overall.accesses == 2000


def test_trace_runs_to_completion_under_nomad():
    vpns, writes = simple_trace(n=3000, pages=400, seed=5)
    m = make_machine(fast_gb=1.0, slow_gb=2.0)
    m.set_policy(make_policy("nomad", m))
    wl = TraceWorkload(vpns, writes, nr_pages=400, fast_fraction=0.5)
    report = m.run_workload(wl)
    assert report.overall.accesses == 3000


def test_validation_messages_name_the_knob():
    """Errors follow the MachineConfig convention: knob, bound, value."""
    vpns, writes = simple_trace(pages=32)
    with pytest.raises(ValueError, match=r"nr_pages must be at least the "
                       r"trace footprint .*got 8"):
        TraceWorkload(vpns, writes, nr_pages=8)
    with pytest.raises(ValueError, match=r"fast_fraction must be in \[0, 1\], "
                       r"got -0\.1"):
        TraceWorkload(vpns, writes, fast_fraction=-0.1)
    with pytest.raises(ValueError, match=r"vpn_base must be non-negative, "
                       r"got -4"):
        TraceWorkload(vpns, writes, vpn_base=-4)


def run_replay(make_workload, n_accesses):
    m = make_machine(fast_gb=1.0, slow_gb=2.0)
    m.set_policy(make_policy("nomad", m))
    report = m.run_workload(make_workload())
    assert report.workload_counters["accesses"] == n_accesses
    return counter_digest(report.counters), report.cycles


def test_record_save_load_replay_bit_identity(tmp_path):
    """The full legacy-v1 loop: a captured trace, pushed through
    save -> load, replays bit-identically to the in-memory original."""
    source = ZipfianMicrobench(
        wss_gb=0.5, rss_gb=1.5, total_accesses=4000, seed=11
    )
    captured = record_trace(source, make_machine(), fast_fraction=0.5)
    direct = run_replay(
        lambda: TraceWorkload(
            captured.trace_vpns, captured.trace_writes,
            nr_pages=captured.nr_pages, fast_fraction=0.5,
        ),
        4000,
    )
    path = tmp_path / "trace.npz"
    captured.save(path)
    reloaded = run_replay(lambda: TraceWorkload.load(path), 4000)
    assert reloaded == direct


def test_v2_manifest_load_and_streaming_are_bit_identical(tmp_path):
    """A v2 manifest replays identically whether materialized in RAM
    (TraceWorkload.load) or streamed shard by shard."""
    manifest = build_trace(
        tmp_path / "t", "zipf-drift",
        nr_pages=600, accesses=5000, seed=3, fast_fraction=0.5,
        shard_accesses=512,
    )
    in_ram = run_replay(lambda: TraceWorkload.load(tmp_path / "t"), 5000)
    streamed = run_replay(lambda: StreamingTraceWorkload(manifest), 5000)
    assert streamed == in_ram
    # Counters actually moved: the split footprint forces migrations.
    assert in_ram[0] != counter_digest({})


def test_v2_load_inherits_manifest_fast_fraction(tmp_path):
    build_trace(
        tmp_path / "t", "diurnal",
        nr_pages=64, accesses=500, seed=2, fast_fraction=0.25,
    )
    wl = TraceWorkload.load(tmp_path / "t")
    assert wl.fast_fraction == 0.25
    override = TraceWorkload.load(tmp_path / "t", fast_fraction=1.0)
    assert override.fast_fraction == 1.0


def test_vpn_base_namespaces_tenants(tmp_path):
    """Two trace workloads with stacked vpn_base get disjoint global
    vpn ranges; the pad region costs no frames."""
    manifest = build_trace(
        tmp_path / "t", "zipf-drift", nr_pages=50, accesses=400, seed=7,
    )
    m = make_machine()
    a = StreamingTraceWorkload(manifest, vpn_base=0, name="a")
    b = StreamingTraceWorkload(manifest, vpn_base=50, name="b")
    a.bind(m)
    b.bind(m)
    assert a._start + 50 <= b._start
    for wl in (a, b):
        vpns, _ = wl.generate(400)
        assert vpns.min() >= wl._start
        assert vpns.max() < wl._start + 50


def test_streaming_rechunks_across_shard_boundaries(tmp_path):
    manifest = build_trace(
        tmp_path / "t", "phase-shift", nr_pages=128, accesses=3000, seed=5,
        shard_accesses=700,
    )
    m = make_machine()
    wl = StreamingTraceWorkload(manifest, chunk_size=999)
    wl.bind(m)
    sizes = []
    parts = []
    for vpns, _ in wl.chunks():
        sizes.append(len(vpns))
        parts.append(vpns - wl._start)
    assert sizes == [999, 999, 999, 3]
    want, _ = manifest.load_arrays()
    assert np.array_equal(np.concatenate(parts), want)


def test_streaming_verify_flag_catches_corruption(tmp_path):
    manifest = build_trace(
        tmp_path / "t", "diurnal", nr_pages=64, accesses=1000, seed=1,
        shard_accesses=256,
    )
    victim = tmp_path / "t" / manifest.shards[0]["file"]
    with np.load(victim) as data:
        np.savez_compressed(
            victim, vpns=data["vpns"] + 1, writes=data["writes"]
        )
    StreamingTraceWorkload(tmp_path / "t")  # lazy: no verification
    with pytest.raises(ValueError, match="digest mismatch"):
        StreamingTraceWorkload(tmp_path / "t", verify=True)
