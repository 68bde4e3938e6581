"""The tracepoint catalog, ring buffer, and per-machine ObsManager."""

from collections import Counter

import pytest

from repro.bench.runner import build_machine
from repro.obs.tracepoints import (
    TRACEPOINTS,
    TraceRecord,
    TraceRing,
    register_tracepoint,
)
from repro.workloads import ZipfianMicrobench

from ..conftest import make_machine


# ----------------------------------------------------------------------
# TraceRing drop accounting
# ----------------------------------------------------------------------
def test_overwrite_ring_keeps_newest_and_counts_drops():
    ring = TraceRing(capacity=4)
    dropped = [ring.append(i) for i in range(10)]
    assert dropped == [None] * 4 + [0, 1, 2, 3, 4, 5]
    assert len(ring) == 4
    assert ring.records() == [6, 7, 8, 9]
    assert ring.dropped == 6


def test_ring_no_drops_below_capacity():
    ring = TraceRing(capacity=4)
    ring.append(1)
    assert ring.dropped == 0
    assert list(ring) == [1]


def test_ring_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        TraceRing(capacity=0)


# ----------------------------------------------------------------------
# Catalog
# ----------------------------------------------------------------------
def test_catalog_covers_the_instrumented_subsystems():
    for name in (
        "tpm.begin",
        "tpm.commit",
        "tpm.abort",
        "shadow.fault",
        "mpq.enqueue",
        "mpq.drop",
        "mpq.retry",
        "reclaim.pass",
        "migrate.sync_fallback",
    ):
        assert name in TRACEPOINTS
        assert TRACEPOINTS[name].fields


def test_register_tracepoint_rejects_duplicates():
    with pytest.raises(ValueError):
        register_tracepoint("tpm.begin", ("vpn",), "dup")


# ----------------------------------------------------------------------
# ObsManager
# ----------------------------------------------------------------------
def test_emit_is_noop_while_disabled():
    m = make_machine()
    m.obs.emit("tpm.begin", vpn=1, attempt=0)
    m.obs.observe("tpm.copy_cycles", 100.0)
    assert m.obs.records() == []
    assert m.obs.histograms == {}
    assert m.obs.dropped == 0


def test_emit_records_timestamped_event():
    m = make_machine()
    m.obs.enable(sample_period=None)
    m.obs.emit("tpm.begin", vpn=7, attempt=0)
    (rec,) = m.obs.records()
    assert isinstance(rec, TraceRecord)
    assert rec.name == "tpm.begin"
    assert rec.ts == m.engine.now
    assert rec.args == {"vpn": 7, "attempt": 0}
    assert rec.as_dict() == {"ts": rec.ts, "name": "tpm.begin", "args": rec.args}


def test_strict_mode_rejects_unknown_and_misfielded_emits():
    m = make_machine()
    m.obs.enable(sample_period=None)
    with pytest.raises(ValueError):
        m.obs.emit("tpm.bogus", vpn=1)
    with pytest.raises(ValueError):
        m.obs.emit("tpm.begin", vpn=1)  # missing 'attempt'
    with pytest.raises(ValueError):
        m.obs.emit("tpm.begin", vpn=1, attempt=0, extra=1)


def test_select_counts_and_summary():
    m = make_machine()
    m.obs.enable(sample_period=None)
    m.obs.emit("tpm.begin", vpn=1, attempt=0)
    m.obs.emit("tpm.begin", vpn=2, attempt=0)
    m.obs.emit("shadow.fault", vpn=1, gpfn=9)
    m.obs.observe("tpm.copy_cycles", 500.0)
    assert len(m.obs.select("tpm.begin")) == 2
    assert m.obs.counts() == {"tpm.begin": 2, "shadow.fault": 1}
    summary = m.obs.summary()
    assert summary["events"] == {"tpm.begin": 2, "shadow.fault": 1}
    assert summary["dropped"] == 0
    assert "tpm.copy_cycles" in summary["histograms"]
    # zero-count histograms are omitted from the digest
    assert "mpq.wait_cycles" not in summary["histograms"]


def test_observe_creates_unspecced_histogram_on_demand():
    m = make_machine()
    m.obs.enable(sample_period=None)
    m.obs.observe("adhoc.cycles", 123.0)
    assert m.obs.histograms["adhoc.cycles"].total == 1


def test_counts_equal_a_recount_of_an_overflowed_ring():
    """counts() is kept at emit; after a Nomad run that overflows a small
    ring it must still equal a full recount, with no zero entries."""
    machine = build_machine("A", "nomad")
    machine.obs.enable(capacity=64, sample_period=None)
    workload = ZipfianMicrobench.scenario(
        "medium", write_ratio=0.3, total_accesses=20_000
    )
    report = machine.run_workload(workload)
    recount = Counter(record.name for record in machine.obs.ring)
    assert machine.obs.dropped > 0
    assert len(recount) > 1
    assert dict(machine.obs.counts()) == dict(recount)
    assert report.obs["events"] == dict(recount)


def test_ring_overflow_surfaces_in_dropped_property():
    m = make_machine()
    m.obs.enable(capacity=2, sample_period=None)
    for vpn in range(5):
        m.obs.emit("tpm.begin", vpn=vpn, attempt=0)
    assert len(m.obs.records()) == 2
    assert m.obs.dropped == 3
    assert m.obs.summary()["dropped"] == 3


def test_disable_stops_recording_but_keeps_data():
    m = make_machine()
    m.obs.enable(sample_period=None)
    m.obs.emit("tpm.begin", vpn=1, attempt=0)
    m.obs.disable()
    m.obs.emit("tpm.begin", vpn=2, attempt=0)
    assert len(m.obs.records()) == 1


def test_context_manager_enables_and_disables():
    m = make_machine()
    with m.obs:
        assert m.obs.enabled
        m.obs.emit("tpm.begin", vpn=1, attempt=0)
    assert not m.obs.enabled
    assert len(m.obs.records()) == 1


def test_enable_is_idempotent():
    m = make_machine()
    m.obs.enable(sample_period=None)
    ring = m.obs.ring
    m.obs.enable(sample_period=None)
    assert m.obs.ring is ring
