"""Span stitching: tracepoints -> typed lifecycle intervals.

Unit tests feed synthetic :class:`TraceRecord` streams straight into the
tracker (no machine needed -- the tracker only reads what it is handed),
then one integration test pins the ISSUE acceptance criterion: a
thrashing run yields at least one TPM abort span with a named phase
breakdown.
"""

import json

from repro.bench.runner import build_machine
from repro.obs.spans import (
    SPAN_KINDS,
    SpanTracker,
    spans_to_chrome,
    spans_to_jsonl,
)
from repro.obs.tracepoints import TraceRecord
from repro.workloads import ZipfianMicrobench


def rec(ts, name, **args):
    return TraceRecord(float(ts), name, args)


def tracker(**kwargs):
    return SpanTracker(machine=None, **kwargs)


def feed(t, *records):
    for record in records:
        t.feed(record)


# ----------------------------------------------------------------------
# TPM spans
# ----------------------------------------------------------------------
def test_tpm_commit_span_with_chunk_children():
    t = tracker()
    feed(
        t,
        rec(100, "tpm.begin", vpn=7, attempt=0),
        rec(150, "tpm.chunk", vpn=7, chunk=0, nr_chunks=2, dirty=False),
        rec(200, "tpm.chunk", vpn=7, chunk=1, nr_chunks=2, dirty=False),
        rec(250, "tpm.commit", vpn=7, copy_cycles=100.0, total_cycles=150.0),
    )
    (span,) = t.spans()
    assert span.kind == "tpm"
    assert span.key == 7
    assert (span.start, span.end) == (100.0, 250.0)
    assert span.outcome == "commit"
    assert span.phases == {"copy": 100.0, "protocol": 50.0}
    assert span.attrs["attempt"] == 0
    assert [c["name"] for c in span.children] == ["chunk0", "chunk1"]
    # Children tile the parent contiguously from its start.
    assert span.children[0]["start"] == 100.0
    assert span.children[0]["end"] == span.children[1]["start"] == 150.0
    assert not t.open_count()


def test_tpm_abort_mid_chunk_names_reason_and_keeps_children():
    t = tracker()
    feed(
        t,
        rec(0, "tpm.begin", vpn=3, attempt=1),
        rec(40, "tpm.chunk", vpn=3, chunk=0, nr_chunks=4, dirty=False),
        rec(70, "tpm.chunk", vpn=3, chunk=1, nr_chunks=4, dirty=True),
        rec(
            90, "tpm.abort", vpn=3, reason="chunk_dirty",
            copy_cycles=60.0, total_cycles=90.0,
        ),
    )
    (span,) = t.spans()
    assert span.outcome == "abort:chunk_dirty"
    assert span.phases == {"copy": 60.0, "protocol": 30.0}
    # The dirty chunk that killed the transaction is visible.
    assert [c["dirty"] for c in span.children] == [False, True]


def test_reopened_begin_restarts_span():
    t = tracker()
    feed(
        t,
        rec(0, "tpm.begin", vpn=5, attempt=0),
        rec(10, "tpm.begin", vpn=5, attempt=1),
        rec(20, "tpm.commit", vpn=5, copy_cycles=5.0, total_cycles=10.0),
    )
    assert t.reopened == 1
    (span,) = t.spans()
    assert span.start == 10.0 and span.attrs["attempt"] == 1


# ----------------------------------------------------------------------
# MPQ / shadow / sync-fallback spans
# ----------------------------------------------------------------------
def test_mpq_residency_span():
    t = tracker()
    feed(
        t,
        rec(10, "mpq.enqueue", vpn=9, depth=1),
        rec(60, "mpq.dequeue", vpn=9, wait_cycles=50.0, depth=0),
    )
    (span,) = t.spans()
    assert span.kind == "mpq"
    assert span.outcome == "dequeue"
    assert span.phases == {"queue_wait": 50.0}
    assert span.attrs["enqueue_depth"] == 1


def test_mpq_drop_without_enqueue_is_orphan_not_error():
    t = tracker()
    t.feed(rec(5, "mpq.drop", vpn=1, reason="full", depth=16))
    assert t.orphan_ends == 1
    assert not t.spans()


def test_shadow_lifetime_span():
    t = tracker()
    feed(
        t,
        rec(100, "shadow.create", gpfn=42, vpn=7, pages=1),
        rec(900, "shadow.drop", gpfn=42, reason="fault", pages=1),
    )
    (span,) = t.spans()
    assert span.kind == "shadow"
    assert span.key == 42
    assert span.outcome == "fault"
    assert span.duration == 800.0


def test_sync_fallback_closed_only_by_promotion_direction_sync():
    t = tracker()
    t.feed(rec(0, "migrate.sync_fallback", vpn=11, mapcount=3))
    # A kswapd demotion sync in between must not close the fallback.
    t.feed(
        rec(5, "migrate.sync", src_tier=0, dst_tier=1,
            success=True, reason="", retries=0)
    )
    assert t.open_count() == 1
    t.feed(
        rec(9, "migrate.sync", src_tier=1, dst_tier=0,
            success=True, reason="", retries=1)
    )
    (span,) = t.spans()
    assert span.kind == "sync_fallback"
    assert span.outcome == "success"
    assert span.attrs == {"vpn": 11, "mapcount": 3, "retries": 1}


# ----------------------------------------------------------------------
# Ring bounds
# ----------------------------------------------------------------------
def test_span_ring_overflow_counts_drops():
    t = tracker(capacity=4, overwrite=True)
    for i in range(10):
        feed(
            t,
            rec(i * 10, "mpq.enqueue", vpn=i, depth=0),
            rec(i * 10 + 5, "mpq.dequeue", vpn=i, wait_cycles=5.0, depth=0),
        )
    assert len(t.spans()) == 4
    assert t.dropped == 6
    summary = t.summary()
    assert summary["completed"] == 4
    assert summary["dropped"] == 6
    # The ring keeps the newest spans.
    assert [s.key for s in t.spans()] == [6, 7, 8, 9]


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def _overlapping_spans():
    t = tracker()
    feed(
        t,
        rec(100, "tpm.begin", vpn=7, attempt=0),
        rec(150, "tpm.chunk", vpn=7, chunk=0, nr_chunks=2, dirty=False),
        rec(180, "tpm.chunk", vpn=7, chunk=1, nr_chunks=2, dirty=True),
        rec(
            200, "tpm.abort", vpn=7, reason="chunk_dirty",
            copy_cycles=80.0, total_cycles=100.0,
        ),
        rec(100, "shadow.create", gpfn=12, vpn=7, pages=1),
        rec(400, "shadow.drop", gpfn=12, reason="reclaim", pages=1),
    )
    return t.spans()


def test_jsonl_export_schema_roundtrip():
    text = spans_to_jsonl(_overlapping_spans())
    lines = text.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        span = json.loads(line)
        assert set(span) == {
            "kind", "key", "start", "end", "outcome",
            "phases", "attrs", "children",
        }
        assert span["kind"] in SPAN_KINDS


def test_chrome_export_nests_children_inside_parent():
    doc = spans_to_chrome(_overlapping_spans(), freq_ghz=2.0)
    events = doc["traceEvents"]
    slices = [e for e in events if e["ph"] == "X"]
    metas = [e for e in events if e["ph"] == "M"]
    # Slices only -- never instants -- and one named lane per kind.
    assert not [e for e in events if e["ph"] == "i"]
    assert {m["args"]["name"] for m in metas} == {"span:tpm", "span:shadow"}

    parent = next(s for s in slices if s["name"] == "tpm:abort:chunk_dirty")
    children = [s for s in slices if s["name"].startswith("chunk")]
    assert len(children) == 2
    for child in children:
        assert child["tid"] == parent["tid"]
        assert child["ts"] >= parent["ts"]
        assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + 1e-9
    # Sort order puts the parent before its same-ts first child, which
    # is what makes Perfetto render the children as nested.
    first_child = min(children, key=lambda c: c["ts"])
    assert slices.index(parent) < slices.index(first_child)
    # Both kinds overlap in time but live on distinct lanes.
    shadow = next(s for s in slices if s["name"].startswith("shadow:"))
    assert shadow["tid"] != parent["tid"]


def test_chrome_export_carries_phases_in_args():
    doc = spans_to_chrome(_overlapping_spans(), freq_ghz=2.0)
    parent = next(
        e for e in doc["traceEvents"]
        if e["ph"] == "X" and e["name"].startswith("tpm:")
    )
    assert parent["args"]["phases"] == {"copy": 80.0, "protocol": 20.0}
    assert parent["args"]["outcome"] == "abort:chunk_dirty"


# ----------------------------------------------------------------------
# Integration: the ISSUE acceptance criterion
# ----------------------------------------------------------------------
def test_thrashing_run_produces_abort_spans_with_phases():
    machine = build_machine("A", "nomad")
    tracker = machine.obs.enable_spans()
    workload = ZipfianMicrobench.scenario(
        "medium", write_ratio=1.0, total_accesses=20_000, seed=42
    )
    machine.run_workload(workload)
    aborts = [
        s for s in tracker.select("tpm") if s.outcome.startswith("abort:")
    ]
    assert aborts, "all-write thrashing run produced no TPM abort spans"
    span = aborts[0]
    assert set(span.phases) == {"copy", "protocol"}
    assert span.phases["copy"] >= 0 and span.phases["protocol"] >= 0
    assert span.duration > 0
    # The summary surfaces the same thing for RunReport consumers.
    by_outcome = tracker.summary()["by_outcome"]
    assert any(k.startswith("tpm:abort:") for k in by_outcome)
