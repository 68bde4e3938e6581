"""Lifecycle spans: tracepoints stitched into typed begin..end intervals.

Flat counters say *how many* transactions aborted; the tracepoint ring
says *when* each protocol step ran; neither answers the question the
paper's analysis actually turns on -- how long did one migration spend
in each phase, and why did it end the way it did. A *span* is that
answer: one lifecycle interval with simulated-cycle endpoints, an
outcome, a named per-phase duration breakdown, and (for chunked folio
copies) child slices.

Four span kinds are stitched from the existing catalog:

* ``tpm`` -- one transactional migration, ``tpm.begin`` to
  ``tpm.commit``/``tpm.abort`` (keyed by vpn). Phases: ``copy`` (the
  data movement) and ``protocol`` (everything else the transaction
  charged: PTE updates, shootdowns, allocation, bookkeeping). Each
  ``tpm.chunk`` dirty re-check becomes a child slice, so an abort
  mid-copy shows exactly which chunk observed the racing store.
* ``mpq`` -- queue residency, ``mpq.enqueue`` to ``mpq.dequeue`` or
  ``mpq.drop`` (keyed by vpn). Phase: ``queue_wait``.
* ``shadow`` -- shadow-page lifetime, ``shadow.create`` to
  ``shadow.drop`` (keyed by the master's gpfn). Outcome is the drop
  reason: ``fault`` (first-store collapse), ``reclaim``, ``detach``
  (remap demotion), ``discard``.
* ``sync_fallback`` -- a multi-mapped page falling off the transactional
  path, ``migrate.sync_fallback`` to the promotion-direction
  ``migrate.sync`` that follows it (kpromote runs them back to back).

The tracker subscribes to :meth:`ObsManager.emit` fan-out; it only reads
the records it is handed and keeps its own state, so span tracking can
never perturb the simulation (the invariance test pins this). Completed
spans land in a bounded :class:`~repro.obs.tracepoints.TraceRing` with
the same drop accounting as the event ring.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

from .tracepoints import TraceRecord, TraceRing

if TYPE_CHECKING:  # pragma: no cover
    from ..system import Machine

__all__ = [
    "SPAN_KINDS",
    "Span",
    "SpanTracker",
    "spans_to_jsonl",
    "spans_to_chrome",
]

SPAN_KINDS = ("tpm", "mpq", "shadow", "sync_fallback")


@dataclass(frozen=True)
class Span:
    """One completed lifecycle interval."""

    kind: str
    key: int
    start: float  # cycles
    end: float  # cycles
    outcome: str
    phases: Dict[str, float] = field(default_factory=dict)
    attrs: Dict[str, Any] = field(default_factory=dict)
    children: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "key": self.key,
            "start": self.start,
            "end": self.end,
            "outcome": self.outcome,
            "phases": self.phases,
            "attrs": self.attrs,
            "children": self.children,
        }


@dataclass
class _OpenSpan:
    kind: str
    key: int
    start: float
    last_mark: float
    attrs: Dict[str, Any] = field(default_factory=dict)
    children: List[Dict[str, Any]] = field(default_factory=list)


class SpanTracker:
    """Stitches the tracepoint stream into :class:`Span` records.

    Fed one :class:`TraceRecord` at a time (the ObsManager emit
    listener); anything it does not recognize is ignored. End events
    with no matching open span (the begin predates span enablement, or
    an ``mpq.drop`` for a push that never entered the queue) are counted
    in ``orphan_ends``, never raised -- a spans view attached mid-run
    must degrade gracefully.
    """

    def __init__(self, machine: "Machine", capacity: int = 16384) -> None:
        self.machine = machine
        self.ring = TraceRing(capacity=capacity)
        self._open: Dict[Tuple[str, int], _OpenSpan] = {}
        self.orphan_ends = 0
        self.reopened = 0
        self._on_close: List[Callable[[Span], None]] = []

    # ------------------------------------------------------------------
    def subscribe(self, callback: Callable[[Span], None]) -> None:
        """Call ``callback(span)`` whenever a span completes."""
        self._on_close.append(callback)

    @property
    def dropped(self) -> int:
        return self.ring.dropped

    def spans(self) -> List[Span]:
        return self.ring.records()

    def open_count(self) -> int:
        return len(self._open)

    def select(self, kind: str) -> List[Span]:
        return [s for s in self.spans() if s.kind == kind]

    # ------------------------------------------------------------------
    def feed(self, record: TraceRecord) -> None:
        handler = _HANDLERS.get(record.name)
        if handler is not None:
            handler(self, record)

    # -- open/close plumbing -------------------------------------------
    def _begin(self, kind: str, key: int, record: TraceRecord,
               **attrs: Any) -> None:
        slot = (kind, key)
        if slot in self._open:
            # A begin raced a lost end (ring attached mid-run, or a
            # killed generator): close nothing, restart the span.
            self.reopened += 1
        self._open[slot] = _OpenSpan(
            kind=kind, key=key, start=record.ts, last_mark=record.ts,
            attrs=dict(attrs),
        )

    def _end(
        self,
        kind: str,
        key: int,
        record: TraceRecord,
        outcome: str,
        phases: Optional[Dict[str, float]] = None,
        **attrs: Any,
    ) -> Optional[Span]:
        open_span = self._open.pop((kind, key), None)
        if open_span is None:
            self.orphan_ends += 1
            return None
        merged = dict(open_span.attrs)
        merged.update(attrs)
        span = Span(
            kind=kind,
            key=key,
            start=open_span.start,
            end=record.ts,
            outcome=outcome,
            phases=dict(phases or {}),
            attrs=merged,
            children=open_span.children,
        )
        self.ring.append(span)
        for callback in self._on_close:
            callback(span)
        return span

    # -- per-tracepoint handlers ---------------------------------------
    def _tpm_begin(self, record: TraceRecord) -> None:
        self._begin("tpm", record.args["vpn"], record,
                    attempt=record.args["attempt"])

    def _tpm_chunk(self, record: TraceRecord) -> None:
        open_span = self._open.get(("tpm", record.args["vpn"]))
        if open_span is None:
            self.orphan_ends += 1
            return
        open_span.children.append(
            {
                "name": f"chunk{record.args['chunk']}",
                "start": open_span.last_mark,
                "end": record.ts,
                "chunk": record.args["chunk"],
                "nr_chunks": record.args["nr_chunks"],
                "dirty": bool(record.args["dirty"]),
            }
        )
        open_span.last_mark = record.ts

    def _tpm_phases(self, record: TraceRecord) -> Dict[str, float]:
        copy = float(record.args["copy_cycles"])
        total = float(record.args["total_cycles"])
        return {"copy": copy, "protocol": max(total - copy, 0.0)}

    def _tpm_commit(self, record: TraceRecord) -> None:
        self._end("tpm", record.args["vpn"], record, "commit",
                  phases=self._tpm_phases(record))

    def _tpm_abort(self, record: TraceRecord) -> None:
        self._end(
            "tpm", record.args["vpn"], record,
            f"abort:{record.args['reason']}",
            phases=self._tpm_phases(record),
        )

    def _mpq_enqueue(self, record: TraceRecord) -> None:
        self._begin("mpq", record.args["vpn"], record,
                    enqueue_depth=record.args["depth"])

    def _mpq_dequeue(self, record: TraceRecord) -> None:
        self._end(
            "mpq", record.args["vpn"], record, "dequeue",
            phases={"queue_wait": float(record.args["wait_cycles"])},
        )

    def _mpq_drop(self, record: TraceRecord) -> None:
        # A drop on push (reason "full") never opened a span; the orphan
        # counter absorbs it. A drop after retries closes the residency.
        self._end(
            "mpq", record.args["vpn"], record,
            f"drop:{record.args['reason']}",
        )

    def _shadow_create(self, record: TraceRecord) -> None:
        self._begin("shadow", record.args["gpfn"], record,
                    vpn=record.args["vpn"], pages=record.args["pages"])

    def _shadow_drop(self, record: TraceRecord) -> None:
        self._end(
            "shadow", record.args["gpfn"], record, record.args["reason"],
            pages=record.args["pages"],
        )

    def _sync_fallback(self, record: TraceRecord) -> None:
        # Singleton key: kpromote is the only transactional-path caller
        # and runs the fallback synchronously before its next pop.
        self._begin("sync_fallback", 0, record,
                    vpn=record.args["vpn"],
                    mapcount=record.args["mapcount"])

    def _migrate_sync(self, record: TraceRecord) -> None:
        if ("sync_fallback", 0) not in self._open:
            return
        # Only the promotion-direction sync can be the fallback's own
        # migration; demotion syncs (kswapd) pass through untouched.
        if record.args["dst_tier"] >= record.args["src_tier"]:
            return
        outcome = (
            "success" if record.args["success"]
            else f"failed:{record.args['reason']}"
        )
        self._end("sync_fallback", 0, record, outcome,
                  retries=record.args["retries"])

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Compact digest (attached to the obs summary / RunReport)."""
        by_kind: Dict[str, int] = {}
        by_outcome: Dict[str, int] = {}
        for span in self.ring:
            by_kind[span.kind] = by_kind.get(span.kind, 0) + 1
            label = f"{span.kind}:{span.outcome}"
            by_outcome[label] = by_outcome.get(label, 0) + 1
        return {
            "completed": len(self.ring),
            "dropped": self.ring.dropped,
            "open": len(self._open),
            "orphan_ends": self.orphan_ends,
            "reopened": self.reopened,
            "by_kind": dict(sorted(by_kind.items())),
            "by_outcome": dict(sorted(by_outcome.items())),
        }


_HANDLERS = {
    "tpm.begin": SpanTracker._tpm_begin,
    "tpm.chunk": SpanTracker._tpm_chunk,
    "tpm.commit": SpanTracker._tpm_commit,
    "tpm.abort": SpanTracker._tpm_abort,
    "mpq.enqueue": SpanTracker._mpq_enqueue,
    "mpq.dequeue": SpanTracker._mpq_dequeue,
    "mpq.drop": SpanTracker._mpq_drop,
    "shadow.create": SpanTracker._shadow_create,
    "shadow.drop": SpanTracker._shadow_drop,
    "migrate.sync_fallback": SpanTracker._sync_fallback,
    "migrate.sync": SpanTracker._migrate_sync,
}


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """One compact JSON object per completed span, newline-delimited."""
    lines = [
        json.dumps(span.as_dict(), separators=(",", ":"), sort_keys=True)
        for span in spans
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def _us(cycles: float, freq_ghz: float) -> float:
    return cycles / (freq_ghz * 1e3)


def spans_to_chrome(
    spans: Iterable[Span], freq_ghz: float = 2.0
) -> Dict[str, Any]:
    """Chrome Trace Event JSON with spans as complete ("X") slices.

    One thread lane per span kind; child slices (folio chunk re-checks)
    are emitted on the parent's lane inside the parent's bounds, which
    Perfetto renders as nesting. Spans are *slices*, never instants --
    that is the whole point of this exporter over the per-event one.
    """
    events: List[Dict[str, Any]] = []
    tids: Dict[str, int] = {}
    pid = 1

    def tid(lane: str) -> int:
        if lane not in tids:
            tids[lane] = len(tids) + 1
            events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": tids[lane],
                    "name": "thread_name",
                    "args": {"name": f"span:{lane}"},
                }
            )
        return tids[lane]

    for span in spans:
        lane = tid(span.kind)
        events.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": lane,
                "name": f"{span.kind}:{span.outcome}",
                "cat": span.kind,
                "ts": _us(span.start, freq_ghz),
                "dur": _us(span.duration, freq_ghz),
                "args": {
                    "key": span.key,
                    "outcome": span.outcome,
                    "phases": span.phases,
                    **span.attrs,
                },
            }
        )
        for child in span.children:
            events.append(
                {
                    "ph": "X",
                    "pid": pid,
                    "tid": lane,
                    "name": child["name"],
                    "cat": span.kind,
                    "ts": _us(child["start"], freq_ghz),
                    "dur": _us(child["end"] - child["start"], freq_ghz),
                    "args": {
                        k: v for k, v in child.items()
                        if k not in ("name", "start", "end")
                    },
                }
            )

    events.sort(key=lambda e: (e.get("ts", 0.0), -e.get("dur", 0.0)))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.obs.spans",
                      "clock": f"{freq_ghz}GHz cycles"},
    }
