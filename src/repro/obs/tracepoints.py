"""Structured tracepoints: typed trace events in a bounded ring buffer.

The kernel's tracepoints (``trace_mm_migrate_pages`` and friends) give
three things the aggregate counters cannot: a *timestamp*, a *payload*
(which page, which reason, how many cycles), and *ordering*. This module
is the simulator's equivalent:

* :data:`TRACEPOINTS` is the catalog -- every event name is declared
  once with its payload fields, so a typo'd emit or a missing field
  raises instead of silently producing an unplottable stream;
* :class:`TraceRing` is the ftrace-style bounded ring buffer in
  ftrace's default producer-wins mode: when full it drops the *oldest*
  record, and it counts every dropped record, never losing one silently;
* :class:`ObsManager` is the per-machine faucet. It is always
  constructed (instrumentation sites call ``machine.obs.emit(...)``
  unconditionally) but records nothing until :meth:`ObsManager.enable`
  -- and it only ever *reads* simulation state, so enabling it changes
  no simulated counters or timings.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple, TYPE_CHECKING

from .hist import Histogram

if TYPE_CHECKING:  # pragma: no cover
    from ..system import Machine
    from .spans import SpanTracker
    from .windows import GaugeSampler, TenantSeriesAggregator, TimeSeriesAggregator

__all__ = [
    "TracepointSpec",
    "TRACEPOINTS",
    "register_tracepoint",
    "TraceRecord",
    "TraceRing",
    "HISTOGRAM_SPECS",
    "ObsManager",
]


@dataclass(frozen=True)
class TracepointSpec:
    """One declared trace event: its name and payload field names."""

    name: str
    fields: Tuple[str, ...]
    doc: str


# Per-spec frozen field sets, built at registration: the emit check
# compares against these instead of rebuilding a set per event.
_FIELDSETS: Dict[str, frozenset] = {}


TRACEPOINTS: Dict[str, TracepointSpec] = {}


def register_tracepoint(name: str, fields: Tuple[str, ...], doc: str) -> TracepointSpec:
    if name in TRACEPOINTS:
        raise ValueError(f"tracepoint {name!r} registered twice")
    spec = TracepointSpec(name, tuple(fields), doc)
    TRACEPOINTS[name] = spec
    _FIELDSETS[name] = frozenset(fields)
    return spec


# ----------------------------------------------------------------------
# The catalog. Grouped by subsystem; the Chrome-trace exporter uses the
# prefix before the first dot as the thread lane.
# ----------------------------------------------------------------------
register_tracepoint(
    "tpm.begin", ("vpn", "attempt"),
    "a transactional migration passed validation and opened",
)
register_tracepoint(
    "tpm.commit", ("vpn", "copy_cycles", "total_cycles"),
    "a transactional migration committed (page now on the fast tier)",
)
register_tracepoint(
    "tpm.abort", ("vpn", "reason", "copy_cycles", "total_cycles"),
    "a transactional migration rolled back (reason: dirty/chunk_dirty/nomem)",
)
register_tracepoint(
    "tpm.chunk", ("vpn", "chunk", "nr_chunks", "dirty"),
    "one chunk of a huge-folio copy finished its dirty re-check",
)
register_tracepoint(
    "folio.split", ("vpn", "order", "reason"),
    "a huge folio was split into base pages (PMD rewritten as PTEs)",
)
register_tracepoint(
    "shadow.fault", ("vpn", "gpfn"),
    "first store to a shadowed master: permission restored, shadow dropped",
)
register_tracepoint(
    "shadow.reclaim", ("freed", "requested"),
    "a batch of shadow pages was reclaimed",
)
register_tracepoint(
    "shadow.create", ("gpfn", "vpn", "pages"),
    "a committed promotion kept its slow-tier source as a shadow copy",
)
register_tracepoint(
    "shadow.drop", ("gpfn", "reason", "pages"),
    "a shadow was removed (reason: fault/discard/detach/reclaim)",
)
register_tracepoint(
    "mpq.enqueue", ("vpn", "depth"),
    "a hot page entered the migration pending queue",
)
register_tracepoint(
    "mpq.dequeue", ("vpn", "wait_cycles", "depth"),
    "kpromote popped a request for migration (queue residency ended)",
)
register_tracepoint(
    "mpq.drop", ("vpn", "reason", "depth"),
    "an MPQ request was dropped (reason: full/max_attempts)",
)
register_tracepoint(
    "mpq.retry", ("vpn", "attempts"),
    "an aborted transaction re-entered the MPQ",
)
register_tracepoint(
    "pcq.evict", ("vpn", "depth"),
    "a candidate was evicted from the full promotion candidate queue",
)
register_tracepoint(
    "reclaim.pass", ("node", "priority", "freed", "cycles"),
    "one kswapd reclaim pass completed",
)
register_tracepoint(
    "reclaim.backoff", ("node", "failures"),
    "kswapd parked on a hopeless node until a page is freed",
)
register_tracepoint(
    "migrate.sync", ("vpn", "src_tier", "dst_tier", "success", "reason", "retries"),
    "a stock synchronous migration finished (success or failure); vpn is "
    "the frame's first mapping (-1 if unmapped), for tenant attribution",
)
register_tracepoint(
    "migrate.sync_fallback", ("vpn", "mapcount"),
    "kpromote fell back to synchronous migration (multi-mapped page)",
)
register_tracepoint(
    "debug.inject", ("site",),
    "a debug fault-injection site fired (repro.debug.fault)",
)
register_tracepoint(
    "debug.violation", ("check", "detail"),
    "an invariant check found an inconsistency (repro.debug.invariants)",
)
register_tracepoint(
    "debug.check", ("checks", "violations"),
    "one invariant-checker pass completed (new violations only)",
)


@dataclass(frozen=True)
class TraceRecord:
    """One emitted trace event."""

    ts: float  # cycles
    name: str
    args: Dict[str, Any]

    def as_dict(self) -> Dict[str, Any]:
        return {"ts": self.ts, "name": self.name, "args": self.args}


class TraceRing:
    """Bounded ring buffer with explicit drop accounting.

    Keeps the newest ``capacity`` records, dropping from the head
    (ftrace's default mode); ``dropped`` counts every record lost.
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity <= 0:
            raise ValueError("ring capacity must be positive")
        self.capacity = capacity
        self.dropped = 0
        self._records: Deque[Any] = deque()

    def append(self, record: Any) -> Optional[Any]:
        """Append ``record``; return the record it dropped, if any."""
        dropped = None
        if len(self._records) >= self.capacity:
            dropped = self._records.popleft()
            self.dropped += 1
        self._records.append(record)
        return dropped

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._records)

    def records(self) -> List[Any]:
        return list(self._records)


# ----------------------------------------------------------------------
# Operation-duration histograms the instrumentation sites feed.
# name -> (lo, hi, nr_edges) geometric bins, in cycles.
# ----------------------------------------------------------------------
HISTOGRAM_SPECS: Dict[str, Tuple[float, float, int]] = {
    "tpm.copy_cycles": (100.0, 10_000_000.0, 41),
    "tpm.total_cycles": (100.0, 10_000_000.0, 41),
    "mpq.wait_cycles": (100.0, 1_000_000_000.0, 57),
    "fault.service_cycles": (50.0, 10_000_000.0, 49),
}


class ObsManager:
    """Per-machine observability faucet: ring + histograms + windows.

    Construction is free and side-effect free; everything is a no-op
    until :meth:`enable`. Instrumentation sites therefore call
    :meth:`emit` / :meth:`observe` unconditionally. The manager never
    charges cycles or mutates frames/PTEs/queues, which is what makes
    the "tracing changes no simulated counters" invariant hold.
    """

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self.enabled = False
        self.ring: Optional[TraceRing] = None
        # Records in the ring per tracepoint name, kept at emit so that
        # counts() need not walk the ring.
        self._counts: Dict[str, int] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.sampler: Optional["GaugeSampler"] = None
        # Second observability tier (all off by default; see enable_*):
        # span stitching, windowed time series, wall-clock self-profile.
        self.spans: Optional["SpanTracker"] = None
        self.timeseries: Optional["TimeSeriesAggregator"] = None
        self.tenant_series: Optional["TenantSeriesAggregator"] = None
        self.selfprof = None  # SelfProfiler
        # emit() fan-out beyond the ring (the span tracker subscribes
        # here). Listeners receive the TraceRecord; they must only read
        # simulation state, never mutate it.
        self._listeners: List[Any] = []

    # ------------------------------------------------------------------
    def enable(
        self,
        capacity: int = 65536,
        sample_period: Optional[float] = 50_000.0,
    ) -> "ObsManager":
        """Start recording; idempotent.

        ``capacity`` bounds the tracepoint ring. ``sample_period``
        (cycles) starts a :class:`~repro.obs.windows.GaugeSampler`
        process; pass ``None`` to trace without gauge sampling. Every
        emit is checked against the tracepoint catalog (exact fields).
        """
        if self.enabled:
            return self
        from .windows import GaugeSampler

        self.ring = TraceRing(capacity=capacity)
        self._counts = {}
        self.histograms = {
            name: Histogram.geometric(lo, hi, n, name=name)
            for name, (lo, hi, n) in HISTOGRAM_SPECS.items()
        }
        if sample_period is not None:
            self.sampler = GaugeSampler(self.machine, sample_period)
            self.sampler.start()
        self.enabled = True
        return self

    # ------------------------------------------------------------------
    # Second tier: spans, windowed time series, wall-clock self-profile
    # ------------------------------------------------------------------
    def enable_spans(self) -> "SpanTracker":
        """Stitch tracepoints into lifecycle spans (idempotent).

        Enables the base layer first if needed: spans are derived purely
        from emitted tracepoints, so the faucet must be open. Returns
        the :class:`~repro.obs.spans.SpanTracker`.
        """
        if self.spans is not None:
            return self.spans
        if not self.enabled:
            self.enable(sample_period=None)
        from .spans import SpanTracker

        self.spans = SpanTracker(self.machine)
        self._listeners.append(self.spans.feed)
        return self.spans

    def enable_timeseries(
        self, window_cycles: float = 100_000.0
    ) -> "TimeSeriesAggregator":
        """Aggregate counters/gauges/span latencies into fixed windows.

        Implies :meth:`enable_spans` (per-window migration-latency
        percentiles are fed by closing spans). Returns the running
        :class:`~repro.obs.windows.TimeSeriesAggregator`.
        """
        if self.timeseries is not None:
            return self.timeseries
        tracker = self.enable_spans()
        from .windows import TimeSeriesAggregator

        self.timeseries = TimeSeriesAggregator(self.machine, window_cycles)
        tracker.subscribe(self.timeseries.note_span)
        self.timeseries.start()
        return self.timeseries

    def enable_tenant_series(
        self, tenants, window_cycles: float = 100_000.0
    ) -> "TenantSeriesAggregator":
        """Aggregate per-tenant windows for a multi-tenant co-run.

        ``tenants`` is a sequence of
        :class:`~repro.obs.windows.TenantRange` (disjoint vpn ranges).
        Implies :meth:`enable_spans` (per-tenant TPM latency percentiles
        are fed by closing spans, attributed by the span's vpn key) and
        registers an emit listener that attributes vpn-carrying
        tracepoints. Returns the running
        :class:`~repro.obs.windows.TenantSeriesAggregator`.
        """
        if self.tenant_series is not None:
            return self.tenant_series
        tracker = self.enable_spans()
        from .windows import TenantSeriesAggregator

        self.tenant_series = TenantSeriesAggregator(
            self.machine, tenants, window_cycles
        )
        self._listeners.append(self.tenant_series.feed)
        tracker.subscribe(self.tenant_series.note_span)
        self.tenant_series.start()
        return self.tenant_series

    def enable_selfprof(self):
        """Attribute host wall time to subsystems (idempotent).

        Purely wall-clock: the profiler hooks the engine's run-loop
        steps and never reads or writes simulated state, so it is
        usable even with the rest of the faucet closed. Returns the
        :class:`~repro.obs.selfprof.SelfProfiler`.
        """
        if self.selfprof is not None:
            return self.selfprof
        from .selfprof import SelfProfiler

        self.selfprof = SelfProfiler()
        self.selfprof.start()
        self.machine.engine.profiler = self.selfprof
        return self.selfprof

    def disable(self) -> None:
        """Stop recording (collected data stays queryable)."""
        for view in (self.sampler, self.timeseries, self.tenant_series):
            if view is not None:
                view.stop()
        if self.selfprof is not None:
            self.selfprof.stop()
            self.machine.engine.profiler = None
        self.enabled = False

    def __enter__(self) -> "ObsManager":
        return self.enable() if not self.enabled else self

    def __exit__(self, *exc) -> None:
        self.disable()

    # ------------------------------------------------------------------
    # Emission (hot path: cheap no-ops while disabled)
    # ------------------------------------------------------------------
    def emit(self, name: str, **fields: Any) -> None:
        """Record one trace event at the current simulation time."""
        if not self.enabled:
            return
        expected = _FIELDSETS.get(name)
        if expected is None:
            raise ValueError(f"unknown tracepoint {name!r}")
        if fields.keys() != expected:
            raise ValueError(
                f"tracepoint {name!r} expects fields "
                f"{TRACEPOINTS[name].fields}, got {tuple(sorted(fields))}"
            )
        record = TraceRecord(self.machine.engine.now, name, fields)
        counts = self._counts
        counts[name] = counts.get(name, 0) + 1
        dropped = self.ring.append(record)
        if dropped is not None:
            left = counts[dropped.name] - 1
            if left:
                counts[dropped.name] = left
            else:
                del counts[dropped.name]
        if self._listeners:
            for listener in self._listeners:
                listener(record)

    def observe(self, name: str, value: float) -> None:
        """Feed one duration sample into the named histogram."""
        if not self.enabled:
            return
        hist = self.histograms.get(name)
        if hist is None:
            lo, hi, n = HISTOGRAM_SPECS.get(name, (50.0, 1e9, 57))
            hist = self.histograms[name] = Histogram.geometric(lo, hi, n, name=name)
        hist.observe(value)

    @property
    def now(self) -> float:
        return self.machine.engine.now

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def records(self) -> List[TraceRecord]:
        return self.ring.records() if self.ring is not None else []

    def select(self, name: str) -> List[TraceRecord]:
        return [r for r in self.records() if r.name == name]

    def counts(self) -> Counter:
        """Records in the ring per tracepoint name."""
        return Counter(self._counts)

    @property
    def dropped(self) -> int:
        return self.ring.dropped if self.ring is not None else 0

    def summary(self) -> Dict[str, Any]:
        """Compact digest attached to :class:`~repro.sim.scheduler.RunReport`."""
        out: Dict[str, Any] = {
            "events": dict(self.counts()),
            "dropped": self.dropped,
            "histograms": {
                name: hist.summary()
                for name, hist in sorted(self.histograms.items())
                if hist.total
            },
        }
        if self.sampler is not None:
            # Samples per gauge, every gauge named (columns after time).
            samples = Counter(name for row in self.sampler.rows for name in row)
            out["gauges"] = {name: samples[name] for name in self.sampler.columns[1:]}
        executors = getattr(self.machine, "fastpath_executors", None)
        if executors:
            # Two-speed engagement (PR 6 telemetry, machine-wide totals).
            out["fastpath"] = {
                "fast_chunks": sum(e.fast_chunks for e in executors),
                "slow_chunks": sum(e.slow_chunks for e in executors),
                "vector_batches": sum(e.vector_batches for e in executors),
                "revalidations": sum(e.revalidations for e in executors),
            }
        if self.spans is not None:
            out["spans"] = self.spans.summary()
        if self.timeseries is not None:
            out["timeseries"] = {
                "windows": len(self.timeseries.rows),
                "dropped": self.timeseries.rows.dropped,
                "window_cycles": self.timeseries.window_cycles,
            }
        if self.tenant_series is not None:
            out["tenant_series"] = {
                "rows": len(self.tenant_series.rows),
                "dropped": self.tenant_series.rows.dropped,
                "tenants": len(self.tenant_series.tenants),
                "unattributed": self.tenant_series.unattributed,
                "window_cycles": self.tenant_series.window_cycles,
            }
        return out
