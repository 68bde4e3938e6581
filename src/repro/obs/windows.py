"""Windowed observability: one engine, three views.

The paper reads its results over simulated time: bandwidth through the
transient and stable phases (Figures 7-10), queue depths under pressure,
and the TPM abort rate under thrashing. :class:`WindowEngine` is the one
engine process behind every such view. It wakes every ``window_cycles``
cycles, asks its view for the rows of the window that just closed,
appends them to a bounded ring with drop accounting, and hands each row
to the :meth:`~WindowEngine.on_window` subscribers (``repro top``).
Three views ride on it:

* :class:`GaugeSampler` -- one row of instantaneous :data:`GAUGES`
  readings (MPQ depth, shadow pages, free frames, LRU sizes ...) at
  every boundary, starting at time zero (``gauges.csv``);
* :class:`TimeSeriesAggregator` -- machine-wide windows: deltas of the
  migration counters, the abort rate ``aborts / (commits + aborts)``,
  boundary gauges, and p50/p99 of the TPM spans that closed in the
  window (``timeseries.csv``, :data:`TIMESERIES_COLUMNS`);
* :class:`TenantSeriesAggregator` -- the same windows split per tenant
  of a multi-tenant co-run, attributed by disjoint vpn ranges from
  vpn-carrying tracepoints and closing spans
  (``tenant_timeseries.csv``, :data:`TENANT_TIMESERIES_COLUMNS`).

Each enabled view runs its own engine process. A view only reads
simulation state, at window boundaries and from emit/span feeds; it
never charges cycles or mutates frames, so enabling one changes no
simulated counter (the invariance tests pin this).
"""

from __future__ import annotations

import csv
import io
import json
from bisect import bisect_right
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
    TYPE_CHECKING,
)

import numpy as np

from .hist import Histogram
from .tracepoints import TraceRing

if TYPE_CHECKING:  # pragma: no cover
    from ..system import Machine
    from ..workloads.base import Workload
    from .spans import Span
    from .tracepoints import TraceRecord

__all__ = [
    "GAUGES",
    "TIMESERIES_COLUMNS",
    "TENANT_TIMESERIES_COLUMNS",
    "WindowEngine",
    "GaugeSampler",
    "TimeSeriesAggregator",
    "TenantRange",
    "TenantSeriesAggregator",
    "windows_to_csv",
    "windows_to_json",
]

Gauge = Callable[["Machine"], Optional[float]]


def _policy_gauge(attr: str, read: Callable[[Any], int] = len) -> Gauge:
    """A reading of the installed policy's ``attr``; None if it has none."""

    def gauge(machine: "Machine") -> Optional[float]:
        obj = getattr(machine.policy, attr, None)
        return float(read(obj)) if obj is not None else None

    return gauge


def _tier2_gauge(read: Callable[["Machine"], int]) -> Gauge:
    """A tier-2 reading; None on two-tier machines, which have none."""

    def gauge(machine: "Machine") -> Optional[float]:
        return float(read(machine)) if len(machine.tiers.nodes) > 2 else None

    return gauge


def _fastpath_gauge(attr: str) -> Gauge:
    """A fast-path counter summed over the run's executors.

    None until the scheduler has registered an executor (fast path off
    via REPRO_FASTPATH=0, or no app threads yet).
    """

    def gauge(machine: "Machine") -> Optional[float]:
        executors = getattr(machine, "fastpath_executors", None)
        if not executors:
            return None
        return float(sum(getattr(ex, attr, 0) for ex in executors))

    return gauge


# name -> (help text, exported as the Prometheus HELP line; reader). A
# reader returning None skips the sample, e.g. MPQ depth under a
# non-Nomad policy.
GAUGES: Dict[str, Tuple[str, Gauge]] = {
    "mem.fast_free_pages": ("free frames on the fast tier",
                            lambda m: float(m.tiers.fast.nr_free)),
    "mem.slow_free_pages": ("free frames on the slow tier",
                            lambda m: float(m.tiers.slow.nr_free)),
    "mem.tier2_free_pages": ("free frames on tier 2 (chains deeper than 2)",
                             _tier2_gauge(lambda m: m.tiers.nodes[2].nr_free)),
    "lru.fast_active": ("active-list length, fast node",
                        lambda m: float(m.lru.nr_active(0))),
    "lru.fast_inactive": ("inactive-list length, fast node",
                          lambda m: float(m.lru.nr_inactive(0))),
    "lru.slow_active": ("active-list length, slow node",
                        lambda m: float(m.lru.nr_active(1))),
    "lru.slow_inactive": ("inactive-list length, slow node",
                          lambda m: float(m.lru.nr_inactive(1))),
    "lru.tier2_active": ("active-list length, tier-2 node (deep chains)",
                         _tier2_gauge(lambda m: m.lru.nr_active(2))),
    "lru.tier2_inactive": ("inactive-list length, tier-2 node (deep chains)",
                           _tier2_gauge(lambda m: m.lru.nr_inactive(2))),
    "nomad.mpq_depth": ("migration pending queue depth", _policy_gauge("mpq")),
    "nomad.pcq_depth": ("promotion candidate queue depth", _policy_gauge("pcq")),
    "nomad.shadow_pages": ("live shadow pages", _policy_gauge(
        "shadow_index", lambda index: index.nr_shadow_pages)),
    "engine.pending": ("scheduled engine resumptions",
                       lambda m: float(m.engine.pending)),
    "fastpath.fast_chunks": ("access chunks executed on the vectorized fast path",
                             _fastpath_gauge("fast_chunks")),
    "fastpath.slow_chunks": ("access chunks the fast path ran through run_chunk",
                             _fastpath_gauge("slow_chunks")),
    "fastpath.vector_batches": ("vectorized batches issued by the fast path",
                                _fastpath_gauge("vector_batches")),
    "fastpath.revalidations": ("fast-path validations that committed no chunk",
                               _fastpath_gauge("revalidations")),
}

# Machine-wide windows: column -> Stats counter whose delta it holds.
_COUNTER_KEYS = {
    "promotions": "migrate.promotions",
    "demotions": "migrate.demotions",
    "tpm_commits": "nomad.tpm_commits",
    "tpm_aborts": "nomad.tpm_aborts",
    "shadow_faults": "nomad.shadow_faults",
    "faults": "fault.total",
}

# Gauges read at each window's end (an empty CSV cell while the gauge
# has no source).
_WINDOW_GAUGES = (
    "nomad.mpq_depth",
    "nomad.pcq_depth",
    "nomad.shadow_pages",
    "mem.fast_free_pages",
)

_SPAN_COLUMNS = ("tpm_p50_cycles", "tpm_p99_cycles", "spans_closed")

# The fixed CSV schemas (scripts/check_obs_output.py validates them).
TIMESERIES_COLUMNS = (
    "t_start",
    "t_end",
    *_COUNTER_KEYS,
    "abort_rate",
    *(name.replace(".", "_") for name in _WINDOW_GAUGES),
    *_SPAN_COLUMNS,
)

TENANT_TIMESERIES_COLUMNS = (
    "t_start",
    "t_end",
    "tenant",
    "accesses",
    "writes",
    "tpm_commits",
    "tpm_aborts",
    "abort_rate",
    "mpq_enqueues",
    "sync_promotions",
    "promotions",
    *_SPAN_COLUMNS,
)

# Vpn-carrying tracepoint -> the per-tenant count it feeds.
_TENANT_EVENTS = {
    "tpm.commit": "tpm_commits",
    "tpm.abort": "tpm_aborts",
    "mpq.enqueue": "mpq_enqueues",
    "migrate.sync": "sync_promotions",
}
_TENANT_COUNTS = tuple(_TENANT_EVENTS.values())

_SPAN_EDGES = np.geomspace(100.0, 1e8, num=49)


def _span_hist() -> Histogram:
    """Latencies of the TPM spans that close in one window."""
    return Histogram(_SPAN_EDGES, name="tpm.span_cycles")


def _span_columns(hist: Histogram) -> Dict[str, Any]:
    """A window's TPM-span p50/p99 (0.0 when none closed) and count."""
    return {
        "tpm_p50_cycles": hist.percentile(50.0),
        "tpm_p99_cycles": hist.percentile(99.0),
        "spans_closed": hist.total,
    }


def _abort_rate(row: Dict[str, Any]) -> float:
    ended = row["tpm_commits"] + row["tpm_aborts"]
    return row["tpm_aborts"] / ended if ended else 0.0


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class WindowEngine:
    """Engine process closing a window every ``window_cycles`` cycles.

    A view subclass names its process (``proc_name``), its ring size
    (``capacity``) and CSV schema (``columns``), and turns the window
    ``[t_start, t_end)`` that just closed into rows (:meth:`_window_rows`).
    """

    proc_name: str
    capacity: int
    columns: Tuple[str, ...]

    def __init__(
        self, machine: "Machine", window_cycles: float = 100_000.0
    ) -> None:
        if window_cycles <= 0:
            raise ValueError(
                f"window_cycles must be positive, got {window_cycles}"
            )
        self.machine = machine
        self.window_cycles = float(window_cycles)
        self.rows = TraceRing(capacity=self.capacity)
        self.proc = None
        self._t_start = machine.engine.now
        self._callbacks: List[Callable[[Dict[str, Any]], None]] = []

    def _window_rows(self, t_start: float, t_end: float) -> Iterable[Dict[str, Any]]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def start(self) -> "WindowEngine":
        if self.proc is None or not self.proc.alive:
            self.proc = self.machine.engine.spawn(
                self._run(), name=self.proc_name
            )
        return self

    def stop(self) -> None:
        if self.proc is not None and self.proc.alive:
            self.machine.engine.kill(self.proc)
        self.proc = None

    def _run(self):
        while True:
            yield self.window_cycles
            self._close()

    def on_window(self, callback: Callable[[Dict[str, Any]], None]) -> None:
        """Call ``callback(row)`` for each row as its window closes."""
        self._callbacks.append(callback)

    def _close(self) -> None:
        now = self.machine.engine.now
        for row in self._window_rows(self._t_start, now):
            self.rows.append(row)
            for callback in self._callbacks:
                callback(row)
        self._t_start = now

    def finish(self) -> None:
        """Close the partial window up to now (idempotent; exporters call it)."""
        if self.machine.engine.now > self._t_start:
            self._close()

    def as_rows(self) -> List[Dict[str, Any]]:
        return self.rows.records()

    def meta(self) -> Dict[str, Any]:
        """Run-level fields the JSON export carries beside the rows."""
        return {"window_cycles": self.window_cycles, "dropped": self.rows.dropped}


# ----------------------------------------------------------------------
# View 1: gauge samples
# ----------------------------------------------------------------------
class GaugeSampler(WindowEngine):
    """Every gauge, read at each boundary from time zero on.

    A row is ``{"time_cycles": t, gauge: value, ...}`` and holds only
    the gauges that had a source at ``t``.
    """

    proc_name = "obs.sampler"
    capacity = 65536
    columns = ("time_cycles", *sorted(GAUGES))

    def _run(self):
        self._close()
        yield from super()._run()

    def _window_rows(self, t_start: float, t_end: float) -> Iterable[Dict[str, Any]]:
        row: Dict[str, Any] = {"time_cycles": t_end}
        for name, (_help, read) in GAUGES.items():
            value = read(self.machine)
            if value is not None:
                row[name] = value
        return (row,)

    def finish(self) -> None:
        """Samples are instants: there is no partial window to close."""

    def series(self, name: str) -> List[Tuple[float, float]]:
        """``(time, value)`` for each sample of gauge ``name``."""
        return [(row["time_cycles"], row[name]) for row in self.rows if name in row]

    def latest(self, name: str) -> Optional[float]:
        series = self.series(name)
        return series[-1][1] if series else None


# ----------------------------------------------------------------------
# View 2: machine-wide windows
# ----------------------------------------------------------------------
class TimeSeriesAggregator(WindowEngine):
    """Counter deltas, boundary gauges and TPM latency per window."""

    proc_name = "obs.timeseries"
    capacity = 4096
    columns = TIMESERIES_COLUMNS

    def __init__(
        self, machine: "Machine", window_cycles: float = 100_000.0
    ) -> None:
        super().__init__(machine, window_cycles)
        self._last = self._counter_snapshot()
        self._spans = _span_hist()

    def note_span(self, span: "Span") -> None:
        """Span-tracker feed: the latency of each closing TPM span."""
        if span.kind == "tpm":
            self._spans.observe(max(span.duration, 1e-9))

    def _counter_snapshot(self) -> Dict[str, float]:
        counters = self.machine.stats.counters
        return {col: counters.get(name, 0.0) for col, name in _COUNTER_KEYS.items()}

    def _window_rows(self, t_start: float, t_end: float) -> Iterable[Dict[str, Any]]:
        snap = self._counter_snapshot()
        row: Dict[str, Any] = {"t_start": t_start, "t_end": t_end}
        for col in _COUNTER_KEYS:
            row[col] = snap[col] - self._last[col]
        row["abort_rate"] = _abort_rate(row)
        for name in _WINDOW_GAUGES:
            row[name.replace(".", "_")] = GAUGES[name][1](self.machine)
        row.update(_span_columns(self._spans))
        self._last = snap
        self._spans = _span_hist()
        return (row,)


# ----------------------------------------------------------------------
# View 3: per-tenant windows
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TenantRange:
    """One tenant's identity: a name and its private vpn range."""

    name: str
    lo: int  # inclusive
    hi: int  # exclusive
    workload: Optional["Workload"] = None

    def __post_init__(self) -> None:
        if self.lo < 0 or self.hi <= self.lo:
            raise ValueError(
                f"tenant {self.name!r}: vpn range [{self.lo}, {self.hi}) "
                "must be non-empty and non-negative"
            )


class _TenantState:
    """One tenant's counts: this window's, the run's, and its spans."""

    def __init__(self) -> None:
        self.window = dict.fromkeys(_TENANT_COUNTS, 0)
        self.total = dict.fromkeys(_TENANT_COUNTS, 0)
        self.last_accesses = 0
        self.last_writes = 0
        self.spans = _span_hist()


class TenantSeriesAggregator(WindowEngine):
    """The machine-wide windows split by tenant vpn range.

    Co-running trace workloads claim globally disjoint vpn namespaces
    (``vpn_base`` padding, see
    :class:`~repro.workloads.trace_file.StreamingTraceWorkload`). Each
    window yields one row per tenant: executed accesses and writes, read
    from the tenant workload's progress counters; TPM commits/aborts, MPQ
    enqueues and successful promotion-direction ``migrate.sync`` events
    from the emit feed; p50/p99 of the tenant's closing TPM spans.
    """

    proc_name = "obs.tenants"
    capacity = 8192
    columns = TENANT_TIMESERIES_COLUMNS

    def __init__(
        self,
        machine: "Machine",
        tenants: Sequence[TenantRange],
        window_cycles: float = 100_000.0,
    ) -> None:
        super().__init__(machine, window_cycles)
        if not tenants:
            raise ValueError("need at least one tenant range")
        ordered = sorted(tenants, key=lambda t: t.lo)
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.lo < prev.hi:
                raise ValueError(
                    f"tenant vpn ranges overlap: {prev.name!r} "
                    f"[{prev.lo}, {prev.hi}) and {cur.name!r} "
                    f"[{cur.lo}, {cur.hi})"
                )
        self.tenants = ordered
        self._lows = [t.lo for t in ordered]
        self._states = [_TenantState() for _ in ordered]
        self.unattributed = 0  # vpn-carrying events outside every range

    def _find(self, vpn: Any) -> Optional[int]:
        try:
            # Accept plain and numpy integers (fast-path emits carry
            # numpy scalars); reject None and strings. A negative vpn
            # lies below every range.
            vpn = int(vpn)
        except (TypeError, ValueError):
            return None
        i = bisect_right(self._lows, vpn) - 1
        return i if i >= 0 and vpn < self.tenants[i].hi else None

    # ------------------------------------------------------------------
    # Feeds (emit listener + span subscription)
    # ------------------------------------------------------------------
    def feed(self, record: "TraceRecord") -> None:
        field = _TENANT_EVENTS.get(record.name)
        if field is None:
            return
        args = record.args
        if field == "sync_promotions" and not (
            args.get("success") and args.get("dst_tier", 1) < args.get("src_tier", 0)
        ):
            return  # failed, or demotion-direction: not a promotion
        i = self._find(args.get("vpn"))
        if i is None:
            self.unattributed += 1
            return
        state = self._states[i]
        state.window[field] += 1
        state.total[field] += 1

    def note_span(self, span: "Span") -> None:
        if span.kind != "tpm":
            return
        i = self._find(span.key)
        if i is not None:
            self._states[i].spans.observe(max(span.duration, 1e-9))

    # ------------------------------------------------------------------
    def _window_rows(self, t_start: float, t_end: float) -> Iterable[Dict[str, Any]]:
        rows = []
        for tenant, state in zip(self.tenants, self._states):
            w = tenant.workload
            accesses, writes = (
                (w.executed_accesses, w.executed_writes) if w is not None else (0, 0)
            )
            row: Dict[str, Any] = {
                "t_start": t_start,
                "t_end": t_end,
                "tenant": tenant.name,
                "accesses": accesses - state.last_accesses,
                "writes": writes - state.last_writes,
            }
            state.last_accesses, state.last_writes = accesses, writes
            row.update(state.window)
            row["abort_rate"] = _abort_rate(row)
            row["promotions"] = row["tpm_commits"] + row["sync_promotions"]
            row.update(_span_columns(state.spans))
            rows.append(row)
            state.window = dict.fromkeys(_TENANT_COUNTS, 0)
            state.spans = _span_hist()
        return rows

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Cumulative per-tenant counters over the whole run."""
        out: Dict[str, Dict[str, float]] = {}
        for tenant, state in zip(self.tenants, self._states):
            entry = {name: float(state.total[name]) for name in _TENANT_COUNTS}
            entry["promotions"] = (
                entry["tpm_commits"] + entry["sync_promotions"]
            )
            if tenant.workload is not None:
                entry["accesses"] = float(tenant.workload.executed_accesses)
                entry["writes"] = float(tenant.workload.executed_writes)
            out[tenant.name] = entry
        return out

    def meta(self) -> Dict[str, Any]:
        return {
            **super().meta(),
            "unattributed": self.unattributed,
            "tenants": [
                {"name": t.name, "lo": t.lo, "hi": t.hi} for t in self.tenants
            ],
        }


# ----------------------------------------------------------------------
# Exporters (every view)
# ----------------------------------------------------------------------
def windows_to_csv(view: WindowEngine) -> str:
    """The view's fixed-schema CSV, one line per row.

    A gauge without a source at that time is an empty cell.
    """
    view.finish()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(view.columns)
    for row in view.as_rows():
        writer.writerow([row.get(col) for col in view.columns])
    return buf.getvalue()


def windows_to_json(view: WindowEngine) -> str:
    """The view's rows as one JSON document, with its :meth:`meta`."""
    view.finish()
    return json.dumps(
        {**view.meta(), "rows": view.as_rows()}, indent=1, sort_keys=True
    ) + "\n"
