"""Kernel-style observability: tracepoints, gauges, histograms, exporters.

The subsystem mirrors how the kernel is observed in the paper's own
methodology (ftrace tracepoints, vmstat counters, periodic gauge
sampling) and keeps one hard invariant: **enabling observability changes
no simulated behaviour** -- it reads state and records, never charges
cycles or mutates pages.

Layout:

* :mod:`repro.obs.counters` -- the registry every ``Stats.bump`` name
  must appear in (typo'd counters fail the lint test);
* :mod:`repro.obs.tracepoints` -- typed trace events, the bounded
  drop-counting ring buffer, and :class:`ObsManager`
  (``machine.obs``);
* :mod:`repro.obs.windows` -- the window engine that folds simulated
  time into fixed windows, and its periodic gauge-sample view (MPQ
  depth, shadow count, free frames, LRU sizes ...);
* :mod:`repro.obs.hist` -- reusable geometric-bin histograms (TPM copy
  time, MPQ wait, fault service latency, access latency);
* :mod:`repro.obs.export` -- JSONL / CSV / Prometheus text / Chrome
  Trace Event renderers.

A second tier stitches the raw stream into higher-level views, each off
by default and bit-neutral when enabled:

* :mod:`repro.obs.spans` -- tracepoints folded into lifecycle spans
  (TPM transactions with phase breakdowns, MPQ residencies, shadow
  lifetimes, sync fallbacks), exported as JSONL or Perfetto slices;
* the two other views of :mod:`repro.obs.windows` -- machine-wide
  windows (abort rate, migration rates, per-window TPM p50/p99) for
  timeline plots and ``repro top``, and the same windows per tenant of
  a multi-tenant co-run, attributed by disjoint vpn ranges;
* :mod:`repro.obs.selfprof` -- host wall-clock attribution per
  subsystem (where does *simulator* time go);
* :mod:`repro.obs.top` -- the live terminal dashboard.

Typical use::

    machine = Machine(platform_a())
    machine.obs.enable(sample_period=25_000.0)
    machine.set_policy(NomadPolicy(machine))
    machine.run_workload(workload)
    write_obs_outputs(machine, "out/obs")   # perfetto-loadable trace etc.
"""

from .counters import COUNTERS, is_registered, register_counter
from .export import (
    chrome_trace,
    events_to_csv,
    events_to_jsonl,
    prometheus_text,
    write_obs_outputs,
)
from .hist import Histogram, bucket_values, percentile_from_counts
from .selfprof import SelfProfiler
from .spans import (
    SPAN_KINDS,
    Span,
    SpanTracker,
    spans_to_chrome,
    spans_to_jsonl,
)
from .tracepoints import (
    HISTOGRAM_SPECS,
    ObsManager,
    TRACEPOINTS,
    TraceRecord,
    TraceRing,
    TracepointSpec,
    register_tracepoint,
)
from .windows import (
    GAUGES,
    TENANT_TIMESERIES_COLUMNS,
    TIMESERIES_COLUMNS,
    GaugeSampler,
    TenantRange,
    TenantSeriesAggregator,
    TimeSeriesAggregator,
    WindowEngine,
    windows_to_csv,
    windows_to_json,
)

__all__ = [
    "COUNTERS",
    "is_registered",
    "register_counter",
    "Histogram",
    "bucket_values",
    "percentile_from_counts",
    "TRACEPOINTS",
    "TracepointSpec",
    "register_tracepoint",
    "TraceRecord",
    "TraceRing",
    "HISTOGRAM_SPECS",
    "ObsManager",
    "chrome_trace",
    "events_to_jsonl",
    "events_to_csv",
    "prometheus_text",
    "write_obs_outputs",
    "SPAN_KINDS",
    "Span",
    "SpanTracker",
    "spans_to_jsonl",
    "spans_to_chrome",
    "GAUGES",
    "WindowEngine",
    "GaugeSampler",
    "TIMESERIES_COLUMNS",
    "TimeSeriesAggregator",
    "TENANT_TIMESERIES_COLUMNS",
    "TenantRange",
    "TenantSeriesAggregator",
    "windows_to_csv",
    "windows_to_json",
    "SelfProfiler",
]
