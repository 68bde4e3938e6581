"""Trace and metric exporters: JSONL, CSV, Prometheus, Chrome Trace.

Four render targets for the same captured data:

* :func:`events_to_jsonl` -- one JSON object per line
  (``{"ts": .., "name": .., "args": {..}}``), the machine-readable
  event stream;
* :func:`events_to_csv` / :func:`gauges_to_csv` -- flat tables for
  pandas/gnuplot;
* :func:`prometheus_text` -- the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` plus samples). Every counter in the
  :mod:`repro.obs.counters` registry is emitted even at zero, so a
  scrape always sees the full metric set; gauges report their latest
  sample and histograms use the cumulative ``_bucket``/``_sum``/
  ``_count`` convention;
* :func:`chrome_trace` -- the Chrome Trace Event Format consumed by
  ``chrome://tracing`` and Perfetto: TPM begin/commit/abort pairs
  become complete ("X") duration slices, other tracepoints instant
  ("i") events, and gauge series counter ("C") tracks.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from typing import Any, Dict, Iterable, List, Mapping, Optional, TYPE_CHECKING

from .counters import COUNTERS
from .sampler import GAUGES
from .tracepoints import TraceRecord

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.stats import Stats
    from .hist import Histogram
    from .sampler import GaugeSampler

__all__ = [
    "events_to_jsonl",
    "events_to_csv",
    "gauges_to_csv",
    "prometheus_text",
    "chrome_trace",
    "write_obs_outputs",
    "counter_digest",
    "json_digest",
    "nonzero_counters",
]

_METRIC_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")


def metric_name(name: str, prefix: str = "repro") -> str:
    """``nomad.tpm_commits`` -> ``repro_nomad_tpm_commits``."""
    return f"{prefix}_{_METRIC_SANITIZE.sub('_', name)}"


# ----------------------------------------------------------------------
# Content digests (perf baselines, sweep aggregation)
# ----------------------------------------------------------------------
def json_digest(obj: Any) -> str:
    """sha256 over a canonical JSON encoding of ``obj``.

    Canonical means sorted keys and no whitespace, so two structurally
    equal payloads always hash the same. Non-JSON values must be
    normalized to plain python types by the caller first.
    """
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def nonzero_counters(counters: Mapping[str, float]) -> Dict[str, float]:
    """The counters a digest covers: nonzero ones, as floats, by name."""
    return {
        name: float(value) for name, value in sorted(counters.items()) if value
    }


def counter_digest(counters: Mapping[str, float]) -> str:
    """Digest of a counter map, ignoring zero-valued entries.

    Zeros are dropped so a counter that was merely *touched* (defaultdict
    reads, registry pre-seeding) cannot change the digest: only observed
    activity counts. The simulator is deterministic, so any digest drift
    between two runs of the same cell is a real behaviour change.
    """
    return json_digest(nonzero_counters(counters))


# ----------------------------------------------------------------------
# Event streams
# ----------------------------------------------------------------------
def events_to_jsonl(records: Iterable[TraceRecord]) -> str:
    """One compact JSON object per record, newline-delimited."""
    lines = [
        json.dumps(record.as_dict(), separators=(",", ":"), sort_keys=True)
        for record in records
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def events_to_csv(records: Iterable[TraceRecord]) -> str:
    """Flat CSV: ``time_cycles,name,args`` (args JSON-encoded)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("time_cycles", "name", "args"))
    for record in records:
        writer.writerow(
            (record.ts, record.name, json.dumps(record.args, sort_keys=True))
        )
    return buf.getvalue()


def gauges_to_csv(sampler: "GaugeSampler") -> str:
    """Wide CSV of every gauge series, one row per sample time."""
    rows = sampler.as_rows()
    names = sorted(sampler.series)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["time_cycles"] + names)
    for row in rows:
        writer.writerow(
            [row["time_cycles"]] + [row.get(name, "") for name in names]
        )
    return buf.getvalue()


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def prometheus_text(
    stats: "Stats",
    sampler: Optional["GaugeSampler"] = None,
    histograms: Optional[Dict[str, "Histogram"]] = None,
) -> str:
    """Render counters, gauges, and histograms as Prometheus text.

    Counter metrics carry the conventional ``_total`` suffix. Counters
    bumped at runtime but missing from the registry are still exported
    (with a generic HELP) so nothing observed is ever hidden -- the lint
    test, not the exporter, is what keeps the registry complete.
    """
    out: List[str] = []

    names = sorted(set(COUNTERS) | set(stats.counters))
    for name in names:
        metric = metric_name(name) + "_total"
        help_text = COUNTERS.get(name, "unregistered counter")
        out.append(f"# HELP {metric} {help_text}")
        out.append(f"# TYPE {metric} counter")
        out.append(f"{metric} {stats.counters.get(name, 0.0):g}")

    gauge_names = sorted(
        set(GAUGES) | (set(sampler.series) if sampler is not None else set())
    )
    for name in gauge_names:
        metric = metric_name(name)
        out.append(f"# HELP {metric} {GAUGES.get(name, 'gauge')}")
        out.append(f"# TYPE {metric} gauge")
        latest = sampler.latest(name) if sampler is not None else None
        out.append(f"{metric} {0.0 if latest is None else latest:g}")

    for name, hist in sorted((histograms or {}).items()):
        metric = metric_name(name)
        out.append(f"# HELP {metric} cycles histogram")
        out.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for edge, count in zip(hist.edges, hist.counts):
            cumulative += int(count)
            out.append(f'{metric}_bucket{{le="{edge:g}"}} {cumulative}')
        out.append(f'{metric}_bucket{{le="+Inf"}} {hist.total}')
        out.append(f"{metric}_sum {hist.sum:g}")
        out.append(f"{metric}_count {hist.total}")

    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# Chrome Trace Event Format (chrome://tracing, Perfetto)
# ----------------------------------------------------------------------
# Tracepoint pairs folded into complete ("X") duration slices, keyed by
# the payload field that correlates begin with end.
_DURATION_PAIRS = {"tpm.begin": ("vpn", {"tpm.commit", "tpm.abort"})}

_PID = 1  # one simulated machine per trace


def _us(cycles: float, freq_ghz: float) -> float:
    return cycles / (freq_ghz * 1e3)


def chrome_trace(
    records: Iterable[TraceRecord],
    sampler: Optional["GaugeSampler"] = None,
    freq_ghz: float = 2.0,
) -> Dict[str, Any]:
    """Build a Chrome Trace Event JSON object (dict; ``json.dump`` it).

    Timestamps are microseconds of simulated time. Each subsystem
    (the tracepoint name's prefix) gets its own thread lane; gauges
    become counter tracks.
    """
    events: List[Dict[str, Any]] = []
    tids: Dict[str, int] = {}

    def tid(lane: str) -> int:
        if lane not in tids:
            tids[lane] = len(tids) + 1
            events.append(
                {
                    "ph": "M",
                    "pid": _PID,
                    "tid": tids[lane],
                    "name": "thread_name",
                    "args": {"name": lane},
                }
            )
        return tids[lane]

    open_slices: Dict[Any, TraceRecord] = {}
    for record in records:
        lane = record.name.split(".", 1)[0]
        pair = _DURATION_PAIRS.get(record.name)
        if pair is not None:
            open_slices[(lane, record.args.get(pair[0]))] = record
            continue
        closed = False
        for begin_name, (key_field, end_names) in _DURATION_PAIRS.items():
            if record.name in end_names:
                begin = open_slices.pop((lane, record.args.get(key_field)), None)
                if begin is not None:
                    events.append(
                        {
                            "ph": "X",
                            "pid": _PID,
                            "tid": tid(lane),
                            "name": record.name,
                            "cat": lane,
                            "ts": _us(begin.ts, freq_ghz),
                            "dur": _us(record.ts - begin.ts, freq_ghz),
                            "args": record.args,
                        }
                    )
                    closed = True
                break
        if closed:
            continue
        events.append(
            {
                "ph": "i",
                "s": "t",
                "pid": _PID,
                "tid": tid(lane),
                "name": record.name,
                "cat": lane,
                "ts": _us(record.ts, freq_ghz),
                "args": record.args,
            }
        )
    # Begins whose end fell outside the ring: emit as instants so the
    # trace stays loadable rather than silently losing them.
    for (lane, _key), begin in open_slices.items():
        events.append(
            {
                "ph": "i",
                "s": "t",
                "pid": _PID,
                "tid": tid(lane),
                "name": begin.name,
                "cat": lane,
                "ts": _us(begin.ts, freq_ghz),
                "args": begin.args,
            }
        )

    if sampler is not None:
        for name, series in sorted(sampler.series.items()):
            for ts, value in series:
                events.append(
                    {
                        "ph": "C",
                        "pid": _PID,
                        "name": name,
                        "ts": _us(ts, freq_ghz),
                        "args": {"value": value},
                    }
                )

    events.sort(key=lambda e: e.get("ts", 0.0))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.obs", "clock": f"{freq_ghz}GHz cycles"},
    }


# ----------------------------------------------------------------------
# Convenience: dump every format for one machine
# ----------------------------------------------------------------------
def write_obs_outputs(machine, out_dir) -> Dict[str, str]:
    """Write all exporter outputs for ``machine`` into ``out_dir``.

    Returns ``{kind: path}``. Requires ``machine.obs`` to have been
    enabled before the run.
    """
    import os

    obs = machine.obs
    os.makedirs(out_dir, exist_ok=True)
    records = obs.records()
    paths = {
        "jsonl": os.path.join(out_dir, "events.jsonl"),
        "csv": os.path.join(out_dir, "events.csv"),
        "prometheus": os.path.join(out_dir, "metrics.prom"),
        "chrome": os.path.join(out_dir, "trace.json"),
    }
    with open(paths["jsonl"], "w") as f:
        f.write(events_to_jsonl(records))
    with open(paths["csv"], "w") as f:
        f.write(events_to_csv(records))
    with open(paths["prometheus"], "w") as f:
        f.write(prometheus_text(machine.stats, obs.sampler, obs.histograms))
    with open(paths["chrome"], "w") as f:
        json.dump(
            chrome_trace(records, obs.sampler, machine.platform.freq_ghz), f
        )
    if obs.sampler is not None:
        paths["gauges"] = os.path.join(out_dir, "gauges.csv")
        with open(paths["gauges"], "w") as f:
            f.write(gauges_to_csv(obs.sampler))
    if obs.spans is not None:
        from .spans import spans_to_chrome, spans_to_jsonl

        spans = obs.spans.spans()
        paths["spans"] = os.path.join(out_dir, "spans.jsonl")
        with open(paths["spans"], "w") as f:
            f.write(spans_to_jsonl(spans))
        paths["spans_chrome"] = os.path.join(out_dir, "spans_trace.json")
        with open(paths["spans_chrome"], "w") as f:
            json.dump(
                spans_to_chrome(spans, machine.platform.freq_ghz), f
            )
    if obs.timeseries is not None:
        from .timeseries import timeseries_to_csv, timeseries_to_json

        paths["timeseries"] = os.path.join(out_dir, "timeseries.csv")
        with open(paths["timeseries"], "w") as f:
            f.write(timeseries_to_csv(obs.timeseries))
        paths["timeseries_json"] = os.path.join(out_dir, "timeseries.json")
        with open(paths["timeseries_json"], "w") as f:
            f.write(timeseries_to_json(obs.timeseries))
    if obs.tenant_series is not None:
        from .tenants import tenant_timeseries_to_csv, tenant_timeseries_to_json

        paths["tenant_timeseries"] = os.path.join(
            out_dir, "tenant_timeseries.csv"
        )
        with open(paths["tenant_timeseries"], "w") as f:
            f.write(tenant_timeseries_to_csv(obs.tenant_series))
        paths["tenant_timeseries_json"] = os.path.join(
            out_dir, "tenant_timeseries.json"
        )
        with open(paths["tenant_timeseries_json"], "w") as f:
            f.write(tenant_timeseries_to_json(obs.tenant_series))
    return paths
