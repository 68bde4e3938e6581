"""Trace and metric exporters: JSONL, CSV, Prometheus, Chrome Trace.

Four render targets for the same captured data:

* :func:`events_to_jsonl` -- one JSON object per line
  (``{"ts": .., "name": .., "args": {..}}``), the machine-readable
  event stream;
* :func:`events_to_csv` -- a flat table for pandas/gnuplot (the gauge
  and window views have their own CSV and JSON writers in
  :mod:`repro.obs.windows`);
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

:data:`OBS_EXPORTS` names every export of one machine -- these four
plus the span and window renderers -- by kind, with its file name.
:func:`write_obs_outputs` writes each one the machine's enabled layers
can render; ``repro obs --artifact KIND`` prints one to stdout.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple,
    TYPE_CHECKING,
)

from .counters import COUNTERS
from .spans import spans_to_chrome, spans_to_jsonl
from .tracepoints import TraceRecord
from .windows import GAUGES, windows_to_csv, windows_to_json

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.stats import Stats
    from .hist import Histogram
    from .windows import GaugeSampler

__all__ = [
    "events_to_jsonl",
    "events_to_csv",
    "prometheus_text",
    "chrome_trace",
    "OBS_EXPORTS",
    "obs_artifacts",
    "render_obs_output",
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

    for name, (help_text, _read) in sorted(GAUGES.items()):
        metric = metric_name(name)
        out.append(f"# HELP {metric} {help_text}")
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
        for name in sorted(GAUGES):
            for ts, value in sampler.series(name):
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
# One machine's exports: kind -> file name and renderer
# ----------------------------------------------------------------------
# kind -> (file name, the ObsManager layer it renders, renderer). Layer
# None is the tracepoint ring, there whenever obs is enabled.
OBS_EXPORTS: Dict[str, Tuple[str, Optional[str], Callable[[Any], str]]] = {
    "jsonl": ("events.jsonl", None, lambda m: events_to_jsonl(m.obs.records())),
    "csv": ("events.csv", None, lambda m: events_to_csv(m.obs.records())),
    "prometheus": ("metrics.prom", None, lambda m: prometheus_text(
        m.stats, m.obs.sampler, m.obs.histograms)),
    "chrome": ("trace.json", None, lambda m: json.dumps(chrome_trace(
        m.obs.records(), m.obs.sampler, m.platform.freq_ghz))),
    "gauges": ("gauges.csv", "sampler", lambda m: windows_to_csv(m.obs.sampler)),
    "spans": ("spans.jsonl", "spans",
              lambda m: spans_to_jsonl(m.obs.spans.spans())),
    "spans_chrome": ("spans_trace.json", "spans", lambda m: json.dumps(
        spans_to_chrome(m.obs.spans.spans(), m.platform.freq_ghz))),
    "timeseries": ("timeseries.csv", "timeseries",
                   lambda m: windows_to_csv(m.obs.timeseries)),
    "timeseries_json": ("timeseries.json", "timeseries",
                        lambda m: windows_to_json(m.obs.timeseries)),
    "tenant_timeseries": ("tenant_timeseries.csv", "tenant_series",
                          lambda m: windows_to_csv(m.obs.tenant_series)),
    "tenant_timeseries_json": ("tenant_timeseries.json", "tenant_series",
                               lambda m: windows_to_json(m.obs.tenant_series)),
}


def obs_artifacts(machine) -> List[str]:
    """The export kinds ``machine``'s enabled obs layers can render."""
    obs = machine.obs
    return [
        kind for kind, (_, layer, _) in OBS_EXPORTS.items()
        if layer is None or getattr(obs, layer) is not None
    ]


def render_obs_output(machine, kind: str) -> str:
    """Render one export kind (see :data:`OBS_EXPORTS`) as text."""
    return OBS_EXPORTS[kind][2](machine)


def write_obs_outputs(machine, out_dir) -> Dict[str, str]:
    """Write every export ``machine`` can render into ``out_dir``.

    Returns ``{kind: path}``. Requires ``machine.obs`` to have been
    enabled before the run.
    """
    import os

    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for kind in obs_artifacts(machine):
        paths[kind] = os.path.join(out_dir, OBS_EXPORTS[kind][0])
        with open(paths[kind], "w") as f:
            f.write(render_obs_output(machine, kind))
    return paths
