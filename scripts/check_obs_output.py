#!/usr/bin/env python
"""Validate an observability export directory (CI smoke check).

Usage::

    python scripts/check_obs_output.py OUT_DIR

Checks, with no dependencies beyond the standard library:

* ``events.jsonl`` -- every line parses; every object has ``ts``
  (number), ``name`` (known tracepoint), ``args`` (object with exactly
  the declared fields);
* ``metrics.prom`` -- well-formed exposition lines; every registered
  counter and gauge metric present; histogram ``_bucket`` series
  cumulative and consistent with ``_count``;
* ``trace.json`` -- loadable Chrome Trace JSON with a non-empty
  ``traceEvents`` list of known phase types, sorted by timestamp;
* ``gauges.csv`` -- a header plus at least two samples (the gauge
  time-series acceptance floor);
* ``spans.jsonl`` -- every line is one completed lifecycle span with
  exactly the span schema keys, a known kind, and ``start <= end``;
* ``spans_trace.json`` -- the span Perfetto export (same Chrome Trace
  checks as ``trace.json``, plus: spans must be slices, not instants);
* ``timeseries.csv`` -- the exact :data:`TIMESERIES_COLUMNS` header,
  rectangular rows, and non-overlapping monotonic window bounds;
* ``tenant_timeseries.csv`` -- only when present (multi-tenant runs):
  the exact :data:`TENANT_TIMESERIES_COLUMNS` header, rectangular rows,
  and per-tenant non-overlapping monotonic window bounds.

Exits non-zero listing every failure, so CI output shows the full
breakage at once.
"""

import csv
import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.obs.counters import COUNTERS  # noqa: E402
from repro.obs.export import metric_name  # noqa: E402
from repro.obs.spans import SPAN_KINDS  # noqa: E402
from repro.obs.tracepoints import TRACEPOINTS  # noqa: E402
from repro.obs.windows import (  # noqa: E402
    GAUGES,
    TENANT_TIMESERIES_COLUMNS,
    TIMESERIES_COLUMNS,
)

SPAN_KEYS = {
    "kind", "key", "start", "end", "outcome", "phases", "attrs", "children",
}

PROM_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?P<labels>\{[^}]*\})? (?P<value>\S+)$"
)

errors = []


def err(msg):
    errors.append(msg)


def check_jsonl(path):
    for i, line in enumerate(path.read_text().splitlines(), 1):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            err(f"{path}:{i}: not JSON: {e}")
            continue
        if set(obj) != {"ts", "name", "args"}:
            err(f"{path}:{i}: keys {sorted(obj)}, want [args, name, ts]")
            continue
        if not isinstance(obj["ts"], (int, float)):
            err(f"{path}:{i}: ts is {type(obj['ts']).__name__}")
        spec = TRACEPOINTS.get(obj["name"])
        if spec is None:
            err(f"{path}:{i}: unknown tracepoint {obj['name']!r}")
        elif set(obj["args"]) != set(spec.fields):
            err(
                f"{path}:{i}: {obj['name']} args {sorted(obj['args'])}, "
                f"want {sorted(spec.fields)}"
            )


def check_prometheus(path):
    samples = {}
    for i, line in enumerate(path.read_text().splitlines(), 1):
        if not line:
            continue
        if line.startswith("#"):
            if not line.startswith(("# HELP ", "# TYPE ")):
                err(f"{path}:{i}: bad comment line {line!r}")
            continue
        m = PROM_SAMPLE.match(line)
        if m is None:
            err(f"{path}:{i}: malformed sample {line!r}")
            continue
        try:
            value = float(m.group("value"))
        except ValueError:
            err(f"{path}:{i}: non-numeric value in {line!r}")
            continue
        samples.setdefault(m.group("name"), []).append(
            (m.group("labels") or "", value)
        )

    for name in COUNTERS:
        if metric_name(name) + "_total" not in samples:
            err(f"{path}: missing counter {metric_name(name)}_total")
    for name in GAUGES:
        if metric_name(name) not in samples:
            err(f"{path}: missing gauge {metric_name(name)}")

    # Histogram invariants: buckets non-decreasing, +Inf == _count.
    for name in [n for n in samples if n.endswith("_bucket")]:
        base = name[: -len("_bucket")]
        values = [v for _labels, v in samples[name]]
        if values != sorted(values):
            err(f"{path}: {name} buckets not cumulative")
        inf = [v for labels, v in samples[name] if 'le="+Inf"' in labels]
        count = samples.get(base + "_count")
        if inf and count and inf[0] != count[0][1]:
            err(f"{path}: {name} +Inf={inf[0]} != {base}_count={count[0][1]}")


def check_chrome(path):
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        err(f"{path}: not JSON: {e}")
        return
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        err(f"{path}: traceEvents missing or empty")
        return
    ts = []
    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph not in {"X", "i", "C", "M", "B", "E"}:
            err(f"{path}: traceEvents[{i}]: unknown phase {ph!r}")
        if "pid" not in e or "name" not in e:
            err(f"{path}: traceEvents[{i}]: missing pid/name")
        if ph == "X" and e.get("dur", -1.0) < 0:
            err(f"{path}: traceEvents[{i}]: negative duration")
        if ph != "M":
            ts.append(e.get("ts", 0.0))
    if ts != sorted(ts):
        err(f"{path}: traceEvents not sorted by ts")


def check_gauges(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0][0] != "time_cycles":
        err(f"{path}: missing time_cycles header")
        return
    if len(rows) < 3:
        err(f"{path}: want >= 2 gauge samples, got {len(rows) - 1}")
    width = len(rows[0])
    for i, row in enumerate(rows[1:], 2):
        if len(row) != width:
            err(f"{path}:{i}: ragged row ({len(row)} != {width} columns)")


def check_spans(path):
    for i, line in enumerate(path.read_text().splitlines(), 1):
        try:
            span = json.loads(line)
        except json.JSONDecodeError as e:
            err(f"{path}:{i}: not JSON: {e}")
            continue
        if set(span) != SPAN_KEYS:
            err(f"{path}:{i}: keys {sorted(span)}, want {sorted(SPAN_KEYS)}")
            continue
        if span["kind"] not in SPAN_KINDS:
            err(f"{path}:{i}: unknown span kind {span['kind']!r}")
        if not isinstance(span["start"], (int, float)) or not isinstance(
            span["end"], (int, float)
        ):
            err(f"{path}:{i}: non-numeric start/end")
        elif span["start"] > span["end"]:
            err(f"{path}:{i}: start {span['start']} > end {span['end']}")
        if not isinstance(span["phases"], dict):
            err(f"{path}:{i}: phases is {type(span['phases']).__name__}")
        for j, child in enumerate(span.get("children", ())):
            if child["start"] > child["end"]:
                err(f"{path}:{i}: child {j} start > end")
            if child["start"] < span["start"] or child["end"] > span["end"]:
                err(f"{path}:{i}: child {j} outside parent bounds")


def check_spans_chrome(path):
    check_chrome(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError:
        return  # already reported by check_chrome
    events = doc.get("traceEvents") or []
    instants = [e for e in events if e.get("ph") == "i"]
    if instants:
        err(
            f"{path}: {len(instants)} instant event(s); spans must export "
            "as complete ('X') slices"
        )


def check_timeseries(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows:
        err(f"{path}: empty")
        return
    if tuple(rows[0]) != TIMESERIES_COLUMNS:
        err(
            f"{path}: header {rows[0]} != TIMESERIES_COLUMNS "
            f"{list(TIMESERIES_COLUMNS)}"
        )
        return
    if len(rows) < 2:
        err(f"{path}: want >= 1 window row, got 0")
    width = len(TIMESERIES_COLUMNS)
    prev_end = None
    for i, row in enumerate(rows[1:], 2):
        if len(row) != width:
            err(f"{path}:{i}: ragged row ({len(row)} != {width} columns)")
            continue
        try:
            t_start, t_end = float(row[0]), float(row[1])
        except ValueError:
            err(f"{path}:{i}: non-numeric window bounds {row[:2]}")
            continue
        if t_start >= t_end:
            err(f"{path}:{i}: empty/backward window [{t_start}, {t_end}]")
        if prev_end is not None and t_start < prev_end:
            err(f"{path}:{i}: window overlaps previous (t_start {t_start} "
                f"< prev t_end {prev_end})")
        prev_end = t_end


def check_tenant_timeseries(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows:
        err(f"{path}: empty")
        return
    if tuple(rows[0]) != TENANT_TIMESERIES_COLUMNS:
        err(
            f"{path}: header {rows[0]} != TENANT_TIMESERIES_COLUMNS "
            f"{list(TENANT_TIMESERIES_COLUMNS)}"
        )
        return
    if len(rows) < 2:
        err(f"{path}: want >= 1 tenant window row, got 0")
    width = len(TENANT_TIMESERIES_COLUMNS)
    tenant_col = TENANT_TIMESERIES_COLUMNS.index("tenant")
    prev_end = {}
    for i, row in enumerate(rows[1:], 2):
        if len(row) != width:
            err(f"{path}:{i}: ragged row ({len(row)} != {width} columns)")
            continue
        try:
            t_start, t_end = float(row[0]), float(row[1])
        except ValueError:
            err(f"{path}:{i}: non-numeric window bounds {row[:2]}")
            continue
        tenant = row[tenant_col]
        if not tenant:
            err(f"{path}:{i}: empty tenant name")
        if t_start >= t_end:
            err(f"{path}:{i}: empty/backward window [{t_start}, {t_end}]")
        if tenant in prev_end and t_start < prev_end[tenant]:
            err(f"{path}:{i}: {tenant} window overlaps previous (t_start "
                f"{t_start} < prev t_end {prev_end[tenant]})")
        prev_end[tenant] = t_end


def main(argv):
    if len(argv) != 2:
        print(__doc__)
        return 2
    out_dir = Path(argv[1])
    checks = {
        "events.jsonl": check_jsonl,
        "metrics.prom": check_prometheus,
        "trace.json": check_chrome,
        "gauges.csv": check_gauges,
        "spans.jsonl": check_spans,
        "spans_trace.json": check_spans_chrome,
        "timeseries.csv": check_timeseries,
    }
    for fname, check in checks.items():
        path = out_dir / fname
        if not path.is_file():
            err(f"{path}: missing")
        else:
            check(path)
    # Multi-tenant runs only; its absence is not a failure.
    optional = {"tenant_timeseries.csv": check_tenant_timeseries}
    for fname, check in optional.items():
        path = out_dir / fname
        if path.is_file():
            check(path)
            checks[fname] = check
    if errors:
        for e in errors:
            print(f"FAIL {e}")
        return 1
    print(f"ok: {', '.join(checks)} in {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
