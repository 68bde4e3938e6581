"""Exporters: JSONL, CSV, Prometheus exposition, Chrome Trace."""

import json
import re

from repro.obs.counters import COUNTERS
from repro.obs.export import (
    chrome_trace,
    events_to_csv,
    events_to_jsonl,
    metric_name,
    prometheus_text,
    write_obs_outputs,
)
from repro.obs.tracepoints import TraceRecord
from repro.obs.windows import GAUGES, windows_to_csv

_PROM_SAMPLE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$")


def test_metric_name_sanitization():
    assert metric_name("nomad.tpm_commits") == "repro_nomad_tpm_commits"
    assert metric_name("mpq.wait-cycles") == "repro_mpq_wait_cycles"


def test_jsonl_round_trips():
    records = [
        TraceRecord(1.0, "tpm.begin", {"vpn": 7, "attempt": 0}),
        TraceRecord(2.0, "shadow.fault", {"vpn": 7, "gpfn": 3}),
    ]
    lines = events_to_jsonl(records).splitlines()
    assert len(lines) == 2
    parsed = [json.loads(line) for line in lines]
    assert parsed[0] == {"ts": 1.0, "name": "tpm.begin", "args": {"vpn": 7, "attempt": 0}}


def test_jsonl_empty_stream_is_empty_string():
    assert events_to_jsonl([]) == ""


def test_events_csv_header_and_rows():
    text = events_to_csv([TraceRecord(1.0, "tpm.begin", {"vpn": 7, "attempt": 0})])
    lines = text.splitlines()
    assert lines[0] == "time_cycles,name,args"
    assert lines[1].startswith("1.0,tpm.begin,")


def test_prometheus_contains_every_registered_counter_and_gauge(traced_run):
    """Acceptance: the exposition covers the full registry, even zeros."""
    machine, _report = traced_run
    text = prometheus_text(
        machine.stats, machine.obs.sampler, machine.obs.histograms
    )
    for name in COUNTERS:
        assert metric_name(name) + "_total" in text, name
    for name in GAUGES:
        assert metric_name(name) + " " in text, name
    # Histograms follow the cumulative bucket convention.
    assert 'repro_tpm_copy_cycles_bucket{le="+Inf"}' in text
    assert "repro_tpm_copy_cycles_count" in text
    assert "repro_tpm_copy_cycles_sum" in text


def test_prometheus_lines_are_well_formed(traced_run):
    machine, _report = traced_run
    text = prometheus_text(
        machine.stats, machine.obs.sampler, machine.obs.histograms
    )
    for line in text.splitlines():
        if line.startswith("#"):
            assert line.startswith(("# HELP ", "# TYPE ")), line
        else:
            assert _PROM_SAMPLE.match(line), line


def test_prometheus_without_sampler_reports_zero_gauges(machine):
    text = prometheus_text(machine.stats)
    assert metric_name("nomad.mpq_depth") + " 0" in text


def test_chrome_trace_structure(traced_run):
    """Acceptance: the trace JSON is Perfetto-loadable in shape."""
    machine, _report = traced_run
    doc = json.loads(
        json.dumps(
            chrome_trace(
                machine.obs.records(),
                machine.obs.sampler,
                machine.platform.freq_ghz,
            )
        )
    )
    events = doc["traceEvents"]
    assert events
    phases = {e["ph"] for e in events}
    assert "X" in phases  # tpm.begin/commit folded into duration slices
    assert "M" in phases  # thread_name metadata
    assert "C" in phases  # gauge counter tracks
    assert "i" in phases  # instant events
    for e in events:
        assert e["pid"] == 1
        if e["ph"] != "M":
            assert e["ts"] >= 0.0
    slices = [e for e in events if e["ph"] == "X"]
    assert all(e["dur"] >= 0.0 for e in slices)
    assert {e["name"] for e in slices} <= {"tpm.commit", "tpm.abort"}
    # Sorted by timestamp so viewers don't need to re-sort.
    ts = [e["ts"] for e in events if e["ph"] != "M"]
    assert ts == sorted(ts)


def test_chrome_trace_unpaired_begin_becomes_instant():
    records = [TraceRecord(5.0, "tpm.begin", {"vpn": 1, "attempt": 0})]
    doc = chrome_trace(records, sampler=None, freq_ghz=2.0)
    (meta, event) = sorted(doc["traceEvents"], key=lambda e: e["ph"])
    assert meta["ph"] == "M"
    assert event["ph"] == "i" and event["name"] == "tpm.begin"


def test_gauges_csv(traced_run):
    machine, _report = traced_run
    text = windows_to_csv(machine.obs.sampler)
    lines = text.splitlines()
    assert lines[0].startswith("time_cycles,")
    assert "nomad.mpq_depth" in lines[0]
    assert len(lines) >= 3  # header + >= 2 samples


def test_write_obs_outputs_writes_every_format(traced_run, tmp_path):
    machine, _report = traced_run
    paths = write_obs_outputs(machine, tmp_path / "out")
    assert set(paths) == {"jsonl", "csv", "prometheus", "chrome", "gauges"}
    for kind, path in paths.items():
        with open(path) as f:
            content = f.read()
        assert content, kind
    with open(paths["chrome"]) as f:
        assert json.load(f)["traceEvents"]
    with open(paths["jsonl"]) as f:
        for line in f:
            json.loads(line)


def test_report_carries_obs_summary(traced_run):
    machine, report = traced_run
    assert report.obs is not None
    assert report.obs["events"]
    assert "tpm.commit" in report.obs["events"]
    assert "tpm.copy_cycles" in report.obs["histograms"]
    assert report.obs["gauges"]["nomad.mpq_depth"] >= 2
