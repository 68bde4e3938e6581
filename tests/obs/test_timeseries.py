"""The machine-wide window view and its CSV/JSON exports."""

import csv
import io
import json

from repro.bench.runner import build_machine
from repro.obs.windows import (
    TIMESERIES_COLUMNS,
    windows_to_csv,
    windows_to_json,
)
from repro.workloads import ZipfianMicrobench


def _aggregated_run(window_cycles=50_000.0, write_ratio=0.7, accesses=15_000):
    machine = build_machine("A", "nomad")
    agg = machine.obs.enable_timeseries(window_cycles=window_cycles)
    workload = ZipfianMicrobench.scenario(
        "medium", write_ratio=write_ratio, total_accesses=accesses, seed=11
    )
    machine.run_workload(workload)
    agg.finish()
    return machine, agg


def test_window_deltas_sum_to_counter_totals():
    machine, agg = _aggregated_run()
    rows = agg.as_rows()
    assert agg.rows.dropped == 0  # else the sum would under-count
    for col, counter in (
        ("tpm_commits", "nomad.tpm_commits"),
        ("tpm_aborts", "nomad.tpm_aborts"),
        ("promotions", "migrate.promotions"),
        ("faults", "fault.total"),
    ):
        window_sum = sum(row[col] for row in rows)
        assert window_sum == machine.stats.counters.get(counter, 0.0), col


def test_abort_rate_and_latency_percentiles_are_sane():
    _machine, agg = _aggregated_run()
    rows = agg.as_rows()
    migrating = [r for r in rows if r["spans_closed"]]
    assert migrating, "a write-heavy medium cell must close TPM spans"
    for row in rows:
        assert 0.0 <= row["abort_rate"] <= 1.0
        if row["spans_closed"]:
            assert 0 < row["tpm_p50_cycles"] <= row["tpm_p99_cycles"]
        else:
            assert row["tpm_p50_cycles"] == row["tpm_p99_cycles"] == 0.0
        # Nomad gauges read at the window boundary are present.
        assert row["nomad_mpq_depth"] is not None
        assert row["mem_fast_free_pages"] is not None


def test_csv_export_matches_fixed_schema():
    _machine, agg = _aggregated_run()
    text = windows_to_csv(agg)
    rows = list(csv.reader(io.StringIO(text)))
    assert tuple(rows[0]) == TIMESERIES_COLUMNS
    assert len(rows) == len(agg.as_rows()) + 1
    width = len(TIMESERIES_COLUMNS)
    for row in rows[1:]:
        assert len(row) == width
        float(row[0]), float(row[1])  # window bounds parse


def test_json_export_carries_window_meta():
    _machine, agg = _aggregated_run()
    doc = json.loads(windows_to_json(agg))
    assert doc["window_cycles"] == 50_000.0
    assert doc["dropped"] == 0
    assert len(doc["rows"]) == len(agg.as_rows())
    assert set(TIMESERIES_COLUMNS) <= set(doc["rows"][0])


def test_on_window_callback_sees_every_closed_row():
    machine = build_machine("A", "nomad")
    agg = machine.obs.enable_timeseries(window_cycles=25_000.0)
    seen = []
    agg.on_window(seen.append)
    workload = ZipfianMicrobench.scenario(
        "small", write_ratio=0.0, total_accesses=5_000, seed=3
    )
    machine.run_workload(workload)
    agg.finish()
    assert seen == agg.as_rows()
