"""Per-tenant windowed time series: attribution, schema, invariance."""

import csv
import io
import json

import numpy as np
import pytest

from repro.obs.export import counter_digest
from repro.obs.tracepoints import TraceRecord
from repro.obs.windows import (
    TENANT_TIMESERIES_COLUMNS,
    TenantRange,
    TenantSeriesAggregator,
    windows_to_csv,
    windows_to_json,
)

from .conftest import make_tenant_machine


def test_tenant_range_validation():
    with pytest.raises(ValueError, match="non-empty and non-negative"):
        TenantRange("x", -1, 4)
    with pytest.raises(ValueError, match="non-empty and non-negative"):
        TenantRange("x", 5, 5)


def test_aggregator_validation(machine):
    r = [TenantRange("a", 0, 10), TenantRange("b", 5, 20)]
    with pytest.raises(ValueError, match="ranges overlap"):
        TenantSeriesAggregator(machine, r)
    with pytest.raises(ValueError, match="at least one tenant"):
        TenantSeriesAggregator(machine, [])
    with pytest.raises(ValueError, match="window_cycles must be positive"):
        TenantSeriesAggregator(machine, r[:1], window_cycles=0)


def record(name, **args):
    return TraceRecord(ts=0.0, name=name, args=args)


def test_feed_attributes_by_vpn_range(machine):
    agg = TenantSeriesAggregator(
        machine,
        [TenantRange("a", 0, 100), TenantRange("b", 100, 200)],
    )
    agg.feed(record("tpm.commit", vpn=7))
    agg.feed(record("tpm.abort", vpn=7, reason="pinned"))
    agg.feed(record("tpm.commit", vpn=150))
    agg.feed(record("mpq.enqueue", vpn=199))
    agg.feed(record("tpm.commit", vpn=500))  # outside every range
    agg.feed(record("fault.page", vpn=7))  # not a consumed tracepoint
    totals = agg.totals()
    assert totals["a"]["tpm_commits"] == 1
    assert totals["a"]["tpm_aborts"] == 1
    assert totals["b"]["tpm_commits"] == 1
    assert totals["b"]["mpq_enqueues"] == 1
    assert agg.unattributed == 1


def test_feed_counts_only_promotion_direction_sync(machine):
    agg = TenantSeriesAggregator(machine, [TenantRange("a", 0, 100)])
    agg.feed(record("migrate.sync", vpn=3, src_tier=1, dst_tier=0,
                    success=True))
    agg.feed(record("migrate.sync", vpn=3, src_tier=0, dst_tier=1,
                    success=True))  # demotion direction
    agg.feed(record("migrate.sync", vpn=3, src_tier=1, dst_tier=0,
                    success=False))  # failed
    assert agg.totals()["a"]["sync_promotions"] == 1
    assert agg.totals()["a"]["promotions"] == 1  # commits + sync


def test_corun_attribution_partitions_machine_counters(tmp_path):
    """Every TPM commit the machine performs lands in exactly one
    tenant's bucket (the namespaces cover all trace vpns)."""
    m, workloads, ranges = make_tenant_machine(tmp_path)
    agg = m.obs.enable_tenant_series(ranges, window_cycles=50_000.0)
    m.run_workloads(workloads)
    agg.finish()
    totals = agg.totals()
    commits = m.stats.get("nomad.tpm_commits")
    attributed = sum(t["tpm_commits"] for t in totals.values())
    assert commits > 0  # slow-tier placement forces promotions
    assert attributed == commits
    assert agg.unattributed == 0
    # Executed-access accounting is exact per tenant.
    for i, w in enumerate(workloads):
        assert totals[f"t{i}"]["accesses"] == w.total_accesses


def test_rows_schema_and_window_monotonicity(tmp_path):
    m, workloads, ranges = make_tenant_machine(tmp_path)
    agg = m.obs.enable_tenant_series(ranges, window_cycles=20_000.0)
    m.run_workloads(workloads)
    agg.finish()
    rows = agg.as_rows()
    assert len(rows) >= 4  # at least two windows x two tenants
    for row in rows:
        assert set(TENANT_TIMESERIES_COLUMNS) <= set(row)
        assert row["t_end"] > row["t_start"]
        assert row["promotions"] == row["tpm_commits"] + row["sync_promotions"]
        assert 0.0 <= row["abort_rate"] <= 1.0
    # Window accesses sum to the executed totals.
    for i, w in enumerate(workloads):
        got = sum(r["accesses"] for r in rows if r["tenant"] == f"t{i}")
        assert got == w.total_accesses


def test_csv_and_json_exports(tmp_path):
    m, workloads, ranges = make_tenant_machine(tmp_path)
    agg = m.obs.enable_tenant_series(ranges, window_cycles=30_000.0)
    m.run_workloads(workloads)
    text = windows_to_csv(agg)
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    assert header == list(TENANT_TIMESERIES_COLUMNS)
    body = list(reader)
    assert body and all(len(r) == len(header) for r in body)
    doc = json.loads(windows_to_json(agg))
    assert doc["window_cycles"] == 30_000.0
    assert doc["unattributed"] == 0
    assert [t["name"] for t in doc["tenants"]] == ["t0", "t1"]
    assert len(doc["rows"]) == len(body)


def test_enable_tenant_series_is_idempotent_and_in_summary(tmp_path):
    m, workloads, ranges = make_tenant_machine(tmp_path)
    agg = m.obs.enable_tenant_series(ranges)
    assert m.obs.enable_tenant_series(ranges) is agg
    m.run_workloads(workloads)
    summary = m.obs.summary()
    assert summary["tenant_series"]["tenants"] == 2
    assert summary["tenant_series"]["unattributed"] == 0


def test_tenant_series_does_not_perturb_simulation(tmp_path):
    """Obs invariance: enabling the tenant layer changes no simulated
    quantity -- counters and the clock are bit-identical."""

    def run(with_obs):
        m, workloads, ranges = make_tenant_machine(tmp_path / str(with_obs))
        if with_obs:
            m.obs.enable_tenant_series(ranges, window_cycles=10_000.0)
        m.run_workloads(workloads)
        return counter_digest(m.stats.snapshot()), m.engine.now

    assert run(False) == run(True)


def test_find_ignores_malformed_vpns(machine):
    agg = TenantSeriesAggregator(machine, [TenantRange("a", 0, 10)])
    agg.feed(record("tpm.commit"))  # no vpn at all
    agg.feed(record("tpm.commit", vpn="seven"))
    agg.feed(record("tpm.commit", vpn=-3))
    assert agg.totals()["a"]["tpm_commits"] == 0
    assert agg.unattributed == 3


def test_numpy_integer_vpns_are_attributed(machine):
    """Tracepoints carry numpy ints on the fast path; attribution must
    not silently drop them."""
    agg = TenantSeriesAggregator(machine, [TenantRange("a", 0, 10)])
    agg.feed(record("tpm.commit", vpn=np.int64(4)))
    assert agg.totals()["a"]["tpm_commits"] == 1
