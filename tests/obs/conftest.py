"""Shared obs runs: one instrumented cell, and a two-tenant co-run."""

import pytest

from repro.bench.runner import build_machine
from repro.obs.windows import TenantRange
from repro.policies import make_policy
from repro.workloads import StreamingTraceWorkload, ZipfianMicrobench, build_trace

from ..conftest import make_machine


@pytest.fixture(scope="session")
def traced_run():
    """A pressured Nomad cell run once with full observability enabled."""
    machine = build_machine("A", "nomad")
    machine.obs.enable(sample_period=25_000.0)
    workload = ZipfianMicrobench.scenario(
        "medium", write_ratio=0.3, total_accesses=20_000
    )
    report = machine.run_workload(workload)
    return machine, report


def make_tenant_machine(tmp_path, nr_tenants=2, accesses=2500, pages=120):
    """A machine with ``nr_tenants`` namespaced trace tenants bound."""
    manifest = build_trace(
        tmp_path / "shared", "zipf-drift",
        nr_pages=pages, accesses=accesses, seed=17,
    )
    m = make_machine(fast_gb=1.0, slow_gb=2.0)
    m.set_policy(make_policy("nomad", m))
    workloads, ranges = [], []
    base = 0
    for i in range(nr_tenants):
        w = StreamingTraceWorkload(
            manifest, vpn_base=base, name=f"t{i}", fast_fraction=0.0,
        )
        w.bind(m)
        ranges.append(TenantRange(f"t{i}", w._start, w._start + pages,
                                  workload=w))
        workloads.append(w)
        base += pages
    return m, workloads, ranges
