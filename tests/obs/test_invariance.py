"""The load-bearing invariant: observing a run must not change it.

The observability layer only reads simulation state -- it never charges
cycles, takes locks, or touches frames. These tests run the same
fixed-seed workload with and without full instrumentation and require
bit-identical counters and an identical simulated clock. The second
tier (span stitching, windowed time series, the wall-clock
self-profiler) is held to the same bar, and one anchor cell is checked
against the committed quick bench baseline so the invariant is pinned
to numbers in the repository, not just to a sibling run.
"""

import json
from pathlib import Path

import pytest

from repro.bench.runner import build_machine, run_experiment
from repro.obs.export import counter_digest
from repro.workloads import ZipfianMicrobench

BASELINE = Path(__file__).resolve().parents[2] / "benchmarks/baselines/quick.json"
JOB_ID = "cell/A/nomad/small/w0/a20000/s42"


def _run(with_obs: bool = False, tier2: bool = False):
    machine = build_machine("A", "nomad")
    if with_obs:
        machine.obs.enable(sample_period=10_000.0)
    if tier2:
        machine.obs.enable_timeseries(window_cycles=20_000.0)  # implies spans
        machine.obs.enable_selfprof()
    workload = ZipfianMicrobench.scenario(
        "medium", write_ratio=0.3, total_accesses=15_000, seed=7
    )
    machine.run_workload(workload)
    return machine


def test_observation_changes_no_counters_or_clock():
    plain = _run(with_obs=False)
    traced = _run(with_obs=True)
    assert plain.stats.snapshot() == traced.stats.snapshot()
    assert plain.engine.now == traced.engine.now
    # And the instrumented run did actually record things.
    assert traced.obs.records()
    assert traced.obs.sampler.series("nomad.mpq_depth")


def test_second_tier_changes_no_counters_or_clock():
    plain = _run()
    tiered = _run(with_obs=True, tier2=True)
    assert plain.stats.snapshot() == tiered.stats.snapshot()
    assert plain.engine.now == tiered.engine.now
    # All three second-tier views actually collected data.
    assert tiered.obs.spans.spans()
    tiered.obs.timeseries.finish()
    assert tiered.obs.timeseries.as_rows()
    assert tiered.obs.selfprof.total_ns > 0


def test_report_has_no_obs_summary_when_disabled():
    machine = build_machine("A", "nomad")
    report = machine.run_workload(
        ZipfianMicrobench.scenario("small", total_accesses=2_000, seed=3)
    )
    assert report.obs is None
    assert report.selfprof is None


@pytest.fixture(scope="module")
def baseline_job():
    report = json.loads(BASELINE.read_text())
    jobs = {job["id"]: job for job in report["jobs"]}
    assert JOB_ID in jobs, f"baseline lost its anchor job {JOB_ID}"
    return jobs[JOB_ID]


def test_second_tier_matches_committed_baseline(baseline_job):
    """The anchor cell with every tier enabled reproduces quick.json."""
    result = run_experiment(
        "A",
        "nomad",
        lambda: ZipfianMicrobench.scenario(
            "small", write_ratio=0.0, total_accesses=20_000, seed=42
        ),
        instrument=True,
    )
    machine = result.machine
    # Too late to observe this run, but enabling must also be harmless
    # on a machine that already ran (idempotent plumbing) ...
    machine.obs.enable_spans()

    # ... and the real check: a fresh anchor cell with spans, windows,
    # and the profiler live from the start is still bit-exact.
    machine = build_machine("A", "nomad")
    machine.obs.enable_timeseries(window_cycles=50_000.0)
    machine.obs.enable_selfprof()
    workload = ZipfianMicrobench.scenario(
        "small", write_ratio=0.0, total_accesses=20_000, seed=42
    )
    report = machine.run_workload(workload)
    assert report.cycles == baseline_job["sim_cycles"]
    assert counter_digest(report.counters) == baseline_job["counter_digest"]
    # The instrumented result also matches the plain instrumented run.
    assert result.report.cycles == report.cycles
    assert counter_digest(result.report.counters) == counter_digest(
        report.counters
    )
