"""The parallel sweep layer: grid expansion, determinism, crash isolation."""

import json

import pytest

from repro.bench.sweep import (
    JobSpec,
    SweepSpec,
    aggregate,
    execute_job,
    run_sweep,
    timing_table,
)
from repro.obs.export import counter_digest

# A >=8-job grid small enough to run twice in a test.
GRID = SweepSpec(
    platforms=("A",),
    policies=("tpp", "nomad"),
    scenarios=("small",),
    write_ratios=(0.0, 1.0),
    accesses=(4_000,),
    seeds=(7, 11),
    instrument=True,
)


def canonical(records):
    return json.dumps(aggregate(records), sort_keys=True)


# ----------------------------------------------------------------------
# Spec expansion
# ----------------------------------------------------------------------
def test_expand_produces_full_grid():
    jobs = GRID.expand()
    assert len(jobs) == 8
    assert len({j.job_id for j in jobs}) == 8
    assert all(j.kind == "cell" for j in jobs)


def test_expand_skips_unavailable_policy_platform_combos():
    spec = SweepSpec(platforms=("A", "D"), policies=("memtis-default", "nomad"))
    jobs = spec.expand()
    # memtis needs PEBS, absent on platform D -- that cell is dropped.
    assert len(jobs) == 3
    assert not any(
        j.platform == "D" and j.policy.startswith("memtis") for j in jobs
    )


def test_expand_experiments_axis():
    spec = SweepSpec(
        experiments=("tab1", "fig2"), platforms=("A", "C"), accesses=(10_000,)
    )
    jobs = spec.expand()
    assert len(jobs) == 4
    assert all(j.kind == "experiment" for j in jobs)
    assert {j.experiment for j in jobs} == {"tab1", "fig2"}


def test_spec_round_trips_through_dict():
    spec = SweepSpec.from_dict(GRID.to_dict())
    assert [j.job_id for j in spec.expand()] == [j.job_id for j in GRID.expand()]


def test_spec_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown sweep spec fields"):
        SweepSpec.from_dict({"platform": ["A"]})


def test_job_spec_validation():
    with pytest.raises(ValueError, match="unknown job kind"):
        JobSpec(kind="banana")
    with pytest.raises(ValueError, match="experiment name"):
        JobSpec(kind="experiment")


def test_thp_axis_suffixes_job_id_without_touching_base_ids():
    base = JobSpec()
    thp = JobSpec(thp=True)
    assert thp.job_id == base.job_id + "/thp"
    spec = SweepSpec(thp_modes=(False, True))
    ids = [j.job_id for j in spec.expand()]
    assert len(ids) == 2
    assert ids[0] + "/thp" == ids[1]


def test_thp_cell_job_runs_with_folio_counters():
    record = execute_job(JobSpec(thp=True, accesses=4_000, instrument=True))
    assert record["status"] == "ok"
    assert record["id"].endswith("/thp")
    # The THP machine and the base machine diverge.
    base = execute_job(JobSpec(accesses=4_000, instrument=True))
    assert record["counter_digest"] != base["counter_digest"]


# ----------------------------------------------------------------------
# Determinism: serial and parallel sweeps are byte-identical
# ----------------------------------------------------------------------
def test_parallel_sweep_matches_serial_byte_for_byte():
    jobs = GRID.expand()
    serial = run_sweep(jobs, workers=1)
    parallel = run_sweep(jobs, workers=2)
    assert canonical(serial) == canonical(parallel)
    # Counter digests specifically -- identical per job, pairwise.
    for s, p in zip(serial, parallel):
        assert s["id"] == p["id"]
        assert s["counter_digest"] == p["counter_digest"]
        assert s["sim_cycles"] == p["sim_cycles"]


def test_repeated_serial_sweep_is_deterministic():
    jobs = GRID.expand()[:2]
    assert canonical(run_sweep(jobs)) == canonical(run_sweep(jobs))


# ----------------------------------------------------------------------
# Crash isolation: a broken job is a record, not a dead sweep
# ----------------------------------------------------------------------
def test_worker_exception_yields_failed_record():
    # memtis on platform D raises in run_experiment.
    bad = JobSpec(platform="D", policy="memtis-default", accesses=2_000)
    record = execute_job(bad)
    assert record["status"] == "failed"
    assert "ValueError" in record["error"]
    assert "traceback" in record


def test_sweep_survives_failing_jobs_in_pool():
    jobs = [
        JobSpec(platform="D", policy="memtis-default", accesses=2_000),
        JobSpec(kind="experiment", experiment="no-such-experiment"),
        JobSpec(platform="A", policy="nomad", accesses=2_000),
    ]
    records = run_sweep(jobs, workers=2)
    assert [r["status"] for r in records] == ["failed", "failed", "ok"]
    agg = aggregate(records)
    assert agg["summary"] == {"total": 3, "ok": 1, "failed": 2}
    # Failures keep the error text but the aggregate stays deterministic:
    # no tracebacks (line numbers) or wall timings.
    for job in agg["jobs"]:
        assert "traceback" not in job
        assert "wall_time_s" not in job


# ----------------------------------------------------------------------
# Records and aggregation
# ----------------------------------------------------------------------
def test_cell_record_contents():
    record = execute_job(
        JobSpec(platform="A", policy="nomad", accesses=4_000, instrument=True)
    )
    assert record["status"] == "ok"
    assert record["sim_cycles"] > 0
    assert len(record["counter_digest"]) == 64
    # The record carries the nonzero counters its digest is taken over.
    assert counter_digest(record["counters"]) == record["counter_digest"]
    assert all(record["counters"].values())
    assert set(record["metrics"]) >= {
        "transient_gbps", "stable_gbps", "overall_gbps", "avg_access_cycles",
    }
    # instrument=True surfaces obs latency percentiles.
    assert "fault.service_cycles" in record["latency"]
    assert record["latency"]["fault.service_cycles"]["p99"] > 0
    json.dumps(record)  # everything is plain-JSON serializable


def test_experiment_record_contents():
    record = execute_job(
        JobSpec(kind="experiment", experiment="tab1", accesses=10_000)
    )
    assert record["status"] == "ok"
    assert record["sim_cycles"] is None
    assert len(record["counter_digest"]) == 64
    assert record["metrics"]["rows"] > 0
    json.dumps(record)


def test_timing_table_sorted_slowest_first():
    records = [
        {"id": "a", "wall_time_s": 0.1},
        {"id": "b", "wall_time_s": 0.9},
    ]
    assert timing_table(records) == [("b", 0.9), ("a", 0.1)]


def test_run_sweep_rejects_zero_workers():
    with pytest.raises(ValueError, match="at least one worker"):
        run_sweep(GRID.expand(), workers=0)


# ----------------------------------------------------------------------
# Trace-replay jobs
# ----------------------------------------------------------------------
def test_expand_trace_generators_axis():
    spec = SweepSpec(
        platforms=("A",),
        policies=("tpp", "nomad"),
        trace_generators=("zipf-drift", "diurnal"),
        accesses=(8_000,),
        seeds=(42,),
    )
    jobs = spec.expand()
    assert len(jobs) == 4
    assert all(j.kind == "trace" for j in jobs)
    assert {j.generator for j in jobs} == {"zipf-drift", "diurnal"}
    assert jobs[0].job_id.startswith("trace/A/")


def test_trace_job_spec_requires_generator():
    with pytest.raises(ValueError, match="generator"):
        JobSpec(kind="trace")


def test_trace_job_executes_deterministically():
    job = JobSpec(kind="trace", generator="zipf-drift", platform="A",
                  policy="nomad", accesses=8_000, seed=3)
    a = execute_job(job)
    b = execute_job(job)
    assert a["status"] == "ok"
    assert a["trace_digest"] == b["trace_digest"]
    assert a["counter_digest"] == b["counter_digest"]
    assert a["sim_cycles"] == b["sim_cycles"]
    assert a["metrics"]["promotions"] > 0  # split placement migrates
