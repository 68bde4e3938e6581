"""The chaos runner: grid expansion, job records, and the check CLI."""

import json

import pytest

from repro.cli import main
from repro.debug.chaos import (
    FAULT_GRID,
    CheckJob,
    expand_profile,
    run_check,
    run_check_job,
)


# ----------------------------------------------------------------------
# Grid and profile expansion
# ----------------------------------------------------------------------
def test_fault_grid_cells_build_valid_configs():
    for name in FAULT_GRID:
        cfg = CheckJob(fault=name).debug_config()
        assert cfg.check_interval is not None
        if name in ("jitter", "chaos"):
            assert cfg.event_jitter


def test_job_id_shape():
    job = CheckJob(platform="A", policy="nomad", scenario="small",
                   write_ratio=0.3, accesses=6000, seed=42, fault="chaos")
    assert job.job_id == "check/A/nomad/small/w.3/a6000/s42/chaos"


def test_quick_profile_covers_the_whole_grid():
    jobs = expand_profile("quick")
    assert {j.fault for j in jobs} == set(FAULT_GRID)
    assert {j.seed for j in jobs if j.policy == "nomad"} == {42, 43}
    assert {j.policy for j in jobs} == {"nomad", "tpp"}
    assert len({j.job_id for j in jobs}) == len(jobs)


def test_expand_filters_and_overrides():
    jobs = expand_profile(
        "quick", faults=["tpm-dirty"], seeds=[7], accesses=1000,
        paranoid=True,
    )
    assert jobs
    assert all(j.fault == "tpm-dirty" for j in jobs)
    assert all(j.seed == 7 for j in jobs)
    assert all(j.accesses == 1000 for j in jobs)
    assert all(j.paranoid for j in jobs)


def test_expand_rejects_unknown_profile_and_fault():
    with pytest.raises(ValueError):
        expand_profile("nope")
    with pytest.raises(ValueError):
        expand_profile("quick", faults=["not-a-cell"])


# ----------------------------------------------------------------------
# Job execution
# ----------------------------------------------------------------------
def test_run_check_job_produces_clean_record():
    job = CheckJob(fault="tpm-dirty", accesses=3000,
                   check_interval=150_000.0)
    record = run_check_job(job)
    assert record["status"] == "ok"
    assert record["violations"] == []
    assert record["checker_passes"] > 0
    assert record["injections"].get("tpm.dirty", 0) >= 0
    json.dumps(record)  # must stay JSON-safe for the CI artifact


def test_kswapd_profile_parks_and_rearms_under_jitter():
    jobs = expand_profile("kswapd", check_interval=5_000_000.0)
    assert {j.policy for j in jobs} == {"nomad", "no-migration"}
    nomad = next(j for j in jobs if j.policy == "nomad")
    record = run_check_job(nomad)
    assert record["status"] == "ok"
    assert record["counters"]["kswapd.backoffs"] > 0
    assert record["counters"]["kswapd.rearms"] > 0


def test_run_check_job_records_failures_instead_of_raising():
    record = run_check_job(CheckJob(scenario="not-a-scenario"))
    assert record["status"] == "failed"
    assert "error" in record


def test_run_check_aggregates_summary():
    jobs = [CheckJob(fault="none", accesses=2000, seed=s) for s in (42, 43)]
    report = run_check(jobs)
    assert report["summary"] == {
        "total": 2, "ok": 2, "violations": 0, "failed": 0,
    }
    assert [r["id"] for r in report["jobs"]] == [j.job_id for j in jobs]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_check_writes_report_and_exits_zero(tmp_path, capsys):
    report_path = tmp_path / "check.json"
    rc = main([
        "check", "--faults", "none", "--seeds", "42",
        "--accesses", "2000", "--report", str(report_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0 violation(s)" in out
    report = json.loads(report_path.read_text())
    assert report["schema"] == "repro-check-v1"
    assert report["summary"]["ok"] == report["summary"]["total"]


def test_cli_check_rejects_bad_fault_cell(capsys):
    assert main(["check", "--faults", "bogus"]) == 2
    assert "unknown fault cell" in capsys.readouterr().err


def test_cli_check_exits_nonzero_on_violation(monkeypatch, capsys):
    # Plant a bug so the corpus genuinely finds something.
    from repro.core.shadow import ShadowIndex

    monkeypatch.setattr(
        ShadowIndex, "discard", lambda self, master, reason="discard": None
    )
    rc = main([
        "check", "--faults", "none", "--seeds", "42", "--accesses", "4000",
    ])
    assert rc == 1
    assert "VIOLATION" in capsys.readouterr().out
