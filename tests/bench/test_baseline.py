"""Perf-baseline harness: report shape, regression gate, committed baseline."""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import baseline as bl
from repro.bench.sweep import SweepSpec
from repro.obs.export import counter_digest

REPO = Path(__file__).resolve().parents[2]
BASELINE_PATH = REPO / "benchmarks" / "baselines" / "quick.json"

# A two-job profile so the harness tests stay fast.
TINY = (
    SweepSpec(
        platforms=("A",),
        policies=("nomad",),
        scenarios=("small",),
        write_ratios=(0.0, 1.0),
        accesses=(4_000,),
        seeds=(42,),
        instrument=True,
    ),
)


@pytest.fixture
def tiny_report(monkeypatch):
    monkeypatch.setitem(bl.PROFILES, "tiny", TINY)
    return bl.run_bench("tiny", workers=2)


# ----------------------------------------------------------------------
# Report shape
# ----------------------------------------------------------------------
def test_bench_report_shape(tiny_report):
    assert tiny_report["schema"] == bl.BENCH_SCHEMA
    assert tiny_report["profile"] == "tiny"
    assert tiny_report["summary"] == {"total": 2, "ok": 2, "failed": 0}
    for job in tiny_report["jobs"]:
        assert job["sim_cycles"] > 0
        assert len(job["counter_digest"]) == 64
        assert job["latency"]["fault.service_cycles"]["p50"] > 0
    timing = tiny_report["timing"]["wall_time_s"]
    assert set(timing) == {job["id"] for job in tiny_report["jobs"]}
    assert tiny_report["meta"]["python"]
    json.dumps(tiny_report)


def test_write_and_load_report(tiny_report, tmp_path):
    path = bl.write_bench_report(tiny_report, str(tmp_path))
    assert Path(path).name.startswith("BENCH_")
    assert bl.load_report(path) == json.loads(Path(path).read_text())


def test_load_report_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "repro-bench/999"}))
    with pytest.raises(ValueError, match="schema"):
        bl.load_report(str(path))


def test_unknown_profile_raises():
    with pytest.raises(ValueError, match="unknown bench profile"):
        bl.bench_jobs("no-such-profile")


# ----------------------------------------------------------------------
# The regression gate
# ----------------------------------------------------------------------
def test_compare_identical_reports_is_clean(tiny_report):
    errors, warnings = bl.compare_bench(tiny_report, tiny_report)
    assert errors == [] and warnings == []


def test_compare_flags_cycle_drift(tiny_report):
    fresh = copy.deepcopy(tiny_report)
    fresh["jobs"][0]["sim_cycles"] += 1.0
    errors, _ = bl.compare_bench(tiny_report, fresh)
    assert len(errors) == 1
    assert "simulated cycles drifted" in errors[0]


def test_compare_flags_counter_digest_drift(tiny_report):
    fresh = copy.deepcopy(tiny_report)
    fresh["jobs"][1]["counter_digest"] = "0" * 64
    errors, _ = bl.compare_bench(tiny_report, fresh)
    assert len(errors) == 1
    assert "counter digest drifted" in errors[0]


def test_counter_digest_drift_names_the_changed_counter(tiny_report):
    fresh = copy.deepcopy(tiny_report)
    job = fresh["jobs"][0]
    name, old = sorted(job["counters"].items())[0]
    job["counters"][name] = old + 1.0
    job["counter_digest"] = counter_digest(job["counters"])
    errors, _ = bl.compare_bench(tiny_report, fresh)
    assert len(errors) == 1
    assert "counter digest drifted" in errors[0]
    assert f"(changed counters: {name} {old:g} -> {old + 1.0:g})" in errors[0]


def test_counter_drift_names_added_and_removed_counters():
    drift = bl.counter_drift({"a": 1.0, "b": 2.0}, {"b": 3.0, "c": 4.0})
    assert drift == "(changed counters: a 1 -> 0, b 2 -> 3, c 0 -> 4)"
    assert "regenerate the baseline" in bl.counter_drift(None, {"a": 1.0})


def test_compare_flags_failed_and_missing_jobs(tiny_report):
    fresh = copy.deepcopy(tiny_report)
    dropped = fresh["jobs"].pop()
    fresh["jobs"][0]["status"] = "failed"
    fresh["jobs"][0]["error"] = "RuntimeError: boom"
    errors, _ = bl.compare_bench(tiny_report, fresh)
    assert any(dropped["id"] in e and "missing" in e for e in errors)
    assert any("RuntimeError: boom" in e for e in errors)


def test_compare_wall_drift_warns_then_fails(tiny_report):
    fresh = copy.deepcopy(tiny_report)
    for job_id in fresh["timing"]["wall_time_s"]:
        fresh["timing"]["wall_time_s"][job_id] = 100.0
    errors, warnings = bl.compare_bench(tiny_report, fresh, wall_tolerance=0.5)
    assert errors == [] and len(warnings) == 2
    errors, warnings = bl.compare_bench(
        tiny_report, fresh, wall_tolerance=0.5, fail_on_wall=True
    )
    assert len(errors) == 2 and warnings == []


def test_compare_ignores_wall_noise_below_floor(tiny_report):
    fresh = copy.deepcopy(tiny_report)
    base = tiny_report["timing"]["wall_time_s"]
    for job_id in base:
        base[job_id] = 0.001
        fresh["timing"]["wall_time_s"][job_id] = 0.04  # 40x but tiny
    _, warnings = bl.compare_bench(tiny_report, fresh)
    assert warnings == []


def test_compare_profile_mismatch(tiny_report):
    fresh = copy.deepcopy(tiny_report)
    fresh["profile"] = "full"
    errors, _ = bl.compare_bench(tiny_report, fresh)
    assert any("profile mismatch" in e for e in errors)


# ----------------------------------------------------------------------
# The committed baseline and the CI script
# ----------------------------------------------------------------------
def test_committed_baseline_matches_pinned_suite():
    """The committed baseline must cover exactly the quick suite's jobs --
    anyone editing the suite must regenerate the baseline with it."""
    baseline = bl.load_report(str(BASELINE_PATH))
    assert baseline["profile"] == "quick"
    expected = {job.job_id for job in bl.bench_jobs("quick")}
    assert {job["id"] for job in baseline["jobs"]} == expected
    assert all(job["status"] == "ok" for job in baseline["jobs"])


def _run_checker(*argv):
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / "check_bench_regression.py"),
         *argv],
        capture_output=True,
        text=True,
    )


def test_checker_script_passes_against_itself(tmp_path, tiny_report):
    path = tmp_path / "fresh.json"
    path.write_text(json.dumps(tiny_report))
    proc = _run_checker(str(path), str(path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "no regressions" in proc.stdout


def test_checker_script_fails_on_perturbed_cycles(tmp_path, tiny_report):
    fresh = tmp_path / "fresh.json"
    fresh.write_text(json.dumps(tiny_report))
    perturbed = copy.deepcopy(tiny_report)
    perturbed["jobs"][0]["sim_cycles"] += 1.0
    base = tmp_path / "baseline.json"
    base.write_text(json.dumps(perturbed))
    proc = _run_checker(str(base), str(fresh))
    assert proc.returncode == 1
    assert "simulated cycles drifted" in proc.stdout
    assert "regenerate the baseline" in proc.stdout


def test_checker_script_usage_errors(tmp_path):
    proc = _run_checker(str(tmp_path / "nope.json"), str(tmp_path / "*.json"))
    assert proc.returncode == 2
    assert "no file matches" in proc.stderr
