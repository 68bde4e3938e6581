"""The command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig1", "fig7", "tab3", "tab4", "abl-variants"):
        assert name in out


def test_experiments_cover_all_figures_and_tables():
    expected = {
        "tab1", "fig1", "fig2", "fig7", "fig8", "fig9", "fig10", "fig11",
        "fig12", "fig13", "fig14", "fig15", "fig16", "tab2", "tab3", "tab4",
        "abl-variants", "abl-reclaim", "timeline", "abort_timeline",
        "thp_vs_base", "multi_tenant_fairness", "tier_leaderboard",
    }
    assert expected == set(EXPERIMENTS)


def test_run_unknown_experiment_exit_code(capsys):
    assert main(["run", "fig99"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err
    assert "fig99" in err


def test_run_failing_experiment_names_it_and_exits_nonzero(capsys, monkeypatch):
    from repro.bench.experiments.registry import ExperimentSpec

    def explode(accesses, platform):
        raise RuntimeError("injected failure")

    monkeypatch.setitem(
        EXPERIMENTS,
        "boom",
        ExperimentSpec("boom", "always fails", explode, lambda r: None),
    )
    assert main(["run", "boom"]) == 1
    err = capsys.readouterr().err
    assert "'boom' failed" in err
    assert "injected failure" in err  # traceback is printed, not swallowed


def test_run_small_experiment(capsys):
    assert main(["run", "tab3", "--accesses", "20000"]) == 0
    out = capsys.readouterr().out
    assert "Table 3" in out
    assert "rss_gb" in out


def test_run_with_platform_override(capsys):
    assert main(["run", "fig2", "--accesses", "20000", "--platform", "B"]) == 0
    assert "Figure 2" in capsys.readouterr().out


def test_micro_command(capsys):
    assert (
        main(
            [
                "micro",
                "--policy",
                "tpp",
                "--scenario",
                "small",
                "--accesses",
                "20000",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "transient" in out and "stable" in out
    assert "Counters" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_obs_command_writes_all_exports(tmp_path, capsys):
    out_dir = tmp_path / "obs"
    assert (
        main(
            [
                "obs",
                "--accesses",
                "15000",
                "--output-dir",
                str(out_dir),
            ]
        )
        == 0
    )
    for fname in (
        "events.jsonl",
        "events.csv",
        "metrics.prom",
        "trace.json",
        "gauges.csv",
    ):
        assert (out_dir / fname).exists(), fname
    out = capsys.readouterr().out
    assert "Tracepoints" in out and "Exports" in out


# One small cell, shared by the directory-mode run and the --artifact runs.
OBS_CELL = ["obs", "--scenario", "small", "--accesses", "10000",
            "--write-ratio", "0.5"]


@pytest.fixture(scope="module")
def obs_dir(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("obs")
    assert main([*OBS_CELL, "--output-dir", str(out_dir)]) == 0
    return out_dir


@pytest.mark.parametrize(
    "kind", ["jsonl", "chrome", "spans", "spans_chrome", "timeseries"]
)
def test_obs_artifact_prints_the_file_directory_mode_writes(
    obs_dir, kind, capsys
):
    from repro.obs.export import OBS_EXPORTS

    capsys.readouterr()
    assert main([*OBS_CELL, "--artifact", kind]) == 0
    printed = capsys.readouterr().out
    expected = (obs_dir / OBS_EXPORTS[kind][0]).read_text()
    assert expected
    # Compared outside the assert: pytest's diff of two multi-MB
    # strings would take minutes to render on failure.
    same = printed == expected
    assert same, f"{kind}: {len(printed)} chars printed, {len(expected)} in file"


def test_obs_unknown_artifact_lists_the_valid_kinds(obs_dir, capsys):
    from repro.obs.export import OBS_EXPORTS

    assert main([*OBS_CELL, "--artifact", "bogus"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert "'bogus'" in captured.err
    listed = captured.err.split("choose from ", 1)[1].split()
    written = [
        kind for kind, (name, _, _) in OBS_EXPORTS.items()
        if (obs_dir / name).exists()
    ]
    assert [kind.rstrip(",") for kind in listed] == written


@pytest.mark.parametrize("command", ["trace", "spans"])
def test_trace_and_spans_are_not_subcommands(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_timeline_experiment(capsys):
    assert main(["run", "timeline", "--accesses", "30000"]) == 0
    out = capsys.readouterr().out
    assert "Gauge timeline" in out
    assert "nomad.mpq_depth" in out


def test_sweep_command_writes_deterministic_aggregate(tmp_path, capsys):
    import json

    path = tmp_path / "sweep.json"
    argv = [
        "sweep",
        "--platforms", "A",
        "--policies", "tpp,nomad",
        "--scenarios", "small",
        "--write-ratios", "0.0",
        "--accesses", "4000",
        "--workers", "2",
        "--output", str(path),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "2/2 ok" in out
    doc = json.loads(path.read_text())
    assert doc["schema"] == "repro-sweep/1"
    assert doc["summary"] == {"total": 2, "ok": 2, "failed": 0}
    # The file holds only the deterministic aggregate.
    assert "wall_time_s" not in json.dumps(doc)


def test_sweep_command_spec_file(tmp_path, capsys):
    import json

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "platforms": ["A"], "policies": ["nomad"], "scenarios": ["small"],
        "write_ratios": [0.0], "accesses": [4000], "seeds": [1, 2],
    }))
    assert main(["sweep", "--spec", str(spec)]) == 0
    assert "2/2 ok" in capsys.readouterr().out


def test_sweep_command_reports_failures_in_exit_code(capsys):
    argv = [
        "sweep",
        "--experiments", "no-such-experiment",
        "--accesses", "1000",
    ]
    assert main(argv) == 1
    assert "FAILED" in capsys.readouterr().out


def test_bench_command_quick_profile(tmp_path, capsys, monkeypatch):
    from repro.bench import baseline as bl
    from repro.bench.sweep import SweepSpec

    monkeypatch.setitem(bl.PROFILES, "quick", (
        SweepSpec(platforms=("A",), policies=("nomad",), scenarios=("small",),
                  write_ratios=(0.0,), accesses=(4000,), seeds=(42,),
                  instrument=True),
    ))
    assert main(["bench", "--quick", "--output-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "1/1 ok" in out
    reports = list(tmp_path.glob("BENCH_*.json"))
    assert len(reports) == 1

    from repro.bench.baseline import load_report

    report = load_report(str(reports[0]))
    assert report["profile"] == "quick"
    assert report["jobs"][0]["status"] == "ok"


def test_trace_gen_list(capsys):
    assert main(["trace-gen", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("zipf-drift", "phase-shift", "diurnal"):
        assert name in out


def test_trace_gen_roundtrip_and_replay(tmp_path, capsys):
    trace = str(tmp_path / "t")
    assert main([
        "trace-gen", "gen", "zipf-drift", "--out", trace,
        "--pages", "600", "--accesses", "4000", "--seed", "3",
        "--fast-fraction", "0.5", "--param", "theta0=1.1",
    ]) == 0
    out = capsys.readouterr().out
    assert "4000" in out
    assert main(["trace-gen", "info", trace, "--verify"]) == 0
    assert "zipf-drift" in capsys.readouterr().out

    import json

    assert main([
        "replay", trace, "--policy", "nomad", "--platform", "A", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["workload_counters"]["accesses"] == 4000.0
    assert payload["policy"] == "nomad"
    assert payload["counter_digest"]

    # Streaming and in-RAM replay arms agree bit for bit.
    assert main([
        "replay", trace, "--policy", "nomad", "--platform", "A",
        "--in-ram", "--json",
    ]) == 0
    in_ram = json.loads(capsys.readouterr().out)
    assert in_ram["counter_digest"] == payload["counter_digest"]
    assert in_ram["sim_cycles"] == payload["sim_cycles"]


def test_trace_gen_rejects_bad_params(capsys):
    assert main([
        "trace-gen", "gen", "zipf-drift", "--out", "unused",
        "--param", "bogus=1",
    ]) != 0
    assert "unknown" in capsys.readouterr().err


def test_trace_gen_interleave(tmp_path, capsys):
    trace = str(tmp_path / "multi")
    assert main([
        "trace-gen", "interleave", "--out", trace,
        "--tenants", "3", "--pages", "64", "--accesses", "900",
        "--seed", "5", "--quantum", "32",
    ]) == 0
    capsys.readouterr()
    assert main(["trace-gen", "info", trace, "--verify"]) == 0
    out = capsys.readouterr().out
    assert "tenant" in out

    from repro.workloads import TraceManifest

    manifest = TraceManifest.load(trace)
    assert len(manifest.tenants) == 3
    assert manifest.accesses == 2700  # --accesses is per tenant
    assert manifest.nr_pages == 192


def test_trace_gen_import(tmp_path, capsys):
    src = tmp_path / "dump.csv"
    src.write_text("0,r\n1,w\n2,r\n1,w\n")
    trace = str(tmp_path / "imported")
    assert main(["trace-gen", "import", str(src), "--out", trace]) == 0
    capsys.readouterr()

    from repro.workloads import TraceManifest

    manifest = TraceManifest.load(trace)
    assert manifest.accesses == 4
    assert manifest.doc["writes"] == 2


def test_multi_tenant_fairness_experiment(capsys):
    assert main([
        "run", "multi_tenant_fairness", "--accesses", "8000",
    ]) == 0
    out = capsys.readouterr().out
    assert "Multi-tenant fairness" in out
    assert "jain" in out
    assert "tenant00" in out


def test_sweep_command_trace_generators(tmp_path, capsys):
    import json

    path = tmp_path / "sweep.json"
    argv = [
        "sweep",
        "--platforms", "A",
        "--policies", "nomad",
        "--trace-generators", "zipf-drift",
        "--accesses", "8000",
        "--output", str(path),
    ]
    assert main(argv) == 0
    assert "1/1 ok" in capsys.readouterr().out
    doc = json.loads(path.read_text())
    job = doc["jobs"][0]
    assert job["id"].startswith("trace/A/nomad/zipf-drift/")
    assert job["trace_digest"]
    assert job["counter_digest"]
