"""Command-line interface: regenerate any paper experiment.

Usage::

    python -m repro list
    python -m repro run fig1 [--accesses N]
    python -m repro run fig7 --platform A
    python -m repro run tab4
    python -m repro micro --policy nomad --scenario medium --write-ratio 0.5
    python -m repro obs --output-dir out/obs
    python -m repro obs --artifact spans_chrome > spans.json
    python -m repro top --scenario medium --write-ratio 0.7
    python -m repro sweep --platforms A,C --policies tpp,nomad --workers 4
    python -m repro bench --quick --workers 2
    python -m repro check --profile quick --report check.json
    python -m repro trace-gen gen zipf-drift --out traces/drift --seed 7
    python -m repro trace-gen interleave --out traces/mt --tenants 8
    python -m repro replay traces/drift --policy nomad --json

``run`` prints the same rows the corresponding paper figure plots;
``micro`` runs a single ad-hoc micro-benchmark cell and dumps its
counters; ``obs`` runs a fully instrumented cell and writes every
exporter output (JSONL and CSV events, Chrome Trace for Perfetto,
Prometheus text, gauge CSV, lifecycle spans as JSONL and Perfetto
slices, windowed time series), or prints one of them with
``--artifact KIND``; ``top`` runs a cell with a live terminal dashboard
tailing the windowed time series; ``sweep`` fans a declarative grid out
across a worker pool; ``bench`` runs a pinned perf suite and writes a
``BENCH_<timestamp>.json`` report (see docs/benchmarking.md); ``check``
runs the chaos corpus -- a fault grid crossed with a seed set, runtime
invariants enabled -- and exits nonzero on any violation (see
docs/extending.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Optional, Sequence

from .bench.experiments.registry import REGISTRY, ExperimentSpec
from .bench.reporting import print_table
from .bench.runner import run_experiment
from .workloads import ZipfianMicrobench

__all__ = ["main", "EXPERIMENTS"]

# The registry is populated at import time by the modules of
# repro.bench.experiments; importing the package registers everything.
EXPERIMENTS: Dict[str, ExperimentSpec] = REGISTRY


def _cmd_list(_args) -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name, exp in EXPERIMENTS.items():
        print(f"  {name:<{width}}  {exp.description}")
    return 0


def _cmd_run(args) -> int:
    try:
        experiment = EXPERIMENTS[args.experiment]
    except KeyError:
        print(
            f"error: unknown experiment {args.experiment!r}; "
            "try `python -m repro list`",
            file=sys.stderr,
        )
        return 2
    try:
        result = experiment.run(args.accesses, args.platform)
        experiment.printer(result)
    except Exception:
        # Name the failing experiment before the traceback so CI logs
        # (where several smoke runs share one step) say *what* died,
        # then surface the failure as a nonzero exit.
        import traceback

        traceback.print_exc()
        print(
            f"error: experiment {args.experiment!r} failed "
            "(traceback above)",
            file=sys.stderr,
        )
        return 1
    return 0


def _positive(kind):
    """An argparse type: a ``kind`` (int or float) above zero."""

    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value" names it
    return parse


def _add_cell_options(
    parser: argparse.ArgumentParser,
    scenario: str = "medium",
    write_ratio: float = 0.3,
    accesses: int = 60_000,
) -> None:
    """The micro-benchmark cell options ``micro``, ``obs`` and ``top`` share."""
    parser.add_argument("--policy", default="nomad")
    parser.add_argument(
        "--scenario", default=scenario, choices=("small", "medium", "large")
    )
    parser.add_argument("--write-ratio", type=float, default=write_ratio)
    parser.add_argument("--platform", default="A")
    parser.add_argument("--accesses", type=_positive(int), default=accesses)


def _cell_workload(args) -> ZipfianMicrobench:
    return ZipfianMicrobench.scenario(
        args.scenario,
        write_ratio=args.write_ratio,
        total_accesses=args.accesses,
    )


def _make_cell(args):
    """Build the (machine, workload) pair ``obs`` and ``top`` run."""
    from .bench.runner import build_machine

    return build_machine(args.platform, args.policy), _cell_workload(args)


def _cmd_micro(args) -> int:
    result = run_experiment(
        args.platform, args.policy, lambda: _cell_workload(args)
    )
    print_table(
        f"{args.policy} / {args.scenario} WSS / write_ratio={args.write_ratio} "
        f"(platform {result.platform})",
        ["phase", "bandwidth GB/s", "avg access cycles"],
        [
            ["transient", result.transient.bandwidth_gbps, result.transient.avg_access_cycles],
            ["stable", result.stable.bandwidth_gbps, result.stable.avg_access_cycles],
            ["overall", result.overall.bandwidth_gbps, result.overall.avg_access_cycles],
        ],
    )
    interesting = {
        k: v for k, v in sorted(result.report.counters.items()) if v
    }
    print_table(
        "Counters", ["counter", "value"], list(interesting.items()), "{:.0f}"
    )
    return 0


def _cmd_obs(args) -> int:
    from .obs.export import obs_artifacts, render_obs_output, write_obs_outputs

    machine, workload = _make_cell(args)
    machine.obs.enable(
        capacity=args.capacity, sample_period=args.sample_period
    )
    # The second tier rides along so one `repro obs` run yields every
    # artifact the schema checker validates (spans.jsonl, timeseries.csv).
    machine.obs.enable_timeseries(window_cycles=args.window)
    kinds = obs_artifacts(machine)
    if args.artifact is not None and args.artifact not in kinds:
        print(
            f"error: unknown artifact {args.artifact!r}; "
            f"choose from {', '.join(kinds)}",
            file=sys.stderr,
        )
        return 2
    report = machine.run_workload(workload)
    if args.artifact is not None:
        sys.stdout.write(render_obs_output(machine, args.artifact))
        return 0
    paths = write_obs_outputs(machine, args.output_dir)
    print_table(
        f"Tracepoints ({machine.obs.dropped} dropped)",
        ["event", "count"],
        sorted(machine.obs.counts().items()),
        "{:.0f}",
    )
    hists = report.obs["histograms"] if report.obs else {}
    if hists:
        print_table(
            "Operation latencies (cycles)",
            ["histogram", "count", "p50", "p95", "p99"],
            [
                [name, h["count"], h["p50"], h["p95"], h["p99"]]
                for name, h in sorted(hists.items())
            ],
            "{:.0f}",
        )
    print_table(
        "Exports", ["format", "path"], sorted(paths.items())
    )
    return 0


def _cmd_top(args) -> int:
    from .obs.top import run_top

    machine, workload = _make_cell(args)
    frames = run_top(
        machine,
        workload,
        window_cycles=args.window,
        ansi=False if args.plain else None,
        refresh_windows=args.refresh,
    )
    print(f"done: {frames} frame(s), sim {machine.engine.now:.0f} cycles")
    return 0


def _parse_params(pairs) -> dict:
    """Parse repeated ``--param key=value`` flags (int/float/str values)."""
    params = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise SystemExit(f"error: --param wants key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        params[key.strip()] = value
    return params


def _cmd_trace_gen(args) -> int:
    from .workloads import (
        GENERATORS,
        TraceManifest,
        build_trace,
        import_text_trace,
        interleave_tenants,
    )
    from .workloads.tracegen import default_params

    if args.action == "list":
        width = max(len(name) for name in GENERATORS)
        for name in sorted(GENERATORS):
            defaults = ", ".join(
                f"{k}={v}" for k, v in sorted(default_params(name).items())
            )
            print(f"  {name:<{width}}  params: {defaults}")
        return 0

    if args.action == "gen":
        try:
            manifest = build_trace(
                args.out,
                args.generator,
                nr_pages=args.pages,
                accesses=args.accesses,
                seed=args.seed,
                name=args.name,
                fast_fraction=args.fast_fraction,
                params=_parse_params(args.param),
                shard_accesses=args.shard_accesses,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    elif args.action == "interleave":
        generators = _csv(args.generators)
        tenants = [
            {
                "name": f"tenant{i:02d}",
                "generator": generators[i % len(generators)],
                "nr_pages": args.pages,
                "accesses": args.accesses,
                "seed": args.seed + i,
            }
            for i in range(args.tenants)
        ]
        try:
            manifest = interleave_tenants(
                args.out,
                tenants,
                name=args.name or "interleaved",
                quantum=args.quantum,
                fast_fraction=args.fast_fraction,
                shard_accesses=args.shard_accesses,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    elif args.action == "import":
        try:
            manifest = import_text_trace(
                args.src,
                args.out,
                name=args.name,
                nr_pages=args.pages,
                fast_fraction=args.fast_fraction,
                shard_accesses=args.shard_accesses,
            )
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:  # info
        try:
            manifest = TraceManifest.load(args.out)
            if args.verify:
                manifest.verify()
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    doc = manifest.doc
    rows = [
        ["name", doc["name"]],
        ["schema", doc["schema"]],
        ["accesses", doc["accesses"]],
        ["writes", doc["writes"]],
        ["nr_pages", doc["nr_pages"]],
        ["fast_fraction", doc["fast_fraction"]],
        ["shards", len(doc["shards"])],
        ["digest", doc["digest"][:16]],
    ]
    if doc.get("generator"):
        rows.append(["generator", doc["generator"]["name"]])
    if doc.get("tenants"):
        rows.append(["tenants", len(doc["tenants"])])
    verb = "verified" if args.action == "info" else "written"
    print_table(f"Trace {verb}: {manifest.base_dir}", ["field", "value"], rows)
    return 0


def _cmd_replay(args) -> int:
    import json

    from .bench.runner import build_machine
    from .obs.export import counter_digest
    from .workloads import StreamingTraceWorkload, TraceWorkload

    try:
        if args.in_ram:
            kwargs = {}
            if args.fast_fraction is not None:
                kwargs["fast_fraction"] = args.fast_fraction
            workload = TraceWorkload.load(args.trace, **kwargs)
        else:
            workload = StreamingTraceWorkload(
                args.trace, fast_fraction=args.fast_fraction,
                verify=args.verify,
            )
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    machine = build_machine(args.platform, args.policy)
    report = machine.run_workload(workload)
    payload = {
        "trace": args.trace,
        "workload": workload.name,
        "platform": args.platform,
        "policy": args.policy,
        "sim_cycles": float(machine.engine.now),
        "counter_digest": counter_digest(report.counters),
        "stable_gbps": float(report.stable.bandwidth_gbps),
        "overall_gbps": float(report.overall.bandwidth_gbps),
        "avg_access_cycles": float(report.overall.avg_access_cycles),
        "workload_counters": {
            k: float(v) for k, v in sorted(report.workload_counters.items())
        },
    }
    if args.json:
        json.dump(payload, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print_table(
            f"Replay {workload.name} ({args.policy} on {args.platform})",
            ["field", "value"],
            [[k, v] for k, v in payload.items()
             if k != "workload_counters"],
        )
    return 0


def _csv(text: str) -> list:
    return [item.strip() for item in text.split(",") if item.strip()]


def _progress_printer(record: dict) -> None:
    status = record["status"]
    mark = "ok" if status == "ok" else "FAILED"
    line = f"  [{mark:>6}] {record['id']}  {record['wall_time_s']:.2f}s"
    if status != "ok":
        line += f"  {record.get('error', '')}"
    print(line, flush=True)


def _sweep_row(record: dict) -> list:
    metrics = record.get("metrics") or {}
    stable = metrics.get("stable_gbps", metrics.get("rows", ""))
    return [
        record["id"],
        record["status"],
        stable if stable != "" else "-",
        record.get("counter_digest", record.get("error", ""))[:12],
        record["wall_time_s"],
    ]


def _print_job_table(title: str, records: list) -> None:
    print_table(
        title,
        ["job", "status", "stable GB/s|rows", "digest", "wall s"],
        [_sweep_row(r) for r in records],
    )


def _cmd_sweep(args) -> int:
    import json

    from .bench.sweep import SweepSpec, aggregate, run_sweep

    if args.spec:
        with open(args.spec) as f:
            spec = SweepSpec.from_dict(json.load(f))
    else:
        spec = SweepSpec(
            platforms=_csv(args.platforms),
            policies=_csv(args.policies),
            scenarios=_csv(args.scenarios),
            write_ratios=[float(x) for x in _csv(args.write_ratios)],
            accesses=[int(x) for x in _csv(args.accesses)],
            seeds=[int(x) for x in _csv(args.seeds)],
            experiments=_csv(args.experiments) if args.experiments else (),
            trace_generators=(
                _csv(args.trace_generators) if args.trace_generators else ()
            ),
            instrument=args.instrument,
        )
    jobs = spec.expand()
    if not jobs:
        print("error: sweep spec expands to zero jobs", file=sys.stderr)
        return 2
    print(f"sweep: {len(jobs)} jobs, {args.workers} worker(s)")
    records = run_sweep(jobs, workers=args.workers, progress=_progress_printer)
    agg = aggregate(records)
    _print_job_table(
        f"Sweep: {agg['summary']['ok']}/{agg['summary']['total']} ok",
        records,
    )
    if args.output:
        # Only the deterministic aggregate goes to the file: identical
        # grids produce byte-identical output for any --workers value.
        with open(args.output, "w") as f:
            json.dump(agg, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"aggregate written to {args.output}")
    return 1 if agg["summary"]["failed"] else 0


def _cmd_bench(args) -> int:
    import json

    from .bench.baseline import run_bench, write_bench_report

    profile = "quick" if args.quick else args.profile
    print(f"bench: profile {profile!r}, {args.workers} worker(s)")
    report = run_bench(profile, workers=args.workers,
                       progress=_progress_printer)
    _print_job_table(
        f"Bench {profile}: {report['summary']['ok']}"
        f"/{report['summary']['total']} ok "
        f"({report['timing']['total_wall_time_s']:.1f}s total)",
        [
            dict(job, wall_time_s=report["timing"]["wall_time_s"][job["id"]])
            for job in report["jobs"]
        ],
    )
    if args.write_baseline:
        with open(args.write_baseline, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"baseline written to {args.write_baseline}")
    else:
        path = write_bench_report(report, args.output_dir)
        print(f"report written to {path}")
    return 1 if report["summary"]["failed"] else 0


def _cmd_check(args) -> int:
    import json

    from .debug.chaos import expand_profile, run_check

    try:
        jobs = expand_profile(
            args.profile,
            platforms=_csv(args.platforms) if args.platforms else None,
            faults=_csv(args.faults) if args.faults else None,
            seeds=[int(s) for s in _csv(args.seeds)] if args.seeds else None,
            accesses=args.accesses,
            paranoid=args.paranoid,
            check_interval=args.check_interval,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not jobs:
        print("error: filters select zero check jobs", file=sys.stderr)
        return 2
    print(f"check: {len(jobs)} jobs (profile {args.profile!r})")

    def progress(record: dict) -> None:
        status = record["status"]
        mark = "ok" if status == "ok" else status.upper()
        line = f"  [{mark:>10}] {record['id']}  {record['wall_time_s']:.2f}s"
        if status == "violations":
            line += f"  {len(record['violations'])} violation(s)"
        elif status == "failed":
            line += f"  {record.get('error', '')}"
        print(line, flush=True)

    report = run_check(jobs, progress=progress)
    print_table(
        f"Check {args.profile}: {report['summary']['ok']}"
        f"/{report['summary']['total']} ok, "
        f"{report['summary']['violations']} violation(s)",
        ["job", "status", "passes", "injected", "wall s"],
        [
            [
                r["id"],
                r["status"],
                r.get("checker_passes", "-"),
                sum(r.get("injections", {}).values()) or "-",
                r["wall_time_s"],
            ]
            for r in report["jobs"]
        ],
    )
    for record in report["jobs"]:
        for v in record.get("violations", ()):
            print(f"  VIOLATION {record['id']} @ {v['ts']:.0f}: "
                  f"[{v['check']}] {v['detail']}")
    if args.report:
        with open(args.report, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"report written to {args.report}")
    bad = report["summary"]["violations"] or report["summary"]["failed"]
    return 1 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate experiments from the NOMAD (OSDI'24) reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(
        func=_cmd_list
    )

    run_p = sub.add_parser(
        "run",
        help="run one figure/table experiment",
        epilog="Runs execute on the two-speed engine: runs of fault-free "
        "chunks commit in one vectorized step, every other chunk runs "
        "on the event-engine slow path. Results are bit-identical either "
        "way; set REPRO_FASTPATH=0 (or MachineConfig(fastpath_enabled="
        "False)) to force the per-chunk slow path when bisecting a "
        "suspected fast-path issue.",
    )
    run_p.add_argument("experiment", help="e.g. fig7, tab3 (see `list`)")
    run_p.add_argument("--accesses", type=int, default=120_000)
    run_p.add_argument("--platform", default=None, help="override platform (A-D)")
    run_p.set_defaults(func=_cmd_run)

    micro_p = sub.add_parser("micro", help="run one micro-benchmark cell")
    _add_cell_options(
        micro_p, scenario="small", write_ratio=0.0, accesses=120_000
    )
    micro_p.set_defaults(func=_cmd_micro)

    obs_p = sub.add_parser(
        "obs",
        help="run an instrumented cell and write every observability export",
        epilog="Spans stitch the tracepoint stream into typed intervals: "
        "TPM transactions (begin..commit/abort with a copy/protocol "
        "phase breakdown and per-chunk children), MPQ residencies, "
        "shadow-page lifetimes, and sync-migration fallbacks. The "
        "chrome and spans_chrome exports load in Perfetto.",
    )
    _add_cell_options(obs_p)
    obs_p.add_argument("--capacity", type=_positive(int), default=65_536)
    obs_p.add_argument(
        "--sample-period",
        type=_positive(float),
        default=50_000.0,
        help="gauge sample period in cycles",
    )
    obs_p.add_argument(
        "--output-dir", default="obs-out", help="directory for exporter files"
    )
    obs_p.add_argument(
        "--window",
        type=_positive(float),
        default=100_000.0,
        help="time-series window size in cycles",
    )
    obs_p.add_argument(
        "--artifact",
        default=None,
        metavar="KIND",
        help="print this one export (e.g. jsonl, chrome, spans_chrome) to "
        "stdout instead of writing --output-dir; an unknown KIND lists "
        "the valid ones",
    )
    obs_p.set_defaults(func=_cmd_obs)

    top_p = sub.add_parser(
        "top",
        help="run a cell with a live terminal dashboard (windowed rates)",
    )
    _add_cell_options(top_p)
    top_p.add_argument(
        "--window",
        type=_positive(float),
        default=100_000.0,
        help="refresh window in simulated cycles",
    )
    top_p.add_argument(
        "--refresh", type=_positive(int), default=1,
        help="redraw every Nth window (coarser refresh)",
    )
    top_p.add_argument(
        "--plain", action="store_true",
        help="never use ANSI redraw (sequential frames; default off-TTY)",
    )
    top_p.set_defaults(func=_cmd_top)

    sweep_p = sub.add_parser(
        "sweep",
        help="fan a grid of cells/experiments out across a worker pool",
        epilog="Worker processes inherit REPRO_FASTPATH, so exporting "
        "REPRO_FASTPATH=0 bisects the whole grid onto the per-chunk "
        "slow path (simulated results are bit-identical; only wall "
        "time changes).",
    )
    sweep_p.add_argument(
        "--spec", default=None,
        help="JSON sweep spec file (overrides the axis flags)",
    )
    sweep_p.add_argument("--platforms", default="A")
    sweep_p.add_argument("--policies", default="tpp,nomad")
    sweep_p.add_argument("--scenarios", default="small")
    sweep_p.add_argument("--write-ratios", default="0.0")
    sweep_p.add_argument("--accesses", default="20000")
    sweep_p.add_argument("--seeds", default="42")
    sweep_p.add_argument(
        "--experiments", default="",
        help="comma-separated registry experiment names; when given, the "
        "grid is experiments x platforms x accesses instead of the "
        "micro-benchmark cell axes",
    )
    sweep_p.add_argument(
        "--trace-generators", default="",
        help="comma-separated trace generator names; when given, the "
        "grid is platforms x policies x generators x accesses x seeds "
        "of trace-replay jobs (mutually exclusive with --experiments)",
    )
    sweep_p.add_argument(
        "--instrument", action="store_true",
        help="enable the observability layer per job (latency percentiles)",
    )
    sweep_p.add_argument("--workers", type=int, default=1)
    sweep_p.add_argument(
        "--output", default=None,
        help="write the deterministic aggregate JSON here",
    )
    sweep_p.set_defaults(func=_cmd_sweep)

    bench_p = sub.add_parser(
        "bench",
        help="run a pinned perf suite and write BENCH_<ts>.json",
        epilog="The report records suite throughput "
        "(timing.cycles_per_sec) alongside per-job walls. CI reruns the "
        "suite with REPRO_FASTPATH=0 and compares the two reports: "
        "every simulated field must match bit-for-bit and the fast "
        "path must not crater throughput (see "
        "scripts/check_bench_regression.py --min-cps-ratio).",
    )
    bench_p.add_argument(
        "--profile", default="quick", choices=("quick", "full")
    )
    bench_p.add_argument(
        "--quick", action="store_true", help="alias for --profile quick"
    )
    bench_p.add_argument("--workers", type=int, default=1)
    bench_p.add_argument(
        "--output-dir", default=".",
        help="directory for the BENCH_<timestamp>.json report",
    )
    bench_p.add_argument(
        "--write-baseline", default=None, metavar="PATH",
        help="write the report to PATH (e.g. benchmarks/baselines/quick.json) "
        "instead of a timestamped file",
    )
    bench_p.set_defaults(func=_cmd_bench)

    tg_p = sub.add_parser(
        "trace-gen",
        help="generate, interleave, import, or inspect trace files",
        epilog="Traces are chunked npz shards plus a manifest.json with "
        "generator provenance and content digests (docs/trace-format.md). "
        "Generation is fully deterministic: the same generator, "
        "parameters, and seed always produce byte-identical files, which "
        "is what the CI trace-conformance gate pins.",
    )
    tg_sub = tg_p.add_subparsers(dest="action", required=True)

    tg_list = tg_sub.add_parser(
        "list", help="list trace generators and their parameters"
    )
    tg_list.set_defaults(func=_cmd_trace_gen)

    def tg_common(p, needs_pages_default=None):
        p.add_argument("--out", required=True, help="trace directory to write")
        p.add_argument("--pages", type=int, default=needs_pages_default,
                       help="workload footprint in pages")
        p.add_argument("--accesses", type=int, default=200_000)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--name", default=None)
        p.add_argument("--fast-fraction", type=float, default=1.0,
                       help="fraction of pages replayers place fast-first")
        p.add_argument("--shard-accesses", type=int, default=65_536,
                       help="accesses per npz shard")
        p.set_defaults(func=_cmd_trace_gen)

    tg_gen = tg_sub.add_parser(
        "gen", help="generate one trace from a parameterized generator"
    )
    tg_gen.add_argument(
        "generator", help="generator name (see `trace-gen list`)"
    )
    tg_gen.add_argument(
        "--param", action="append", metavar="KEY=VALUE",
        help="generator parameter override (repeatable)",
    )
    tg_common(tg_gen, needs_pages_default=8192)

    tg_int = tg_sub.add_parser(
        "interleave",
        help="deterministically interleave N tenant streams into one trace",
    )
    tg_int.add_argument("--tenants", type=int, default=8)
    tg_int.add_argument(
        "--generators", default="zipf-drift,phase-shift,diurnal",
        help="comma-separated generator cycle assigned tenant-by-tenant",
    )
    tg_int.add_argument(
        "--quantum", type=int, default=256,
        help="round-robin quantum in accesses",
    )
    tg_common(tg_int, needs_pages_default=1024)

    tg_imp = tg_sub.add_parser(
        "import", help="import a text/CSV `vpn[,rw]` dump as a trace"
    )
    tg_imp.add_argument("src", help="text file: one `vpn[,r|w]` per line")
    tg_common(tg_imp)

    tg_info = tg_sub.add_parser(
        "info", help="print (and optionally verify) a trace manifest"
    )
    tg_info.add_argument("out", help="trace directory or manifest.json")
    tg_info.add_argument(
        "--verify", action="store_true",
        help="recompute shard digests and fail on any mismatch",
    )
    tg_info.set_defaults(func=_cmd_trace_gen)

    replay_p = sub.add_parser(
        "replay",
        help="replay a trace file through a policy and report its digest",
        epilog="Streams the trace shard-by-shard (constant memory). The "
        "counter digest is deterministic, so two replays of one trace "
        "must match bit-for-bit -- the CI conformance gate replays each "
        "corpus trace under REPRO_FASTPATH=0 and 1 and diffs the JSON.",
    )
    replay_p.add_argument("trace", help="trace directory or manifest.json")
    replay_p.add_argument("--policy", default="nomad")
    replay_p.add_argument("--platform", default="A")
    replay_p.add_argument(
        "--fast-fraction", type=float, default=None,
        help="override the manifest's initial fast-tier placement fraction",
    )
    replay_p.add_argument(
        "--in-ram", action="store_true",
        help="materialize the whole trace up front (TraceWorkload) instead "
        "of streaming",
    )
    replay_p.add_argument(
        "--verify", action="store_true",
        help="verify shard digests against the manifest before replaying",
    )
    replay_p.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable JSON report on stdout",
    )
    replay_p.set_defaults(func=_cmd_replay)

    check_p = sub.add_parser(
        "check",
        help="run the chaos corpus: fault grid x seeds with invariants on",
    )
    check_p.add_argument(
        "--profile", default="quick", choices=("quick", "full", "kswapd")
    )
    check_p.add_argument(
        "--platforms", default="",
        help="override platforms (comma-separated, e.g. A,C)",
    )
    check_p.add_argument(
        "--faults", default="",
        help="restrict to these fault-grid cells (comma-separated; "
        "see repro.debug.chaos.FAULT_GRID)",
    )
    check_p.add_argument(
        "--seeds", default="", help="override seed list (comma-separated)"
    )
    check_p.add_argument(
        "--accesses", type=int, default=None,
        help="override per-job access count",
    )
    check_p.add_argument(
        "--paranoid", action="store_true",
        help="check invariants after every engine event (slow)",
    )
    check_p.add_argument(
        "--check-interval", type=float, default=None,
        help="override the checker interval in simulated cycles",
    )
    check_p.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the JSON report here (CI artifact)",
    )
    check_p.set_defaults(func=_cmd_check)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
