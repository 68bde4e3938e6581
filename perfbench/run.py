"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload trace-drift-rw --seed 42 \
        --seconds 20 --trace 0

Run from the repository root. The simulator is imported from ``src/``.
One process runs one workload with one simulated application thread, in
a closed loop: the app thread issues its next chunk only after the last
one completed. The run repeats the same seeded workload (set up, run,
check) until ``--seconds`` have passed, at least three times, and
reports medians over the repeats.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half
the time on untraced repeats and half on traced ones, and reports the
per-layer metrics plus ``trace_overhead_frac``. Both modes run the
output check on every repeat: the executed access count must equal the
requested one, the invariant checker must find nothing, and every repeat
of the seed must produce the same simulated metrics and counter digest.
A repeat that raises or fails a check counts all its accesses as failed.

The last line of standard output is the JSON result; the lines before it
describe each repeat.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_REPEATS = 3


@dataclass
class Repeat:
    accesses: int
    setup_s: float = 0.0
    run_s: float = 0.0
    sim: Dict[str, float] = field(default_factory=dict)
    digest: str = ""
    layers: Optional[Dict[str, float]] = None
    error: str = ""

    @property
    def accesses_per_s(self) -> float:
        return self.accesses / self.run_s


def parse_args(argv, workloads) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def interpolated_percentile(counts, edges, q: float) -> Tuple[float, float]:
    """``(estimate, bucket upper edge)`` of the q-th percentile.

    ``RunReport`` gives the upper edge of the bucket that holds the
    percentile, which reads the same on every seed. The estimate
    interpolates geometrically inside that bucket (the buckets are
    geometric), so it moves with the counts.
    """
    cum = np.cumsum(counts)
    target = cum[-1] * q / 100.0
    b = int(np.searchsorted(cum, target, side="left"))
    if b == 0 or b >= len(edges):
        edge = float(edges[min(b, len(edges) - 1)])
        return edge, edge
    lo, hi = float(edges[b - 1]), float(edges[b])
    frac = float((target - cum[b - 1]) / counts[b])
    return lo * (hi / lo) ** frac, hi


def sim_metrics(machine, report) -> Tuple[Dict[str, float], str]:
    """The simulated end-to-end metrics and the counter digest."""
    from repro.obs.export import counter_digest
    from repro.sim.stats import LATENCY_BIN_EDGES

    hist = sum(
        w.latency_hist for w in machine.stats.windows if w.latency_hist is not None
    )
    p99, edge = interpolated_percentile(hist, LATENCY_BIN_EDGES, 99.0)
    if edge != report.overall.p99_access_cycles:
        raise RuntimeError(
            f"latency histogram p99 bucket {edge} does not match the "
            f"report's {report.overall.p99_access_cycles}"
        )
    sim = {
        "sim_stable_gbps": report.stable.bandwidth_gbps,
        "sim_transient_gbps": report.transient.bandwidth_gbps,
        "sim_p99_access_cycles": p99,
    }
    return sim, counter_digest(report.counters)


def run_repeat(scenario, seed: int, tracer=None) -> Repeat:
    """Set up, run and check one closed-loop repeat of the workload."""
    from repro.debug.invariants import InvariantChecker

    rep = Repeat(scenario.accesses)
    gc.collect()
    try:
        with tempfile.TemporaryDirectory(dir=OUT) as scratch:
            if tracer is not None:
                tracer.reset_counts()
            t0 = time.perf_counter()
            machine, workload = scenario.setup(seed, Path(scratch))
            t1 = time.perf_counter()
            if tracer is not None:
                machine.engine.profiler = tracer
            report = machine.run_workload(workload)
            t2 = time.perf_counter()
        rep.setup_s, rep.run_s = t1 - t0, t2 - t1
        if tracer is not None:
            from tracing import layer_metrics

            rep.layers = layer_metrics(tracer, machine, report)
        # Output check, outside the timed phases.
        executed = int(report.workload_counters["accesses"])
        if executed != scenario.accesses:
            rep.error = f"executed {executed} of {scenario.accesses} accesses"
        violations = InvariantChecker(machine).check_now()
        if violations:
            rep.error = f"{len(violations)} invariant violations: {violations[0]}"
        rep.sim, rep.digest = sim_metrics(machine, report)
    except Exception:  # noqa: BLE001 -- a failed repeat is reported, not fatal
        rep.error = traceback.format_exc()
    return rep


def measure(scenario, seed: int, seconds: float, tracer=None) -> List[Repeat]:
    """Repeat the workload until ``seconds`` have passed (at least
    MIN_REPEATS times)."""
    repeats: List[Repeat] = []
    deadline = time.perf_counter() + seconds
    while len(repeats) < MIN_REPEATS or time.perf_counter() < deadline:
        rep = run_repeat(scenario, seed, tracer)
        repeats.append(rep)
        status = "ok" if not rep.error else "FAILED: " + rep.error.strip()
        print(
            f"# {scenario.name} seed={seed} traced={int(tracer is not None)} "
            f"setup={rep.setup_s:.4f}s run={rep.run_s:.4f}s {status}",
            flush=True,
        )
    return repeats


def check_determinism(repeats: List[Repeat]) -> Optional[Repeat]:
    """Fail every repeat whose simulated results differ from the first
    good one; returns that reference repeat (None if all failed)."""
    good = [r for r in repeats if not r.error]
    if not good:
        return None
    ref = good[0]
    for rep in good[1:]:
        if (rep.sim, rep.digest) != (ref.sim, ref.digest):
            rep.error = (
                f"nondeterministic: {rep.sim} {rep.digest} differs from "
                f"{ref.sim} {ref.digest}"
            )
            print(f"# FAILED: {rep.error}")
    return ref


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: simulator source src/repro not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from scenarios import SCENARIOS

    args = parse_args(argv, sorted(SCENARIOS))
    scenario = SCENARIOS[args.workload]
    OUT.mkdir(exist_ok=True)

    if args.trace:
        from tracing import Tracer, install

        untraced = measure(scenario, args.seed, args.seconds / 2)
        tracer = Tracer()
        install(tracer)
        try:
            traced = measure(scenario, args.seed, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        tracer.write_spans(OUT / f"spans-{scenario.name}-s{args.seed}.npz")
        repeats = untraced + traced
        declared = spec["per_layer"]
    else:
        repeats = measure(scenario, args.seed, args.seconds)
        declared = spec["end_to_end"]

    ref = check_determinism(repeats)
    good = [r for r in repeats if not r.error]
    good_traced = [r for r in good if r.layers is not None]
    if ref is None or (args.trace and not good_traced):
        print("perfbench: every repeat failed", file=sys.stderr)
        return 1

    if args.trace:
        values = {
            name: median(r.layers[name] for r in good_traced)
            for name in good_traced[0].layers
        }
        values["trace_overhead_frac"] = (
            median(r.accesses_per_s for r in good if r.layers is None)
            / median(r.accesses_per_s for r in good_traced)
            - 1.0
        )
    else:
        values = {
            "accesses_per_s": median(r.accesses_per_s for r in good),
            "setup_s": median(r.setup_s for r in good),
            # ru_maxrss is in KiB on Linux.
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            **ref.sim,
        }
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise SystemExit(
            f"perfbench: metrics {sorted(set(values) ^ set(units))} are not "
            "declared in BENCHMARK.json, or declared but not measured"
        )

    attempted = sum(r.accesses for r in repeats)
    failed = sum(r.accesses for r in repeats if r.error)
    print(
        f"# {scenario.name} seed={args.seed} repeats={len(repeats)} "
        f"counter_digest={ref.digest} error_rate={failed / attempted:.6f} "
        + " ".join(f"{k}={v:.6g}" for k, v in sorted(ref.sim.items()))
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
