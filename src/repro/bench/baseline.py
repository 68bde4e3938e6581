"""Perf baselines: pinned suites, ``BENCH_*.json`` reports, regression checks.

The simulator is deterministic, so its perf trajectory is machine
checkable: a pinned suite of (platform x policy x workload) cells and
registry experiments is run through the sweep layer, and the result --
simulated cycles, counter digests, bandwidth metrics, obs latency
percentiles, wall-clock timings -- is written as a schema-versioned
``BENCH_<timestamp>.json``. Committed baselines live in
``benchmarks/baselines/<profile>.json``; :func:`compare_bench` checks a
fresh report against one:

* **simulated** quantities (cycles, counter digests, metrics) must be
  *bit-exact* -- any drift means simulator behaviour changed and fails
  the check;
* **wall-clock** timings only *warn* inside the tolerance band
  (machines differ); ``fail_on_wall`` upgrades band violations to
  errors for environments with stable hardware.

``scripts/check_bench_regression.py`` is the CI entry point around
:func:`compare_bench`; ``python -m repro bench`` produces the reports.
"""

from __future__ import annotations

import json
import os
import sys
from datetime import datetime, timezone
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .sweep import JobSpec, SweepSpec, aggregate, run_sweep

__all__ = [
    "BENCH_SCHEMA",
    "PROFILES",
    "bench_jobs",
    "run_bench",
    "selfprof_probe",
    "write_bench_report",
    "load_report",
    "compare_bench",
    "report_cycles_per_sec",
]

BENCH_SCHEMA = "repro-bench/1"

# Pinned suites. Every profile is a list of grids whose expansions are
# concatenated in order; access counts and seeds are fixed so the
# resulting simulated quantities are reproducible bit-for-bit.
PROFILES: Dict[str, Sequence[SweepSpec]] = {
    # CI-sized: 8 micro cells + 4 THP cells + 1 streaming cell + 1
    # trace-replay cell + 2 cheap registry experiments, a few seconds of
    # wall time even serially.
    "quick": (
        SweepSpec(
            platforms=("A",),
            policies=("tpp", "nomad"),
            scenarios=("small", "medium"),
            write_ratios=(0.0, 1.0),
            accesses=(20_000,),
            seeds=(42,),
            instrument=True,
        ),
        # THP suite: the same cells with huge-folio-backed regions, so
        # folio mapping/migration/reclaim behaviour is pinned by CI too.
        SweepSpec(
            platforms=("A",),
            policies=("tpp", "nomad"),
            scenarios=("small",),
            write_ratios=(0.0, 1.0),
            accesses=(20_000,),
            seeds=(42,),
            instrument=True,
            thp_modes=(True,),
        ),
        # Streaming suite: a first-touch cell with zero runtime faults
        # after populate, so the two-speed engine's vectorized batch
        # commit carries nearly every access. It pins the fast path's
        # simulated quantities bit-for-bit and gives the CI perf smoke
        # a cell where fast-vs-slow throughput actually separates.
        SweepSpec(
            platforms=("A",),
            policies=("no-migration",),
            scenarios=("small",),
            write_ratios=(0.5,),
            accesses=(200_000,),
            seeds=(42,),
            instrument=True,
        ),
        # Trace-replay suite: one generated zipf-drift trace streamed
        # through Nomad, pinning the trace generator's byte output and
        # the streaming replay path (manifest -> shards -> fast path)
        # bit-for-bit in CI.
        SweepSpec(
            platforms=("A",),
            policies=("nomad",),
            trace_generators=("zipf-drift",),
            accesses=(40_000,),
            seeds=(42,),
            instrument=True,
        ),
        # Deep-chain suite: one Nomad cell on the DRAM/CXL/SSD preset so
        # the N-tier chain walk, cascading demotion, and the per-tier
        # migration counters are pinned bit-for-bit in CI. The legacy
        # two-tier cells above are untouched (distinct job ids).
        SweepSpec(
            platforms=("A",),
            policies=("nomad",),
            scenarios=("small",),
            write_ratios=(1.0,),
            accesses=(20_000,),
            seeds=(42,),
            instrument=True,
            topologies=("3tier",),
        ),
        SweepSpec(experiments=("tab1", "fig2"), accesses=(15_000,)),
    ),
    # The grid the paper's figures are drawn from (platforms A/C/D,
    # every policy, all three WSS scenarios) at figure-quality access
    # counts, plus the robustness experiments. Minutes, not seconds.
    "full": (
        SweepSpec(
            platforms=("A", "C", "D"),
            policies=("tpp", "memtis-default", "nomad"),
            scenarios=("small", "medium", "large"),
            write_ratios=(0.0, 1.0),
            accesses=(120_000,),
            seeds=(42,),
            instrument=True,
        ),
        SweepSpec(experiments=("tab3", "fig10"), accesses=(60_000,)),
    ),
}


def bench_jobs(profile: str) -> List[JobSpec]:
    """Expand a profile into its pinned job list."""
    try:
        grids = PROFILES[profile]
    except KeyError:
        raise ValueError(
            f"unknown bench profile {profile!r}; have {sorted(PROFILES)}"
        ) from None
    jobs: List[JobSpec] = []
    for grid in grids:
        jobs.extend(grid.expand())
    return jobs


# The cell the wall-clock self-profile probe runs after the suite: one
# representative Nomad write-heavy cell, executed in-process (the sweep
# pool cannot carry a profiler across process boundaries). Simulated
# quantities from the probe are discarded -- only host-time attribution
# is reported -- so the probe can never perturb the pinned job records.
_SELFPROF_CELL = {
    "platform": "A",
    "policy": "nomad",
    "scenario": "small",
    "write_ratio": 1.0,
    "accesses": 20_000,
    "seed": 42,
}


def selfprof_probe(cell: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Run one profiled cell; return host-time attribution per subsystem.

    The returned dict is the :meth:`SelfProfiler.summary` digest plus a
    ``cell`` id naming what was profiled (see docs/benchmarking.md).
    """
    from ..workloads import ZipfianMicrobench
    from .runner import build_machine

    spec = dict(_SELFPROF_CELL)
    spec.update(cell or {})
    machine = build_machine(spec["platform"], spec["policy"])
    profiler = machine.obs.enable_selfprof()
    workload = ZipfianMicrobench.scenario(
        spec["scenario"],
        write_ratio=spec["write_ratio"],
        total_accesses=spec["accesses"],
        seed=spec["seed"],
    )
    machine.run_workload(workload)
    profiler.stop()
    out = profiler.summary()
    out["cell"] = (
        f"{spec['platform']}/{spec['policy']}/{spec['scenario']}"
        f"/w{spec['write_ratio']:g}/a{spec['accesses']}/s{spec['seed']}"
    )
    return out


def run_bench(
    profile: str = "quick",
    workers: int = 1,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> Dict[str, Any]:
    """Run a pinned suite and assemble the bench report."""
    records = run_sweep(bench_jobs(profile), workers=workers, progress=progress)
    agg = aggregate(records)
    import numpy

    total_wall = sum(float(r["wall_time_s"]) for r in records)
    total_cycles = sum(
        float(job["sim_cycles"])
        for job in agg["jobs"]
        if job.get("sim_cycles")
    )
    return {
        "schema": BENCH_SCHEMA,
        "profile": profile,
        "jobs": agg["jobs"],
        "summary": agg["summary"],
        # Host-time attribution (wall-clock only; compare_bench ignores
        # it -- scripts/check_selfprof.py sanity-checks the partition).
        "selfprof": selfprof_probe(),
        "timing": {
            "wall_time_s": {
                r["id"]: round(float(r["wall_time_s"]), 4) for r in records
            },
            "total_wall_time_s": round(total_wall, 4),
            # Suite throughput: simulated cycles executed per wall-clock
            # second across all jobs. This is the number the two-speed
            # engine moves and the CI perf smoke keys off; it is
            # hardware-dependent, so the regression checker only applies
            # a generous ratio band (see compare_bench).
            "total_sim_cycles": total_cycles,
            "cycles_per_sec": (
                round(total_cycles / total_wall, 1) if total_wall > 0 else 0.0
            ),
        },
        "meta": {
            "generated_at": datetime.now(timezone.utc).strftime(
                "%Y-%m-%dT%H:%M:%SZ"
            ),
            "python": ".".join(str(v) for v in sys.version_info[:3]),
            "numpy": numpy.__version__,
        },
    }


def write_bench_report(report: Dict[str, Any], out_dir: str = ".") -> str:
    """Write ``report`` as ``BENCH_<timestamp>.json`` under ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    stamp = report["meta"]["generated_at"].replace("-", "").replace(":", "")
    path = os.path.join(out_dir, f"BENCH_{stamp}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    return path


def load_report(path: str) -> Dict[str, Any]:
    with open(path) as f:
        report = json.load(f)
    schema = report.get("schema")
    if schema != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: schema {schema!r}, this checker reads {BENCH_SCHEMA!r}"
        )
    return report


# ----------------------------------------------------------------------
# Regression comparison
# ----------------------------------------------------------------------
# Per-job fields that must match bit-exactly between baseline and fresh
# runs (all derived from deterministic simulation).
_EXACT_FIELDS = (
    "status",
    "sim_cycles",
    "counter_digest",
    "metrics",
    "workload_counters",
    "latency",
)


def report_cycles_per_sec(report: Dict[str, Any]) -> Optional[float]:
    """Suite throughput (simulated cycles per wall second) of a report.

    Prefers the recorded ``timing.cycles_per_sec`` field; reports written
    before the field existed are reconstructed from their per-job cycles
    and total wall time, so pre-refactor baselines still serve as the
    perf-smoke reference. Returns None if the report has no usable
    timing.
    """
    timing = report.get("timing", {})
    cps = timing.get("cycles_per_sec")
    if cps:
        return float(cps)
    wall = float(timing.get("total_wall_time_s") or 0.0)
    if wall <= 0:
        return None
    cycles = sum(
        float(job["sim_cycles"])
        for job in report.get("jobs", [])
        if job.get("sim_cycles")
    )
    return cycles / wall if cycles > 0 else None


def counter_drift(
    old: Optional[Dict[str, float]], new: Optional[Dict[str, float]]
) -> str:
    """Name each counter that differs between two job records.

    Records carry their nonzero counters (absent means zero); a record
    written before counters were recorded cannot be diffed.
    """
    if old is None or new is None:
        return (
            "(a record carries no counters; regenerate the baseline to "
            "name the changed ones)"
        )
    changed = [
        f"{name} {old.get(name, 0.0):g} -> {new.get(name, 0.0):g}"
        for name in sorted(set(old) | set(new))
        if old.get(name, 0.0) != new.get(name, 0.0)
    ]
    if not changed:
        return "(the recorded counters agree; only the digest differs)"
    return "(changed counters: " + ", ".join(changed) + ")"


def compare_bench(
    baseline: Dict[str, Any],
    fresh: Dict[str, Any],
    wall_tolerance: float = 0.5,
    wall_floor_s: float = 0.05,
    fail_on_wall: bool = False,
    min_cps_ratio: Optional[float] = None,
) -> Tuple[List[str], List[str]]:
    """Compare a fresh bench report against a committed baseline.

    Returns ``(errors, warnings)``. Simulated quantities drifting in any
    way is an error; wall time beyond ``baseline * (1 + wall_tolerance)``
    (and above ``wall_floor_s``, below which timing is pure noise) is a
    warning unless ``fail_on_wall``.

    ``min_cps_ratio`` enables the perf smoke: the fresh suite's
    cycles-per-second throughput must reach at least that multiple of
    the baseline's, or an error is raised. Use a ratio comfortably below
    the locally measured speedup -- CI hardware differs from the machine
    that recorded the baseline.
    """
    errors: List[str] = []
    warnings: List[str] = []

    if baseline.get("profile") != fresh.get("profile"):
        errors.append(
            f"profile mismatch: baseline {baseline.get('profile')!r} "
            f"vs fresh {fresh.get('profile')!r}"
        )

    base_jobs = {job["id"]: job for job in baseline.get("jobs", [])}
    fresh_jobs = {job["id"]: job for job in fresh.get("jobs", [])}

    for job_id in sorted(set(base_jobs) - set(fresh_jobs)):
        errors.append(f"{job_id}: present in baseline but missing from fresh run")
    for job_id in sorted(set(fresh_jobs) - set(base_jobs)):
        warnings.append(
            f"{job_id}: not in baseline (regenerate the baseline to pin it)"
        )

    for job_id in sorted(set(base_jobs) & set(fresh_jobs)):
        base, new = base_jobs[job_id], fresh_jobs[job_id]
        if new.get("status") != "ok":
            errors.append(
                f"{job_id}: fresh run {new.get('status')}: "
                f"{new.get('error', 'no error recorded')}"
            )
            continue
        for fld in _EXACT_FIELDS:
            if base.get(fld) != new.get(fld):
                if fld == "sim_cycles":
                    errors.append(
                        f"{job_id}: simulated cycles drifted "
                        f"{base.get(fld)!r} -> {new.get(fld)!r} "
                        "(bit-exact match expected: the simulator is "
                        "deterministic, so this is a behaviour change)"
                    )
                elif fld == "counter_digest":
                    errors.append(
                        f"{job_id}: counter digest drifted "
                        f"{str(base.get(fld))[:12]}... -> "
                        f"{str(new.get(fld))[:12]}... "
                        + counter_drift(base.get("counters"), new.get("counters"))
                    )
                else:
                    errors.append(
                        f"{job_id}: field {fld!r} drifted: "
                        f"{base.get(fld)!r} -> {new.get(fld)!r}"
                    )

    base_wall = baseline.get("timing", {}).get("wall_time_s", {})
    fresh_wall = fresh.get("timing", {}).get("wall_time_s", {})
    for job_id in sorted(set(base_wall) & set(fresh_wall)):
        old, new = float(base_wall[job_id]), float(fresh_wall[job_id])
        if new <= wall_floor_s:
            continue
        if old > 0 and new > old * (1.0 + wall_tolerance):
            msg = (
                f"{job_id}: wall time {old:.3f}s -> {new:.3f}s "
                f"(+{100.0 * (new - old) / old:.0f}%, tolerance "
                f"{100.0 * wall_tolerance:.0f}%)"
            )
            (errors if fail_on_wall else warnings).append(msg)

    if min_cps_ratio is not None:
        base_cps = report_cycles_per_sec(baseline)
        fresh_cps = report_cycles_per_sec(fresh)
        if base_cps is None or fresh_cps is None:
            warnings.append(
                "perf smoke skipped: a report records no usable timing"
            )
        elif fresh_cps < base_cps * min_cps_ratio:
            errors.append(
                f"perf smoke: suite throughput {fresh_cps / 1e6:.1f}M "
                f"cycles/s is below {min_cps_ratio:.2f}x the baseline's "
                f"{base_cps / 1e6:.1f}M cycles/s "
                f"(ratio {fresh_cps / base_cps:.2f}x) -- the batched "
                "fast path regressed or is disabled"
            )

    return errors, warnings
