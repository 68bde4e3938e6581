"""Parallel experiment fan-out: grid specs -> jobs -> worker pool -> rows.

The paper (like TPP before it) is evaluated as a *grid* of
(platform x policy x workload) cells; this module makes grid execution
a first-class, parallel, machine-checkable operation:

* :class:`JobSpec` is one picklable unit of work -- either a single
  micro-benchmark cell (platform, policy, scenario, write ratio,
  accesses, seed) or one registry experiment (name, platform,
  accesses);
* :class:`SweepSpec` is the declarative grid; :meth:`SweepSpec.expand`
  turns the axes into a deterministic, de-duplicated job list (skipping
  platform/policy combinations the paper could not run, e.g. Memtis on
  platform D);
* :func:`execute_job` runs one job and *always* returns a structured
  record -- a worker exception becomes a ``status: "failed"`` row with
  the exception text, never a dead sweep;
* :func:`run_sweep` executes the job list either in-process
  (``workers=1``) or across a ``multiprocessing`` pool, preserving job
  order either way;
* :func:`aggregate` reduces the records to the *deterministic* sweep
  result (simulated cycles, counter digests, bandwidth metrics) --
  byte-identical for any worker count, because every job builds its own
  freshly seeded machine. Wall-clock timings are kept out of the
  aggregate and exposed separately via :func:`timing_table`.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..obs.export import counter_digest, json_digest, nonzero_counters
from .runner import policy_available, run_experiment

__all__ = [
    "SWEEP_SCHEMA",
    "JobSpec",
    "SweepSpec",
    "execute_job",
    "run_sweep",
    "aggregate",
    "timing_table",
]

SWEEP_SCHEMA = "repro-sweep/1"

# Axes a cell job is identified by, in key order.
_CELL_AXES = ("platform", "policy", "scenario", "write_ratio", "accesses", "seed")


def _pyify(obj: Any) -> Any:
    """Recursively convert numpy scalars/arrays to plain python values.

    Job records cross process boundaries and end up in JSON; numpy types
    would either fail to serialize or serialize with version-dependent
    reprs, so everything is normalized at the worker boundary.
    """
    if isinstance(obj, dict):
        return {str(k): _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        try:
            return obj.item()
        except (AttributeError, ValueError):
            pass
    if hasattr(obj, "tolist"):
        return obj.tolist()
    return obj


# ----------------------------------------------------------------------
# Job specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobSpec:
    """One independently runnable unit of a sweep (picklable).

    ``kind="cell"`` runs one micro-benchmark cell through
    :func:`~repro.bench.runner.run_experiment`; ``kind="experiment"``
    runs one registry experiment (``fig1``, ``tab3``, ...) exactly as
    the CLI would; ``kind="trace"`` generates a trace with the named
    :mod:`~repro.workloads.tracegen` generator (deterministic from the
    seed) and streams it through the policy -- the replay counterpart of
    the cell grid. ``instrument=True`` enables the observability layer
    for the run (no effect on simulated results -- see the obs
    invariance test) so latency percentiles are available in the record.
    """

    kind: str = "cell"
    platform: str = "A"
    policy: str = "nomad"
    scenario: str = "small"
    write_ratio: float = 0.0
    accesses: int = 20_000
    seed: int = 42
    experiment: str = ""
    instrument: bool = False
    # Run the cell with transparent huge pages: the workload hints its
    # regions and the machine maps them as capacity-scaled folios.
    thp: bool = False
    # Trace jobs only: the tracegen generator name.
    generator: str = ""
    # Tier-chain preset ("" = the platform's stock two tiers; "3tier"
    # appends an SSD-class tier -- see sim.platform.TOPOLOGY_PRESETS).
    topology: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("cell", "experiment", "trace"):
            raise ValueError(f"unknown job kind {self.kind!r}")
        if self.kind == "experiment" and not self.experiment:
            raise ValueError("experiment jobs need an experiment name")
        if self.kind == "trace" and not self.generator:
            raise ValueError("trace jobs need a generator name")

    @property
    def job_id(self) -> str:
        """Stable human-readable identity (the baseline matching key)."""
        if self.kind == "experiment":
            return (
                f"exp/{self.experiment}/{self.platform or 'default'}"
                f"/a{self.accesses}"
            )
        if self.kind == "trace":
            return (
                f"trace/{self.platform}/{self.policy}/{self.generator}"
                f"/a{self.accesses}/s{self.seed}"
            )
        # The "/thp" and "/<topology>" suffixes only appear for jobs that
        # set them, so every pre-existing baseline key is untouched.
        suffix = "/thp" if self.thp else ""
        if self.topology:
            suffix += f"/{self.topology}"
        return (
            f"cell/{self.platform}/{self.policy}/{self.scenario}"
            f"/w{self.write_ratio:g}/a{self.accesses}/s{self.seed}{suffix}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        return cls(**data)


@dataclass
class SweepSpec:
    """A declarative grid of jobs.

    With ``experiments`` non-empty the grid is experiment x platform x
    accesses; otherwise it is the micro-benchmark cell grid platform x
    policy x scenario x write_ratio x accesses x seed.
    ``skip_unavailable`` drops combinations the paper could not run
    (Memtis needs PEBS/IBS, absent on platform D) instead of failing
    them.
    """

    platforms: Sequence[str] = ("A",)
    policies: Sequence[str] = ("nomad",)
    scenarios: Sequence[str] = ("small",)
    write_ratios: Sequence[float] = (0.0,)
    accesses: Sequence[int] = (20_000,)
    seeds: Sequence[int] = (42,)
    experiments: Sequence[str] = ()
    instrument: bool = False
    skip_unavailable: bool = True
    # THP axis: (False,) keeps the historical base-page grid; add True
    # to also run each cell with huge-folio-backed regions.
    thp_modes: Sequence[bool] = (False,)
    # Topology axis: ("",) keeps the stock two-tier grid; add "3tier"
    # to also run each cell on the DRAM/CXL/SSD chain.
    topologies: Sequence[str] = ("",)
    # Trace-replay mode (like experiments, replaces the cell grid): the
    # grid is platform x policy x generator x accesses x seed.
    trace_generators: Sequence[str] = ()

    def expand(self) -> List[JobSpec]:
        jobs: List[JobSpec] = []
        if self.trace_generators:
            for platform in self.platforms:
                for policy in self.policies:
                    if self.skip_unavailable and not policy_available(
                        policy, platform
                    ):
                        continue
                    for generator in self.trace_generators:
                        for accesses in self.accesses:
                            for seed in self.seeds:
                                jobs.append(
                                    JobSpec(
                                        kind="trace",
                                        platform=platform,
                                        policy=policy,
                                        generator=generator,
                                        accesses=accesses,
                                        seed=seed,
                                        instrument=self.instrument,
                                    )
                                )
            return jobs
        if self.experiments:
            for name in self.experiments:
                for platform in self.platforms:
                    for accesses in self.accesses:
                        jobs.append(
                            JobSpec(
                                kind="experiment",
                                experiment=name,
                                platform=platform,
                                accesses=accesses,
                                instrument=self.instrument,
                            )
                        )
            return jobs
        for platform in self.platforms:
            for policy in self.policies:
                if self.skip_unavailable and not policy_available(
                    policy, platform
                ):
                    continue
                for scenario in self.scenarios:
                    for write_ratio in self.write_ratios:
                        for accesses in self.accesses:
                            for seed in self.seeds:
                                for thp in self.thp_modes:
                                    for topology in self.topologies:
                                        jobs.append(
                                            JobSpec(
                                                platform=platform,
                                                policy=policy,
                                                scenario=scenario,
                                                write_ratio=write_ratio,
                                                accesses=accesses,
                                                seed=seed,
                                                instrument=self.instrument,
                                                thp=thp,
                                                topology=topology,
                                            )
                                        )
        return jobs

    def to_dict(self) -> Dict[str, Any]:
        return {
            "platforms": list(self.platforms),
            "policies": list(self.policies),
            "scenarios": list(self.scenarios),
            "write_ratios": list(self.write_ratios),
            "accesses": list(self.accesses),
            "seeds": list(self.seeds),
            "experiments": list(self.experiments),
            "instrument": self.instrument,
            "skip_unavailable": self.skip_unavailable,
            "thp_modes": list(self.thp_modes),
            "topologies": list(self.topologies),
            "trace_generators": list(self.trace_generators),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepSpec":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown sweep spec fields: {sorted(unknown)}")
        return cls(**data)


# ----------------------------------------------------------------------
# Job execution (runs inside pool workers; must stay picklable/static)
# ----------------------------------------------------------------------
def _run_cell_job(job: JobSpec) -> Dict[str, Any]:
    from ..workloads import ZipfianMicrobench

    config = None
    if job.thp:
        from .experiments.thp import thp_config

        config = thp_config(True)
    result = run_experiment(
        job.platform,
        job.policy,
        lambda: ZipfianMicrobench.scenario(
            job.scenario,
            write_ratio=job.write_ratio,
            total_accesses=job.accesses,
            seed=job.seed,
            thp=job.thp,
        ),
        config=config,
        instrument=job.instrument,
        topology=job.topology,
    )
    return _report_payload(result.report)


def _report_payload(report) -> Dict[str, Any]:
    """The deterministic per-run payload shared by cell and trace jobs.

    ``counters`` holds the nonzero counters the digest is taken over, so
    a digest drift can be explained counter by counter.
    """
    payload: Dict[str, Any] = {
        "sim_cycles": report.cycles,
        "counter_digest": counter_digest(report.counters),
        "counters": nonzero_counters(report.counters),
        "metrics": {
            "transient_gbps": report.transient.bandwidth_gbps,
            "stable_gbps": report.stable.bandwidth_gbps,
            "overall_gbps": report.overall.bandwidth_gbps,
            "avg_access_cycles": report.overall.avg_access_cycles,
            "promotions": report.counters.get("migrate.promotions", 0.0),
            "demotions": report.counters.get("migrate.demotions", 0.0),
        },
        "workload_counters": dict(report.workload_counters),
    }
    if report.obs is not None:
        payload["latency"] = {
            name: {k: hist[k] for k in ("count", "p50", "p95", "p99")}
            for name, hist in sorted(report.obs["histograms"].items())
        }
    return payload


# Trace jobs replay a generated trace with a footprint that overflows
# the 4096-page fast tier at half-fast initial placement, so migration
# policies have real work to do.
_TRACE_JOB_PAGES = 6144
_TRACE_JOB_FAST_FRACTION = 0.5


def _run_trace_job(job: JobSpec) -> Dict[str, Any]:
    import tempfile

    from ..workloads import StreamingTraceWorkload, build_trace

    with tempfile.TemporaryDirectory(prefix="repro-trace-job-") as tmp:
        # Regenerated per job rather than shipped between processes:
        # generation is deterministic from (generator, params, seed), so
        # the trace content -- and with it the replay -- is pinned by the
        # job spec alone.
        manifest = build_trace(
            tmp,
            job.generator,
            nr_pages=_TRACE_JOB_PAGES,
            accesses=job.accesses,
            seed=job.seed,
            fast_fraction=_TRACE_JOB_FAST_FRACTION,
        )
        result = run_experiment(
            job.platform,
            job.policy,
            lambda: StreamingTraceWorkload(manifest),
            instrument=job.instrument,
        )
    payload = _report_payload(result.report)
    payload["trace_digest"] = manifest.digest
    return payload


def _run_experiment_job(job: JobSpec) -> Dict[str, Any]:
    from .experiments.registry import REGISTRY

    spec = REGISTRY.get(job.experiment)
    if spec is None:
        raise KeyError(f"unknown experiment {job.experiment!r}")
    result = _pyify(spec.run(job.accesses, job.platform or None))
    payload: Dict[str, Any] = {
        "sim_cycles": None,
        "counter_digest": json_digest(result),
        "metrics": {},
    }
    if isinstance(result, list):
        payload["metrics"]["rows"] = float(len(result))
    return payload


def execute_job(job: Union[JobSpec, Dict[str, Any]]) -> Dict[str, Any]:
    """Run one job, catching everything: crash isolation lives here.

    Always returns a record; an exception inside the job becomes a
    ``status: "failed"`` record carrying the exception text and
    traceback, so one broken cell never kills a sweep.
    """
    if isinstance(job, dict):
        job = JobSpec.from_dict(job)
    start = time.perf_counter()
    record: Dict[str, Any] = {
        "id": job.job_id,
        "spec": job.to_dict(),
        "status": "ok",
    }
    try:
        if job.kind == "cell":
            record.update(_pyify(_run_cell_job(job)))
        elif job.kind == "trace":
            record.update(_pyify(_run_trace_job(job)))
        else:
            record.update(_pyify(_run_experiment_job(job)))
    except Exception as exc:  # noqa: BLE001 -- isolation is the point
        record["status"] = "failed"
        record["error"] = f"{type(exc).__name__}: {exc}"
        record["traceback"] = traceback.format_exc()
    record["wall_time_s"] = time.perf_counter() - start
    return record


# ----------------------------------------------------------------------
# Sweep driver
# ----------------------------------------------------------------------
def run_sweep(
    spec: Union[SweepSpec, Sequence[JobSpec]],
    workers: int = 1,
    start_method: Optional[str] = None,
    progress=None,
) -> List[Dict[str, Any]]:
    """Execute every job of ``spec``; returns records in job order.

    ``workers=1`` runs in-process (no pool, easier to debug);
    ``workers>1`` fans out across a ``multiprocessing`` pool. Each job
    builds its own freshly seeded machine, so the records -- wall-clock
    timing aside -- are identical for any worker count. ``progress``
    (record -> None), when given, is called once per finished job.
    """
    jobs = spec.expand() if isinstance(spec, SweepSpec) else list(jobs_of(spec))
    if workers < 1:
        raise ValueError("need at least one worker")
    if not jobs:
        return []
    if workers == 1 or len(jobs) == 1:
        records = []
        for job in jobs:
            record = execute_job(job)
            if progress is not None:
                progress(record)
            records.append(record)
        return records

    methods = multiprocessing.get_all_start_methods()
    if start_method is None:
        # fork is cheapest and fine here (workers only read the loaded
        # modules); fall back to the platform default elsewhere.
        start_method = "fork" if "fork" in methods else methods[0]
    ctx = multiprocessing.get_context(start_method)
    with ctx.Pool(processes=min(workers, len(jobs))) as pool:
        records = []
        # imap (ordered) streams results back as they finish while
        # keeping submission order, so aggregation stays deterministic.
        for record in pool.imap(execute_job, jobs, chunksize=1):
            if progress is not None:
                progress(record)
            records.append(record)
    return records


def jobs_of(spec: Iterable[Union[JobSpec, Dict[str, Any]]]) -> Iterable[JobSpec]:
    for job in spec:
        yield job if isinstance(job, JobSpec) else JobSpec.from_dict(job)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
# Record fields that vary run-to-run and must stay out of the
# deterministic aggregate.
_NONDETERMINISTIC_FIELDS = ("wall_time_s", "traceback")


def aggregate(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Reduce job records to the deterministic sweep result.

    Jobs are ordered by id and stripped of wall-clock timings and
    tracebacks, so serializing the aggregate (sorted keys) is
    byte-identical across worker counts and repeated runs.
    """
    jobs = []
    for record in sorted(records, key=lambda r: r["id"]):
        jobs.append(
            {k: v for k, v in record.items() if k not in _NONDETERMINISTIC_FIELDS}
        )
    statuses = [r["status"] for r in jobs]
    return {
        "schema": SWEEP_SCHEMA,
        "jobs": jobs,
        "summary": {
            "total": len(jobs),
            "ok": statuses.count("ok"),
            "failed": statuses.count("failed"),
        },
    }


def timing_table(records: Sequence[Dict[str, Any]]) -> List[Tuple[str, float]]:
    """(job id, wall seconds) pairs, slowest first."""
    return sorted(
        ((r["id"], float(r.get("wall_time_s", 0.0))) for r in records),
        key=lambda pair: -pair[1],
    )
