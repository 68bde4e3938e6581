"""Chaos runner: a scenario corpus under a fault grid with invariants on.

The kernel's analog is running LTP or a syzkaller corpus on a
``CONFIG_FAULT_INJECTION=y`` + ``CONFIG_DEBUG_VM=y`` build: faults are
forced down rare error paths while the VM's own sanity checks watch for
corruption. Here the corpus is a small grid of micro-benchmark cells,
each executed under every cell of :data:`FAULT_GRID` for every seed in
the profile, with the :class:`~repro.debug.invariants.InvariantChecker`
running at an interval plus one final full pass.

A run that finishes with zero violations proves the error paths the
grid exercises (allocation failure, transaction aborts, queue overflow,
reclaim failure, timing jitter) leave every machine-wide invariant
intact. A violation names the check and the frame/PTE that broke it,
and the record carries everything needed to replay it::

    python -m repro check --profile quick
    python -m repro check --faults tpm-dirty --seeds 43   # replay one cell

Records are plain dicts (JSON-safe) so the CI job can archive the
report as an artifact; :func:`run_check` drives the whole profile and
returns the report dict, ``python -m repro check`` formats the matrix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from . import DebugConfig
from .fault import FaultAttr

__all__ = [
    "FAULT_GRID",
    "CheckJob",
    "PROFILES",
    "expand_profile",
    "run_check_job",
    "run_check",
]


def _attrs(**sites: Mapping[str, Any]) -> Dict[str, FaultAttr]:
    return {name: FaultAttr(**kw) for name, kw in sites.items()}


# ----------------------------------------------------------------------
# The fault grid. Each cell is a named recipe: which sites fire, how
# often, and whether same-timestamp event ordering is perturbed. The
# probabilities are deliberately brutal compared to real hardware --
# the point is to force the rare paths every run, not to model them.
# ----------------------------------------------------------------------
FAULT_GRID: Dict[str, Dict[str, Any]] = {
    # Control cell: debug machinery on (checker + hooks) but no faults.
    # Doubles as the "enabling the checker changes nothing" canary.
    "none": {"faults": {}},
    "alloc-fast": {
        "faults": _attrs(**{"mem.alloc_fast": dict(probability=0.2)}),
    },
    "tpm-dirty": {
        "faults": _attrs(**{
            "tpm.dirty": dict(probability=0.5),
            "tpm.chunk_dirty": dict(probability=0.5),
        }),
    },
    "mpq-pressure": {
        "faults": _attrs(**{
            "mpq.full": dict(probability=0.1),
            "mpq.retry_exhausted": dict(probability=0.5),
        }),
    },
    "shadow-starve": {
        "faults": _attrs(**{
            "shadow.reclaim_fail": dict(probability=0.5),
            "reclaim.demote_fail": dict(probability=0.25),
        }),
    },
    "mmu-jitter": {
        "faults": _attrs(**{
            "mmu.tlb_delay": dict(probability=0.05, jitter_cycles=2000),
            "mmu.pte_delay": dict(probability=0.05, jitter_cycles=2000),
        }),
    },
    # Pure event-ordering perturbation: same-timestamp events run in a
    # random order instead of FIFO. No faults -- any violation here is
    # a latent ordering assumption in the simulator itself.
    "jitter": {"faults": {}, "event_jitter": True},
    # Every kswapd demotion fails once the first 200 candidates have
    # gone through: the early demotions make room for promotions whose
    # shadows the stores later discard, so the fast-tier daemon goes
    # hopeless, parks, and is re-armed by those slow-tier frees.
    "kswapd-hopeless": {
        "faults": _attrs(**{
            "reclaim.demote_fail": dict(probability=1.0, space=200),
        }),
        "event_jitter": True,
    },
    # Everything at once, at lower rates, plus jitter.
    "chaos": {
        "faults": _attrs(**{
            "mem.alloc_fast": dict(probability=0.05),
            "tpm.dirty": dict(probability=0.2),
            "tpm.chunk_dirty": dict(probability=0.2),
            "mpq.full": dict(probability=0.05),
            "mpq.retry_exhausted": dict(probability=0.2),
            "shadow.reclaim_fail": dict(probability=0.2),
            "reclaim.demote_fail": dict(probability=0.1),
            "mmu.tlb_delay": dict(probability=0.02, jitter_cycles=1000),
            "mmu.pte_delay": dict(probability=0.02, jitter_cycles=1000),
        }),
        "event_jitter": True,
    },
}


@dataclass(frozen=True)
class CheckJob:
    """One chaos cell: a workload run under one fault recipe."""

    platform: str = "A"
    policy: str = "nomad"
    scenario: str = "small"
    write_ratio: float = 0.3
    accesses: int = 6_000
    seed: int = 42
    fault: str = "none"
    check_interval: Optional[float] = 100_000.0
    paranoid: bool = False
    checks: Optional[Tuple[str, ...]] = None
    policy_kwargs: Mapping[str, Any] = field(default_factory=dict)

    @property
    def job_id(self) -> str:
        wr = f"{self.write_ratio:g}".replace("0.", ".")
        return (
            f"check/{self.platform}/{self.policy}/{self.scenario}"
            f"/w{wr}/a{self.accesses}/s{self.seed}/{self.fault}"
        )

    def debug_config(self) -> DebugConfig:
        recipe = FAULT_GRID[self.fault]
        return DebugConfig(
            seed=self.seed,
            faults=dict(recipe.get("faults", {})),
            check_interval=None if self.paranoid else self.check_interval,
            paranoid=self.paranoid,
            checks=self.checks,
            event_jitter=bool(recipe.get("event_jitter", False)),
        )


# ----------------------------------------------------------------------
# Profiles: named job corpora. "quick" is the CI gate -- every grid
# cell on the Nomad small scenario for two seeds, a couple of TPP cells
# (TPP exercises sync migration + reclaim paths Nomad skips), and one
# large read-only Nomad cell: the small cells never fill the slow tier,
# so only that one reaches shadow reclaim.
# ----------------------------------------------------------------------
def _quick_jobs() -> List[CheckJob]:
    jobs = [
        CheckJob(policy="nomad", fault=fault, seed=seed)
        for fault in FAULT_GRID
        for seed in (42, 43)
    ]
    jobs += [
        CheckJob(policy="tpp", fault=fault, seed=42)
        for fault in ("alloc-fast", "chaos")
    ]
    jobs.append(
        CheckJob(policy="nomad", scenario="large", write_ratio=0.0,
                 accesses=30_000, fault="shadow-starve", seed=42)
    )
    return jobs


def _full_jobs() -> List[CheckJob]:
    jobs = _quick_jobs()
    jobs += [
        CheckJob(policy="nomad", scenario="medium", accesses=12_000,
                 fault=fault, seed=seed)
        for fault in ("tpm-dirty", "shadow-starve", "chaos")
        for seed in (42, 43, 44)
    ]
    jobs += [
        CheckJob(policy="tpp", fault=fault, seed=seed)
        for fault in FAULT_GRID
        for seed in (42, 43)
    ]
    return jobs


def _kswapd_jobs() -> List[CheckJob]:
    # Long enough (about 25M cycles) for the fast-tier daemon to give up
    # MAX_RECLAIM_RETRIES times in a row and park; under no-migration it
    # stays parked, under Nomad shadow discards re-arm it.
    jobs = [
        CheckJob(policy="nomad", write_ratio=0.5, accesses=60_000,
                 fault="kswapd-hopeless", seed=seed)
        for seed in (42, 43)
    ]
    jobs.append(
        CheckJob(policy="no-migration", write_ratio=0.5, accesses=60_000,
                 fault="jitter", seed=42)
    )
    return jobs


PROFILES: Dict[str, Callable[[], List[CheckJob]]] = {
    "quick": _quick_jobs,
    "full": _full_jobs,
    "kswapd": _kswapd_jobs,
}


def _unique(jobs) -> List[CheckJob]:
    seen: Dict[str, CheckJob] = {}
    for job in jobs:
        seen.setdefault(job.job_id, job)
    return list(seen.values())


def expand_profile(
    profile: str,
    platforms: Optional[Sequence[str]] = None,
    faults: Optional[Sequence[str]] = None,
    seeds: Optional[Sequence[int]] = None,
    accesses: Optional[int] = None,
    paranoid: bool = False,
    check_interval: Optional[float] = None,
) -> List[CheckJob]:
    """Expand a profile, optionally filtering/overriding its axes."""
    if profile not in PROFILES:
        raise ValueError(f"unknown check profile {profile!r}")
    for fault in faults or ():
        if fault not in FAULT_GRID:
            raise ValueError(
                f"unknown fault cell {fault!r}; known: {sorted(FAULT_GRID)}"
            )
    jobs = PROFILES[profile]()
    if faults:
        jobs = [j for j in jobs if j.fault in set(faults)]
    if seeds:
        base = _unique(replace(j, seed=seeds[0]) for j in jobs)
        jobs = [replace(j, seed=s) for j in base for s in seeds]
    if platforms:
        base = _unique(replace(j, platform=platforms[0]) for j in jobs)
        jobs = [replace(j, platform=p) for j in base for p in platforms]
    overrides: Dict[str, Any] = {}
    if accesses is not None:
        overrides["accesses"] = accesses
    if paranoid:
        overrides["paranoid"] = True
    if check_interval is not None:
        overrides["check_interval"] = check_interval
    if overrides:
        jobs = [replace(j, **overrides) for j in jobs]
    return jobs


# ----------------------------------------------------------------------
# Execution. Sequential on purpose: chaos cells are small, and a single
# process keeps violation reports ordered and the RNG story simple.
# ----------------------------------------------------------------------
def run_check_job(job: CheckJob) -> Dict[str, Any]:
    """Run one chaos cell; returns a JSON-safe record."""
    from ..bench.runner import run_experiment
    from ..obs.export import nonzero_counters
    from ..system import MachineConfig
    from ..workloads import ZipfianMicrobench

    config = MachineConfig(debug_enabled=True, debug=job.debug_config())
    start = time.time()
    record: Dict[str, Any] = {"id": job.job_id, "fault": job.fault,
                              "seed": job.seed}
    try:
        result = run_experiment(
            job.platform,
            job.policy,
            lambda: ZipfianMicrobench.scenario(
                job.scenario,
                write_ratio=job.write_ratio,
                total_accesses=job.accesses,
                seed=job.seed,
            ),
            policy_kwargs=dict(job.policy_kwargs),
            config=config,
        )
    except Exception as exc:  # noqa: BLE001 - chaos runs report, not raise
        record.update(
            status="failed",
            error=f"{type(exc).__name__}: {exc}",
            wall_time_s=round(time.time() - start, 3),
        )
        return record
    machine = result.machine
    machine.debug.check_now()  # final full pass over the settled machine
    summary = machine.debug.summary()
    injections = {
        site: st["injected"]
        for site, st in summary["faults"].items()
        if st["injected"]
    }
    violations = summary["invariants"]["details"]
    record.update(
        status="violations" if violations else "ok",
        checker_passes=summary["invariants"]["passes"],
        violations=violations,
        injections=injections,
        counters=nonzero_counters(result.report.counters),
        sim_cycles=machine.engine.now,
        wall_time_s=round(time.time() - start, 3),
    )
    return record


def run_check(
    jobs: Sequence[CheckJob],
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> Dict[str, Any]:
    """Run a chaos corpus; returns the report dict for ``repro check``."""
    records = []
    for job in jobs:
        record = run_check_job(job)
        records.append(record)
        if progress is not None:
            progress(record)
    nr_violations = sum(len(r.get("violations", ())) for r in records)
    return {
        "schema": "repro-check-v1",
        "jobs": records,
        "summary": {
            "total": len(records),
            "ok": sum(r["status"] == "ok" for r in records),
            "violations": nr_violations,
            "failed": sum(r["status"] == "failed" for r in records),
        },
    }
