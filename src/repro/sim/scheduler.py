"""The run scheduler: one loop for every way a machine runs workloads.

Single-workload, multi-threaded, and multi-tenant runs all used to have
their own spawn/collect loops in ``Machine``; :class:`RunScheduler`
unifies them. It owns process spawning, per-workload window sinks,
counter snapshots, and :class:`RunReport` assembly, so every run shape
gets identical reporting semantics:

* phase reports (transient / stable / overall) are computed from the
  workload's *private* window stream, so co-running tenants and repeated
  runs on one machine never bleed into each other's bandwidth numbers;
* machine-global counter deltas and per-CPU breakdowns are attached to
  every report (shared fields -- see :class:`RunReport`);
* per-workload counters that are derivable from the private windows
  (accesses, read/write cycle totals, window count) are reported in
  ``RunReport.workload_counters``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, TYPE_CHECKING

from .stats import Stats, WindowSample

if TYPE_CHECKING:  # pragma: no cover
    from ..mmu.access import ChunkResult
    from ..system import Machine
    from ..workloads.base import Workload
    from .cpu import Cpu
    from .stats import PhaseReport

__all__ = ["RunReport", "RunScheduler"]


@dataclass
class RunReport:
    """What a scheduler run returns, one per workload.

    Per-workload fields (computed from this workload's private window
    stream only):

    * ``transient`` / ``stable`` / ``overall`` -- phase summaries;
    * ``workload`` -- the workload's name;
    * ``workload_counters`` -- counters derivable from the private
      windows: ``accesses``, ``reads``, ``writes``, ``read_cycles``,
      ``write_cycles``, ``windows``, ``span_cycles``.

    Shared (machine-global) fields -- identical across every report from
    one co-run, because tiered memory, daemons, and migration state are
    shared by design:

    * ``counters`` -- delta of every machine counter across the run;
    * ``breakdowns`` -- per-CPU, per-category cycle accounting;
    * ``cycles`` -- the engine clock when the run ended;
    * ``obs`` -- observability digest (tracepoint counts, ring drops,
      histogram summaries, gauge sample counts) when ``machine.obs``
      was enabled for the run, else ``None``;
    * ``selfprof`` -- host wall-clock attribution per subsystem when the
      self-profiler was enabled (``machine.obs.enable_selfprof()``),
      else ``None``. Host-side only: never feeds back into simulated
      state.
    """

    transient: "PhaseReport"
    stable: "PhaseReport"
    overall: "PhaseReport"
    counters: Dict[str, float]
    cycles: float
    breakdowns: Dict[str, Dict[str, float]] = field(default_factory=dict)
    workload: str = ""
    workload_counters: Dict[str, float] = field(default_factory=dict)
    obs: Optional[Dict[str, Any]] = None
    selfprof: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable digest of the report.

        Used by the sweep/bench layers to ship reports across process
        boundaries; every value is a plain python scalar or container.
        The full per-phase counter maps are included, so two reports are
        behaviourally identical iff their ``to_dict`` outputs are equal.
        """

        def phase(p: "PhaseReport") -> Dict[str, Any]:
            return {
                "name": p.name,
                "accesses": int(p.accesses),
                "reads": int(p.reads),
                "writes": int(p.writes),
                "cycles": float(p.cycles),
                "bandwidth_gbps": float(p.bandwidth_gbps),
                "read_bandwidth_gbps": float(p.read_bandwidth_gbps),
                "write_bandwidth_gbps": float(p.write_bandwidth_gbps),
                "avg_access_cycles": float(p.avg_access_cycles),
                "p50_access_cycles": float(p.p50_access_cycles),
                "p95_access_cycles": float(p.p95_access_cycles),
                "p99_access_cycles": float(p.p99_access_cycles),
            }

        return {
            "workload": self.workload,
            "cycles": float(self.cycles),
            "transient": phase(self.transient),
            "stable": phase(self.stable),
            "overall": phase(self.overall),
            "counters": {k: float(v) for k, v in sorted(self.counters.items())},
            "workload_counters": {
                k: float(v) for k, v in sorted(self.workload_counters.items())
            },
            "breakdowns": {
                cpu: {cat: float(v) for cat, v in sorted(cats.items())}
                for cpu, cats in sorted(self.breakdowns.items())
            },
            "obs": self.obs,
            "selfprof": self.selfprof,
        }


def record_chunk(
    stats: Stats,
    workload: "Workload",
    cpu: "Cpu",
    start: float,
    result: "ChunkResult",
    sink,
) -> float:
    """Close one ``AccessEngine.run_chunk`` call begun at ``start``:
    charge the workload's compute cycles, record the chunk's window
    sample, and return its total cycles."""
    cycles = result.cycles
    compute = workload.compute_cycles_per_access
    if compute:
        extra = compute * (result.reads + result.writes)
        cpu.account("compute", extra)
        cycles += extra
    sample = WindowSample(
        start=start,
        end=start + cycles,
        reads=result.reads,
        writes=result.writes,
        read_cycles=result.read_cycles,
        write_cycles=result.write_cycles,
        latency_hist=result.latency_hist,
    )
    stats.record_window(sample)
    sink(sample)
    return cycles


class RunScheduler:
    """Spawns workload processes and assembles their reports."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine

    # ------------------------------------------------------------------
    def run(
        self,
        workloads: Sequence["Workload"],
        app_cpus: Optional[Sequence[str]] = None,
        run_cycles: Optional[float] = None,
        threads: int = 1,
    ) -> List[RunReport]:
        """Run ``workloads`` to completion (or a ``run_cycles`` budget).

        With one workload and ``threads > 1`` the workload runs as
        several application threads sharing one address space, each on
        its own core pulling chunks from the same access stream -- pages
        become visible to multiple TLBs, so migrations pay multi-CPU
        shootdowns (the Section 3.3 cost the paper analyses). Several
        workloads co-run one application core each (multi-tenant
        pressure on the same tiered memory).
        """
        m = self.machine
        if not workloads:
            raise ValueError("need at least one workload")
        if threads < 1:
            raise ValueError("need at least one thread")
        if threads > 1 and len(workloads) > 1:
            raise ValueError("threads > 1 requires a single workload")
        nr_procs = threads if threads > 1 else len(workloads)
        if app_cpus is None:
            app_cpus = [f"app{i}" for i in range(nr_procs)]
        if len(app_cpus) != nr_procs:
            raise ValueError("need one CPU per workload" if threads == 1
                             else "need one CPU per thread")

        for workload in workloads:
            workload.bind(m)
        start_counters = m.stats.snapshot()
        sinks: List[List[WindowSample]] = [[] for _ in workloads]

        def make_sink(workload, windows):
            # Window sink shared by both execution speeds: collects the
            # private window stream and advances the workload's
            # execution-progress counters (read by per-tenant obs).
            def sink(sample: WindowSample) -> None:
                windows.append(sample)
                workload.executed_accesses += sample.reads + sample.writes
                workload.executed_writes += sample.writes
            return sink
        procs = []
        proc_groups: List[List] = [[] for _ in workloads]
        # Two-speed execution applies when each thread exclusively owns
        # its chunk stream (threads > 1 share one iterator, so lookahead
        # would reorder chunk-to-thread assignment) and the run is not
        # cycle-bounded (lookahead would advance workload RNG past the
        # budget cut-off, changing a follow-up run's draws).
        use_fastpath = (
            m.config.fastpath_enabled and threads == 1 and run_cycles is None
        )
        if threads > 1:
            workload = workloads[0]
            shared_chunks = workload.chunks()
            for cpu_name in app_cpus:
                proc = m.engine.spawn(
                    self._thread_proc(
                        workload, m.cpus.get(cpu_name), shared_chunks,
                        make_sink(workload, sinks[0]),
                    ),
                    name=f"app:{workload.name}:{cpu_name}",
                )
                procs.append(proc)
                proc_groups[0].append(proc)
        else:
            for i, (workload, cpu_name) in enumerate(zip(workloads, app_cpus)):
                proc = m.engine.spawn(
                    self._app_proc(
                        workload, m.cpus.get(cpu_name),
                        make_sink(workload, sinks[i]),
                        fastpath=use_fastpath,
                    ),
                    name=f"app:{workload.name}",
                )
                procs.append(proc)
                proc_groups[i].append(proc)

        # Daemons keep the event queue populated forever; run until the
        # application processes complete (or the cycle budget expires).
        for proc in procs:
            if proc.alive:
                m.engine.run(until=run_cycles, until_event=proc.done_event)
        if threads > 1 and all(not p.alive for p in procs):
            workloads[0].on_finish()
        if run_cycles is None and any(p.alive for p in procs):
            raise RuntimeError("engine drained but the workload did not finish")

        counters = {
            k: m.stats.counters[k] - start_counters.get(k, 0.0)
            for k in m.stats.counters
        }
        breakdowns = {name: m.stats.breakdown(name) for name in m.cpus.names()}
        reports = [
            self._report(workload, windows, counters, breakdowns)
            for workload, windows in zip(workloads, sinks)
        ]
        if m.obs.enabled:
            obs_summary = m.obs.summary()
            for report in reports:
                report.obs = obs_summary
        if m.obs.selfprof is not None:
            prof_summary = m.obs.selfprof.summary()
            for report in reports:
                report.selfprof = prof_summary
        return reports

    # ------------------------------------------------------------------
    # Application processes
    # ------------------------------------------------------------------
    def _app_proc(
        self, workload: "Workload", cpu: "Cpu", sink, fastpath: bool = False
    ) -> Iterator[float]:
        workload.bind(self.machine)
        if fastpath:
            from .fastpath import FastPathExecutor

            executor = FastPathExecutor(self.machine)
            self.machine.fastpath_executors.append(executor)
            yield from executor.run_stream(workload, cpu, workload.stream(), sink)
        else:
            yield from self._thread_proc(workload, cpu, workload.chunks(), sink)
        workload.on_finish()

    def _thread_proc(self, workload: "Workload", cpu: "Cpu", chunks, sink) -> Iterator[float]:
        """One application thread draining (part of) an access stream."""
        m = self.machine
        for vpns, writes in chunks:
            start = m.engine.now
            result = m.access.run_chunk(workload.space, cpu, vpns, writes)
            yield record_chunk(m.stats, workload, cpu, start, result, sink)

    # ------------------------------------------------------------------
    # Report assembly
    # ------------------------------------------------------------------
    def _report(
        self,
        workload: "Workload",
        windows: List[WindowSample],
        counters: Dict[str, float],
        breakdowns: Dict[str, Dict[str, float]],
    ) -> RunReport:
        m = self.machine
        cfg = m.config
        scratch = Stats(freq_ghz=m.platform.freq_ghz)
        scratch.windows = windows
        return RunReport(
            transient=scratch.phase_report("transient", 0.0, cfg.transient_frac),
            stable=scratch.phase_report("stable", 1.0 - cfg.stable_frac, 1.0),
            overall=scratch.phase_report("overall", 0.0, 1.0),
            counters=counters,
            cycles=m.engine.now,
            breakdowns=breakdowns,
            workload=workload.name,
            workload_counters=self._workload_counters(windows),
        )

    @staticmethod
    def _workload_counters(windows: List[WindowSample]) -> Dict[str, float]:
        """Per-workload counters derivable from its private windows."""
        if not windows:
            return {"accesses": 0.0, "reads": 0.0, "writes": 0.0,
                    "read_cycles": 0.0, "write_cycles": 0.0,
                    "windows": 0.0, "span_cycles": 0.0}
        return {
            "accesses": float(sum(w.accesses for w in windows)),
            "reads": float(sum(w.reads for w in windows)),
            "writes": float(sum(w.writes for w in windows)),
            "read_cycles": float(sum(w.read_cycles for w in windows)),
            "write_cycles": float(sum(w.write_cycles for w in windows)),
            "windows": float(len(windows)),
            "span_cycles": windows[-1].end - windows[0].start,
        }
