"""Wall-clock self-profiler: where does *host* time go, per subsystem.

The bench layer records cycles-per-second for the whole suite, which
says whether the simulator got faster but not *what* to optimize next.
:class:`SelfProfiler` attributes host nanoseconds to subsystems by
timing every run-loop step (one ``perf_counter_ns`` pair per heap pop;
the inline resumptions of the same process that follow it are part of
the step) and bucketing by the process's name:

* ``app`` -- application threads, including the two-speed fast path's
  inline batches (they execute inside the app process's step);
* ``kswapd`` / ``kpromote`` / ``scanner`` -- the daemons;
* ``obs`` -- the observability layer's own processes (one per enabled
  :mod:`repro.obs.windows` view: ``obs.sampler``, ``obs.timeseries``,
  ``obs.tenants``), so observation overhead is itself observable;
* ``other`` -- anything else (tests spawning ad-hoc processes).

Subsystem buckets are disjoint slices of the run loop, so their sum is
<= total wall time by construction (the gap is the engine's own heap
work plus anything outside ``Engine.run``). ``detail`` buckets
(``app.slowpath``: the chunks of a fast-path stream that run through
``AccessEngine.run_chunk`` -- faulting chunks, chunks at an event
horizon, every chunk while a ``ChunkExecuted`` subscriber is attached)
nest *inside* subsystem time and are reported separately so the
top-level sum stays a partition.

The profiler touches no simulated state -- it reads the host clock and
its own dicts -- so enabling it cannot move a single simulated cycle;
it does not even require the tracepoint faucet to be open.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Dict, Optional

__all__ = ["SelfProfiler"]

_PREFIXES = (
    ("app:", "app"),
    ("kswapd", "kswapd"),
    ("kpromote", "kpromote"),
    ("numa", "scanner"),
    ("obs.", "obs"),
)


class SelfProfiler:
    """Accumulates host-time per subsystem (see module docstring)."""

    def __init__(self) -> None:
        self.totals_ns: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self.detail_ns: Dict[str, int] = {}
        self._categories: Dict[str, str] = {}
        self._start_ns: Optional[int] = None
        self._elapsed_ns: int = 0

    # ------------------------------------------------------------------
    def start(self) -> "SelfProfiler":
        if self._start_ns is None:
            self._start_ns = perf_counter_ns()
        return self

    def stop(self) -> None:
        if self._start_ns is not None:
            self._elapsed_ns += perf_counter_ns() - self._start_ns
            self._start_ns = None

    @property
    def total_ns(self) -> int:
        """Wall nanoseconds since :meth:`start` (live while running)."""
        running = (
            perf_counter_ns() - self._start_ns
            if self._start_ns is not None
            else 0
        )
        return self._elapsed_ns + running

    # ------------------------------------------------------------------
    def category(self, proc_name: str) -> str:
        cat = self._categories.get(proc_name)
        if cat is None:
            cat = "other"
            for prefix, name in _PREFIXES:
                if proc_name.startswith(prefix):
                    cat = name
                    break
            self._categories[proc_name] = cat
        return cat

    def note(self, proc_name: str, ns: int) -> None:
        """One timed engine step (called from the run loop)."""
        cat = self.category(proc_name)
        self.totals_ns[cat] = self.totals_ns.get(cat, 0) + ns
        self.counts[cat] = self.counts.get(cat, 0) + 1

    def note_detail(self, name: str, ns: int) -> None:
        """Nested bucket inside a subsystem (not part of the partition)."""
        self.detail_ns[name] = self.detail_ns.get(name, 0) + ns

    @contextmanager
    def scope(self, name: str):
        """Time an ad-hoc block into a detail bucket."""
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            self.note_detail(name, perf_counter_ns() - t0)

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """JSON-ready digest (RunReport.selfprof / BENCH selfprof)."""
        total_s = self.total_ns / 1e9
        attributed_ns = sum(self.totals_ns.values())
        subsystems = {
            name: {
                "seconds": round(ns / 1e9, 6),
                "steps": self.counts.get(name, 0),
                "frac": round(ns / self.total_ns, 4) if self.total_ns else 0.0,
            }
            for name, ns in sorted(self.totals_ns.items())
        }
        out: Dict[str, Any] = {
            "total_wall_s": round(total_s, 6),
            "attributed_s": round(attributed_ns / 1e9, 6),
            "attributed_frac": (
                round(attributed_ns / self.total_ns, 4) if self.total_ns else 0.0
            ),
            "subsystems": subsystems,
        }
        if self.detail_ns:
            out["detail"] = {
                name: round(ns / 1e9, 6)
                for name, ns in sorted(self.detail_ns.items())
            }
        return out
