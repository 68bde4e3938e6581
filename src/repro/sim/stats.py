"""Simulation statistics: counters, CPU-time breakdown, bandwidth windows.

Every quantity the paper reports is derived from the data collected here:

* named event counters (promotions, demotions, faults, aborts, ...),
* per-CPU, per-category cycle accounting (Figure 2's time breakdown),
* time-stamped access windows from which phase bandwidth and average
  access latency are computed (Figures 1 and 7-10).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs.hist import bucket_values, percentile_from_counts

__all__ = ["Stats", "WindowSample", "PhaseReport", "LATENCY_BIN_EDGES"]

# Geometric bins for per-access latency histograms: 50 cycles (cache-ish)
# up to 1M cycles (a fault storm). Indices beyond the last edge clamp
# into the final bucket. Bucketing and percentile estimation share the
# generic helpers in repro.obs.hist (same semantics as the operation
# histograms the observability layer keeps).
LATENCY_BIN_EDGES = np.geomspace(50.0, 1_000_000.0, num=57)
NR_LATENCY_BINS = len(LATENCY_BIN_EDGES) + 1
_LATENCY_EDGES_LIST = LATENCY_BIN_EDGES.tolist()


def latency_histogram(latencies: np.ndarray) -> np.ndarray:
    """Bucket an array of per-access latencies (cycles)."""
    return bucket_values(LATENCY_BIN_EDGES, latencies)


def histogram_percentile(hist: np.ndarray, percentile: float) -> float:
    """Approximate a percentile (0-100) from a latency histogram.

    Reports the upper edge of the containing bucket for *every* bucket
    (the first bucket included; the open-ended overflow bucket clamps
    to the last edge).
    """
    return percentile_from_counts(hist, LATENCY_BIN_EDGES, percentile)


@dataclass
class WindowSample:
    """One chunk of application progress."""

    start: float  # cycles
    end: float  # cycles
    reads: int  # number of read accesses
    writes: int  # number of write accesses
    read_cycles: float
    write_cycles: float
    # Optional per-access latency histogram for this window (bucketed by
    # LATENCY_BIN_EDGES): one sample per executed access at its tier
    # latency, plus one per fault at its service cycles (the faulting
    # access is retried and counted again at tier latency).
    latency_hist: Optional[np.ndarray] = None

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def cycles(self) -> float:
        return self.end - self.start


@dataclass
class PhaseReport:
    """Summary of one measurement phase (transient or stable)."""

    name: str
    accesses: int
    reads: int
    writes: int
    cycles: float
    read_bandwidth_gbps: float
    write_bandwidth_gbps: float
    bandwidth_gbps: float
    avg_access_cycles: float
    p50_access_cycles: float = 0.0
    p95_access_cycles: float = 0.0
    p99_access_cycles: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)

    def as_row(self) -> Dict[str, float]:
        return {
            "bandwidth_gbps": self.bandwidth_gbps,
            "read_bandwidth_gbps": self.read_bandwidth_gbps,
            "write_bandwidth_gbps": self.write_bandwidth_gbps,
            "avg_access_cycles": self.avg_access_cycles,
        }


class Stats:
    """Mutable statistics sink shared by the whole machine."""

    CACHELINE = 64  # bytes accounted per access

    def __init__(self, freq_ghz: float = 2.0) -> None:
        self.freq_ghz = freq_ghz
        self.counters: Dict[str, float] = defaultdict(float)
        # cpu_time[cpu_name][category] = cycles
        self.cpu_time: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.windows: List[WindowSample] = []
        # Per-window counter snapshots (parallel to `windows`); lets the
        # harness split cumulative counters into phases (Table 2).
        self.window_marks: List[Dict[str, float]] = []
        self.tracked_counters: Tuple[str, ...] = (
            "migrate.promotions",
            "migrate.demotions",
            "nomad.tpm_commits",
            "nomad.tpm_aborts",
            "nomad.remap_demotions",
            "fault.total",
        )

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def bump(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    def get(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    # ------------------------------------------------------------------
    # CPU time breakdown
    # ------------------------------------------------------------------
    def account(self, cpu: str, category: str, cycles: float) -> None:
        if cycles < 0:
            raise ValueError(f"negative cycles {cycles} for {cpu}/{category}")
        self.cpu_time[cpu][category] += cycles

    def breakdown(self, cpu: str) -> Dict[str, float]:
        """Cycle totals per category for one CPU (Figure 2 rows)."""
        return dict(self.cpu_time.get(cpu, {}))

    # ------------------------------------------------------------------
    # Access windows / bandwidth
    # ------------------------------------------------------------------
    def counter_mark(self) -> Dict[str, float]:
        """The tracked counters' current values (one ``window_marks`` entry)."""
        counters = self.counters
        return {key: counters.get(key, 0.0) for key in self.tracked_counters}

    def record_window(
        self, sample: WindowSample, mark: Optional[Dict[str, float]] = None
    ) -> None:
        """Append a window with its counter mark, by default a fresh
        :meth:`counter_mark`. Windows recorded with no event in between
        (one fast-path batch) may share one mark; marks are read-only."""
        self.windows.append(sample)
        self.window_marks.append(self.counter_mark() if mark is None else mark)

    def phase_counter_delta(
        self, key: str, start_frac: float, end_frac: float
    ) -> float:
        """Counter growth across a window-index slice of the run."""
        if not self.window_marks:
            return 0.0
        lo = int(len(self.window_marks) * start_frac)
        hi = max(lo + 1, int(len(self.window_marks) * end_frac))
        hi = min(hi, len(self.window_marks))
        base = self.window_marks[lo - 1][key] if lo > 0 else 0.0
        return self.window_marks[hi - 1][key] - base

    def _bandwidth(self, accesses: int, cycles: float) -> float:
        """GB/s given access count and elapsed cycles at ``freq_ghz``."""
        if cycles <= 0:
            return 0.0
        seconds = cycles / (self.freq_ghz * 1e9)
        return accesses * self.CACHELINE / seconds / 1e9

    def phase_report(
        self,
        name: str,
        start_frac: float,
        end_frac: float,
        counters: Optional[Dict[str, float]] = None,
    ) -> PhaseReport:
        """Summarize the windows between two fractions of the run.

        ``start_frac``/``end_frac`` select a slice of the recorded windows
        by *index* (progress), not by time, so a thrashing run that makes
        slow progress is still split into comparable early/late phases.
        """
        if not self.windows:
            return PhaseReport(
                name=name,
                accesses=0,
                reads=0,
                writes=0,
                cycles=0.0,
                read_bandwidth_gbps=0.0,
                write_bandwidth_gbps=0.0,
                bandwidth_gbps=0.0,
                avg_access_cycles=0.0,
                counters=counters or {},
            )
        lo = int(len(self.windows) * start_frac)
        hi = max(lo + 1, int(len(self.windows) * end_frac))
        chunk = self.windows[lo:hi]
        reads = sum(w.reads for w in chunk)
        writes = sum(w.writes for w in chunk)
        cycles = chunk[-1].end - chunk[0].start
        read_cycles = sum(w.read_cycles for w in chunk)
        write_cycles = sum(w.write_cycles for w in chunk)
        accesses = reads + writes
        avg = cycles / accesses if accesses else 0.0
        hists = [w.latency_hist for w in chunk if w.latency_hist is not None]
        if hists:
            phase_hist = np.sum(hists, axis=0)
            p50 = histogram_percentile(phase_hist, 50.0)
            p95 = histogram_percentile(phase_hist, 95.0)
            p99 = histogram_percentile(phase_hist, 99.0)
        else:
            p50 = p95 = p99 = 0.0
        # Per-direction bandwidth uses the whole phase wall time with the
        # direction's access count, matching how the paper's read-only and
        # write-only microbenchmark variants are reported.
        return PhaseReport(
            name=name,
            accesses=accesses,
            reads=reads,
            writes=writes,
            cycles=cycles,
            read_bandwidth_gbps=self._bandwidth(reads, cycles) if reads else 0.0,
            write_bandwidth_gbps=self._bandwidth(writes, cycles) if writes else 0.0,
            bandwidth_gbps=self._bandwidth(accesses, cycles),
            avg_access_cycles=avg,
            p50_access_cycles=p50,
            p95_access_cycles=p95,
            p99_access_cycles=p99,
            counters=counters or {},
        )

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        return dict(self.counters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Stats {len(self.counters)} counters, {len(self.windows)} windows>"
