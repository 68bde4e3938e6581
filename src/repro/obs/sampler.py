"""Periodic gauge sampling: Fig. 7-10-style time series.

The paper's bandwidth timelines and Table-2-style queue statistics are
all *gauge* readings: how deep is the MPQ right now, how many shadow
pages exist, how much of each tier is free, how large are the LRU
lists. :class:`GaugeSampler` is an engine process that wakes every
``period`` cycles, reads each registered gauge, and appends
``(time, value)`` to a per-gauge series.

Gauges are plain callables ``machine -> Optional[float]``; returning
``None`` skips the sample (e.g. MPQ depth while a non-Nomad policy is
installed). The sampler only reads machine state -- it never accounts
cycles or touches frames -- so running it changes no simulated
counters.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..system import Machine

__all__ = ["GAUGES", "GaugeSampler", "default_gauges"]

Gauge = Callable[["Machine"], Optional[float]]

# name -> one-line help string (Prometheus HELP for gauge metrics).
GAUGES: Dict[str, str] = {
    "mem.fast_free_pages": "free frames on the fast tier",
    "mem.slow_free_pages": "free frames on the slow tier",
    "mem.tier2_free_pages": "free frames on tier 2 (chains deeper than 2)",
    "lru.fast_active": "active-list length, fast node",
    "lru.fast_inactive": "inactive-list length, fast node",
    "lru.slow_active": "active-list length, slow node",
    "lru.slow_inactive": "inactive-list length, slow node",
    "lru.tier2_active": "active-list length, tier-2 node (deep chains)",
    "lru.tier2_inactive": "inactive-list length, tier-2 node (deep chains)",
    "nomad.mpq_depth": "migration pending queue depth",
    "nomad.pcq_depth": "promotion candidate queue depth",
    "nomad.shadow_pages": "live shadow pages",
    "engine.pending": "scheduled engine resumptions",
    "fastpath.fast_chunks": "access chunks executed on the vectorized fast path",
    "fastpath.slow_chunks": "access chunks the fast path ran through run_chunk",
    "fastpath.vector_batches": "vectorized batches issued by the fast path",
    "fastpath.revalidations": "fast-path validations that committed no chunk",
}


def _policy_attr(machine: "Machine", attr: str) -> Optional[object]:
    return getattr(machine.policy, attr, None) if machine.policy else None


def _mpq_depth(machine: "Machine") -> Optional[float]:
    mpq = _policy_attr(machine, "mpq")
    return float(len(mpq)) if mpq is not None else None


def _pcq_depth(machine: "Machine") -> Optional[float]:
    pcq = _policy_attr(machine, "pcq")
    return float(len(pcq)) if pcq is not None else None


def _shadow_pages(machine: "Machine") -> Optional[float]:
    index = _policy_attr(machine, "shadow_index")
    return float(index.nr_shadow_pages) if index is not None else None


def _tier_free(machine: "Machine", tier: int) -> Optional[float]:
    """Free frames on a deep-chain tier; None on two-tier machines so
    the legacy gauge series stay unchanged."""
    nodes = machine.tiers.nodes
    if len(nodes) <= 2 or tier >= len(nodes):
        return None
    return float(nodes[tier].nr_free)


def _tier_lru(machine: "Machine", tier: int, active: bool) -> Optional[float]:
    nodes = machine.tiers.nodes
    if len(nodes) <= 2 or tier >= len(nodes):
        return None
    lru = machine.lru
    return float(lru.nr_active(tier) if active else lru.nr_inactive(tier))


def _fastpath_total(machine: "Machine", attr: str) -> Optional[float]:
    """Sum a two-speed telemetry counter across the run's executors.

    ``None`` until the scheduler has registered at least one executor
    (fast path disabled via REPRO_FASTPATH=0, or the run has no app
    threads) so non-fastpath runs keep their gauge files unchanged.
    """
    executors = getattr(machine, "fastpath_executors", None)
    if not executors:
        return None
    return float(sum(getattr(ex, attr, 0) for ex in executors))


def default_gauges() -> Dict[str, Gauge]:
    """The standard gauge set; every name appears in :data:`GAUGES`."""
    return {
        "mem.fast_free_pages": lambda m: float(m.tiers.fast.nr_free),
        "mem.slow_free_pages": lambda m: float(m.tiers.slow.nr_free),
        "mem.tier2_free_pages": lambda m: _tier_free(m, 2),
        "lru.fast_active": lambda m: float(m.lru.nr_active(0)),
        "lru.fast_inactive": lambda m: float(m.lru.nr_inactive(0)),
        "lru.slow_active": lambda m: float(m.lru.nr_active(1)),
        "lru.slow_inactive": lambda m: float(m.lru.nr_inactive(1)),
        "lru.tier2_active": lambda m: _tier_lru(m, 2, True),
        "lru.tier2_inactive": lambda m: _tier_lru(m, 2, False),
        "nomad.mpq_depth": _mpq_depth,
        "nomad.pcq_depth": _pcq_depth,
        "nomad.shadow_pages": _shadow_pages,
        "engine.pending": lambda m: float(m.engine.pending),
        "fastpath.fast_chunks": lambda m: _fastpath_total(m, "fast_chunks"),
        "fastpath.slow_chunks": lambda m: _fastpath_total(m, "slow_chunks"),
        "fastpath.vector_batches": lambda m: _fastpath_total(
            m, "vector_batches"
        ),
        "fastpath.revalidations": lambda m: _fastpath_total(
            m, "revalidations"
        ),
    }


class GaugeSampler:
    """Engine process sampling gauges into time series."""

    def __init__(
        self,
        machine: "Machine",
        period: float = 50_000.0,
        gauges: Optional[Dict[str, Gauge]] = None,
    ) -> None:
        if period <= 0:
            raise ValueError("sample period must be positive")
        self.machine = machine
        self.period = period
        self.gauges = dict(default_gauges() if gauges is None else gauges)
        self.series: Dict[str, List[Tuple[float, float]]] = {
            name: [] for name in self.gauges
        }
        self.proc = None

    # ------------------------------------------------------------------
    def start(self) -> "GaugeSampler":
        if self.proc is None or not self.proc.alive:
            self.proc = self.machine.engine.spawn(self._run(), name="obs.sampler")
        return self

    def stop(self) -> None:
        if self.proc is not None and self.proc.alive:
            self.machine.engine.kill(self.proc)
        self.proc = None

    def _run(self):
        while True:
            self.sample()
            yield self.period

    # ------------------------------------------------------------------
    def sample(self) -> None:
        """Read every gauge once at the current simulation time."""
        now = self.machine.engine.now
        for name, gauge in self.gauges.items():
            value = gauge(self.machine)
            if value is not None:
                self.series[name].append((now, value))

    def latest(self, name: str) -> Optional[float]:
        series = self.series.get(name)
        return series[-1][1] if series else None

    def as_rows(self) -> List[Dict[str, float]]:
        """Dense rows keyed by sample time (for CSV export / tables).

        Rows are joined on the sample timestamp; a gauge missing at some
        timestamp (policy swapped mid-run) simply has no key there.
        """
        by_time: Dict[float, Dict[str, float]] = {}
        for name, series in self.series.items():
            for ts, value in series:
                by_time.setdefault(ts, {"time_cycles": ts})[name] = value
        return [by_time[ts] for ts in sorted(by_time)]
