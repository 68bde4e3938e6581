"""The benchmark's workloads, built only through the simulator's public API.

Each scenario's ``setup`` builds a machine, generates the trace if there
is one, and binds (lays out and populates) the workload. The returned
pair is ready for ``Machine.run_workload``. Everything is derived from
the seed, so one seed always gives the same inputs and, the simulator
being deterministic, the same simulated results.

See README.md for why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Tuple

import repro.workloads as rw
from repro import Machine
from repro.bench import build_machine

# The quick suite's trace cell: a 6144-page footprint over the 4096-frame
# fast tier, half of it initially placed fast.
TRACE_PAGES = 6144
TRACE_FAST_FRACTION = 0.5


@dataclass(frozen=True)
class Scenario:
    name: str
    # Simulated accesses in one repeat. Fixed, so that the simulated
    # results do not depend on how fast the host is.
    accesses: int
    setup: Callable[[int, Path], Tuple[Machine, rw.Workload]]


def _trace_drift_rw(seed: int, scratch: Path):
    # Looked up on the module at call time, so the traced run's wrapper
    # (tracing.install) is the one called.
    manifest = rw.build_trace(
        scratch,
        "zipf-drift",
        nr_pages=TRACE_PAGES,
        accesses=SCENARIOS["trace-drift-rw"].accesses,
        seed=seed,
        fast_fraction=TRACE_FAST_FRACTION,
    )
    machine = build_machine("A", "nomad")
    workload = rw.StreamingTraceWorkload(manifest)
    workload.bind(machine)
    return machine, workload


def _micro_large_read(seed: int, scratch: Path):
    machine = build_machine("A", "nomad")
    # The observability layer as `repro obs` turns it on: tracepoint
    # ring, gauge sampler, spans and windowed time series.
    machine.obs.enable(capacity=65_536, sample_period=50_000.0)
    machine.obs.enable_timeseries(window_cycles=100_000.0)
    workload = rw.ZipfianMicrobench.scenario(
        "large",
        write_ratio=0.0,
        total_accesses=SCENARIOS["micro-large-read"].accesses,
        seed=seed,
    )
    workload.bind(machine)
    return machine, workload


def _stream_nomig(seed: int, scratch: Path):
    machine = build_machine("A", "no-migration")
    # Hottest pages placed fast first: with the default layout placement
    # the share of hot pages that lands fast depends on the seed, and the
    # simulated bandwidth spread 12% (quartile distance over median)
    # across ten seeds. Runtime faults stay at zero either way.
    workload = rw.ZipfianMicrobench.scenario(
        "small",
        write_ratio=0.5,
        placement="frequency-opt",
        total_accesses=SCENARIOS["stream-nomig"].accesses,
        seed=seed,
    )
    workload.bind(machine)
    return machine, workload


SCENARIOS: Dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario("trace-drift-rw", 200_000, _trace_drift_rw),
        Scenario("micro-large-read", 200_000, _micro_large_read),
        Scenario("stream-nomig", 2_000_000, _stream_nomig),
    )
}
