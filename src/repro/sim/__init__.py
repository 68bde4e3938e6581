"""Simulation substrate: event engine, bus, CPUs, costs, platforms, stats."""

from .bus import (
    AllocFail,
    ChunkExecuted,
    DemandPage,
    FrameReplaced,
    HintFault,
    LowWatermark,
    MigrationAborted,
    MigrationCommitted,
    Notify,
    NotifierBus,
    Subscription,
    WpFault,
)
from .costs import CACHELINE, PAGE_SIZE, CostModel
from .cpu import Cpu, CpuSet
from .engine import Engine, Event, Process, SimulationError
from .scheduler import RunReport, RunScheduler
from .platform import (
    PAGES_PER_GB,
    Platform,
    gb_to_pages,
    get_platform,
    platform_a,
    platform_b,
    platform_c,
    platform_d,
)
from .stats import PhaseReport, Stats, WindowSample

__all__ = [
    "Engine",
    "Event",
    "Process",
    "SimulationError",
    "NotifierBus",
    "Notify",
    "Subscription",
    "LowWatermark",
    "AllocFail",
    "FrameReplaced",
    "DemandPage",
    "HintFault",
    "WpFault",
    "ChunkExecuted",
    "MigrationCommitted",
    "MigrationAborted",
    "RunScheduler",
    "RunReport",
    "Cpu",
    "CpuSet",
    "CostModel",
    "PAGE_SIZE",
    "CACHELINE",
    "Platform",
    "platform_a",
    "platform_b",
    "platform_c",
    "platform_d",
    "get_platform",
    "gb_to_pages",
    "PAGES_PER_GB",
    "Stats",
    "PhaseReport",
    "WindowSample",
]
