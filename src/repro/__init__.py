"""repro: a from-scratch reproduction of NOMAD (OSDI 2024).

"NOMAD: Non-Exclusive Memory Tiering via Transactional Page Migration"
(Xiang, Lin, Deng, Lu, Rao, Yuan, Wang -- OSDI 2024), rebuilt as a
deterministic tiered-memory simulator in Python.

Quickstart::

    from repro import Machine, platform_a
    from repro.core import NomadPolicy
    from repro.workloads import ZipfianMicrobench

    machine = Machine(platform_a())
    machine.set_policy(NomadPolicy(machine))
    workload = ZipfianMicrobench(wss_gb=10, rss_gb=20, total_accesses=200_000)
    report = machine.run_workload(workload)
    print(report.stable.bandwidth_gbps)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from .mem.node import OutOfMemoryError
from .mem.tiers import TieredMemory
from .mem.topology import TierSpec, TierTopology
from .sim.platform import (
    PAGES_PER_GB,
    Platform,
    apply_topology,
    gb_to_pages,
    get_platform,
    platform_a,
    platform_b,
    platform_c,
    platform_d,
    three_tier,
)
from .system import Machine, MachineConfig, RunReport


def _resolve_version() -> str:
    """Single-source the version from packaging metadata.

    ``pyproject.toml`` is authoritative. An installed package answers
    through ``importlib.metadata``; a source checkout run via
    ``PYTHONPATH=src`` has no dist-info, so fall back to parsing the
    checkout's own pyproject. The last resort is a PEP 440 local label
    that is obviously not a release.
    """
    try:
        from importlib.metadata import PackageNotFoundError, version
    except ImportError:  # pragma: no cover - Python < 3.8
        return "0+unknown"
    try:
        return version("repro")
    except PackageNotFoundError:
        pass
    import re
    from pathlib import Path

    pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
    try:
        match = re.search(
            r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), re.MULTILINE
        )
    except OSError:
        match = None
    return match.group(1) if match else "0+unknown"


__version__ = _resolve_version()

__all__ = [
    "Machine",
    "MachineConfig",
    "RunReport",
    "TieredMemory",
    "TierSpec",
    "TierTopology",
    "OutOfMemoryError",
    "three_tier",
    "apply_topology",
    "Platform",
    "platform_a",
    "platform_b",
    "platform_c",
    "platform_d",
    "get_platform",
    "gb_to_pages",
    "PAGES_PER_GB",
    "__version__",
]
