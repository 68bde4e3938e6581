"""Calibration: measure the simulator's primitive costs empirically.

Reproduces Table 1's characterization rows by *measuring* the simulated
machine rather than reading its configuration: issue single accesses
against each tier and time them, time page copies in each direction,
take a hint-fault round trip, and cost a TLB shootdown. If measurement
and specification ever disagree, the cost model is mis-wired -- this is
the substrate's self-test, and the basis of
``benchmarks/bench_tab01_platform_characteristics.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..mmu.pte import PTE_PROT_NONE
from ..policies.base import TieringPolicy
from ..sim.costs import PAGE_SIZE
from ..sim.platform import Platform
from ..system import Machine

__all__ = ["PlatformCalibration", "calibrate"]


@dataclass
class PlatformCalibration:
    """Measured primitive costs for one platform (cycles unless noted)."""

    platform: str
    freq_ghz: float
    fast_read_cycles: float
    slow_read_cycles: float
    latency_ratio: float
    promote_copy_cycles: float  # slow -> fast, one page
    demote_copy_cycles: float  # fast -> slow, one page
    promote_copy_gbps: float
    demote_copy_gbps: float
    hint_fault_cycles: float
    shootdown_remote1_cycles: float

    def as_row(self) -> Dict[str, float]:
        return dict(self.__dict__)


class _UnprotectOnly(TieringPolicy):
    """Minimal policy: hint faults just unprotect (for fault timing)."""

    name = "calibration"

    def handle_hint_fault(self, fault, cpu) -> float:
        fault.space.page_table.clear_flags(fault.vpn, PTE_PROT_NONE)
        return self.machine.costs.pte_update


def _time_access(machine: Machine, space, vpn: int) -> float:
    result = machine.access.access_one(space, machine.cpus.get("app0"), vpn)
    return result.cycles


def calibrate(platform: Platform) -> PlatformCalibration:
    """Measure one platform's primitives on a fresh machine."""
    machine = Machine(platform)
    machine.set_policy(_UnprotectOnly(machine))
    space = machine.create_space("calibration")
    vma = space.mmap(4)
    vpns = list(vma.vpns())
    machine.populate(space, vpns[:2], 0)
    machine.populate(space, vpns[2:], 1)

    fast_read = _time_access(machine, space, vpns[0])
    slow_read = _time_access(machine, space, vpns[2])

    costs = machine.costs
    promote_copy = costs.page_copy_cycles(1, 0)
    demote_copy = costs.page_copy_cycles(0, 1)

    def copy_gbps(cycles: float) -> float:
        seconds = cycles / (platform.freq_ghz * 1e9)
        return PAGE_SIZE / seconds / 1e9

    # Hint-fault round trip: arm a resident slow page and touch it.
    target = vpns[3]
    space.page_table.set_flags(target, PTE_PROT_NONE)
    baseline = slow_read
    fault_trip = _time_access(machine, space, target) - baseline

    # Shootdown with one remote holder.
    machine.tlb_directory.note_access("app1", space.asid, vpns[0])
    shootdown = machine.tlb_shootdown(
        space, vpns[0], machine.cpus.get("kpromote")
    )

    return PlatformCalibration(
        platform=platform.name,
        freq_ghz=platform.freq_ghz,
        fast_read_cycles=fast_read,
        slow_read_cycles=slow_read,
        latency_ratio=slow_read / fast_read,
        promote_copy_cycles=promote_copy,
        demote_copy_cycles=demote_copy,
        promote_copy_gbps=copy_gbps(promote_copy),
        demote_copy_gbps=copy_gbps(demote_copy),
        hint_fault_cycles=fault_trip,
        shootdown_remote1_cycles=shootdown,
    )
