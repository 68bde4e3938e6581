"""The simulated machine: engine + tiers + MMU + kernel daemons + policy.

``Machine`` is the composition root. Its subsystems talk through a
shared :class:`~repro.sim.bus.NotifierBus` (allocator pressure, fault
dispatch, chunk sampling, migration bookkeeping) and workloads run
through a :class:`~repro.sim.scheduler.RunScheduler`. A typical
experiment builds a machine, installs a tiering policy, binds one or
more workloads, and runs:

    from repro import Machine, platform_a
    from repro.core import NomadPolicy
    from repro.workloads import ZipfianMicrobench

    machine = Machine(platform_a())
    machine.set_policy(NomadPolicy(machine))
    wl = ZipfianMicrobench(machine, wss_gb=10, rss_gb=20)
    report = machine.run_workload(wl, total_accesses=400_000)

Policies are swappable at runtime: ``clear_policy()`` uninstalls the
current policy (bus handlers unregistered, daemons killed, armed hint
PTEs disarmed) after which ``set_policy()`` accepts a new one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional

from .debug import DebugConfig, DebugManager
from .kernel.lru import LruManager
from .kernel.numa_fault import NumaHintScanner
from .kernel.reclaim import Kswapd
import numpy as np

from .mem.frame import Frame, FrameFlags
from .mem.tiers import TieredMemory
from .mmu.access import AccessEngine
from .mmu.address_space import AddressSpace
from .mmu.faults import Fault, FaultType, UnhandledFault
from .mmu.pte import (
    PTE_ACCESSED,
    PTE_DIRTY,
    PTE_HUGE,
    PTE_PRESENT,
    PTE_WRITE,
)
from .mmu.tlb import TlbDirectory
from .obs.tracepoints import ObsManager
from .sim.bus import DemandPage, HintFault, LowWatermark, NotifierBus, WpFault
from .sim.cpu import Cpu, CpuSet
from .sim.engine import Engine
from .sim.platform import Platform
from .sim.scheduler import RunReport, RunScheduler
from .sim.stats import Stats

__all__ = ["Machine", "MachineConfig", "RunReport"]

# Per-kind stat keys, precomputed: the fault dispatcher is hot enough
# that building the f-string per fault shows up in profiles.
_FAULT_STAT_KEY = {kind: f"fault.{kind.value}" for kind in FaultType}


def _default_fastpath() -> bool:
    """Config default for ``fastpath_enabled``.

    Honours the ``REPRO_FASTPATH`` environment variable (``0``/``off``/
    ``false`` force the pure event-engine compat mode everywhere,
    including bench worker processes) so any run can be bisected against
    the slow path without touching code. The fast path changes wall
    time only -- simulated results are bit-identical either way.
    """
    return os.environ.get("REPRO_FASTPATH", "1").strip().lower() not in (
        "0",
        "off",
        "false",
        "no",
    )


@dataclass
class MachineConfig:
    """Tunables that are not part of a platform's hardware description."""

    chunk_size: int = 256
    watermark_scale: float = 0.02
    numa_scan_period: float = 400_000.0
    numa_pages_per_scan: int = 512
    address_space_pages: int = 1 << 16
    transient_frac: float = 0.25
    stable_frac: float = 0.25
    # Transparent huge pages: folio order for THP-hinted regions (order
    # 9 = 512 base pages = 2MB on 4KB pages; capacity-scaled experiments
    # use repro.sim.platform.SIM_THP_ORDER). ``thp_enabled=False`` is
    # the global /sys/.../transparent_hugepage/enabled=never switch:
    # every region demand-pages order-0 frames regardless of its hint.
    # Off by default so existing configs reproduce the simulator's
    # historical base-page behaviour bit-exactly; THP experiments opt in.
    thp_order: int = 9
    thp_enabled: bool = False
    # Two-speed engine (repro.sim.fastpath): commit runs of fault-free
    # chunks in one vectorized step with an inline clock advance, and
    # every other chunk on the event-engine slow path. Bit-identical to
    # the slow path by construction (the bench-regression gate pins it);
    # turn off -- or export REPRO_FASTPATH=0 -- to bisect any suspected
    # divergence against the pure event-engine execution.
    fastpath_enabled: bool = field(default_factory=_default_fastpath)
    # Debug subsystem (fault injection + invariant checking, see
    # repro.debug). Off by default: a debug_enabled=False machine is
    # bit-identical to one built before the subsystem existed. ``debug``
    # carries the knobs (fault sites, check cadence, jitter); None with
    # debug_enabled=True means "checking infrastructure armed, no
    # faults configured".
    debug_enabled: bool = False
    debug: Optional["DebugConfig"] = None

    def __post_init__(self) -> None:
        """Validate at construction so bad knobs fail loudly, not as
        downstream arithmetic surprises."""
        if self.chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {self.chunk_size}")
        if not 0.0 <= self.watermark_scale <= 1.0:
            raise ValueError(
                f"watermark_scale must be in [0, 1], got {self.watermark_scale}"
            )
        if self.numa_scan_period <= 0:
            raise ValueError(
                f"numa_scan_period must be positive, got {self.numa_scan_period}"
            )
        if self.numa_pages_per_scan <= 0:
            raise ValueError(
                "numa_pages_per_scan must be positive, "
                f"got {self.numa_pages_per_scan}"
            )
        pages = self.address_space_pages
        if pages <= 0 or pages & (pages - 1):
            raise ValueError(
                f"address_space_pages must be a power of two, got {pages}"
            )
        for field in ("transient_frac", "stable_frac"):
            value = getattr(self, field)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field} must be in [0, 1], got {value}")
        if self.thp_order < 0:
            raise ValueError(f"thp_order must be >= 0, got {self.thp_order}")
        if (1 << self.thp_order) > pages:
            raise ValueError(
                f"thp_order {self.thp_order} exceeds the address space "
                f"({pages} pages)"
            )
        if self.debug is not None and not isinstance(self.debug, DebugConfig):
            raise ValueError(
                f"debug must be a DebugConfig, got {type(self.debug)!r}"
            )
        if not isinstance(self.fastpath_enabled, bool):
            raise ValueError(
                f"fastpath_enabled must be a bool, got {self.fastpath_enabled!r}"
            )


class Machine:
    """A tiered-memory machine instance (two tiers by default)."""

    def __init__(
        self,
        platform: Platform,
        config: Optional[MachineConfig] = None,
    ) -> None:
        self.platform = platform
        self.config = config or MachineConfig()
        # Huge-folio span in base pages; 1 disables PMD mappings (the
        # access path masks faulting-vpn -> head-vpn with it).
        self.folio_pages = (
            1 << self.config.thp_order if self.config.thp_enabled else 1
        )
        self.engine = Engine()
        self.bus = NotifierBus()
        self.costs = platform.cost_model()
        self.stats = Stats(freq_ghz=platform.freq_ghz)
        # Observability faucet: always constructed, records nothing until
        # ``machine.obs.enable()`` (see repro.obs).
        self.obs = ObsManager(self)
        self.cpus = CpuSet(self.engine, self.stats)
        topology = platform.tier_topology()
        if len(self.costs.read_latency) != topology.nr_tiers:
            raise ValueError(
                f"cost model covers {len(self.costs.read_latency)} tiers "
                f"but the topology has {topology.nr_tiers}"
            )
        self.tiers = TieredMemory(
            watermark_scale=self.config.watermark_scale,
            bus=self.bus,
            topology=topology,
        )
        # Debug faucet: like obs, always constructed; inert (and
        # bit-neutral) unless config.debug_enabled. Built right after
        # the tiers so its allocation hooks and engine jitter are in
        # place before any daemon schedules its first event.
        self.debug = DebugManager(
            self, self.config.debug, enabled=self.config.debug_enabled
        )
        self.lru = LruManager(self.tiers, self.stats)
        self.tlb_directory = TlbDirectory()
        self.access = AccessEngine(self)
        self.spaces: List[AddressSpace] = []
        # Two-speed executors register here (one per app thread) so
        # observability can read fast/slow-path engagement without
        # reaching into scheduler locals.
        self.fastpath_executors: List = []
        self.policy = None
        # One reclaim daemon per tier: pressure at tier k demotes to
        # k + 1, so a chain cascades top to bottom.
        self.kswapd = [
            Kswapd(self, tier) for tier in range(len(self.tiers.nodes))
        ]
        for daemon in self.kswapd:
            daemon.start()
        self.scanner: Optional[NumaHintScanner] = None
        self.scheduler = RunScheduler(self)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def set_policy(self, policy) -> None:
        if self.policy is not None:
            raise RuntimeError("policy already installed")
        self.policy = policy
        policy.install()
        # A node the last policy could not reclaim may be reclaimable now.
        for daemon in self.kswapd:
            daemon.forget_failures()

    def clear_policy(self) -> None:
        """Uninstall the current policy so another can be installed.

        Unregisters the policy's bus handlers, kills its daemons, and
        disarms any hint-armed PTEs the scanner left behind (which would
        otherwise fault into a bus with no hint handler).
        """
        if self.policy is None:
            return
        self.policy.uninstall()
        self.policy = None
        self.stop_numa_scanner()

    def start_numa_scanner(self, task_cpu_name: str = "app0") -> None:
        """Policies that rely on hint faults call this from install()."""
        if self.scanner is None:
            self.scanner = NumaHintScanner(
                self,
                scan_period=self.config.numa_scan_period,
                pages_per_scan=self.config.numa_pages_per_scan,
                task_cpu_name=task_cpu_name,
            )
            self.scanner.start()

    def stop_numa_scanner(self) -> None:
        """Kill the scan daemon and disarm every armed PTE."""
        if self.scanner is not None:
            self.scanner.stop()
            self.scanner.disarm_all()
            self.scanner = None

    def create_space(self, name: str = "") -> AddressSpace:
        space = AddressSpace(
            self.config.address_space_pages, name, folio_pages=self.folio_pages
        )
        self.spaces.append(space)
        return space

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def handle_fault(self, fault: Fault, cpu: Cpu) -> float:
        """Dispatch a fault; returns cycles spent (already accounted)."""
        costs = self.costs
        if fault.kind is FaultType.WRITE_PROTECT:
            # The shadow page fault is a short protection fix-up: flag
            # check, soft-bit restore, shadow free -- no rmap walk or
            # allocation, so only the trap itself is charged here.
            cycles = costs.fault_trap
        else:
            cycles = costs.fault_trap + costs.fault_handle
        cpu.account("fault", cycles)
        self.stats.bump("fault.total")
        self.stats.bump(_FAULT_STAT_KEY[fault.kind])

        if fault.kind is FaultType.NOT_PRESENT:
            cycles += self._demand_page(fault, cpu)
        elif fault.kind is FaultType.HINT:
            handled = self.bus.dispatch(HintFault(fault, cpu))
            if handled is None:
                raise UnhandledFault(fault, "hint fault with no policy")
            cycles += handled
        else:  # WRITE_PROTECT
            handled = self.bus.dispatch(WpFault(fault, cpu))
            if handled is None:
                raise UnhandledFault(fault, "write-protect fault with no policy")
            cycles += handled
        self.obs.observe("fault.service_cycles", cycles)
        return cycles

    def thp_head_vpn(self, space: AddressSpace, vpn: int) -> Optional[int]:
        """Head vpn of the huge folio that could back ``vpn``, or None.

        Eligibility mirrors the kernel's THP fault checks: THP globally
        enabled, the VMA hinted, the naturally aligned block fully inside
        the VMA, and no sub-page of the block already mapped.
        """
        fp = self.folio_pages
        if fp == 1:
            return None
        vma = space.vma_of(vpn)
        if vma is None or not vma.thp:
            return None
        head = vpn & ~(fp - 1)
        if head < vma.start or head + fp > vma.end:
            return None
        pt = space.page_table
        if (pt.flags[head : head + fp] & PTE_PRESENT).any():
            return None
        return head

    def _demand_page(self, fault: Fault, cpu: Cpu) -> float:
        """First-touch allocation with the default placement policy."""
        preferred = 0
        if self.policy is not None:
            preferred = self.policy.alloc_preference(fault)
        head_vpn = self.thp_head_vpn(fault.space, fault.vpn)
        if head_vpn is not None:
            cycles = self._demand_folio(fault, cpu, head_vpn, preferred)
            if cycles is not None:
                return cycles
        frame = self.tiers.alloc_page(preferred)
        gpfn = self.tiers.gpfn(frame)
        flags = PTE_WRITE | PTE_ACCESSED
        if fault.write:
            flags |= PTE_DIRTY
        fault.space.page_table.map(fault.vpn, gpfn, flags)
        frame.add_rmap(fault.space, fault.vpn)
        self.lru.add_new_page(frame)
        self.stats.bump("fault.demand_paged")
        cycles = self.costs.alloc_page + self.costs.pte_update + self.costs.lru_op
        cpu.account("fault", cycles)
        self.bus.publish(DemandPage(fault, frame))
        return cycles

    def _demand_folio(
        self, fault: Fault, cpu: Cpu, head_vpn: int, preferred: int
    ) -> Optional[float]:
        """THP fault: back the whole aligned block with one huge folio.

        Returns None when neither tier can supply a contiguous folio, in
        which case the caller falls back to an order-0 allocation (the
        kernel's THP allocation-failure fallback).
        """
        order = self.config.thp_order
        head = None
        for tier in self.tiers.alloc_order(preferred):
            head = self.tiers.alloc_folio_on(tier, order)
            if head is not None:
                break
        if head is None:
            self.stats.bump("thp.fallback_base")
            return None
        fp = self.folio_pages
        flags = np.full(fp, PTE_WRITE | PTE_ACCESSED, dtype=np.uint32)
        if fault.write:
            flags[fault.vpn - head_vpn] |= np.uint32(PTE_DIRTY)
        fault.space.page_table.map_folio(head_vpn, self.tiers.gpfn(head), flags)
        head.add_rmap(fault.space, head_vpn)
        self.lru.add_new_page(head)
        self.stats.bump("fault.demand_paged")
        self.stats.bump("thp.folios_mapped")
        # Same single-operation cost structure as a base-page fault (one
        # allocation, one PMD install, one LRU insert): the THP economy
        # is 1 fault covering folio_pages worth of first touches.
        cycles = self.costs.alloc_page + self.costs.pmd_update + self.costs.lru_op
        cpu.account("fault", cycles)
        self.bus.publish(DemandPage(fault, head))
        return cycles

    # ------------------------------------------------------------------
    # TLB shootdown
    # ------------------------------------------------------------------
    def tlb_shootdown(self, space: AddressSpace, vpn: int, initiator: Cpu) -> float:
        """Invalidate all cached translations of (space, vpn).

        Returns the initiator-side cost; remote CPUs receive IPI stalls.
        """
        holders = self.tlb_directory.shootdown(space.asid, vpn)
        holders.discard(initiator.name)
        if holders:
            remote = [self.cpus.get(name) for name in holders]
            self.cpus.broadcast_ipi(initiator, remote)
            nr_remote = len(remote)
        else:
            nr_remote = 0
        cost = self.costs.shootdown_cycles(nr_remote)
        cost += self.debug.delay("mmu.tlb_delay")
        self.stats.bump("tlb.shootdowns")
        self.stats.bump("tlb.shootdown_ipis", nr_remote)
        return cost

    # ------------------------------------------------------------------
    # Folio split
    # ------------------------------------------------------------------
    def split_folio(self, head: Frame, initiator: Cpu, reason: str = "reclaim"):
        """Split a mapped huge folio into base pages (PMD -> PTE remap).

        The kernel's __split_huge_pmd: the PMD is rewritten as a table of
        base PTEs over the same frames (each sub-entry already tracks its
        own accessed/dirty state), the PMD-level TLB entry is shot down,
        and the tail frames become independently mapped, LRU-resident
        base pages. Shadowed or multi-mapped folios are refused -- the
        shadow pairs master and copy at folio granularity.

        Returns ``(ok, cycles)``; cycles are not yet accounted anywhere.
        """
        if not head.is_huge or head.is_tail:
            return False, 0.0
        mapping = head.sole_mapping()
        if mapping is None or head.locked or head.shadowed:
            return False, 0.0
        space, head_vpn = mapping
        pt = space.page_table
        fp = head.nr_pages
        frames = self.tiers.folio_frames(head)
        pt.clear_flags_range(head_vpn, fp, PTE_HUGE)
        cycles = self.costs.pmd_update
        cycles += self.tlb_shootdown(space, head_vpn, initiator)
        head.order = 0
        for i, tail in enumerate(frames[1:], start=1):
            tail.head = None
            tail.add_rmap(space, head_vpn + i)
            # Tails join the inactive list; per-PTE accessed bits let the
            # next reclaim pass sort hot tails back out.
            self.lru.add_new_page(tail)
        cycles += self.costs.lru_op
        self.stats.bump("thp.folio_splits")
        self.obs.emit(
            "folio.split", vpn=head_vpn, order=self.config.thp_order,
            reason=reason,
        )
        return True, cycles

    # ------------------------------------------------------------------
    # Setup-time page placement (no simulated cost)
    # ------------------------------------------------------------------
    def populate(
        self,
        space: AddressSpace,
        vpns,
        tier: int,
        writable: bool = True,
    ) -> int:
        """Map frames for ``vpns`` on ``tier`` (best effort, spills to the
        other tier when full). Models the paper's initial placement step.
        Returns how many pages landed on the requested tier."""
        on_tier = 0
        flags = PTE_WRITE if writable else 0
        order = self.config.thp_order
        if self.folio_pages == 1:
            varr = np.asarray(vpns, dtype=np.int64)
            if (
                len(varr) >= 64
                and all(n.fault_hook is None for n in self.tiers.nodes)
                and bool((np.diff(varr) > 0).all())
            ):
                return self._populate_bulk(space, varr, tier, flags)
        for vpn in vpns:
            vpn = int(vpn)
            if space.page_table.is_present(vpn):
                continue
            head_vpn = self.thp_head_vpn(space, vpn)
            if head_vpn is not None:
                head = None
                for t in self.tiers.alloc_order(tier):
                    head = self.tiers.alloc_folio_on(t, order)
                    if head is not None:
                        break
                if head is not None and head.node_id == tier:
                    on_tier += self.folio_pages
                if head is not None:
                    space.page_table.map_folio(
                        head_vpn,
                        self.tiers.gpfn(head),
                        np.full(self.folio_pages, flags, dtype=np.uint32),
                    )
                    head.add_rmap(space, head_vpn)
                    self.lru.add_new_page(head)
                    self.stats.bump("thp.folios_mapped")
                    continue
                self.stats.bump("thp.fallback_base")
            frame = self.tiers.alloc_on(tier)
            if frame is None:
                frame = self.tiers.alloc_page(tier)
            else:
                on_tier += 1
            space.page_table.map(vpn, self.tiers.gpfn(frame), flags)
            frame.add_rmap(space, vpn)
            self.lru.add_new_page(frame)
        return on_tier

    def _populate_bulk(
        self, space: AddressSpace, vpns: np.ndarray, tier: int, flags: int
    ) -> int:
        """Vectorized base-page populate.

        Bit-identical to the per-page loop above for strictly increasing
        vpns on a base-page machine: same FIFO frame assignment, same
        spill-to-other-tier order, and a watermark wakeup at the same
        simulation instant (repeat publishes in the loop are idempotent
        no-ops on kswapd's already-triggered wakeup event). Gated off
        when a debug allocation hook is installed so fault-injection
        runs keep the faithful per-page path.
        """
        pt = space.page_table
        todo = vpns[(pt.flags[vpns] & PTE_PRESENT) == 0]
        if len(todo) == 0:
            return 0
        tiers = self.tiers
        frames: List[Frame] = []
        on_tier = 0
        for t in tiers.alloc_order(tier):
            if len(frames) >= len(todo):
                break
            got = tiers.nodes[t].alloc_bulk(len(todo) - len(frames))
            if got:
                if t == tier:
                    on_tier = len(got)
                frames += got
                if tiers.nodes[t].below_low():
                    self.bus.publish(LowWatermark(t))
        mapped = len(frames)
        if mapped:
            base = tiers._base
            gpfns = np.fromiter(
                (base[f.node_id] + f.pfn for f in frames),
                dtype=np.int64,
                count=mapped,
            )
            pt.map_many(todo[:mapped], gpfns, flags)
            for frame, vpn in zip(frames, todo[:mapped].tolist()):
                frame.add_rmap(space, vpn)
            self.lru.add_new_pages(frames)
        # Both nodes exhausted: the remainder takes the last-ditch
        # per-page path (AllocFail publication, possible OOM). These
        # frames never count toward ``on_tier`` -- exactly like the
        # per-page loop's fallback branch.
        for vpn in todo[mapped:].tolist():
            frame = tiers.alloc_page(tier)
            pt.map(vpn, tiers.gpfn(frame), flags)
            frame.add_rmap(space, vpn)
            self.lru.add_new_page(frame)
        return on_tier

    def demote_all(self, space: AddressSpace) -> int:
        """Move every page of ``space`` above the bottom tier down to it.

        Models the paper's "customized tool to demote all memory pages to
        the slow tier before starting the experiment" (Section 4.2); on a
        longer chain everything lands on the slowest tier. Setup-time
        only: no cycles are charged. Returns pages moved.
        """
        moved = 0
        bottom = self.tiers.bottom_tier
        pt = space.page_table
        for vpn in pt.mapped_vpns():
            vpn = int(vpn)
            if not pt.is_present(vpn):
                continue  # folio handled via its head below
            gpfn = int(pt.gpfn[vpn])
            if self.tiers.tier_of(gpfn) == bottom:
                continue
            frame = self.tiers.frame(gpfn)
            if frame.is_tail:
                continue  # the head entry moves the whole folio
            if frame.mapcount != 1 or frame.locked:
                continue
            if frame.is_huge:
                fp = frame.nr_pages
                new = self.tiers.alloc_folio_on(bottom, frame.order)
                if new is None:
                    continue  # fragmented: leave the folio in place
                flags, _ = pt.unmap_folio(vpn, fp)
                pt.map_folio(
                    vpn,
                    self.tiers.gpfn(new),
                    flags & np.uint32(~(PTE_PRESENT | PTE_HUGE) & 0xFFFFFFFF),
                )
                new.add_rmap(space, vpn)
                frame.remove_rmap(space, vpn)
                self.lru.transfer(frame, new)
                frame.flags &= FrameFlags.LRU  # clear stray flags
                self.tiers.free_folio(frame)
                moved += fp
                continue
            new = self.tiers.alloc_on(bottom)
            if new is None:
                break
            flags, _ = pt.unmap(vpn)
            pt.map(vpn, self.tiers.gpfn(new), flags & ~PTE_PRESENT)
            new.add_rmap(space, vpn)
            frame.remove_rmap(space, vpn)
            self.lru.transfer(frame, new)
            frame.flags &= FrameFlags.LRU  # clear stray flags
            self.tiers.free_page(frame)
            moved += 1
        return moved

    # ------------------------------------------------------------------
    # Running workloads (thin delegates to the scheduler)
    # ------------------------------------------------------------------
    def run_workload(
        self,
        workload,
        app_cpu: str = "app0",
        run_cycles: Optional[float] = None,
        threads: int = 1,
    ) -> RunReport:
        """Bind and execute ``workload`` to completion (or ``run_cycles``).

        With ``threads > 1`` the workload runs as several application
        threads sharing one address space (cores ``app0..appN-1``); see
        :meth:`RunScheduler.run`. Returns a :class:`RunReport`.
        """
        if threads < 1:
            raise ValueError("need at least one thread")
        if threads == 1:
            app_cpus = [app_cpu]
        else:
            app_cpus = [f"app{t}" for t in range(threads)]
        return self.scheduler.run(
            [workload], app_cpus=app_cpus, run_cycles=run_cycles, threads=threads
        )[0]

    def run_workloads(
        self,
        workloads,
        app_cpus: Optional[List[str]] = None,
        run_cycles: Optional[float] = None,
    ) -> List[RunReport]:
        """Co-run several workloads, one application core each.

        Models multi-tenant pressure on the fast tier: every workload
        allocates from, and migrates within, the same tiered memory.
        Returns one report per workload; see :class:`RunReport` for
        which fields are per-workload and which are machine-global.
        """
        return self.scheduler.run(
            workloads, app_cpus=app_cpus, run_cycles=run_cycles
        )
