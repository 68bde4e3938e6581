"""The tiering-policy interface.

A policy decides *when and how pages move between tiers*. It is a thin
subscriber on the machine's :class:`~repro.sim.bus.NotifierBus`,
mirroring where Linux lets tiering code hook in:

* fault events (:class:`~repro.sim.bus.HintFault`,
  :class:`~repro.sim.bus.WpFault`, :class:`~repro.sim.bus.DemandPage`),
* the allocation-failure path (:class:`~repro.sim.bus.AllocFail`),
* migration bookkeeping (:class:`~repro.sim.bus.FrameReplaced`),
* the kswapd reclaim loop, which queries the installed policy directly
  (``reclaim_hint`` + ``demote_page`` are synchronous request/response
  calls, not broadcast events),
* background daemons it spawns from ``install()``.

``install()`` registers the bus handlers (and daemons); ``uninstall()``
unregisters and kills them, so policies are swappable at runtime --
:meth:`repro.system.Machine.clear_policy` drives that path.

All fault handlers return the cycles they consumed *in the faulting
task's context*; work done on other cores is accounted there directly by
the policy's own daemons.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from ..mem.frame import Frame
from ..mmu.faults import Fault, UnhandledFault
from ..sim.bus import (
    AllocFail,
    DemandPage,
    FrameReplaced,
    HintFault,
    Subscription,
    WpFault,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.cpu import Cpu
    from ..sim.engine import Process
    from ..system import Machine

__all__ = ["TieringPolicy"]


class TieringPolicy:
    """Base class: a policy that never migrates and never faults."""

    name = "base"

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self._subscriptions: list[Subscription] = []
        self._procs: list["Process"] = []

    # -- lifecycle -------------------------------------------------------
    def install(self) -> None:
        """Register bus handlers, spawn daemons. Called by set_policy().

        The base implementation subscribes thin wrappers that forward
        bus events to the overridable handler methods below; subclasses
        extend it (``super().install()``) with daemons and any extra
        subscriptions. Everything registered through :meth:`subscribe`
        and :meth:`spawn` is torn down by :meth:`uninstall`.
        """
        self.subscribe(HintFault, self._bus_hint_fault)
        self.subscribe(WpFault, self._bus_wp_fault)
        self.subscribe(AllocFail, self._bus_alloc_fail)
        self.subscribe(FrameReplaced, self._bus_frame_replaced)
        self.subscribe(DemandPage, self._bus_demand_page)

    def uninstall(self) -> None:
        """Unregister every bus handler and kill every spawned daemon."""
        bus = self.machine.bus
        for sub in self._subscriptions:
            bus.unsubscribe(sub)
        self._subscriptions.clear()
        engine = self.machine.engine
        for proc in self._procs:
            if proc.alive:
                engine.kill(proc)
        self._procs.clear()

    def subscribe(self, event_type, handler, priority: int = 0) -> Subscription:
        """Subscribe on the machine bus; auto-unsubscribed on uninstall."""
        sub = self.machine.bus.subscribe(event_type, handler, priority)
        self._subscriptions.append(sub)
        return sub

    def spawn(self, gen, name: str) -> "Process":
        """Spawn a daemon process; killed on uninstall."""
        proc = self.machine.engine.spawn(gen, name=name)
        self._procs.append(proc)
        return proc

    # -- bus wrappers ------------------------------------------------------
    def _bus_hint_fault(self, event: HintFault) -> float:
        return self.handle_hint_fault(event.fault, event.cpu)

    def _bus_wp_fault(self, event: WpFault) -> float:
        return self.handle_wp_fault(event.fault, event.cpu)

    def _bus_alloc_fail(self, event: AllocFail) -> None:
        event.freed += self.on_alloc_fail(event.tier, event.nr)

    def _bus_frame_replaced(self, event: FrameReplaced) -> None:
        self.on_frame_replaced(event.old, event.new)

    def _bus_demand_page(self, event: DemandPage) -> None:
        self.on_demand_page(event.fault, event.frame)

    # -- placement ---------------------------------------------------------
    def alloc_preference(self, fault: Fault) -> int:
        """Preferred tier for demand paging (default: fast first)."""
        return 0

    def on_demand_page(self, fault: Fault, frame: Frame) -> None:
        """Notification after a first-touch allocation."""

    # -- fault handlers ----------------------------------------------------
    def handle_hint_fault(self, fault: Fault, cpu: "Cpu") -> float:
        raise UnhandledFault(fault, f"{self.name} does not arm hint faults")

    def handle_wp_fault(self, fault: Fault, cpu: "Cpu") -> float:
        raise UnhandledFault(fault, f"{self.name} does not write-protect pages")

    # -- reclaim integration -------------------------------------------------
    def reclaim_hint(self, node_id: int, target: int, cpu: "Cpu") -> Tuple[int, float]:
        """Cheap reclaim opportunity before kswapd scans LRU lists.

        Returns (pages freed, cycles consumed).
        """
        return 0, 0.0

    def demote_page(self, frame: Frame, cpu: "Cpu") -> Tuple[bool, float]:
        """kswapd picked ``frame`` as a demotion victim.

        Returns (success, cycles consumed).
        """
        return False, 0.0

    def wants_split(self, frame: Frame) -> bool:
        """Should kswapd split this cold huge folio instead of demoting
        it whole?  Policies that can demote a folio cheaply (e.g. by
        remapping to a shadow copy) return False for those frames.
        """
        return False

    def on_alloc_fail(self, tier: int, nr: int) -> int:
        """Allocation failed everywhere; free pages if possible.

        Returns the number of pages freed.
        """
        return 0

    # -- migration bookkeeping -----------------------------------------------
    def on_frame_replaced(self, old: Frame, new: Frame) -> None:
        """A migration replaced ``old`` with ``new``."""

    def describe(self) -> str:
        return self.name
