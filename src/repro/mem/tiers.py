"""Tiered physical memory: an ordered chain of memory nodes.

Implements the paper's assumed initial placement policy (Section 3):
"Pages are allocated from the fast tier whenever possible and are placed
in the slower tier only when there is an insufficient number of free
pages in the fast tier, or attempts to reclaim memory in the fast tier
have failed." Generalized to an N-tier chain (see
:class:`~repro.mem.topology.TierTopology`): allocation walks down the
chain from the preferred tier, then falls back up it.

Frames live in per-node pools; this module gives them a *global* frame
number (gpfn) so page tables and the vectorized access path can refer to
any frame with a single integer. Pressure is announced on the notifier
bus:

* :class:`~repro.sim.bus.LowWatermark` -- a node dipped below its low
  watermark (kswapd subscribes and wakes),
* :class:`~repro.sim.bus.AllocFail` -- last-ditch reclaim before OOM
  (Nomad frees shadow pages here, targeting 10x the request,
  Section 3.2); subscribers accumulate into ``event.freed``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..sim.bus import AllocFail, LowWatermark, NotifierBus
from .frame import Frame
from .node import MemoryNode, OutOfMemoryError
from .topology import TierTopology

__all__ = ["TieredMemory"]


class TieredMemory:
    """A chain of memory nodes and the allocation policy across them."""

    def __init__(
        self,
        fast_pages: Optional[int] = None,
        slow_pages: Optional[int] = None,
        watermark_scale: float = 0.02,
        bus: Optional[NotifierBus] = None,
        topology: Optional[TierTopology] = None,
    ) -> None:
        if topology is not None:
            specs = [(t.name, t.pages) for t in topology.tiers]
        else:
            if fast_pages is None or slow_pages is None:
                raise ValueError(
                    "need fast_pages and slow_pages, or a topology"
                )
            specs = [("fast", fast_pages), ("slow", slow_pages)]
        self.topology = topology
        self.nodes: List[MemoryNode] = [
            MemoryNode(tier, pages, name, watermark_scale)
            for tier, (name, pages) in enumerate(specs)
        ]
        self._base: List[int] = []
        total = 0
        for _, pages in specs:
            self._base.append(total)
            total += pages
        self.tier_of_gpfn = np.empty(total, dtype=np.int8)
        for tier, (_, pages) in enumerate(specs):
            start = self._base[tier]
            self.tier_of_gpfn[start : start + pages] = tier
        # One flat gpfn -> Frame table: nodes never replace their frames.
        self._frames: List[Frame] = [
            frame for node in self.nodes for frame in node.frames
        ]
        # Fallback order per preferred tier: walk down the chain first
        # (spill to slower tiers), then back up. For two tiers this is
        # the historical (0, 1)/(1, 0) flip.
        nr = len(specs)
        self._alloc_order: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(range(preferred, nr)) + tuple(range(preferred - 1, -1, -1))
            for preferred in range(nr)
        )
        # Pressure events go out on this bus (the machine shares its own).
        self.bus = bus if bus is not None else NotifierBus()

    # ------------------------------------------------------------------
    # Frame addressing
    # ------------------------------------------------------------------
    @property
    def nr_tiers(self) -> int:
        return len(self.nodes)

    @property
    def bottom_tier(self) -> int:
        """Index of the last (slowest) tier in the chain."""
        return len(self.nodes) - 1

    @property
    def fast(self) -> MemoryNode:
        return self.nodes[0]

    @property
    def slow(self) -> MemoryNode:
        """The first capacity tier (tier 1) -- the paper's slow tier."""
        return self.nodes[1]

    @property
    def total_pages(self) -> int:
        return sum(node.nr_pages for node in self.nodes)

    @property
    def total_free(self) -> int:
        return sum(node.nr_free for node in self.nodes)

    def gpfn(self, frame: Frame) -> int:
        """Global frame number of a frame."""
        return self._base[frame.node_id] + frame.pfn

    def frame(self, gpfn: int) -> Frame:
        """Frame for a global frame number."""
        frames = self._frames
        if gpfn < 0 or gpfn >= len(frames):
            raise IndexError(f"gpfn {gpfn} out of range")
        return frames[gpfn]

    def tier_of(self, gpfn: int) -> int:
        return int(self.tier_of_gpfn[gpfn])

    def demotion_target(self, tier: int) -> Optional[int]:
        """Next tier down the chain, or None for the bottom tier."""
        return tier + 1 if tier < len(self.nodes) - 1 else None

    def promotion_target(self, tier: int) -> Optional[int]:
        """Next tier up the chain, or None for tier 0."""
        return tier - 1 if tier > 0 else None

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def alloc_order(self, preferred: int) -> Tuple[int, ...]:
        """Fallback walk for allocations preferring ``preferred``."""
        return self._alloc_order[preferred]

    def alloc_on(self, tier: int) -> Optional[Frame]:
        """Allocate strictly on ``tier``; None if it has no free frame.

        Publishes :class:`LowWatermark` so background reclaim keeps pace.
        """
        node = self.nodes[tier]
        frame = node.alloc()
        if node.below_low():
            self.bus.publish(LowWatermark(tier))
        return frame

    def alloc_folio_on(self, tier: int, order: int) -> Optional[Frame]:
        """Allocate a contiguous folio strictly on ``tier``.

        Returns the head frame, or None when the node cannot satisfy the
        order (exhausted or fragmented). Publishes :class:`LowWatermark`
        like the base-page path so reclaim keeps pace with THP bursts.
        """
        node = self.nodes[tier]
        head = node.alloc_folio(order)
        if node.below_low():
            self.bus.publish(LowWatermark(tier))
        return head

    def alloc_page(self, preferred: int = 0) -> Frame:
        """Allocate with the paper's default placement policy.

        Tries the preferred tier, walks the rest of the chain (slower
        tiers first, then back up), then publishes :class:`AllocFail`
        (last-ditch reclaim) before declaring OOM.
        """
        order = self._alloc_order[preferred]
        for tier in order:
            frame = self.alloc_on(tier)
            if frame is not None:
                return frame
        event = AllocFail(preferred, 1)
        self.bus.publish(event)
        if event.freed > 0:
            for tier in order:
                frame = self.alloc_on(tier)
                if frame is not None:
                    return frame
        raise OutOfMemoryError(
            "no frames available ("
            + ", ".join(f"{n.name} free={n.nr_free}" for n in self.nodes)
            + ")"
        )

    def free_page(self, frame: Frame) -> None:
        self.nodes[frame.node_id].free(frame)

    def free_folio(self, head: Frame) -> None:
        """Free a folio (or a plain order-0 frame) in one call."""
        self.nodes[head.node_id].free_folio(head)

    def folio_frames(self, head: Frame) -> List[Frame]:
        """The folio's frames in pfn order (head first)."""
        node = self.nodes[head.node_id]
        return [node.frame(head.pfn + i) for i in range(head.nr_pages)]

    # ------------------------------------------------------------------
    def usage(self) -> dict:
        """Snapshot for robustness experiments (Table 3)."""
        out = {
            "fast_used": self.fast.nr_used,
            "fast_free": self.fast.nr_free,
            "slow_used": self.slow.nr_used,
            "slow_free": self.slow.nr_free,
        }
        if len(self.nodes) > 2:
            for node in self.nodes:
                out[f"tier{node.node_id}_used"] = node.nr_used
                out[f"tier{node.node_id}_free"] = node.nr_free
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        chain = " ".join(repr(node) for node in self.nodes)
        return f"<TieredMemory {chain}>"
