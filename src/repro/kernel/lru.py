"""Active/inactive LRU lists with pagevec-batched activation.

This reproduces the exact Linux mechanism the paper analyses in Section
3.1: ``mark_page_accessed`` sets ``PG_referenced`` on first touch and
*requests* activation on the second, but the request goes through a
15-entry per-CPU pagevec that only drains when full. A hot page on the
inactive list therefore needs up to 15 (possibly duplicate) activation
requests -- i.e. up to 15 hint faults under TPP -- before it actually
lands on the active list and becomes eligible for promotion. Nomad's PCQ
bypasses this (see :mod:`repro.core.queues`).
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterator, List

from ..mem.frame import Frame, FrameFlags
from ..mem.tiers import TieredMemory

__all__ = ["OrderedFrameSet", "LruManager", "PAGEVEC_SIZE"]

PAGEVEC_SIZE = 15


class OrderedFrameSet:
    """Insertion-ordered set of frames with O(1) add/remove.

    Head = least recently added (scan side), tail = most recently added.
    """

    def __init__(self) -> None:
        self._frames: Dict[int, Frame] = {}

    def __len__(self) -> int:
        return len(self._frames)

    def __contains__(self, frame: Frame) -> bool:
        return id(frame) in self._frames

    def add_tail(self, frame: Frame) -> None:
        key = id(frame)
        if key in self._frames:
            raise RuntimeError(f"frame pfn={frame.pfn} already on list")
        self._frames[key] = frame

    def remove(self, frame: Frame) -> None:
        try:
            del self._frames[id(frame)]
        except KeyError:
            raise RuntimeError(f"frame pfn={frame.pfn} not on list") from None

    def head_batch(self, n: int) -> List[Frame]:
        return list(islice(self._frames.values(), n))

    def __iter__(self) -> Iterator[Frame]:
        return iter(list(self._frames.values()))


class LruManager:
    """Per-node active/inactive lists plus the activation pagevec."""

    def __init__(self, tiers: TieredMemory, stats=None) -> None:
        self.tiers = tiers
        self.stats = stats
        nr_nodes = len(tiers.nodes)
        self.active = [OrderedFrameSet() for _ in range(nr_nodes)]
        self.inactive = [OrderedFrameSet() for _ in range(nr_nodes)]
        self._pagevec: List[Frame] = []

    # ------------------------------------------------------------------
    # List membership
    # ------------------------------------------------------------------
    def add_new_page(self, frame: Frame) -> None:
        """New pages enter the inactive list (Linux default)."""
        if frame.on_lru:
            raise RuntimeError(f"pfn {frame.pfn} already on LRU")
        frame.set_flag(FrameFlags.LRU)
        frame.clear_flag(FrameFlags.ACTIVE)
        self.inactive[frame.node_id].add_tail(frame)

    def add_new_pages(self, frames) -> None:
        """Bulk :meth:`add_new_page` in order (setup-time populate)."""
        inactive = self.inactive
        for frame in frames:
            if frame.on_lru:
                raise RuntimeError(f"pfn {frame.pfn} already on LRU")
            frame.set_flag(FrameFlags.LRU)
            frame.clear_flag(FrameFlags.ACTIVE)
            inactive[frame.node_id].add_tail(frame)

    def remove(self, frame: Frame) -> None:
        if not frame.on_lru:
            raise RuntimeError(f"pfn {frame.pfn} not on LRU")
        lists = self.active if frame.active else self.inactive
        lists[frame.node_id].remove(frame)
        frame.clear_flag(FrameFlags.LRU)

    def transfer(self, old: Frame, new: Frame) -> None:
        """After migration: `new` inherits `old`'s list type on its node."""
        was_active = old.active
        if old.on_lru:
            self.remove(old)
        if new.on_lru:
            raise RuntimeError(f"pfn {new.pfn} already on LRU")
        new.set_flag(FrameFlags.LRU)
        if was_active:
            new.set_flag(FrameFlags.ACTIVE)
            self.active[new.node_id].add_tail(new)
        else:
            new.clear_flag(FrameFlags.ACTIVE)
            self.inactive[new.node_id].add_tail(new)

    def rotate(self, frame: Frame) -> None:
        """Move a frame to the tail (MRU end) of its current list."""
        lists = self.active if frame.active else self.inactive
        lists[frame.node_id].remove(frame)
        lists[frame.node_id].add_tail(frame)

    # ------------------------------------------------------------------
    # Access tracking (mark_page_accessed)
    # ------------------------------------------------------------------
    def mark_accessed(self, frame: Frame) -> bool:
        """Linux ``mark_page_accessed``. Returns True if an activation
        request was queued (TPP counts these toward its 15-fault bound)."""
        if not frame.referenced:
            frame.set_flag(FrameFlags.REFERENCED)
            return False
        if frame.active:
            return False
        self._pagevec.append(frame)
        if self.stats is not None:
            self.stats.bump("lru.activation_requests")
        if len(self._pagevec) >= PAGEVEC_SIZE:
            self.drain_pagevec()
        return True

    def drain_pagevec(self) -> int:
        """Apply queued activation requests; returns pages activated."""
        activated = 0
        for frame in self._pagevec:
            if frame.on_lru and not frame.active and frame.mapped:
                self._activate(frame)
                activated += 1
        self._pagevec.clear()
        if self.stats is not None and activated:
            self.stats.bump("lru.activations", activated)
        return activated

    def _activate(self, frame: Frame) -> None:
        self.inactive[frame.node_id].remove(frame)
        frame.set_flag(FrameFlags.ACTIVE)
        frame.clear_flag(FrameFlags.REFERENCED)
        self.active[frame.node_id].add_tail(frame)

    def force_activate(self, frame: Frame) -> None:
        """Immediate activation, bypassing the pagevec (used by reclaim)."""
        if frame.on_lru and not frame.active:
            self._activate(frame)

    def deactivate(self, frame: Frame) -> None:
        """Move an active frame to the inactive list (shrink_active_list)."""
        if not frame.on_lru or not frame.active:
            return
        self.active[frame.node_id].remove(frame)
        frame.clear_flag(FrameFlags.ACTIVE)
        frame.clear_flag(FrameFlags.REFERENCED)
        self.inactive[frame.node_id].add_tail(frame)

    # ------------------------------------------------------------------
    # Reclaim-side queries
    # ------------------------------------------------------------------
    def pagevec_occupancy(self) -> int:
        return len(self._pagevec)

    def nr_inactive(self, node_id: int) -> int:
        return len(self.inactive[node_id])

    def nr_active(self, node_id: int) -> int:
        return len(self.active[node_id])

    def inactive_head_batch(self, node_id: int, n: int) -> List[Frame]:
        """Oldest inactive frames (reclaim candidates)."""
        return self.inactive[node_id].head_batch(n)

    def active_head_batch(self, node_id: int, n: int) -> List[Frame]:
        """Oldest active frames (shrink candidates)."""
        return self.active[node_id].head_batch(n)
