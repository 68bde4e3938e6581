"""Memory nodes (tiers) with free lists and kswapd watermarks.

Each tier is a NUMA-node-like pool of frames. Watermarks follow the
kernel scheme the paper leans on:

* free < ``low``  -> wake ``kswapd`` (asynchronous reclaim),
* free < ``min``  -> allocations enter direct reclaim,
* kswapd reclaims until free > ``high``.

TPP's "decoupled allocation and reclamation" and Nomad's shadow-page
reclamation both key off these thresholds.

Folio support is buddy-flavoured rather than a full buddy system: base
pages keep the original FIFO free list (so order-0-only runs allocate in
the exact same sequence as before folios existed), while higher-order
allocations first-fit an aligned run of free pfns in a bitmap mirror of
the free list. Frames handed out as a folio leave stale entries in the
FIFO; ``alloc`` skips them lazily via the membership set.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Set

import numpy as np

from .frame import Frame, FrameFlags

__all__ = ["MemoryNode", "OutOfMemoryError"]


class OutOfMemoryError(RuntimeError):
    """No frame could be allocated anywhere (the OOM killer would fire)."""


class MemoryNode:
    """One memory tier: a pool of page frames plus watermark state."""

    def __init__(
        self,
        node_id: int,
        nr_pages: int,
        name: str = "",
        watermark_scale: float = 0.02,
    ) -> None:
        if nr_pages <= 0:
            raise ValueError(f"node needs at least one page, got {nr_pages}")
        self.node_id = node_id
        self.name = name or f"node{node_id}"
        self.frames: List[Frame] = [
            Frame(pfn, node_id) for pfn in range(nr_pages)
        ]
        self._free: Deque[int] = deque(range(nr_pages))
        # Mirrors of the free list for folio allocation: O(1) membership
        # (also lets ``alloc`` skip FIFO entries gone stale after a folio
        # grabbed them) and a bitmap for vectorised aligned-run search.
        self._free_set: Set[int] = set(self._free)
        self._free_map = np.ones(nr_pages, dtype=bool)
        # Debug fault injection (repro.debug): when installed, called as
        # ``hook(node_id, order)`` before every allocation; returning
        # True makes the allocation fail as if the node were exhausted
        # (the kernel's fail_page_alloc). None costs one attribute test.
        self.fault_hook: Optional[Callable[[int, int], bool]] = None
        # Monotonic count of frames ever returned to the free list (the
        # kernel's pgfree vmstat). A hopeless kswapd compares it against
        # the value it saw when it parked to learn that reclaim might
        # succeed again.
        self.pgfree = 0
        # Watermarks in pages, scaled like the kernel's watermark_scale_factor.
        base = max(1, int(nr_pages * watermark_scale))
        self.wmark_min = base
        self.wmark_low = base * 2
        self.wmark_high = base * 3

    # ------------------------------------------------------------------
    @property
    def nr_pages(self) -> int:
        return len(self.frames)

    @property
    def nr_free(self) -> int:
        return len(self._free_set)

    @property
    def nr_used(self) -> int:
        return self.nr_pages - self.nr_free

    def below_low(self) -> bool:
        return self.nr_free < self.wmark_low

    def below_min(self) -> bool:
        return self.nr_free < self.wmark_min

    def above_high(self) -> bool:
        return self.nr_free > self.wmark_high

    def reclaim_target(self) -> int:
        """Pages kswapd should free to restore the high watermark."""
        return max(0, self.wmark_high - self.nr_free)

    # ------------------------------------------------------------------
    def alloc(self) -> Optional[Frame]:
        """Pop a free frame, or None if the node is exhausted."""
        if self.fault_hook is not None and self.fault_hook(self.node_id, 0):
            return None
        while self._free:
            pfn = self._free.popleft()
            if pfn not in self._free_set:
                continue  # stale FIFO entry: folio allocation took it
            self._free_set.remove(pfn)
            self._free_map[pfn] = False
            frame = self.frames[pfn]
            frame.reset()
            return frame
        return None

    def alloc_bulk(self, k: int) -> List[Frame]:
        """Pop up to ``k`` free frames in exact FIFO order.

        Same frame sequence as ``k`` successive :meth:`alloc` calls, for
        the setup-time bulk populate path. Deliberately skips the debug
        fault hook -- callers gate on ``fault_hook is None`` so injection
        runs keep the faithful per-page path.
        """
        out: List[Frame] = []
        free = self._free
        fset = self._free_set
        frames = self.frames
        while free and len(out) < k:
            pfn = free.popleft()
            if pfn not in fset:
                continue  # stale FIFO entry: folio allocation took it
            fset.remove(pfn)
            frame = frames[pfn]
            frame.reset()
            out.append(frame)
        if out:
            self._free_map[[f.pfn for f in out]] = False
        return out

    def alloc_folio(self, order: int) -> Optional[Frame]:
        """Allocate ``1 << order`` physically contiguous frames.

        First-fits the lowest naturally aligned free run (buddy-style
        alignment keeps folios splittable and non-overlapping). Returns
        the head frame with compound state set, or None when the node is
        too fragmented or too empty.
        """
        if order == 0:
            return self.alloc()
        if self.fault_hook is not None and self.fault_hook(self.node_id, order):
            return None
        nr = 1 << order
        if len(self._free_set) < nr:
            return None
        n_aligned = (self.nr_pages // nr) * nr
        if n_aligned == 0:
            return None
        blocks = self._free_map[:n_aligned].reshape(-1, nr).all(axis=1)
        idx = int(np.argmax(blocks))
        if not blocks[idx]:
            return None
        base = idx * nr
        self._free_set.difference_update(range(base, base + nr))
        self._free_map[base : base + nr] = False
        head = self.frames[base]
        head.reset()
        head.order = order
        for pfn in range(base + 1, base + nr):
            tail = self.frames[pfn]
            tail.reset()
            tail.head = head
        return head

    def free(self, frame: Frame) -> None:
        """Return an order-0 frame to the free list."""
        if frame.order or frame.is_tail:
            raise RuntimeError(
                f"freeing compound pfn {frame.pfn} page-wise; use free_folio"
            )
        self._free_one(frame)

    def free_folio(self, head: Frame) -> None:
        """Return a whole folio (head + tails) to the free list."""
        if head.is_tail:
            raise ValueError(f"free_folio on tail pfn {head.pfn}")
        if head.order == 0:
            self.free(head)
            return
        nr = 1 << head.order
        tails = self.frames[head.pfn + 1 : head.pfn + nr]
        head.order = 0
        for tail in tails:
            tail.head = None
        self._free_one(head)
        for tail in tails:
            self._free_one(tail)

    def _free_one(self, frame: Frame) -> None:
        if frame.node_id != self.node_id:
            raise ValueError(
                f"pfn {frame.pfn} belongs to node {frame.node_id}, "
                f"not {self.node_id}"
            )
        if frame.mapped:
            raise RuntimeError(f"freeing mapped pfn {frame.pfn}")
        if frame.test_flag(FrameFlags.LOCKED):
            raise RuntimeError(f"freeing locked pfn {frame.pfn}")
        if frame.pfn in self._free_set:
            raise RuntimeError(f"double free detected on node {self.node_id}")
        frame.flags = 0
        self._free.append(frame.pfn)
        self._free_set.add(frame.pfn)
        self._free_map[frame.pfn] = True
        self.pgfree += 1

    def frame(self, pfn: int) -> Frame:
        return self.frames[pfn]

    def used_frames(self):
        """Iterate frames not currently on the free list (O(n))."""
        free = self._free_set
        return (f for f in self.frames if f.pfn not in free)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MemoryNode {self.name} {self.nr_free}/{self.nr_pages} free "
            f"wm={self.wmark_min}/{self.wmark_low}/{self.wmark_high}>"
        )
