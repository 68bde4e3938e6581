"""Nomad's two-queue promotion pipeline (Figure 4).

* **Promotion candidate queue (PCQ)** -- pages that have been observed by
  a hint fault but are not (yet) deemed hot. On every hint fault the
  faulting page joins the PCQ and a bounded scan moves pages whose
  temperature bits are set (referenced + accessed) to the MPQ. The PCQ
  bypasses the LRU pagevec pathway, which is what reduces TPP's up-to-15
  faults per promotion to one.
* **Migration pending queue (MPQ)** -- hot pages awaiting asynchronous,
  transactional migration by ``kpromote``. Aborted transactions re-enter
  the MPQ with an attempt counter until ``max_attempts``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, TYPE_CHECKING

from ..mem.frame import Frame

if TYPE_CHECKING:  # pragma: no cover
    from ..debug import DebugManager
    from ..mmu.address_space import AddressSpace
    from ..obs.tracepoints import ObsManager

__all__ = ["PromotionCandidateQueue", "MigrationPendingQueue", "MigrationRequest"]


@dataclass
class MigrationRequest:
    """One page queued for transactional promotion."""

    frame: Frame
    space: "AddressSpace"
    vpn: int
    generation: int  # frame generation at enqueue (stale requests skipped)
    attempts: int = 0
    # Simulation time when the request entered the PCQ; promotion
    # requires evidence of a touch after this (the fault that enqueued
    # the page does not count as reuse).
    enqueue_ts: float = 0.0
    # Simulation time of the most recent MPQ entry (observability only:
    # feeds the queue-wait histogram; never read by promotion logic).
    mpq_ts: float = 0.0


class PromotionCandidateQueue:
    """Bounded FIFO of candidate frames with O(1) membership."""

    def __init__(
        self,
        capacity: int = 4096,
        obs: Optional["ObsManager"] = None,
        debug: Optional["DebugManager"] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("PCQ capacity must be positive")
        self.capacity = capacity
        self.obs = obs
        self.debug = debug
        self._queue: Deque[MigrationRequest] = deque()
        self._members: Dict[int, MigrationRequest] = {}

    def __len__(self) -> int:
        return len(self._queue)

    def __contains__(self, frame: Frame) -> bool:
        return id(frame) in self._members

    def push(self, request: MigrationRequest) -> Optional[MigrationRequest]:
        """Add a candidate; returns an evicted request if at capacity."""
        if id(request.frame) in self._members:
            return None
        evicted = None
        while len(self._queue) >= self.capacity:
            evicted = self._queue.popleft()
            self._members.pop(id(evicted.frame), None)
            if self.obs is not None:
                self.obs.emit(
                    "pcq.evict", vpn=evicted.vpn, depth=len(self._queue)
                )
        self._queue.append(request)
        self._members[id(request.frame)] = request
        return evicted

    def scan_hot(self, is_hot, limit: int = 16):
        """Pop up to ``limit`` requests satisfying ``is_hot(request)``.

        Scans from the oldest end, requeueing cold entries, so the scan
        cost per fault stays bounded (the paper's check is O(1)-ish per
        fault, piggybacked on queue maintenance). A cold entry moves to
        the tail and stays a member; stale and hot ones leave.
        """
        hot = []
        queue = self._queue
        members = self._members
        for _ in range(min(limit, len(queue))):
            request = queue.popleft()
            frame = request.frame
            if not frame.rmap or frame.generation != request.generation:
                del members[id(frame)]
                continue  # stale: freed or reallocated since enqueue
            if is_hot(request):
                del members[id(frame)]
                hot.append(request)
            else:
                queue.append(request)
        return hot


class MigrationPendingQueue:
    """FIFO of hot pages awaiting transactional migration."""

    def __init__(
        self,
        capacity: int = 4096,
        max_attempts: int = 4,
        obs: Optional["ObsManager"] = None,
        debug: Optional["DebugManager"] = None,
    ) -> None:
        self.capacity = capacity
        self.max_attempts = max_attempts
        self.obs = obs
        self.debug = debug
        self._queue: Deque[MigrationRequest] = deque()
        self._members: Dict[int, MigrationRequest] = {}
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._queue)

    def __contains__(self, frame: Frame) -> bool:
        return id(frame) in self._members

    def push(self, request: MigrationRequest) -> bool:
        """Enqueue; False if the queue is full or the frame already queued."""
        if id(request.frame) in self._members:
            return False
        if len(self._queue) >= self.capacity or (
            # Injection: behave as if at capacity (mpq.full).
            self.debug is not None
            and self.debug.should_fail("mpq.full")
        ):
            self.dropped += 1
            if self.obs is not None:
                self.obs.emit(
                    "mpq.drop",
                    vpn=request.vpn,
                    reason="full",
                    depth=len(self._queue),
                )
            return False
        self._queue.append(request)
        self._members[id(request.frame)] = request
        if self.obs is not None:
            request.mpq_ts = self.obs.now
            self.obs.emit(
                "mpq.enqueue", vpn=request.vpn, depth=len(self._queue)
            )
        return True

    def pop(self) -> Optional[MigrationRequest]:
        if self._queue:
            request = self._queue.popleft()
            del self._members[id(request.frame)]
            if self.obs is not None:
                # Queue residency ends here; the wait is the same
                # quantity kpromote feeds the mpq.wait_cycles histogram.
                self.obs.emit(
                    "mpq.dequeue",
                    vpn=request.vpn,
                    wait_cycles=self.obs.now - request.mpq_ts,
                    depth=len(self._queue),
                )
            return request
        return None

    def retry(self, request: MigrationRequest) -> bool:
        """Requeue an aborted transaction for a later attempt."""
        request.attempts += 1
        if request.attempts >= self.max_attempts or (
            # Injection: drop as if the attempt budget were spent.
            self.debug is not None
            and self.debug.should_fail("mpq.retry_exhausted")
        ):
            self.dropped += 1
            if self.obs is not None:
                self.obs.emit(
                    "mpq.drop",
                    vpn=request.vpn,
                    reason="max_attempts",
                    depth=len(self._queue),
                )
            return False
        if self.obs is not None:
            self.obs.emit(
                "mpq.retry", vpn=request.vpn, attempts=request.attempts
            )
        return self.push(request)
