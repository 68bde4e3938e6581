"""Workload framework.

A workload owns an address space, lays out its data across the tiers
(the paper's "initial placement" step), and yields its access trace in
chunks of (vpn array, write mask). Everything is seeded and
deterministic.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Iterator, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..mmu.address_space import AddressSpace
    from ..system import Machine

__all__ = ["ChunkStream", "Workload", "ZipfGenerator"]


class ChunkStream:
    """Bounded-lookahead view over a chunk iterator.

    The two-speed fast path (:mod:`repro.sim.fastpath`) validates
    several upcoming chunks in one vectorized pass, so it needs to see
    ahead of the chunk it is about to execute. Peeking buffers whole
    chunks: the underlying ``generate(n)`` call sequence (and with it
    every seeded workload's RNG draw pattern) is exactly what a plain
    ``for chunk in workload.chunks()`` loop would produce -- lookahead
    only shifts *when* a chunk is generated, never the argument
    sequence, which is what keeps buffered streaming bit-identical.
    """

    def __init__(self, it: Iterator[Tuple[np.ndarray, np.ndarray]]) -> None:
        self._it = it
        self._buf: deque = deque()
        self._done = False

    def peek(self, k: int) -> List[Tuple[np.ndarray, np.ndarray]]:
        """The next up-to-``k`` chunks, without consuming them."""
        while not self._done and len(self._buf) < k:
            try:
                self._buf.append(next(self._it))
            except StopIteration:
                self._done = True
        if len(self._buf) <= k:
            return list(self._buf)
        return list(islice(self._buf, k))

    def popleft(self) -> Tuple[np.ndarray, np.ndarray]:
        """Consume the oldest peeked chunk."""
        return self._buf.popleft()


class ZipfGenerator:
    """Zipfian rank sampler (the paper's micro-benchmark distribution).

    Rank 0 is the hottest item. Uses an exact inverse-CDF table, fine
    for the tens of thousands of items the simulation scale needs.
    """

    def __init__(self, n: int, theta: float = 0.99, seed: int = 0) -> None:
        if n <= 0:
            raise ValueError(f"need at least one item, got {n}")
        if theta < 0:
            raise ValueError(f"theta must be non-negative, got {theta}")
        self.n = n
        self.theta = theta
        weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), theta)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        self._rng = np.random.default_rng(seed)

    def sample(self, size: int) -> np.ndarray:
        """Draw ``size`` ranks in [0, n)."""
        u = self._rng.random(size)
        return np.searchsorted(self._cdf, u, side="left").astype(np.int64)

    def probability(self, rank: int) -> float:
        """Access probability of a rank (for analysis/tests)."""
        lo = self._cdf[rank - 1] if rank > 0 else 0.0
        return float(self._cdf[rank] - lo)


class Workload:
    """Base class for all workloads."""

    name = "workload"

    # Cycles of CPU work per access, overlapping nothing: models the
    # compute intensity of the application (0 = purely memory bound).
    # Compute-heavy workloads (PageRank) hide memory latency, which is
    # why the paper finds migration irrelevant for them (Figure 12).
    compute_cycles_per_access: float = 0.0

    def __init__(
        self,
        total_accesses: int = 200_000,
        chunk_size: Optional[int] = None,
        seed: int = 0,
        thp: bool = False,
    ) -> None:
        if total_accesses <= 0:
            raise ValueError("total_accesses must be positive")
        self.total_accesses = total_accesses
        self.chunk_size = chunk_size
        self.seed = seed
        # madvise(MADV_HUGEPAGE)-style hint: regions mmapped with
        # ``thp=self.thp`` become eligible for huge-folio backing when the
        # machine has THP enabled. Off by default so every existing
        # workload keeps its base-page behaviour.
        self.thp = thp
        self.rng = np.random.default_rng(seed)
        self.machine: Optional["Machine"] = None
        self.space: Optional["AddressSpace"] = None
        self.finished = False
        # Execution-time progress counters, bumped by the run scheduler
        # as each chunk's window commits (fast path and slow path alike).
        # Per-tenant observability reads these at window boundaries to
        # attribute throughput without touching machine-global state.
        self.executed_accesses = 0
        self.executed_writes = 0

    # ------------------------------------------------------------------
    def bind(self, machine: "Machine") -> None:
        """Attach to a machine and lay out memory. Idempotent."""
        if self.machine is machine:
            return
        if self.machine is not None:
            raise RuntimeError(f"{self.name} already bound to another machine")
        self.machine = machine
        if self.chunk_size is None:
            self.chunk_size = machine.config.chunk_size
        self.space = machine.create_space(self.name)
        self.setup()

    def setup(self) -> None:
        """Lay out data (allocate/populate VMAs). Override."""
        raise NotImplementedError

    def generate(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """Produce the next ``n`` accesses: (vpns, writes). Override."""
        raise NotImplementedError

    def chunks(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        remaining = self.total_accesses
        while remaining > 0:
            n = min(self.chunk_size, remaining)
            vpns, writes = self.generate(n)
            if len(vpns) == 0:
                break
            yield vpns, writes
            remaining -= len(vpns)

    def stream(self) -> ChunkStream:
        """The chunk iterator wrapped for bounded lookahead (fast path)."""
        return ChunkStream(self.chunks())

    def on_finish(self) -> None:
        self.finished = True

    # ------------------------------------------------------------------
    # Layout helpers
    # ------------------------------------------------------------------
    def _populate(self, vpns, tier: int, writable: bool = True) -> int:
        return self.machine.populate(self.space, vpns, tier, writable)

    def _place_fast_first(self, vpns, n_fast: Optional[int] = None) -> None:
        """The paper's initial placement: fast tier first, then slow.

        Populates the first ``n_fast`` vpns on tier 0 and the rest on
        tier 1. ``n_fast`` defaults to tier 0's free frames at the call.
        """
        if n_fast is None:
            n_fast = self.machine.tiers.fast.nr_free
        self._populate(vpns[:n_fast], 0)
        self._populate(vpns[n_fast:], 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} accesses={self.total_accesses}>"
