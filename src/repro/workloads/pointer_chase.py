"""Block pointer-chase benchmark (Figure 10).

"A pointer-chasing benchmark that repeatedly accesses multiple
fixed-sized (1 GB) memory blocks. Within each 1 GB block, the benchmark
randomly accesses all cache lines belonging to a block while accesses
across blocks follow a Zipfian distribution. The number of blocks
determines the WSS. Since the block size exceeds the LLC size, every
access generates an LLC miss that can be captured by Memtis."

This is the scenario engineered to be *favorable* to PEBS sampling --
and where Memtis still fails once the WSS exceeds the fast tier. The
figure's metric is average cache-line access latency.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..sim.platform import gb_to_pages
from .base import Workload, ZipfGenerator

__all__ = ["PointerChase"]


class PointerChase(Workload):
    """Intra-block uniform, inter-block Zipfian pointer chase."""

    name = "pointer-chase"

    def __init__(
        self,
        nr_blocks: int = 20,
        block_gb: float = 1.0,
        theta: float = 0.99,
        total_accesses: int = 200_000,
        chunk_size=None,
        seed: int = 11,
    ) -> None:
        super().__init__(total_accesses, chunk_size, seed)
        if nr_blocks <= 0:
            raise ValueError("need at least one block")
        self.theta = theta
        self.nr_blocks = nr_blocks
        self.block_pages = gb_to_pages(block_gb)
        self._zipf = None
        self._start = 0
        self._block_perm = None

    @property
    def wss_pages(self) -> int:
        return self.nr_blocks * self.block_pages

    # ------------------------------------------------------------------
    def setup(self) -> None:
        vma = self.space.mmap(self.wss_pages, name="blocks")
        self._start = vma.start
        # Blocks are placed in address order; hot blocks are scattered
        # (block hotness rank -> physical block via permutation).
        self._block_perm = self.rng.permutation(self.nr_blocks)
        self._zipf = ZipfGenerator(self.nr_blocks, self.theta, self.seed + 1)
        self._place_fast_first(vma.start + np.arange(self.wss_pages))

    def generate(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        block_ranks = self._zipf.sample(n)
        blocks = self._block_perm[block_ranks]
        offsets = self.rng.integers(0, self.block_pages, size=n)
        vpns = self._start + blocks * self.block_pages + offsets
        writes = np.zeros(n, dtype=bool)
        return vpns, writes
