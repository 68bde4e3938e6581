"""PageRank over a synthetic uniform-random graph (Figures 12 and 15).

The paper uses the GAP benchmark suite's PageRank on a uniform-random
graph of 2^26 vertices with average degree 20 (RSS 22 GB). At simulation
scale we build the same *shape*: an edge array in CSR-like layout
(sequentially scanned every iteration), a source-rank array (random
gathers -- uniform, because the graph is uniform-random), and a
destination-rank array (sequential writes).

Per iteration and per edge page scanned, the access pattern is:

* 1 sequential read of the edge page,
* ``gathers_per_edge_page`` uniform random reads into the rank array,
* periodic sequential writes to the next-rank array.

The RSS is dominated by edges, matching the paper's geometry. PageRank
has essentially no hot subset -- every page is touched every iteration
-- which is why migration does not help (Figure 12) until the WSS
dwarfs fast memory (Figure 15, where Nomad's cheap migrations win).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..sim.platform import gb_to_pages
from .base import Workload

__all__ = ["PageRankWorkload"]


class PageRankWorkload(Workload):
    """Iterative PageRank access pattern."""

    name = "pagerank"

    # Rank arithmetic per edge: PageRank is compute- as well as
    # memory-intensive, so memory placement matters less (Figure 12).
    compute_cycles_per_access = 1000.0

    def __init__(
        self,
        rss_gb: float = 22.0,
        rank_fraction: float = 0.05,
        gathers_per_edge_page: int = 4,
        demote_all: bool = False,
        total_accesses: int = 200_000,
        chunk_size=None,
        seed: int = 23,
    ) -> None:
        super().__init__(total_accesses, chunk_size, seed)
        total_pages = gb_to_pages(rss_gb)
        self.rank_pages = max(1, int(total_pages * rank_fraction) // 2)
        self.edge_pages = max(1, total_pages - 2 * self.rank_pages)
        self.gathers_per_edge_page = gathers_per_edge_page
        self.demote_all = demote_all
        self._edge_start = 0
        self._rank_start = 0
        self._next_rank_start = 0
        self._cursor = 0
        self.iterations_completed = 0

    # ------------------------------------------------------------------
    def setup(self) -> None:
        edges = self.space.mmap(self.edge_pages, name="edges")
        ranks = self.space.mmap(self.rank_pages, name="ranks")
        next_ranks = self.space.mmap(self.rank_pages, name="next-ranks")
        self._edge_start = edges.start
        self._rank_start = ranks.start
        self._next_rank_start = next_ranks.start
        self._place_fast_first(
            np.concatenate(
                [
                    np.asarray(ranks.vpns()),
                    np.asarray(next_ranks.vpns()),
                    np.asarray(edges.vpns()),
                ]
            )
        )
        if self.demote_all:
            self.machine.demote_all(self.space)

    # ------------------------------------------------------------------
    def generate(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        group = 2 + self.gathers_per_edge_page  # edge read + gathers + write
        n_groups = max(1, n // group)
        vpns = np.empty(n_groups * group, dtype=np.int64)
        writes = np.zeros(n_groups * group, dtype=bool)
        edge_idx = (self._cursor + np.arange(n_groups)) % self.edge_pages
        wrapped = self._cursor + n_groups
        self.iterations_completed += wrapped // self.edge_pages
        self._cursor = wrapped % self.edge_pages
        for g in range(n_groups):
            base = g * group
            vpns[base] = self._edge_start + edge_idx[g]
            gathers = self.rng.integers(0, self.rank_pages, self.gathers_per_edge_page)
            vpns[base + 1 : base + 1 + self.gathers_per_edge_page] = (
                self._rank_start + gathers
            )
            # Sequential write to the next-rank array, proportional to
            # scan progress through the edge list.
            rank_page = (edge_idx[g] * self.rank_pages) // self.edge_pages
            vpns[base + group - 1] = self._next_rank_start + rank_page
            writes[base + group - 1] = True
        return vpns, writes
