"""Sequential scan over a fixed RSS (Table 3's robustness probe).

"We measured the total memory usage and the size of shadow memory using
a micro-benchmark that sequentially scans a predefined RSS area." Used
to show that Nomad reclaims shadow pages as the RSS approaches the
machine's total tiered capacity.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..sim.platform import gb_to_pages
from .base import Workload

__all__ = ["SeqScanWorkload"]


class SeqScanWorkload(Workload):
    """Repeated sequential scan over ``rss_gb`` of memory."""

    name = "seqscan"

    def __init__(
        self,
        rss_gb: float = 23.0,
        write_ratio: float = 0.0,
        stride_pages: int = 1,
        total_accesses: int = 200_000,
        chunk_size=None,
        seed: int = 37,
        thp: bool = False,
    ) -> None:
        super().__init__(total_accesses, chunk_size, seed, thp=thp)
        self.rss_pages = gb_to_pages(rss_gb)
        self.write_ratio = write_ratio
        self.stride_pages = max(1, stride_pages)
        self._start = 0
        self._cursor = 0
        self.scans_completed = 0

    def setup(self) -> None:
        vma = self.space.mmap(self.rss_pages, name="scan-area", thp=self.thp)
        self._start = vma.start
        self._place_fast_first(np.asarray(vma.vpns()))

    def generate(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        idx = (self._cursor + np.arange(n) * self.stride_pages) % self.rss_pages
        wrapped = self._cursor + n * self.stride_pages
        self.scans_completed += wrapped // self.rss_pages
        self._cursor = wrapped % self.rss_pages
        vpns = self._start + idx
        if self.write_ratio <= 0.0:
            writes = np.zeros(n, dtype=bool)
        else:
            writes = self.rng.random(n) < self.write_ratio
        return vpns, writes
