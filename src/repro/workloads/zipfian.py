"""The paper's micro-benchmark (Section 4.1).

Layout, reproduced from the small/medium/large WSS descriptions:

* ``prefill_gb`` of cold resident data is placed at the start of the
  fast tier ("to emulate the existing memory usage from other
  applications" / the non-WSS half of the RSS);
* the WSS is then placed to fill the remaining fast-tier space, with the
  spill landing on the slow tier;
* accesses follow a Zipfian distribution over the WSS, with hot pages
  uniformly scattered ("the frequently accessed data was uniformly
  distributed along the WSS") unless ``placement='frequency-opt'``,
  which orders initial placement by descending hotness (Figure 1's
  Frequency-opt), or ``placement='random'`` (Figure 1's Random).

``write_ratio=0`` gives the read benchmark, ``1.0`` the write benchmark.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from ..sim.platform import gb_to_pages
from .base import Workload, ZipfGenerator

__all__ = ["ZipfianMicrobench", "SCENARIOS"]

# The three memory-pressure scenarios of Figure 6 / Section 4.1,
# (wss_gb, rss_gb).
SCENARIOS = {
    "small": (10.0, 20.0),
    "medium": (13.5, 27.0),
    "large": (27.0, 27.0),
}

# Chunks drawn per generate() call by ZipfianMicrobench.chunks(): the
# fast path's widest lookahead (repro.sim.fastpath.WINDOW_MAX).
GENERATE_CHUNKS = 32


class ZipfianMicrobench(Workload):
    """Configurable-WSS Zipfian read/write micro-benchmark."""

    name = "zipfian-microbench"

    def __init__(
        self,
        wss_gb: float = 10.0,
        rss_gb: float = 20.0,
        write_ratio: float = 0.0,
        theta: float = 0.99,
        placement: str = "layout",
        total_accesses: int = 200_000,
        chunk_size=None,
        seed: int = 42,
        thp: bool = False,
    ) -> None:
        super().__init__(total_accesses, chunk_size, seed, thp=thp)
        if not 0.0 <= write_ratio <= 1.0:
            raise ValueError(f"write_ratio must be in [0,1]: {write_ratio}")
        if rss_gb < wss_gb:
            raise ValueError("RSS cannot be smaller than WSS")
        if placement not in ("layout", "frequency-opt", "random"):
            raise ValueError(f"unknown placement {placement!r}")
        self.wss_gb = wss_gb
        self.rss_gb = rss_gb
        self.write_ratio = write_ratio
        self.theta = theta
        self.placement = placement
        self.wss_pages = gb_to_pages(wss_gb)
        self.prefill_pages = gb_to_pages(rss_gb - wss_gb)
        self._zipf = None
        self._perm = None
        self._wss_start = 0

    @classmethod
    def scenario(cls, which: str, **kwargs) -> "ZipfianMicrobench":
        """Build the paper's small/medium/large scenario."""
        wss_gb, rss_gb = SCENARIOS[which]
        return cls(wss_gb=wss_gb, rss_gb=rss_gb, **kwargs)

    # ------------------------------------------------------------------
    def setup(self) -> None:
        # Hotness permutation: rank r lives at WSS offset perm[r].
        self._perm = self.rng.permutation(self.wss_pages)
        self._zipf = ZipfGenerator(self.wss_pages, self.theta, self.seed + 1)

        if self.prefill_pages:
            prefill = self.space.mmap(
                self.prefill_pages, name="prefill", thp=self.thp
            )
            self._populate(prefill.vpns(), 0)
        wss = self.space.mmap(self.wss_pages, name="wss", thp=self.thp)
        self._wss_start = wss.start

        if self.placement == "frequency-opt":
            # Hottest pages first into fast memory.
            order = np.empty(self.wss_pages, dtype=np.int64)
            order[:] = self._perm  # rank order -> offsets
            vpn_order = wss.start + order
        elif self.placement == "random":
            vpn_order = wss.start + self.rng.permutation(self.wss_pages)
        else:  # "layout": virtual-address order, as in Section 4.1
            vpn_order = wss.start + np.arange(self.wss_pages)

        self._place_fast_first(vpn_order)

    # ------------------------------------------------------------------
    def chunks(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """The base class's chunk sequence, drawn 32 chunks per call.

        Both RNG streams (ranks, store mask) draw elementwise and in
        order, so one ``generate(32 * n)`` yields the same accesses as 32
        ``generate(n)`` calls, at a fraction of the per-call overhead.
        """
        step = self.chunk_size
        remaining = self.total_accesses
        while remaining > 0:
            vpns, writes = self.generate(min(GENERATE_CHUNKS * step, remaining))
            remaining -= len(vpns)
            for i in range(0, len(vpns), step):
                yield vpns[i : i + step], writes[i : i + step]

    def generate(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        ranks = self._zipf.sample(n)
        vpns = self._wss_start + self._perm[ranks]
        if self.write_ratio <= 0.0:
            writes = np.zeros(n, dtype=bool)
        elif self.write_ratio >= 1.0:
            writes = np.ones(n, dtype=bool)
        else:
            writes = self.rng.random(n) < self.write_ratio
        return vpns, writes

    # ------------------------------------------------------------------
    def hot_pages(self, top: int) -> np.ndarray:
        """The ``top`` hottest vpns (for assertions in tests/benches)."""
        return self._wss_start + self._perm[:top]
