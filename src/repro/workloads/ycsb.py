"""YCSB-style workload over the Redis-like KV store (Figures 11 and 14).

Workload A: update-heavy, 50/50 reads and updates, Zipfian request keys
with YCSB's scrambled-Zipfian key spreading (hot keys are spread across
the keyspace rather than clustered at low ids). Each operation touches
the index page (read) and the record's value page (read or write).

Paper cases (Section 4.2), at simulation scale:

* case 1: RSS 13 GB, all pages demoted to the slow tier before the run;
* case 2: RSS 24 GB, demote-all;
* case 3: RSS 24 GB, no demotion (pages stay where loading put them);
* large:  RSS 36.5 GB on platforms C/D, ``thrashing`` (demote-all) vs
  ``normal`` initial placement.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .base import Workload, ZipfGenerator
from .kvstore import KvStoreLayout

__all__ = ["YcsbWorkload", "YCSB_CASES"]

# (rss_gb, demote_all) per paper case.
YCSB_CASES = {
    "case1": (13.0, True),
    "case2": (24.0, True),
    "case3": (24.0, False),
    "large-thrashing": (36.5, True),
    "large-normal": (36.5, False),
}


class YcsbWorkload(Workload):
    """YCSB workload A over the KV store."""

    name = "ycsb"

    # Request parsing, hashing, syscalls, response marshalling: a Redis
    # GET/SET spends on the order of a microsecond of CPU around its
    # couple of memory references, which dilutes raw access-latency
    # differences (and is why migration rarely pays off here).
    compute_cycles_per_access = 1200.0

    def __init__(
        self,
        rss_gb: float = 13.0,
        demote_all: bool = False,
        read_ratio: float = 0.5,
        # YCSB's zipfian(0.99) over millions of keys is nearly uniform at
        # *page* granularity ("the memory accesses generated by the YCSB
        # workload were mostly random", Section 4.2). At simulation scale
        # the key count is small, so we lower theta to preserve the
        # page-level skew profile rather than the key-level constant.
        theta: float = 0.6,
        total_accesses: int = 200_000,
        chunk_size=None,
        seed: int = 17,
    ) -> None:
        super().__init__(total_accesses, chunk_size, seed)
        if not 0.0 <= read_ratio <= 1.0:
            raise ValueError("read_ratio must be in [0,1]")
        self.rss_gb = rss_gb
        self.demote_all = demote_all
        self.read_ratio = read_ratio
        self.theta = theta
        self.layout = KvStoreLayout.for_rss_gb(rss_gb)
        self._zipf = None
        self._key_perm = None
        self._index_start = 0
        self._value_start = 0

    @classmethod
    def case(cls, which: str, **kwargs) -> "YcsbWorkload":
        rss_gb, demote_all = YCSB_CASES[which]
        return cls(rss_gb=rss_gb, demote_all=demote_all, **kwargs)

    # ------------------------------------------------------------------
    def setup(self) -> None:
        index = self.space.mmap(self.layout.index_pages, name="kv-index")
        values = self.space.mmap(self.layout.value_pages, name="kv-values")
        self._index_start = index.start
        self._value_start = values.start
        # Loading phase fills fast memory first, spilling to slow.
        self._place_fast_first(
            np.concatenate([np.asarray(index.vpns()), np.asarray(values.vpns())])
        )
        if self.demote_all:
            self.machine.demote_all(self.space)
        # YCSB scrambled zipfian: hot ranks spread over the keyspace.
        self._key_perm = self.rng.permutation(self.layout.nr_records)
        self._zipf = ZipfGenerator(self.layout.nr_records, self.theta, self.seed + 1)

    # ------------------------------------------------------------------
    def generate(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        nops = max(1, n // 2)  # two accesses per operation
        ranks = self._zipf.sample(nops)
        keys = self._key_perm[ranks]
        index_vpns, value_vpns = self.layout.pages_for_keys(
            keys, self._index_start, self._value_start
        )
        is_update = self.rng.random(nops) >= self.read_ratio
        vpns = np.empty(nops * 2, dtype=np.int64)
        writes = np.zeros(nops * 2, dtype=bool)
        vpns[0::2] = index_vpns  # bucket lookup (read)
        vpns[1::2] = value_vpns  # record access
        writes[1::2] = is_update
        return vpns, writes

    # ------------------------------------------------------------------
    def throughput_ops(self, accesses: int, cycles: float, freq_ghz: float) -> float:
        """Operations per second for a phase (Figure 11's metric)."""
        if cycles <= 0:
            return 0.0
        ops = accesses / 2.0
        return ops / (cycles / (freq_ghz * 1e9))
