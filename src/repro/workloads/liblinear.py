"""Liblinear-style L1-regularised logistic regression (Figures 13 and 16).

Training makes epoch-wise passes over the example matrix while the model
weights (and a small working buffer) are touched on every example. The
tiering-relevant shape:

* **model pages** -- small, extremely hot, read+written constantly;
* **data pages** -- large, scanned sequentially each epoch (warm, with
  strong recency);

The paper demotes all pages before the run. Policies that promptly
promote the model (and keep the scan from evicting it) win 20-150% over
no-migration and Memtis (Figure 13). With a much larger model/RSS,
TPP's synchronous migration collapses while Nomad keeps its advantage
(Figure 16).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..sim.platform import gb_to_pages
from .base import Workload

__all__ = ["LiblinearWorkload"]


class LiblinearWorkload(Workload):
    """Epoch scans over data with hot model accesses."""

    name = "liblinear"

    def __init__(
        self,
        rss_gb: float = 10.0,
        model_fraction: float = 0.08,
        model_touches_per_data_page: int = 6,
        model_write_ratio: float = 0.5,
        model_window_pages: int = 48,
        demote_all: bool = True,
        total_accesses: int = 200_000,
        chunk_size=None,
        seed: int = 31,
    ) -> None:
        super().__init__(total_accesses, chunk_size, seed)
        total_pages = gb_to_pages(rss_gb)
        self.model_pages = max(1, int(total_pages * model_fraction))
        self.data_pages = max(1, total_pages - self.model_pages)
        self.model_touches = model_touches_per_data_page
        self.model_write_ratio = model_write_ratio
        # Coordinate-descent style training updates cluster on the active
        # feature block: model reads/writes land in a drifting window,
        # not uniformly. This write burstiness is what makes promotions
        # of model pages race with stores (Table 4's low success rate).
        self.model_window_pages = min(model_window_pages, self.model_pages)
        self.demote_all = demote_all
        self._model_start = 0
        self._data_start = 0
        self._cursor = 0
        self._model_cursor = 0
        self.epochs_completed = 0

    # ------------------------------------------------------------------
    def setup(self) -> None:
        model = self.space.mmap(self.model_pages, name="model")
        data = self.space.mmap(self.data_pages, name="data")
        self._model_start = model.start
        self._data_start = data.start
        self._place_fast_first(
            np.concatenate([np.asarray(model.vpns()), np.asarray(data.vpns())])
        )
        if self.demote_all:
            self.machine.demote_all(self.space)

    # ------------------------------------------------------------------
    def generate(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        group = 1 + self.model_touches  # data page read + model touches
        n_groups = max(1, n // group)
        vpns = np.empty(n_groups * group, dtype=np.int64)
        writes = np.zeros(n_groups * group, dtype=bool)
        data_idx = (self._cursor + np.arange(n_groups)) % self.data_pages
        wrapped = self._cursor + n_groups
        self.epochs_completed += wrapped // self.data_pages
        self._cursor = wrapped % self.data_pages

        vpns[0::group] = self._data_start + data_idx
        window = self.model_window_pages
        for k in range(self.model_touches):
            offset = self.rng.integers(0, window, n_groups)
            model_idx = (self._model_cursor + offset) % self.model_pages
            vpns[k + 1 :: group] = self._model_start + model_idx
            writes[k + 1 :: group] = self.rng.random(n_groups) < self.model_write_ratio
        # The active feature block drifts slowly across the model.
        self._model_cursor = (self._model_cursor + max(1, window // 16)) % (
            self.model_pages
        )
        return vpns, writes
