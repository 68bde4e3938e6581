"""Reusable geometric-bin histograms.

Generalizes the per-access latency histogram that used to live inline in
:mod:`repro.sim.stats`: one :class:`Histogram` type with geometric bucket
edges, vectorized observation, merging, and bucket-edge percentile
estimation. The observability layer keeps one per instrumented duration
(TPM copy time, MPQ queue wait, fault service latency) and the stats
sink reuses the same binning for access latencies.

Bucket semantics (shared by every user):

* ``edges`` is a sorted array of ``N`` bucket boundaries producing
  ``N + 1`` buckets;
* bucket ``0`` holds values below ``edges[0]``; bucket ``i`` (for
  ``1 <= i < N``) holds values in ``[edges[i-1], edges[i])``; the final
  bucket holds everything at or above ``edges[-1]``;
* percentiles report the *upper edge* of the containing bucket for every
  bucket; the open-ended overflow bucket clamps to ``edges[-1]``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Optional, Sequence, Union

import numpy as np

__all__ = ["Histogram", "bucket_values", "percentile_from_counts"]


def bucket_values(edges: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Bucket ``values`` into ``len(edges) + 1`` counts."""
    idx = np.searchsorted(edges, values, side="right")
    return np.bincount(idx, minlength=len(edges) + 1)


def percentile_from_counts(
    counts: np.ndarray, edges: np.ndarray, percentile: float
) -> float:
    """Approximate a percentile (0-100) from bucketed counts.

    Returns the upper edge of the containing bucket, for every bucket
    (the overflow bucket has no upper edge and clamps to ``edges[-1]``).
    Empty histograms report 0.0.
    """
    total = int(counts.sum())
    if total == 0:
        return 0.0
    target = total * percentile / 100.0
    cumulative = np.cumsum(counts)
    bucket = int(np.searchsorted(cumulative, target, side="left"))
    return float(edges[min(bucket, len(edges) - 1)])


class Histogram:
    """A fixed-bucket histogram with running count and sum.

    The running sum makes the exact mean available alongside the
    bucket-approximated percentiles (Prometheus's ``_sum``/``_count``
    convention).
    """

    __slots__ = ("name", "edges", "counts", "total", "sum", "_edges_list")

    def __init__(
        self,
        edges: Union[np.ndarray, Sequence[float]],
        name: str = "",
        counts: Optional[np.ndarray] = None,
    ) -> None:
        self.name = name
        self.edges = np.asarray(edges, dtype=np.float64)
        if len(self.edges) < 1:
            raise ValueError("need at least one bucket edge")
        if np.any(np.diff(self.edges) <= 0):
            raise ValueError("bucket edges must be strictly increasing")
        if counts is None:
            counts = np.zeros(len(self.edges) + 1, dtype=np.int64)
        elif len(counts) != len(self.edges) + 1:
            raise ValueError(
                f"need {len(self.edges) + 1} counts, got {len(counts)}"
            )
        self.counts = np.asarray(counts, dtype=np.int64)
        self.total = int(self.counts.sum())
        self.sum = 0.0
        # Python-float copy of the edges: scalar observation bins via
        # bisect (same comparisons as searchsorted side="right", without
        # the per-call ufunc dispatch).
        self._edges_list = self.edges.tolist()

    @classmethod
    def geometric(
        cls, lo: float, hi: float, nr_edges: int, name: str = ""
    ) -> "Histogram":
        """Geometrically spaced edges from ``lo`` to ``hi`` inclusive."""
        return cls(np.geomspace(lo, hi, num=nr_edges), name=name)

    # ------------------------------------------------------------------
    def observe(self, value: float, n: int = 1) -> None:
        idx = bisect_right(self._edges_list, value)
        self.counts[idx] += n
        self.total += n
        self.sum += value * n

    def merge(self, other: "Histogram") -> "Histogram":
        if not np.array_equal(self.edges, other.edges):
            raise ValueError("cannot merge histograms with different edges")
        self.counts += other.counts
        self.total += other.total
        self.sum += other.sum
        return self

    # ------------------------------------------------------------------
    def percentile(self, p: float) -> float:
        return percentile_from_counts(self.counts, self.edges, p)

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def __len__(self) -> int:
        return self.total

    def __bool__(self) -> bool:
        return True

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.total),
            "sum": self.sum,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Histogram {self.name!r} n={self.total} "
            f"p50={self.percentile(50.0):.0f}>"
        )
