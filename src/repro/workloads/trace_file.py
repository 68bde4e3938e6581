"""Replayable access traces: record, save, load, and replay.

Lets users bring their own page-access traces (e.g. converted from a
real application's memory profile) and evaluate the tiering policies on
them, or capture a synthetic workload's trace once and replay it
bit-identically against several policies.

Two on-disk formats are supported:

* legacy v1: a single compressed ``.npz`` holding the vpn array, the
  write mask, the footprint page count, and the initial fast-tier
  fraction (:meth:`TraceWorkload.save` / :meth:`TraceWorkload.load`);
* v2: the sharded manifest directory format of
  :mod:`repro.workloads.trace_store` (``repro trace-gen`` output),
  replayed without materializing the trace in RAM by
  :class:`StreamingTraceWorkload`.

Both replay paths are fast-path compatible: chunks stream through
``ChunkStream`` exactly like every other workload.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from .base import Workload
from .trace_store import MANIFEST_NAME, TraceManifest

__all__ = ["TraceWorkload", "StreamingTraceWorkload", "record_trace"]

_FORMAT_VERSION = 1


class _TraceReplayBase(Workload):
    """Shared trace-replay mechanics: validation, layout, namespacing.

    ``vpn_base`` pads the address space so the trace VMA starts at that
    vpn: co-running tenants get globally disjoint vpn ranges, which is
    what lets per-tenant observability attribute tracepoints (which
    carry only a vpn) to the right tenant.
    """

    name = "trace-replay"

    def _init_trace(
        self,
        nr_pages: int,
        vpn_max: int,
        fast_fraction: float,
        vpn_base: int,
        name: Optional[str],
    ) -> None:
        if nr_pages <= vpn_max:
            raise ValueError(
                f"nr_pages must be at least the trace footprint "
                f"(max vpn {vpn_max} needs >= {vpn_max + 1}), got {nr_pages}"
            )
        if not 0.0 <= fast_fraction <= 1.0:
            raise ValueError(
                f"fast_fraction must be in [0, 1], got {fast_fraction}"
            )
        if vpn_base < 0:
            raise ValueError(f"vpn_base must be non-negative, got {vpn_base}")
        self.nr_pages = int(nr_pages)
        self.fast_fraction = float(fast_fraction)
        self.vpn_base = int(vpn_base)
        if name is not None:
            self.name = name
        self._start = 0

    def setup(self) -> None:
        if self.vpn_base:
            # Address spaces allocate VMAs sequentially from brk 0, so a
            # pad region shifts the trace VMA into this tenant's private
            # vpn namespace. The pad is never populated or accessed: it
            # costs no frames.
            self.space.mmap(self.vpn_base, name="pad")
        vma = self.space.mmap(self.nr_pages, name="trace")
        self._start = vma.start
        self._place_fast_first(
            np.asarray(list(vma.vpns())),
            int(self.nr_pages * self.fast_fraction),
        )


class TraceWorkload(_TraceReplayBase):
    """Replays a fixed in-memory (vpns, writes) trace.

    ``vpns`` are trace-relative page numbers in ``[0, nr_pages)``; the
    workload maps them into its own address space at bind time. The
    first ``fast_fraction`` of the footprint is initially placed on the
    fast tier (spilling if full), the rest on the slow tier.
    """

    def __init__(
        self,
        vpns: np.ndarray,
        writes: np.ndarray,
        nr_pages: Optional[int] = None,
        fast_fraction: float = 1.0,
        chunk_size=None,
        seed: int = 0,
        vpn_base: int = 0,
        name: Optional[str] = None,
    ) -> None:
        vpns = np.asarray(vpns, dtype=np.int64)
        writes = np.asarray(writes, dtype=bool)
        if len(vpns) == 0:
            raise ValueError("trace must contain at least one access")
        if len(vpns) != len(writes):
            raise ValueError("vpns and writes must have equal length")
        if vpns.min() < 0:
            raise ValueError("trace vpns must be non-negative")
        super().__init__(total_accesses=len(vpns), chunk_size=chunk_size, seed=seed)
        self.trace_vpns = vpns
        self.trace_writes = writes
        vpn_max = int(vpns.max())
        self._init_trace(
            int(nr_pages if nr_pages is not None else vpn_max + 1),
            vpn_max,
            fast_fraction,
            vpn_base,
            name,
        )
        self._pos = 0

    # ------------------------------------------------------------------
    def generate(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        chunk = slice(self._pos, self._pos + n)
        self._pos += n
        return (
            self._start + self.trace_vpns[chunk],
            self.trace_writes[chunk].copy(),
        )

    # ------------------------------------------------------------------
    # Persistence (legacy v1 single-file format)
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Write the trace as a compressed .npz file (legacy v1)."""
        np.savez_compressed(
            Path(path),
            version=np.int64(_FORMAT_VERSION),
            vpns=self.trace_vpns,
            writes=self.trace_writes,
            nr_pages=np.int64(self.nr_pages),
            fast_fraction=np.float64(self.fast_fraction),
        )

    @classmethod
    def load(cls, path: Union[str, Path], **kwargs) -> "TraceWorkload":
        """Load a legacy v1 ``.npz`` or a v2 manifest (dir/manifest.json).

        v2 traces are materialized in RAM; use
        :class:`StreamingTraceWorkload` to replay them shard by shard.
        """
        path = Path(path)
        if path.is_dir() or path.name == MANIFEST_NAME:
            manifest = TraceManifest.load(path)
            vpns, writes = manifest.load_arrays()
            kwargs.setdefault("fast_fraction", manifest.fast_fraction)
            kwargs.setdefault("name", manifest.name)
            return cls(
                vpns=vpns,
                writes=writes,
                nr_pages=manifest.nr_pages,
                **kwargs,
            )
        with np.load(path) as data:
            version = int(data["version"])
            if version != _FORMAT_VERSION:
                raise ValueError(
                    f"unsupported trace format version {version} "
                    f"(expected {_FORMAT_VERSION})"
                )
            return cls(
                vpns=data["vpns"],
                writes=data["writes"],
                nr_pages=int(data["nr_pages"]),
                fast_fraction=float(data["fast_fraction"]),
                **kwargs,
            )


class StreamingTraceWorkload(_TraceReplayBase):
    """Replays a v2 manifest trace shard by shard (bounded memory).

    Never holds more than one shard plus one chunk in RAM, so manifest
    traces can exceed the machine's memory. ``generate(n)`` re-chunks
    the shard stream to the engine's chunk size, preserving the exact
    access sequence -- replaying a manifest through this class or
    through a materialized :class:`TraceWorkload` is bit-identical.
    """

    name = "trace-stream"

    def __init__(
        self,
        manifest: Union[TraceManifest, str, Path],
        fast_fraction: Optional[float] = None,
        chunk_size=None,
        seed: int = 0,
        vpn_base: int = 0,
        name: Optional[str] = None,
        verify: bool = False,
    ) -> None:
        if not isinstance(manifest, TraceManifest):
            manifest = TraceManifest.load(manifest)
        if verify:
            manifest.verify()
        self.manifest = manifest
        super().__init__(
            total_accesses=manifest.accesses, chunk_size=chunk_size, seed=seed
        )
        self._init_trace(
            manifest.nr_pages,
            int(manifest.doc.get("vpn_max", manifest.nr_pages - 1)),
            manifest.fast_fraction if fast_fraction is None else fast_fraction,
            vpn_base,
            name if name is not None else manifest.name,
        )
        self._shards: Optional[Iterator[Tuple[np.ndarray, np.ndarray]]] = None
        self._buf_v: List[np.ndarray] = []
        self._buf_w: List[np.ndarray] = []
        self._buffered = 0

    def generate(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        if self._shards is None:
            self._shards = self.manifest.iter_shards()
        while self._buffered < n:
            try:
                vpns, writes = next(self._shards)
            except StopIteration:
                break
            self._buf_v.append(vpns)
            self._buf_w.append(writes)
            self._buffered += len(vpns)
        if not self._buffered:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
        take = min(n, self._buffered)
        out_v: List[np.ndarray] = []
        out_w: List[np.ndarray] = []
        got = 0
        while got < take:
            v, w = self._buf_v[0], self._buf_w[0]
            if len(v) <= take - got:
                out_v.append(v)
                out_w.append(w)
                self._buf_v.pop(0)
                self._buf_w.pop(0)
                got += len(v)
            else:
                need = take - got
                out_v.append(v[:need])
                out_w.append(w[:need])
                self._buf_v[0] = v[need:]
                self._buf_w[0] = w[need:]
                got = take
        self._buffered -= take
        vpns = np.concatenate(out_v) if len(out_v) > 1 else out_v[0]
        writes = np.concatenate(out_w) if len(out_w) > 1 else out_w[0]
        return self._start + vpns, writes.copy()


def record_trace(
    workload: Workload,
    machine,
    fast_fraction: float = 1.0,
) -> TraceWorkload:
    """Capture another workload's access stream into a TraceWorkload.

    Binds ``workload`` to ``machine`` (for layout) and drains its chunk
    generator *without executing any accesses*; the result replays the
    identical stream. The captured vpns are rebased to be trace-relative.
    """
    workload.bind(machine)
    parts_v = []
    parts_w = []
    for vpns, writes in workload.chunks():
        parts_v.append(np.asarray(vpns, dtype=np.int64))
        parts_w.append(np.asarray(writes, dtype=bool))
    vpns = np.concatenate(parts_v)
    writes = np.concatenate(parts_w)
    base = int(vpns.min())
    footprint = int(vpns.max()) - base + 1
    return TraceWorkload(
        vpns=vpns - base,
        writes=writes,
        nr_pages=footprint,
        fast_fraction=fast_fraction,
    )
