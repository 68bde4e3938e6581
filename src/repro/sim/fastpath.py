"""Two-speed access execution: vectorized multi-chunk commits, slow path
for everything else.

The overwhelming majority of accesses in a tiering workload are plain
TLB/PTE hits that change no tiering state; only faults, hint faults,
shootdowns, and daemon passes interact with the rest of the machine.
:class:`FastPathExecutor` exploits that in one step: it peeks up to
``WINDOW_MAX`` upcoming chunks of the workload's stream and validates
them against the page table in one vectorized pass. When at least two
leading, equal-length chunks are clean and end before the next queued
event, it commits them all at once, moving the clock with one
:meth:`repro.sim.engine.Engine.try_advance` instead of a heap
round-trip per chunk. Every other chunk runs through
:meth:`repro.mmu.access.AccessEngine.run_chunk`, the slow path, which
is the bit-exact reference, and yields its cycles; the engine resumes
that yield inline under the same event-horizon rule.

Bit-exactness contract (the bench-regression gate enforces it):

* every per-chunk quantity (timestamps, cycle sums, histograms, window
  samples, CPU accounting) is computed with the same floating-point
  operations in the same order as the slow path would, chunk by chunk,
  and the page-table commit is the slow path's own
  (:meth:`~repro.mmu.access.AccessEngine.commit_run`);
* validation and commit run inside one process step, so no event can
  change the page table between them;
* a batch ends strictly before the next queued event, so daemons wake
  at exactly the cycle they would have under the slow path.

The window adapts: it starts at two chunks, doubles after every
committed batch (up to ``WINDOW_MAX``) and drops back to two whenever a
validation commits nothing. The chunk after a faulting one goes
straight to the slow path, so fault-dense phases pay for no lookahead.
"""

from __future__ import annotations

from typing import Iterator, TYPE_CHECKING

import numpy as np

from ..mmu.pte import PTE_PRESENT, PTE_PROT_NONE, PTE_WRITE
from .bus import ChunkExecuted
from .scheduler import record_chunk
from .stats import NR_LATENCY_BINS, WindowSample

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.cpu import Cpu
    from ..workloads.base import Workload

__all__ = ["FastPathExecutor"]

# Most chunks one validation peeks at.
WINDOW_MAX = 32

_PRESENT_OR_PROT_NONE = np.uint32(PTE_PRESENT | PTE_PROT_NONE)
_PRESENT = np.uint32(PTE_PRESENT)
_WRITE = np.uint32(PTE_WRITE)


class FastPathExecutor:
    """Drives one application thread's chunk stream at two speeds."""

    def __init__(self, machine) -> None:
        self.machine = machine
        # Perf telemetry (not part of any simulated quantity): chunks
        # committed in vector batches, the batches, chunks run through
        # AccessEngine.run_chunk, and validations that committed nothing.
        self.fast_chunks = 0
        self.vector_batches = 0
        self.slow_chunks = 0
        self.revalidations = 0

    # ------------------------------------------------------------------
    def run_stream(
        self, workload: "Workload", cpu: "Cpu", stream, sink
    ) -> Iterator[float]:
        """The two-speed application thread process.

        Drop-in replacement for ``RunScheduler._thread_proc`` when the
        thread exclusively owns ``stream`` (a
        :class:`~repro.workloads.base.ChunkStream`; sibling threads
        sharing one iterator would see lookahead reorder their
        chunk-to-thread assignment).
        """
        m = self.machine
        engine = m.engine
        space = workload.space
        run_chunk = m.access.run_chunk
        has_subscribers = m.bus.has_subscribers
        window = 2
        validate = True
        while True:
            # A ChunkExecuted subscriber observes the machine between
            # chunks, so it gets every chunk from the slow path.
            batch = validate and not has_subscribers(ChunkExecuted)
            chunks = stream.peek(window if batch else 1)
            if not chunks:
                return
            if batch:
                if self._commit_batch(workload, cpu, chunks, stream, sink):
                    window = min(window * 2, WINDOW_MAX)
                    continue
                self.revalidations += 1
                window = 2

            vpns, writes = stream.popleft()
            start = engine.now
            profiler = engine.profiler
            if profiler is None:
                result = run_chunk(space, cpu, vpns, writes)
            else:
                # Host-clock detail bucket: how much of the app's wall
                # time goes to chunks the batch commit did not take.
                with profiler.scope("app.slowpath"):
                    result = run_chunk(space, cpu, vpns, writes)
            cycles = record_chunk(m.stats, workload, cpu, start, result, sink)
            self.slow_chunks += 1
            # Faults come in bursts: validating the chunk after a
            # faulting one is mostly wasted work.
            validate = not result.faults
            # The engine resumes this yield inline when no event is due
            # at or before the chunk's end.
            yield cycles

    def _commit_batch(
        self, workload: "Workload", cpu: "Cpu", chunks, stream, sink
    ) -> int:
        """Commit the clean head of ``chunks`` in one vectorized pass.

        Commits the longest run of at least two leading, equal-length,
        clean chunks that ends before the next queued event, if the
        engine allows the inline advance; returns the number of chunks
        committed (0 when nothing was).
        """
        n0 = len(chunks[0][0])
        nc = 1
        while nc < len(chunks) and len(chunks[nc][0]) == n0:
            nc += 1
        if nc < 2:
            return 0
        m = self.machine
        access = m.access
        engine = m.engine
        space = workload.space
        pt = space.page_table
        vpns = np.concatenate([c[0] for c in chunks[:nc]])
        writes = np.concatenate([c[1] for c in chunks[:nc]])
        f = pt.flags[vpns]
        # bad = not-present | prot-none | (write & !writable), as the
        # slow path's scan tests it.
        bad = (f & _PRESENT_OR_PROT_NONE) != _PRESENT
        bad |= writes & ((f & _WRITE) == 0)
        k = int(bad.argmax())
        nclean = k // n0 if bad[k] else nc
        if nclean < 2:
            return 0
        vpns = vpns[: nclean * n0]
        writes = writes[: nclean * n0]
        # One code per access, 2 * tier + is_store, prices it through
        # AccessEngine's code tables: the slow path's latency and bin.
        code = m.tiers.tier_of_gpfn[pt.gpfn[vpns]].astype(np.intp) * 2 + writes
        lat = access.code_lat[code]
        # Row-wise pairwise sums over contiguous rows: bit-identical to
        # the slow path's per-chunk 1D sums.
        seg_sums = lat.reshape(nclean, n0).sum(axis=1).tolist()

        # Chain per-chunk wall times exactly as the slow path would --
        # scalar Python floats, only the first chunk carries an IPI
        # stall (no event runs inside the batch to add one) -- stopping
        # at the first chunk that would end at or past the next queued
        # event (try_advance yields on ties, so daemons still wake at
        # their exact cycle).
        compute = workload.compute_cycles_per_access
        head = engine.next_event_time()
        now = engine.now
        stall = cpu.pending_stall
        starts = []
        bases = []
        ends = []
        for seg in seg_sums:
            t0 = now + stall
            elapsed = t0 - now
            cycles = elapsed + seg
            if compute:
                cycles += compute * n0
            end = now + cycles
            if head is not None and end >= head:
                break
            starts.append(now)
            bases.append(t0 + elapsed)
            ends.append(end)
            now = end
            stall = 0.0
        j = len(ends)
        if j < 2 or not engine.try_advance(ends[-1]):
            return 0

        # The whole run commits at once. The collapsed array ops are
        # bit-identical to the per-chunk sequence: row-wise cumsum on
        # contiguous rows equals the per-chunk 1D cumsums, commit_run's
        # ORs and maximum.at are commutative and idempotent, and the
        # per-chunk histograms come from one offset bincount.
        cpu.drain_stall()
        for _ in range(j):
            stream.popleft()
        mj = j * n0
        vpns = vpns[:mj]
        writes = writes[:mj]
        lat2d = lat[:mj].reshape(j, n0)
        ts = (np.asarray(bases)[:, None] + np.cumsum(lat2d, axis=1)).reshape(-1)
        any_w = bool(writes.any())
        tlb_mask = m.tlb_directory.page_mask(space.asid, cpu.name, pt.nr_vpns)
        access.commit_run(
            pt, tlb_mask, vpns, writes if any_w else None, f[:mj], ts
        )
        bins = access.code_bin[code[:mj]].reshape(j, n0)
        bins += np.arange(j)[:, None] * NR_LATENCY_BINS
        hist2d = np.bincount(
            bins.reshape(-1), minlength=j * NR_LATENCY_BINS
        ).reshape(j, NR_LATENCY_BINS)
        if any_w:
            # Whole-cycle latencies add exactly, so the masked row sums
            # equal the slow path's sums over the stores alone.
            w2d = writes.reshape(j, n0)
            nw_rows = w2d.sum(axis=1).tolist()
            wc_rows = lat2d.sum(axis=1, where=w2d).tolist()
        else:
            nw_rows, wc_rows = [0] * j, [0.0] * j
        stats = m.stats
        # No event runs inside the batch, so the counters cannot move
        # between its windows: one mark serves them all.
        mark = stats.counter_mark()
        for c in range(j):
            seg = seg_sums[c]
            wc = wc_rows[c]
            nw = nw_rows[c]
            cpu.account("user", (seg - wc) + wc)
            if compute:
                cpu.account("compute", compute * n0)
            sample = WindowSample(
                start=starts[c],
                end=ends[c],
                reads=n0 - nw,
                writes=nw,
                read_cycles=seg - wc,
                write_cycles=wc,
                latency_hist=hist2d[c],
            )
            stats.record_window(sample, mark)
            sink(sample)
        self.fast_chunks += j
        self.vector_batches += 1
        return j
