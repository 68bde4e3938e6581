"""The memory-access execution path.

Applications present their access trace in chunks (numpy arrays of
virtual page numbers plus a write mask). The engine executes each chunk
against the page table:

* accesses through valid, sufficiently-permissive PTEs are executed
  as clean runs -- latency is priced per access by the tier of the
  backing frame, accessed/dirty bits are set, and every store is
  timestamped (the observation channel for TPM's dirty-during-copy
  race). A run of at most ``SCALAR_RUN_MAX`` accesses commits access by
  access in Python, a longer one vectorized; both give the same bits;
* the first access that needs the kernel (not-present, prot-none hint,
  or write-protect) ends the run, takes a simulated trap, and is
  dispatched to the fault handler, classified from the flags word the
  scan already gathered; the next scan starts at the retried access.

Interleaving note (documented in DESIGN.md): a chunk executes atomically
from the event engine's perspective, so background daemons observe page
state at chunk granularity. Chunks default to 256 accesses (~100k
cycles), far below daemon wakeup periods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

import numpy as np

from bisect import bisect_right

from ..sim.bus import ChunkExecuted
from ..sim.stats import _LATENCY_EDGES_LIST, NR_LATENCY_BINS, latency_histogram
from .faults import Fault, FaultType, UnhandledFault
from .pte import (
    PTE_ACCESSED,
    PTE_DIRTY,
    PTE_HUGE,
    PTE_PRESENT,
    PTE_PROT_NONE,
    PTE_WRITE,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.cpu import Cpu
    from .address_space import AddressSpace

__all__ = ["AccessEngine", "ChunkResult"]

_MAX_FAULT_RETRIES = 8

# Clean runs of at most this many accesses commit access by access with
# scalar page-table updates; longer runs take the vectorized commit. In
# fault-dense chunks most runs between two faults are a few accesses,
# and on arrays that small each of the vectorized commit's numpy calls
# costs more than a whole scalar access. Measured per run length, the
# scalar commit stops being cheaper between 24 and 28 accesses.
SCALAR_RUN_MAX = 24

# Hoisted uint32 constants: building np.uint32 per segment costs more
# than the bitwise op itself on short fault-split segments.
_PRESENT_OR_PROT_NONE = np.uint32(PTE_PRESENT | PTE_PROT_NONE)
_PRESENT = np.uint32(PTE_PRESENT)
_WRITE = np.uint32(PTE_WRITE)
_STORE_BITS = np.uint32(PTE_PRESENT | PTE_PROT_NONE | PTE_WRITE)
_PRESENT_WRITE = np.uint32(PTE_PRESENT | PTE_WRITE)
_HUGE = np.uint32(PTE_HUGE)
_ACCESSED = np.uint32(PTE_ACCESSED)
_DIRTY = np.uint32(PTE_DIRTY)
_ACCESSED_DIRTY = PTE_ACCESSED | PTE_DIRTY


@dataclass
class ChunkResult:
    cycles: float
    reads: int
    writes: int
    read_cycles: float
    write_cycles: float
    faults: int
    fault_cycles: float
    # Per-access latency histogram (repro.sim.stats.LATENCY_BIN_EDGES).
    # Every executed access is one sample at its tier latency, and every
    # fault is one more sample at its service cycles: a faulting access
    # contributes the fault, then its retry at tier latency, so the
    # histogram holds accesses + faults samples.
    latency_hist: Optional[np.ndarray] = None


class AccessEngine:
    """Executes access chunks against a machine's page tables."""

    def __init__(self, machine) -> None:
        self.machine = machine
        costs = machine.costs
        # Both commits sum latencies in different orders (the scalar one
        # sequentially, numpy pairwise); the sums only agree bit for bit
        # because whole-cycle values add exactly.
        for tier, node in enumerate(machine.tiers.nodes):
            for kind, lat in (
                ("read", costs.read_latency[tier]),
                ("write", costs.write_latency[tier]),
            ):
                if not float(lat).is_integer():
                    raise ValueError(
                        f"tier {node.name!r}: {kind} latency {lat} is not a "
                        f"whole number of cycles"
                    )
        # Per-tier latency vectors, hoisted out of run_chunk: the cost
        # model is frozen, so converting its tuples on every chunk was
        # pure overhead. Shared with the batched fast path.
        self.rlat = np.asarray(costs.read_latency)
        self.wlat = np.asarray(costs.write_latency)
        # Scalar twins for the per-access commit: latency and histogram
        # bin per tier.
        self._rlat_list = [float(x) for x in costs.read_latency]
        self._wlat_list = [float(x) for x in costs.write_latency]
        self._rbin_list = [
            bisect_right(_LATENCY_EDGES_LIST, x) for x in self._rlat_list
        ]
        self._wbin_list = [
            bisect_right(_LATENCY_EDGES_LIST, x) for x in self._wlat_list
        ]
        # The batched fast path prices an access by one intp code,
        # 2 * tier + is_store: its latency (in the dtype np.where gives)
        # and its histogram bin, one gather each.
        self.code_lat = np.stack((self.rlat, self.wlat), axis=1).ravel()
        self.code_bin = np.stack((self._rbin_list, self._wbin_list), axis=1).ravel()
        # A huge mapping's TLB entry is keyed by its folio head vpn.
        self._folio_pages = machine.folio_pages
        self._folio_mask = ~(machine.folio_pages - 1)

    # ------------------------------------------------------------------
    def run_chunk(
        self,
        space: "AddressSpace",
        cpu: "Cpu",
        vpns: np.ndarray,
        writes: np.ndarray,
    ) -> ChunkResult:
        """Execute one chunk starting at the engine's current time."""
        m = self.machine
        pt = space.page_table
        tier_of = m.tiers.tier_of_gpfn
        rlat = self.rlat
        wlat = self.wlat

        t0 = m.engine.now + cpu.drain_stall()
        elapsed = t0 - m.engine.now
        reads = 0
        nwrites = 0
        read_cycles = 0.0
        write_cycles = 0.0
        faults = 0
        fault_cycles = 0.0
        hist = np.zeros(NR_LATENCY_BINS, dtype=np.int64)

        n = len(vpns)
        pos = 0
        retries = 0
        last_fault_vpn = -1
        # Per-chunk invariants hoisted out of the segment-rescan loop;
        # the arrays themselves are mutated in place by fault handlers
        # (never rebound), so the local bindings stay live.
        pt_flags = pt.flags
        pt_gpfn = pt.gpfn
        has_writes = bool(writes.any())
        # Per access, the flag bits a scan tests and the value they must
        # have (a store also needs PTE_WRITE), so that a scan of a mixed
        # chunk is one masked compare. Built at the chunk's first fault:
        # a clean chunk is scanned once and never needs them.
        need = None
        folio_mask = self._folio_mask
        publish_chunks = m.bus.has_subscribers(ChunkExecuted)
        last_access = pt.last_access
        last_write = pt.last_write
        # Sized to the whole address space, so it is never reallocated
        # under the commits below.
        tlb_mask = m.tlb_directory.page_mask(space.asid, cpu.name, pt.nr_vpns)
        # Scalar accessors for the per-access commit.
        flags_at = pt_flags.item
        gpfn_at = pt_gpfn.item
        tier_at = tier_of.item
        last_access_at = last_access.item
        last_write_at = last_write.item
        rlat_list = self._rlat_list
        wlat_list = self._wlat_list
        rbin_list = self._rbin_list
        wbin_list = self._wbin_list
        # Python copies of the chunk, and the scalar commit's histogram
        # counts, built at the first short run so a clean chunk pays
        # nothing for them.
        vpn_list = None
        while pos < n:
            seg_vpns = vpns[pos:]
            seg_w = writes[pos:]
            f = pt_flags[seg_vpns]
            # bad = not-present | prot-none | (write & !writable).
            if need is not None:
                bad = (f & need[pos:]) != want[pos:]
            else:
                bad = (f & _PRESENT_OR_PROT_NONE) != _PRESENT
                if has_writes:
                    bad |= seg_w & ((f & _WRITE) == 0)
            k = int(bad.argmax())
            faulted = bool(bad[k])
            if not faulted:
                k = len(seg_vpns)

            if k > 0:
                epoch = pt.version
                if k <= SCALAR_RUN_MAX:
                    if vpn_list is None:
                        vpn_list = vpns.tolist()
                        write_list = writes.tolist()
                        counts = [0] * NR_LATENCY_BINS
                    base = t0 + elapsed
                    # Sequential running sum: the same additions, in the
                    # same order, as np.cumsum in the vectorized commit.
                    seg_cycles = 0.0
                    wc = 0.0
                    nw = 0
                    ts_list = [] if publish_chunks else None
                    for i in range(pos, pos + k):
                        v = vpn_list[i]
                        tier = tier_at(gpfn_at(v))
                        old = flags_at(v)
                        if write_list[i]:
                            lat = wlat_list[tier]
                            seg_cycles += lat
                            ts = base + seg_cycles
                            wc += lat
                            nw += 1
                            pt_flags[v] = old | _ACCESSED_DIRTY
                            if ts > last_write_at(v):
                                last_write[v] = ts
                            counts[wbin_list[tier]] += 1
                        else:
                            lat = rlat_list[tier]
                            seg_cycles += lat
                            ts = base + seg_cycles
                            pt_flags[v] = old | PTE_ACCESSED
                            counts[rbin_list[tier]] += 1
                        if ts > last_access_at(v):
                            last_access[v] = ts
                        # A huge mapping's TLB entry is keyed by its
                        # folio head (see commit_run).
                        tlb_mask[v & folio_mask if old & PTE_HUGE else v] = True
                        if ts_list is not None:
                            ts_list.append(ts)
                    if publish_chunks:
                        m.bus.publish(
                            ChunkExecuted(
                                space,
                                seg_vpns[:k],
                                seg_w[:k],
                                np.array(ts_list),
                            )
                        )
                else:
                    seg = seg_vpns[:k]
                    t = tier_of[pt_gpfn[seg]]
                    w = seg_w[:k] if has_writes else None
                    lat = rlat[t] if w is None else np.where(w, wlat[t], rlat[t])
                    ts = t0 + elapsed + np.cumsum(lat)
                    nw = self.commit_run(pt, tlb_mask, seg, w, f[:k], ts)
                    if publish_chunks:
                        m.bus.publish(ChunkExecuted(space, seg, seg_w[:k], ts))
                    hist += latency_histogram(lat)
                    seg_cycles = float(lat.sum())
                    wc = float(lat[w].sum()) if nw else 0.0
                write_cycles += wc
                read_cycles += seg_cycles - wc
                nwrites += nw
                reads += k - nw
                elapsed += seg_cycles
                pos += k
                retries = 0
                if not faulted:
                    break
                if pt.version != epoch:
                    # A ChunkExecuted subscriber remapped a page: the
                    # flags word gathered above may be stale.
                    continue

            if has_writes and need is None:
                need = np.where(writes, _STORE_BITS, _PRESENT_OR_PROT_NONE)
                want = np.where(writes, _PRESENT_WRITE, _PRESENT)
            # Fault at position `pos`, classified from the flags word
            # the scan already gathered.
            flags = int(f[k])
            if not flags & PTE_PRESENT:
                kind = FaultType.NOT_PRESENT
            elif flags & PTE_PROT_NONE:
                kind = FaultType.HINT
            else:
                kind = FaultType.WRITE_PROTECT
            vpn = int(seg_vpns[k])
            write = bool(seg_w[k])
            fault = Fault(space, vpn, write, kind, cpu.name)
            if vpn == last_fault_vpn:
                retries += 1
                if retries > _MAX_FAULT_RETRIES:
                    raise UnhandledFault(
                        fault,
                        f"fault handler made no progress after {retries} tries",
                    )
            else:
                retries = 0
                last_fault_vpn = vpn
            handled_cycles = m.handle_fault(fault, cpu)
            # Debug jitter: a PTE update in the fault path took longer
            # (contended page-table lock, slow IPI acknowledge...).
            delay = m.debug.delay("mmu.pte_delay")
            if delay:
                cpu.account("fault", delay)
                handled_cycles += delay
            faults += 1
            fault_cycles += handled_cycles
            elapsed += handled_cycles
            hist[bisect_right(_LATENCY_EDGES_LIST, handled_cycles)] += 1

        if vpn_list is not None:
            hist += counts
        cpu.account("user", read_cycles + write_cycles)
        return ChunkResult(
            cycles=elapsed,
            reads=reads,
            writes=nwrites,
            read_cycles=read_cycles,
            write_cycles=write_cycles,
            faults=faults,
            fault_cycles=fault_cycles,
            latency_hist=hist,
        )

    # ------------------------------------------------------------------
    def commit_run(
        self,
        pt,
        tlb_mask: np.ndarray,
        vpns: np.ndarray,
        writes: Optional[np.ndarray],
        flags: np.ndarray,
        ts: np.ndarray,
    ) -> int:
        """Commit a run of accesses that need no kernel, vectorized.

        ``flags`` holds the run's flags words as gathered by the scan,
        ``writes`` its store mask (None for a run without stores) and
        ``ts`` each access's completion timestamp. Sets the accessed and
        dirty bits, raises ``last_access``/``last_write`` to ``ts`` and
        marks each translation in ``tlb_mask``. Duplicate vpns are safe:
        the ORs and ``maximum.at`` are idempotent and commutative.
        Returns the number of stores.
        """
        pt_flags = pt.flags
        pt_flags[vpns] |= _ACCESSED
        nw = 0
        if writes is not None:
            wr = vpns[writes]
            nw = len(wr)
            if nw:
                pt_flags[wr] |= _DIRTY
                np.maximum.at(pt.last_write, wr, ts[writes])
        np.maximum.at(pt.last_access, vpns, ts)
        # TLB entries are per translation: base pages fill one entry per
        # vpn, huge mappings one PMD entry keyed by the folio head vpn
        # (so a single shootdown at the head invalidates the whole 2MB
        # translation).
        if self._folio_pages > 1:
            huge = (flags & _HUGE) != 0
            if huge.any():
                vpns = np.where(huge, vpns & self._folio_mask, vpns)
        tlb_mask[vpns] = True
        return nw

    # ------------------------------------------------------------------
    def access_one(
        self,
        space: "AddressSpace",
        cpu: "Cpu",
        vpn: int,
        write: bool = False,
    ) -> ChunkResult:
        """Single-access convenience wrapper (tests and simple tools)."""
        vpns = np.array([vpn], dtype=np.int64)
        writes = np.array([write], dtype=bool)
        return self.run_chunk(space, cpu, vpns, writes)
