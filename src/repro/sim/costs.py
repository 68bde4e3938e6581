"""Cost model: cycle prices for every hardware/kernel operation.

The per-tier access latencies and copy bandwidths come straight from the
paper's Table 1 (via :mod:`repro.sim.platform`); the kernel-path constants
(trap cost, TLB shootdown, PTE update) are modelled after widely reported
x86/Linux figures and are deliberately explicit so ablations can vary
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["CostModel", "PAGE_SIZE", "CACHELINE"]

PAGE_SIZE = 4096  # bytes per page, as in the paper's base-page migration
CACHELINE = 64  # bytes per application access


@dataclass(frozen=True)
class CostModel:
    """All simulator costs, in cycles unless noted.

    Tier 0 is the performance tier (local DRAM); higher indices are
    successively slower capacity tiers (CXL memory, PM, SSD-class). The
    per-tier vectors have one entry per tier of the machine's
    :class:`~repro.mem.topology.TierTopology` (two on the paper's
    testbeds).
    """

    freq_ghz: float
    # Load-to-use latency per tier (Table 1 "read latency", cycles).
    read_latency: Tuple[float, ...]
    # Store latency per tier. Table 1 does not report store latency; we
    # model a store as a cacheline RFO at read latency, which preserves
    # the fast:slow ratio that drives every result shape.
    write_latency: Tuple[float, ...]
    # Single-thread copy bandwidth in bytes/cycle, per (src_tier, dst_tier)
    # derived from Table 1 single-thread read/write bandwidth: a page copy
    # streams reads from src and writes to dst, so the effective rate is
    # the harmonic combination of the two.
    copy_bytes_per_cycle: Tuple[Tuple[float, ...], ...]

    # Kernel path constants.
    fault_trap: float = 1200.0  # user->kernel->user for a minor fault
    fault_handle: float = 800.0  # generic fault bookkeeping (rmap, locks)
    pte_update: float = 120.0  # one atomic PTE read-modify-write
    tlb_flush_local: float = 200.0  # invlpg + local bookkeeping
    tlb_shootdown_base: float = 2000.0  # IPI send + wait, first remote CPU
    tlb_shootdown_per_cpu: float = 500.0  # each extra remote CPU
    lru_op: float = 80.0  # list move / pagevec append
    queue_op: float = 60.0  # PCQ / MPQ manipulation
    alloc_page: float = 250.0  # buddy/free-list allocation
    free_page: float = 150.0  # return page to the free list
    migrate_setup: float = 600.0  # migrate_pages() entry, page lock, rmap walk
    sampler_event: float = 30.0  # cost of recording one PEBS-style sample
    histogram_update: float = 40.0  # Memtis per-sample histogram update
    # Folio (THP) constants. A PMD-level mapping is still one 8-byte
    # entry, so updating it costs the same atomic RMW as a PTE -- the
    # huge-page economy is paying it once per 512 pages, and shooting
    # down a single PMD TLB entry instead of 512 PTE entries.
    pmd_update: float = 120.0  # one atomic PMD read-modify-write
    # Nomad copies a huge page in sub-page chunks, re-checking the dirty
    # state between chunks (Section 3.4); the chunk size in base pages.
    thp_chunk_pages: int = 32
    # Reading the PMD's accessed/dirty state for one chunk re-check.
    thp_chunk_check: float = 120.0

    def page_copy_cycles(self, src_tier: int, dst_tier: int) -> float:
        """Cycles to copy one page from ``src_tier`` to ``dst_tier``."""
        rate = self.copy_bytes_per_cycle[src_tier][dst_tier]
        return PAGE_SIZE / rate

    def folio_copy_cycles(
        self, src_tier: int, dst_tier: int, nr_pages: int
    ) -> float:
        """Cycles to copy ``nr_pages`` contiguous pages between tiers."""
        return self.page_copy_cycles(src_tier, dst_tier) * nr_pages

    def chunk_plan(self, nr_pages: int):
        """Chunk sizes (in pages) for a chunked folio copy.

        Yields ``thp_chunk_pages``-sized chunks plus a smaller trailing
        chunk when the folio is not a multiple of the chunk size.
        """
        chunk = max(1, self.thp_chunk_pages)
        full, rest = divmod(nr_pages, chunk)
        return [chunk] * full + ([rest] if rest else [])

    def shootdown_cycles(self, n_remote_cpus: int) -> float:
        """Cost paid by the initiator of a TLB shootdown."""
        if n_remote_cpus <= 0:
            return self.tlb_flush_local
        return (
            self.tlb_flush_local
            + self.tlb_shootdown_base
            + self.tlb_shootdown_per_cpu * (n_remote_cpus - 1)
        )


def _bytes_per_cycle(gbps: float, freq_ghz: float) -> float:
    """Convert GB/s at a given clock into bytes/cycle."""
    return gbps / freq_ghz


def build_copy_matrix(
    freq_ghz: float,
    read_gbps: Tuple[float, ...],
    write_gbps: Tuple[float, ...],
) -> Tuple[Tuple[float, ...], ...]:
    """Derive the N x N copy-rate matrix from per-tier stream bandwidths.

    Copying src->dst reads at ``read_gbps[src]`` and writes at
    ``write_gbps[dst]``; the combined rate is harmonic (the two phases
    serialize per cacheline on a single thread). One row/column per tier
    of the chain.
    """
    if len(read_gbps) != len(write_gbps):
        raise ValueError(
            f"read/write bandwidth vectors disagree: "
            f"{len(read_gbps)} vs {len(write_gbps)} tiers"
        )

    def combine(src: int, dst: int) -> float:
        r = _bytes_per_cycle(read_gbps[src], freq_ghz)
        w = _bytes_per_cycle(write_gbps[dst], freq_ghz)
        return 1.0 / (1.0 / r + 1.0 / w)

    nr = len(read_gbps)
    return tuple(
        tuple(combine(src, dst) for dst in range(nr)) for src in range(nr)
    )
