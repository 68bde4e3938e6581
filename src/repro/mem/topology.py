"""Tier topology: an ordered chain of memory tiers.

The paper's machines have exactly two tiers (local DRAM over CXL/PM).
:class:`TierTopology` generalizes the pair into an ordered chain -- tier
0 is the fastest, each tier ``k`` demotes to ``k + 1``, and the bottom
tier has nowhere further down -- so a DRAM/CXL/SSD-class machine is just
a three-entry chain. Code names a tier by its index in the chain: ``0``
is the paper's fast tier and ``1`` its slow tier.

Every tier carries its own capacity and Table-1-style performance
figures (load-to-use latency, single-thread stream bandwidths); the
chain as a whole feeds :class:`~repro.sim.costs.CostModel` with per-tier
latency vectors and an N x N copy-rate matrix. The default two-tier
chain built by :meth:`~repro.sim.platform.Platform.tier_topology`
reproduces the historical constants bit-exactly.

This module deliberately imports nothing from the rest of the package
(the platform layer and the allocator both sit on top of it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["TierSpec", "TierTopology"]


@dataclass(frozen=True)
class TierSpec:
    """One tier of the chain: capacity plus Table-1 performance figures.

    Capacity is in paper-GB (the simulation scale in
    :mod:`repro.sim.platform` converts to frames); latency is load-to-use
    cycles; bandwidths are single-thread stream GB/s.
    """

    name: str
    gb: float
    read_latency_cycles: float
    read_gbps: float
    write_gbps: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tier needs a name")
        if self.gb <= 0:
            raise ValueError(f"tier {self.name!r}: capacity must be positive")
        for field in ("read_latency_cycles", "read_gbps", "write_gbps"):
            if getattr(self, field) <= 0:
                raise ValueError(
                    f"tier {self.name!r}: {field} must be positive"
                )

    @property
    def pages(self) -> int:
        """Capacity in simulated page frames."""
        # Lazy import: the platform layer imports this module at load
        # time, so the scale constant is only reachable at runtime.
        from ..sim.platform import gb_to_pages

        return gb_to_pages(self.gb)


@dataclass(frozen=True)
class TierTopology:
    """An ordered tier chain, fastest first.

    The chain defines the migration graph: promotion moves a page one
    step toward tier 0, demotion one step toward the bottom. Tier 0 has
    no promotion target and the bottom tier has no demotion target --
    callers use :meth:`promotion_target`/:meth:`demotion_target` instead
    of hardcoding ``0``/``1``.
    """

    tiers: Tuple[TierSpec, ...]

    def __post_init__(self) -> None:
        if len(self.tiers) < 2:
            raise ValueError(
                f"a topology needs at least 2 tiers, got {len(self.tiers)}"
            )
        names = [t.name for t in self.tiers]
        if len(set(names)) != len(names):
            raise ValueError(f"tier names must be unique, got {names}")
        lats = [t.read_latency_cycles for t in self.tiers]
        if lats != sorted(lats):
            raise ValueError(
                "tiers must be ordered fastest first "
                f"(read latencies {lats} are not non-decreasing)"
            )

    @property
    def nr_tiers(self) -> int:
        return len(self.tiers)

    @property
    def bottom_tier(self) -> int:
        """Index of the last (slowest) tier in the chain."""
        return len(self.tiers) - 1

    def demotion_target(self, tier: int) -> Optional[int]:
        """Next tier down the chain, or None for the bottom tier."""
        self._check(tier)
        return tier + 1 if tier < len(self.tiers) - 1 else None

    def promotion_target(self, tier: int) -> Optional[int]:
        """Next tier up the chain, or None for tier 0."""
        self._check(tier)
        return tier - 1 if tier > 0 else None

    def _check(self, tier: int) -> None:
        if not 0 <= tier < len(self.tiers):
            raise IndexError(
                f"tier {tier} outside chain of {len(self.tiers)}"
            )

    # Per-tier vectors in the shapes the cost model wants.
    @property
    def read_latencies(self) -> Tuple[float, ...]:
        return tuple(t.read_latency_cycles for t in self.tiers)

    @property
    def read_bandwidths(self) -> Tuple[float, ...]:
        return tuple(t.read_gbps for t in self.tiers)

    @property
    def write_bandwidths(self) -> Tuple[float, ...]:
        return tuple(t.write_gbps for t in self.tiers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        chain = " -> ".join(
            f"{t.name}({t.gb:g}GB)" for t in self.tiers
        )
        return f"<TierTopology {chain}>"
