"""Physical memory substrate: frames, nodes, and tiers."""

from .folio import Folio
from .frame import Frame, FrameFlags, compound_head
from .node import MemoryNode, OutOfMemoryError
from .tiers import TieredMemory
from .topology import TierSpec, TierTopology

__all__ = [
    "Folio",
    "Frame",
    "FrameFlags",
    "compound_head",
    "MemoryNode",
    "OutOfMemoryError",
    "TieredMemory",
    "TierSpec",
    "TierTopology",
]
