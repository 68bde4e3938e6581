"""Physical memory substrate: frames, nodes, tiers, and the XArray."""

from .folio import Folio
from .frame import Frame, FrameFlags, compound_head
from .node import MemoryNode, OutOfMemoryError
from .tiers import TieredMemory
from .topology import TierSpec, TierTopology
from .xarray import XA_MARK_0, XA_MARK_1, XA_MARK_2, XArray

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
    "XArray",
    "XA_MARK_0",
    "XA_MARK_1",
    "XA_MARK_2",
]
