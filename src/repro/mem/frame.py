"""Page frames: the simulator's ``struct page``.

Each physical page frame carries the flag set Linux's tiering machinery
actually consults (``PG_active``, ``PG_referenced``, lock, LRU
membership) plus Nomad's additions: the ``shadow`` flag on a fast-tier
master page whose slow-tier shadow copy exists, and ``is_shadow`` on the
shadow copy itself.

Reverse mappings (``rmap``) record which (address space, virtual page)
pairs map the frame -- migration and reclaim walk these exactly like the
kernel's rmap walk, and Nomad uses ``mapcount`` to detect multi-mapped
pages (for which it falls back to synchronous migration, Section 3.3).

Frames compose into *folios* the way the kernel builds compound pages: a
head frame carries ``order`` (the folio spans ``1 << order`` physically
contiguous frames) and each tail frame points back at its head. Only
head frames appear on LRU lists and in rmaps; tail frames are inert
storage. ``compound_head`` resolves either kind to the head, so code
that looks a frame up by pfn/gpfn lands on the folio it belongs to.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..mmu.address_space import AddressSpace

__all__ = ["Frame", "FrameFlags", "compound_head"]


class FrameFlags:
    """Bit positions for :attr:`Frame.flags`."""

    LOCKED = 1 << 0
    ACTIVE = 1 << 1  # PG_active
    REFERENCED = 1 << 2  # PG_referenced
    LRU = 1 << 3  # on an LRU list
    DIRTY = 1 << 4  # PG_dirty (content newer than any backing copy)
    SHADOWED = 1 << 5  # fast-tier master with a live shadow copy
    IS_SHADOW = 1 << 6  # slow-tier shadow copy (unmapped, reclaimable)
    RESERVED = 1 << 7  # not available for allocation (e.g. kernel text)


class Frame:
    """One physical page frame."""

    __slots__ = ("pfn", "node_id", "flags", "rmap", "generation", "order", "head")

    def __init__(self, pfn: int, node_id: int) -> None:
        self.pfn = pfn
        self.node_id = node_id
        self.flags = 0
        # (address_space, vpn) pairs currently mapping this frame.
        self.rmap: List[Tuple["AddressSpace", int]] = []
        # Bumped on every allocation so stale references are detectable.
        self.generation = 0
        # Compound-page state: a head frame has order > 0 and spans the
        # next (1 << order) - 1 tail frames; a tail frame points at its
        # head. An order-0 frame has order == 0 and head is None.
        self.order = 0
        self.head: Optional["Frame"] = None

    # -- flag helpers ---------------------------------------------------
    def set_flag(self, flag: int) -> None:
        self.flags |= flag

    def clear_flag(self, flag: int) -> None:
        self.flags &= ~flag

    @property
    def locked(self) -> bool:
        return self.flags & FrameFlags.LOCKED != 0

    @property
    def active(self) -> bool:
        return self.flags & FrameFlags.ACTIVE != 0

    @property
    def referenced(self) -> bool:
        return self.flags & FrameFlags.REFERENCED != 0

    @property
    def on_lru(self) -> bool:
        return self.flags & FrameFlags.LRU != 0

    @property
    def shadowed(self) -> bool:
        return self.flags & FrameFlags.SHADOWED != 0

    @property
    def is_shadow(self) -> bool:
        return self.flags & FrameFlags.IS_SHADOW != 0

    # -- compound (folio) state -----------------------------------------
    @property
    def nr_pages(self) -> int:
        """Pages this frame stands for: 1, or the folio span for a head."""
        return 1 << self.order

    @property
    def is_tail(self) -> bool:
        return self.head is not None

    @property
    def is_huge(self) -> bool:
        """True for the head frame of a multi-page folio."""
        return self.order > 0

    # -- rmap -----------------------------------------------------------
    def add_rmap(self, space: "AddressSpace", vpn: int) -> None:
        self.rmap.append((space, vpn))

    def remove_rmap(self, space: "AddressSpace", vpn: int) -> None:
        try:
            self.rmap.remove((space, vpn))
        except ValueError:
            raise RuntimeError(
                f"rmap entry ({space!r}, {vpn}) missing on pfn {self.pfn}"
            ) from None

    @property
    def mapcount(self) -> int:
        return len(self.rmap)

    @property
    def mapped(self) -> bool:
        return bool(self.rmap)

    def sole_mapping(self) -> Optional[Tuple["AddressSpace", int]]:
        """The single (space, vpn) mapping, or None if not singly mapped."""
        if len(self.rmap) == 1:
            return self.rmap[0]
        return None

    def reset(self) -> None:
        """Reinitialize on allocation."""
        if self.rmap:
            raise RuntimeError(f"allocating pfn {self.pfn} with live rmap")
        self.flags = 0
        self.order = 0
        self.head = None
        self.generation += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Frame pfn={self.pfn} node={self.node_id} "
            f"flags={self.flags:#x} map={self.mapcount} order={self.order}>"
        )


def compound_head(frame: Frame) -> Frame:
    """Resolve a frame to its folio head (identity for order-0 pages)."""
    return frame.head if frame.head is not None else frame
