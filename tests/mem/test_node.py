"""Memory nodes: allocation, freeing, watermarks."""

import pytest

from repro.mem.frame import FrameFlags
from repro.mem.node import MemoryNode
from repro.mmu.address_space import AddressSpace


@pytest.fixture
def node():
    return MemoryNode(0, 100, "fast", watermark_scale=0.05)


def test_sizes(node):
    assert node.nr_pages == 100
    assert node.nr_free == 100
    assert node.nr_used == 0


def test_watermarks_scaled(node):
    assert node.wmark_min == 5
    assert node.wmark_low == 10
    assert node.wmark_high == 15


def test_alloc_until_exhaustion(node):
    frames = [node.alloc() for _ in range(100)]
    assert all(f is not None for f in frames)
    assert len({f.pfn for f in frames}) == 100
    assert node.alloc() is None
    assert node.nr_free == 0


def test_free_returns_to_pool(node):
    frame = node.alloc()
    node.free(frame)
    assert node.nr_free == 100


def test_free_wrong_node_rejected(node):
    other = MemoryNode(1, 10)
    frame = other.alloc()
    with pytest.raises(ValueError):
        node.free(frame)


def test_free_mapped_frame_rejected(node):
    frame = node.alloc()
    frame.add_rmap(AddressSpace(16), 0)
    with pytest.raises(RuntimeError):
        node.free(frame)


def test_free_locked_frame_rejected(node):
    frame = node.alloc()
    frame.set_flag(FrameFlags.LOCKED)
    with pytest.raises(RuntimeError):
        node.free(frame)


def test_free_clears_flags(node):
    frame = node.alloc()
    frame.set_flag(FrameFlags.ACTIVE | FrameFlags.REFERENCED)
    node.free(frame)
    reused = node.alloc()
    while reused.pfn != frame.pfn:
        reused = node.alloc()
    assert reused.flags == 0


def test_watermark_predicates(node):
    frames = []
    while node.nr_free > node.wmark_low:
        frames.append(node.alloc())
    assert node.below_low() is False  # exactly at low is not below
    frames.append(node.alloc())
    assert node.below_low()


def test_reclaim_target(node):
    for _ in range(95):
        node.alloc()
    # free = 5, high = 15 -> need 10
    assert node.reclaim_target() == 10


def test_invalid_size_rejected():
    with pytest.raises(ValueError):
        MemoryNode(0, 0)


def test_alloc_resets_generation_tracking(node):
    frame = node.alloc()
    gen = frame.generation
    node.free(frame)
    again = node.alloc()
    while again.pfn != frame.pfn:
        again = node.alloc()
    assert again.generation == gen + 1
