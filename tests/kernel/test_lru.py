"""LRU lists: the mark_page_accessed protocol and pagevec batching."""

import pytest

from repro.kernel.lru import PAGEVEC_SIZE, LruManager
from repro.mem.tiers import TieredMemory
from repro.mmu.address_space import AddressSpace


@pytest.fixture
def tiers():
    return TieredMemory(64, 64)


@pytest.fixture
def lru(tiers):
    return LruManager(tiers)


def mapped_frame(tiers, tier=0):
    frame = tiers.alloc_on(tier)
    frame.add_rmap(AddressSpace(16), 0)
    return frame


def test_new_pages_go_inactive(lru, tiers):
    frame = mapped_frame(tiers)
    lru.add_new_page(frame)
    assert frame.on_lru
    assert not frame.active
    assert lru.nr_inactive(0) == 1


def test_double_add_raises(lru, tiers):
    frame = mapped_frame(tiers)
    lru.add_new_page(frame)
    with pytest.raises(RuntimeError):
        lru.add_new_page(frame)


def test_first_access_sets_referenced_only(lru, tiers):
    frame = mapped_frame(tiers)
    lru.add_new_page(frame)
    queued = lru.mark_accessed(frame)
    assert not queued
    assert frame.referenced
    assert not frame.active


def test_second_access_queues_activation(lru, tiers):
    frame = mapped_frame(tiers)
    lru.add_new_page(frame)
    lru.mark_accessed(frame)
    queued = lru.mark_accessed(frame)
    assert queued
    # Still not active: the pagevec has not drained.
    assert not frame.active
    assert lru.pagevec_occupancy() == 1


def test_pagevec_drains_at_15(lru, tiers):
    """The Section 3.1 pathology: one hot page can need up to 15
    activation requests before the batch applies."""
    frame = mapped_frame(tiers)
    lru.add_new_page(frame)
    lru.mark_accessed(frame)  # sets referenced
    for i in range(PAGEVEC_SIZE - 1):
        lru.mark_accessed(frame)
        assert not frame.active, f"activated early at request {i + 1}"
    lru.mark_accessed(frame)  # 15th request drains the pagevec
    assert frame.active
    assert lru.nr_active(0) == 1
    assert lru.nr_inactive(0) == 0


def test_mixed_pages_fill_pagevec_faster(lru, tiers):
    frames = [mapped_frame(tiers) for _ in range(PAGEVEC_SIZE)]
    for frame in frames:
        lru.add_new_page(frame)
        lru.mark_accessed(frame)  # referenced
    for frame in frames:
        lru.mark_accessed(frame)  # one activation request each
    # The 15th request drained the vec: all became active together.
    assert all(f.active for f in frames)


def test_activation_clears_referenced(lru, tiers):
    frame = mapped_frame(tiers)
    lru.add_new_page(frame)
    lru.mark_accessed(frame)
    lru.mark_accessed(frame)
    lru.drain_pagevec()
    assert frame.active
    assert not frame.referenced


def test_accessing_active_page_is_noop(lru, tiers):
    frame = mapped_frame(tiers)
    lru.add_new_page(frame)
    lru.mark_accessed(frame)
    lru.mark_accessed(frame)
    lru.drain_pagevec()
    assert not lru.mark_accessed(frame)
    assert lru.pagevec_occupancy() == 0


def test_force_activate(lru, tiers):
    frame = mapped_frame(tiers)
    lru.add_new_page(frame)
    lru.force_activate(frame)
    assert frame.active


def test_deactivate(lru, tiers):
    frame = mapped_frame(tiers)
    lru.add_new_page(frame)
    lru.force_activate(frame)
    lru.deactivate(frame)
    assert not frame.active
    assert frame.on_lru
    assert lru.nr_inactive(0) == 1


def test_remove(lru, tiers):
    frame = mapped_frame(tiers)
    lru.add_new_page(frame)
    lru.remove(frame)
    assert not frame.on_lru
    assert lru.nr_inactive(0) == 0


def test_transfer_preserves_list_type(lru, tiers):
    old = mapped_frame(tiers, 0)
    new = tiers.alloc_on(1)
    lru.add_new_page(old)
    lru.force_activate(old)
    lru.transfer(old, new)
    assert not old.on_lru
    assert new.on_lru and new.active
    assert lru.nr_active(1) == 1


def test_inactive_head_batch_is_fifo(lru, tiers):
    frames = [mapped_frame(tiers) for _ in range(5)]
    for frame in frames:
        lru.add_new_page(frame)
    batch = lru.inactive_head_batch(0, 3)
    assert batch == frames[:3]


def test_rotate_moves_to_tail(lru, tiers):
    frames = [mapped_frame(tiers) for _ in range(3)]
    for frame in frames:
        lru.add_new_page(frame)
    lru.rotate(frames[0])
    batch = lru.inactive_head_batch(0, 3)
    assert batch == [frames[1], frames[2], frames[0]]


def test_drain_skips_unmapped_or_freed(lru, tiers):
    frame = mapped_frame(tiers)
    lru.add_new_page(frame)
    lru.mark_accessed(frame)
    lru.mark_accessed(frame)
    frame.rmap.clear()  # simulate concurrent unmap
    activated = lru.drain_pagevec()
    assert activated == 0
    assert not frame.active
