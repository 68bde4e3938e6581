"""Tiered memory: global frame numbers, fallback allocation, bus events."""

import pytest

from repro.mem.node import OutOfMemoryError
from repro.mem.tiers import TieredMemory
from repro.sim.bus import AllocFail, LowWatermark


@pytest.fixture
def tiers():
    return TieredMemory(fast_pages=50, slow_pages=70)


def test_layout(tiers):
    assert tiers.fast.nr_pages == 50
    assert tiers.slow.nr_pages == 70
    assert tiers.total_pages == 120
    assert tiers.total_free == 120


def test_gpfn_roundtrip(tiers):
    fast = tiers.alloc_on(0)
    slow = tiers.alloc_on(1)
    assert tiers.tier_of(tiers.gpfn(fast)) == 0
    assert tiers.tier_of(tiers.gpfn(slow)) == 1
    assert tiers.frame(tiers.gpfn(fast)) is fast
    assert tiers.frame(tiers.gpfn(slow)) is slow
    # Slow gpfns are offset past the fast node.
    assert tiers.gpfn(slow) >= 50


def test_gpfn_bounds(tiers):
    with pytest.raises(IndexError):
        tiers.frame(-1)
    with pytest.raises(IndexError):
        tiers.frame(120)


def test_alloc_page_prefers_fast(tiers):
    frame = tiers.alloc_page()
    assert frame.node_id == 0


def test_alloc_page_falls_back_to_slow(tiers):
    while tiers.fast.nr_free:
        tiers.alloc_on(0)
    frame = tiers.alloc_page(0)
    assert frame.node_id == 1


def test_alloc_page_slow_preference_falls_back_to_fast(tiers):
    while tiers.slow.nr_free:
        tiers.alloc_on(1)
    frame = tiers.alloc_page(1)
    assert frame.node_id == 0


def test_oom_when_everything_full(tiers):
    while tiers.total_free:
        tiers.alloc_page()
    with pytest.raises(OutOfMemoryError):
        tiers.alloc_page()


def test_low_watermark_event_published(tiers):
    woken = []
    tiers.bus.subscribe(LowWatermark, lambda e: woken.append(e.tier))
    while tiers.fast.nr_free > tiers.fast.wmark_low - 1:
        tiers.alloc_on(0)
    assert 0 in woken


def test_alloc_fail_subscriber_enables_recovery(tiers):
    stash = []
    while tiers.total_free:
        stash.append(tiers.alloc_page())

    def reclaim(event):
        for _ in range(min(event.nr * 2, len(stash))):
            tiers.free_page(stash.pop())
            event.freed += 1

    tiers.bus.subscribe(AllocFail, reclaim)
    frame = tiers.alloc_page()
    assert frame is not None


def test_alloc_fail_subscriber_freeing_nothing_ooms(tiers):
    while tiers.total_free:
        tiers.alloc_page()
    tiers.bus.subscribe(AllocFail, lambda event: None)
    with pytest.raises(OutOfMemoryError):
        tiers.alloc_page()


def test_free_page_roundtrip(tiers):
    frame = tiers.alloc_on(1)
    tiers.free_page(frame)
    assert tiers.slow.nr_free == 70


def test_usage_snapshot(tiers):
    tiers.alloc_on(0)
    tiers.alloc_on(1)
    usage = tiers.usage()
    assert usage["fast_used"] == 1
    assert usage["slow_used"] == 1
    assert usage["fast_free"] == 49


def test_tier_of_gpfn_array(tiers):
    assert tiers.tier_of_gpfn[:50].sum() == 0
    assert (tiers.tier_of_gpfn[50:] == 1).all()
