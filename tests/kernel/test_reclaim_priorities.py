"""kswapd scan-priority escalation (the graded second-chance policy)."""

import numpy as np

from repro.mem.frame import FrameFlags
from repro.policies import make_policy

from ..conftest import make_machine


def build_full_fast(machine, touch_all=False):
    """Map the whole fast tier; optionally set every PTE accessed bit."""
    space = machine.create_space()
    vma = space.mmap(machine.tiers.fast.nr_pages)
    machine.populate(space, vma.vpns(), 0)
    if touch_all:
        vpns = np.asarray(list(vma.vpns()))
        machine.access.run_chunk(
            space,
            machine.cpus.get("app0"),
            vpns,
            np.zeros(len(vpns), dtype=bool),
        )
    return space, vma


def test_priority0_spares_accessed_pages_entirely():
    m = make_machine()
    m.set_policy(make_policy("tpp", m))
    space, vma = build_full_fast(m, touch_all=True)
    kswapd = m.kswapd[0]
    freed, _, _ = kswapd._reclaim_pass(16, priority=0)
    assert freed == 0


def test_priority0_clears_accessed_bits_for_aging():
    m = make_machine()
    m.set_policy(make_policy("tpp", m))
    space, vma = build_full_fast(m, touch_all=True)
    kswapd = m.kswapd[0]
    kswapd._reclaim_pass(16, priority=0)
    pt = space.page_table
    head = list(vma.vpns())[:8]
    # The scanned batch got its accessed bits cleared (second chance).
    cleared = sum(1 for v in head if not pt.is_accessed(v))
    assert cleared > 0


def test_priority1_demotes_accessed_but_unreferenced():
    m = make_machine()
    m.set_policy(make_policy("tpp", m))
    space, vma = build_full_fast(m, touch_all=True)
    kswapd = m.kswapd[0]
    freed, _, _ = kswapd._reclaim_pass(8, priority=1)
    assert freed > 0


def test_priority1_spares_referenced_frames():
    m = make_machine()
    m.set_policy(make_policy("tpp", m))
    space, vma = build_full_fast(m, touch_all=True)
    # Mark the whole inactive head batch referenced (struct-page flag).
    batch = m.lru.inactive_head_batch(0, 32)
    for frame in batch:
        frame.set_flag(FrameFlags.REFERENCED)
    kswapd = m.kswapd[0]
    freed, _, _ = kswapd._reclaim_pass(8, priority=1)
    assert freed == 0


def test_priority2_demotes_anything_inactive():
    m = make_machine()
    m.set_policy(make_policy("tpp", m))
    space, vma = build_full_fast(m, touch_all=True)
    for frame in m.lru.inactive_head_batch(0, 32):
        frame.set_flag(FrameFlags.REFERENCED)
    kswapd = m.kswapd[0]
    freed, _, _ = kswapd._reclaim_pass(8, priority=2)
    assert freed > 0


def test_reclaim_pass_skips_locked_frames():
    m = make_machine()
    m.set_policy(make_policy("tpp", m))
    space, vma = build_full_fast(m)
    for frame in m.lru.inactive_head_batch(0, 32):
        frame.set_flag(FrameFlags.LOCKED)
    kswapd = m.kswapd[0]
    freed, _, _ = kswapd._reclaim_pass(8, priority=2)
    assert freed == 0
    for frame in m.lru.inactive_head_batch(0, 32):
        frame.clear_flag(FrameFlags.LOCKED)


def test_reclaim_pass_drains_pagevec_first():
    m = make_machine()
    m.set_policy(make_policy("tpp", m))
    space, vma = build_full_fast(m)
    # Queue an activation request without filling the pagevec.
    frame = m.lru.inactive_head_batch(0, 1)[0]
    m.lru.mark_accessed(frame)
    m.lru.mark_accessed(frame)
    assert m.lru.pagevec_occupancy() == 1
    m.kswapd[0]._reclaim_pass(1, priority=0)
    assert m.lru.pagevec_occupancy() == 0
    assert frame.active
