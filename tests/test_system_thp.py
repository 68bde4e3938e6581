"""Machine-level THP behaviour: config validation, demand folios,
folio split, populate/demote at folio granularity."""

import numpy as np
import pytest

from repro import MachineConfig
from repro.policies import make_policy

from .conftest import make_machine


def thp_machine(order=4, **kwargs):
    return make_machine(thp_enabled=True, thp_order=order, **kwargs)


# ----------------------------------------------------------------------
# MachineConfig validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"chunk_size": 0},
        {"chunk_size": -4},
        {"watermark_scale": -0.1},
        {"watermark_scale": 1.5},
        {"numa_scan_period": 0.0},
        {"numa_scan_period": -1.0},
        {"numa_pages_per_scan": 0},
        {"address_space_pages": 0},
        {"address_space_pages": 1000},  # not a power of two
        {"transient_frac": -0.2},
        {"transient_frac": 1.2},
        {"stable_frac": 2.0},
        {"thp_order": -1},
        {"thp_order": 20},  # folio larger than the address space
    ],
)
def test_bad_config_rejected_at_construction(kwargs):
    with pytest.raises(ValueError):
        MachineConfig(**kwargs)


def test_config_error_messages_name_the_knob():
    with pytest.raises(ValueError, match="address_space_pages"):
        MachineConfig(address_space_pages=1000)
    with pytest.raises(ValueError, match="thp_order"):
        MachineConfig(thp_order=-1)


def test_thp_disabled_means_single_page_folios():
    m = make_machine(thp_enabled=False, thp_order=9)
    assert m.folio_pages == 1


# ----------------------------------------------------------------------
# Demand paging and populate at folio granularity
# ----------------------------------------------------------------------
def test_first_touch_maps_whole_folio():
    m = thp_machine()
    m.set_policy(make_policy("no-migration", m))
    space = m.create_space()
    fp = m.folio_pages
    vma = space.mmap(fp * 2, thp=True)
    m.access.run_chunk(
        space,
        m.cpus.get("app0"),
        np.array([vma.start + 3], dtype=np.int64),  # any sub-page
        np.array([False]),
    )
    pt = space.page_table
    for off in range(fp):
        assert pt.is_present(vma.start + off)
        assert pt.is_huge(vma.start + off)
    # Only the touched block was mapped.
    assert not pt.is_present(vma.start + fp)
    assert m.stats.get("thp.folios_mapped") == 1
    assert m.stats.get("fault.total") == 1


def test_unhinted_vma_stays_base_paged():
    m = thp_machine()
    m.set_policy(make_policy("no-migration", m))
    space = m.create_space()
    vma = space.mmap(m.folio_pages)  # no thp hint
    m.access.run_chunk(
        space,
        m.cpus.get("app0"),
        np.array([vma.start], dtype=np.int64),
        np.array([False]),
    )
    pt = space.page_table
    assert pt.is_present(vma.start)
    assert not pt.is_huge(vma.start)
    assert not pt.is_present(vma.start + 1)
    assert m.stats.get("thp.folios_mapped") == 0


def test_thp_fault_falls_back_to_base_page_when_fragmented():
    m = thp_machine()
    m.set_policy(make_policy("no-migration", m))
    # Fragment both tiers so no aligned folio run exists.
    for tiers in (m.tiers.fast, m.tiers.slow):
        for base in range(0, tiers.nr_pages, m.folio_pages):
            while True:
                f = tiers.alloc()
                if f.pfn == base:
                    break
    space = m.create_space()
    vma = space.mmap(m.folio_pages, thp=True)
    m.access.run_chunk(
        space,
        m.cpus.get("app0"),
        np.array([vma.start], dtype=np.int64),
        np.array([False]),
    )
    pt = space.page_table
    assert pt.is_present(vma.start)
    assert not pt.is_huge(vma.start)
    assert m.stats.get("thp.fallback_base") == 1


def test_populate_maps_folios_for_hinted_regions():
    m = thp_machine()
    space = m.create_space()
    fp = m.folio_pages
    vma = space.mmap(fp * 3, thp=True)
    on_tier = m.populate(space, range(vma.start, vma.end), 1)
    assert on_tier == fp * 3
    assert m.stats.get("thp.folios_mapped") == 3
    pt = space.page_table
    assert all(pt.is_huge(v) for v in range(vma.start, vma.end))


# ----------------------------------------------------------------------
# Folio split
# ----------------------------------------------------------------------
def split_setup():
    m = thp_machine()
    space = m.create_space()
    vma = space.mmap(m.folio_pages, thp=True)
    m.populate(space, [vma.start], 1)
    head = m.tiers.frame(int(space.page_table.gpfn[vma.start]))
    return m, space, vma.start, head


def test_split_folio_turns_pmd_into_base_ptes():
    m, space, vpn, head = split_setup()
    fp = m.folio_pages
    ok, cycles = m.split_folio(head, m.cpus.get("kswapd1"))
    assert ok and cycles > 0
    pt = space.page_table
    for off in range(fp):
        assert pt.is_present(vpn + off)
        assert not pt.is_huge(vpn + off)
        # Each sub-page now maps its own independent frame.
        frame = m.tiers.frame(int(pt.gpfn[vpn + off]))
        assert not frame.is_huge and not frame.is_tail
        assert frame.mapcount == 1
    assert m.stats.get("thp.folio_splits") == 1


def test_split_folio_refuses_shadowed_or_locked():
    from repro.mem.frame import FrameFlags

    m, space, vpn, head = split_setup()
    head.set_flag(FrameFlags.LOCKED)
    ok, _ = m.split_folio(head, m.cpus.get("kswapd1"))
    assert not ok
    head.clear_flag(FrameFlags.LOCKED)
    head.set_flag(FrameFlags.SHADOWED)
    ok, _ = m.split_folio(head, m.cpus.get("kswapd1"))
    assert not ok


def test_split_base_page_is_refused():
    m = thp_machine()
    space = m.create_space()
    vma = space.mmap(1)
    m.populate(space, [vma.start], 1)
    frame = m.tiers.frame(int(space.page_table.gpfn[vma.start]))
    ok, cycles = m.split_folio(frame, m.cpus.get("kswapd1"))
    assert not ok and cycles == 0.0


# ----------------------------------------------------------------------
# demote_all at folio granularity
# ----------------------------------------------------------------------
def test_demote_all_moves_whole_folios():
    m = thp_machine()
    space = m.create_space()
    fp = m.folio_pages
    vma = space.mmap(fp, thp=True)
    m.populate(space, [vma.start], 0)
    moved = m.demote_all(space)
    assert moved == fp
    pt = space.page_table
    for off in range(fp):
        assert m.tiers.tier_of(int(pt.gpfn[vma.start + off])) == 1
        assert pt.is_huge(vma.start + off)
