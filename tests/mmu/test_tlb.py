"""TLB and shootdown directory."""

from repro.mmu.tlb import Tlb, TlbDirectory


def test_tlb_miss_then_hit():
    tlb = Tlb("cpu0")
    assert not tlb.lookup(1, 5)
    tlb.insert(1, 5)
    assert tlb.lookup(1, 5)
    assert tlb.hits == 1
    assert tlb.misses == 1


def test_tlb_invalidate():
    tlb = Tlb("cpu0")
    tlb.insert(1, 5)
    tlb.invalidate(1, 5)
    assert not tlb.lookup(1, 5)


def test_tlb_flush():
    tlb = Tlb("cpu0")
    for vpn in range(10):
        tlb.insert(1, vpn)
    tlb.flush()
    assert len(tlb) == 0


def test_tlb_capacity_eviction():
    tlb = Tlb("cpu0", capacity=4)
    for vpn in range(6):
        tlb.insert(1, vpn)
    assert len(tlb) == 4


def test_directory_tracks_holders():
    directory = TlbDirectory()
    directory.note_access("a", 1, 10)
    directory.note_access("b", 1, 10)
    directory.note_access("a", 1, 11)
    assert directory.holders(1, 10) == {"a", "b"}
    assert directory.holders(1, 11) == {"a"}
    assert directory.holders(1, 99) == set()


def test_directory_shootdown_clears_and_counts():
    directory = TlbDirectory()
    directory.note_access("a", 1, 10)
    directory.note_access("b", 1, 10)
    cpus = directory.shootdown(1, 10)
    assert cpus == {"a", "b"}
    assert directory.holders(1, 10) == set()
    assert directory.shootdowns == 1
    assert directory.ipis_sent == 2


def test_directory_shootdown_untracked_page():
    directory = TlbDirectory()
    assert directory.shootdown(1, 10) == set()


def test_directory_page_mask_is_sized_once():
    directory = TlbDirectory()
    directory.note_access("cpu0", 3, 7)
    mask = directory.page_mask(3, "cpu0", 5000)
    assert len(mask) >= 5000 and mask[7]
    directory.note_access("cpu0", 3, 4999)
    directory.note_access("cpu0", 3, 4000)
    assert directory.page_mask(3, "cpu0", 5000) is mask
    assert directory.holders(3, 4999) == {"cpu0"}
