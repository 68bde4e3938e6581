"""Address spaces and VMAs."""

import pytest

from repro.mmu.address_space import AddressSpace


def test_unique_asids():
    a = AddressSpace(16)
    b = AddressSpace(16)
    assert a.asid != b.asid


def test_mmap_contiguous_ranges():
    space = AddressSpace(100)
    v1 = space.mmap(30, "a")
    v2 = space.mmap(20, "b")
    assert v1.start == 0 and v1.end == 30
    assert v2.start == 30 and v2.end == 50
    assert list(v1.vpns()) == list(range(30))


def test_mmap_exhaustion():
    space = AddressSpace(10)
    space.mmap(8)
    with pytest.raises(MemoryError):
        space.mmap(3)


def test_mmap_invalid_size():
    space = AddressSpace(10)
    with pytest.raises(ValueError):
        space.mmap(0)


def test_vma_contains_and_lookup():
    space = AddressSpace(100)
    v1 = space.mmap(10, "x")
    v2 = space.mmap(10, "y")
    assert 5 in v1 and 5 not in v2
    assert space.vma_of(5) is v1
    assert space.vma_of(15) is v2
    assert space.vma_of(99) is None


def test_rss_counts_only_present(machine):
    space = machine.create_space("t")
    vma = space.mmap(10)
    assert space.rss_pages == 0
    machine.populate(space, vma.vpns(), 0)
    assert space.rss_pages == 10


