"""Transactional page migration: the Figure-3 protocol."""

import pytest

from repro.core.queues import MigrationRequest
from repro.core.shadow import ShadowIndex
from repro.core.tpm import TpmOutcome, TransactionalMigrator
from repro.mem.frame import FrameFlags
from repro.mmu.pte import PTE_DIRTY, PTE_PRESENT, PTE_SOFT_SHADOW_RW

from ..conftest import make_machine


def setup(machine, shadowing=True):
    shadow_index = ShadowIndex(machine)
    migrator = TransactionalMigrator(machine, shadow_index, shadowing=shadowing)
    space = machine.create_space()
    vma = space.mmap(4)
    machine.populate(space, [vma.start], 1)
    gpfn = int(space.page_table.gpfn[vma.start])
    frame = machine.tiers.frame(gpfn)
    request = MigrationRequest(frame, space, vma.start, frame.generation)
    return migrator, shadow_index, space, vma.start, frame, request


def drive(machine, migrator, request, during=None):
    """Run one transaction on the engine; return its TpmResult."""
    out = {}
    cpu = machine.cpus.get("kpromote")

    def proc():
        result = yield from migrator.migrate(request, cpu)
        out["result"] = result

    machine.engine.spawn(proc(), "txn")
    if during is not None:
        machine.engine.spawn(during, "during")
    machine.engine.run(until=10_000_000)
    return out["result"]


def test_commit_moves_page_and_creates_shadow():
    m = make_machine()
    migrator, shadow_index, space, vpn, frame, request = setup(m)
    result = drive(m, migrator, request)
    assert result.outcome is TpmOutcome.COMMITTED
    new_gpfn = int(space.page_table.gpfn[vpn])
    assert m.tiers.tier_of(new_gpfn) == 0
    # The old frame survives as the shadow copy.
    assert frame.is_shadow
    assert not frame.mapped
    assert not frame.on_lru
    assert shadow_index.lookup(result.new_frame) is frame
    assert result.new_frame.shadowed


def test_commit_write_protects_master_with_soft_bit():
    m = make_machine()
    migrator, _si, space, vpn, frame, request = setup(m)
    assert space.page_table.is_writable(vpn)
    drive(m, migrator, request)
    pt = space.page_table
    assert not pt.is_writable(vpn)
    assert pt.test_flags(vpn, PTE_SOFT_SHADOW_RW)
    assert pt.is_present(vpn)


def test_page_remains_accessible_during_copy():
    """The headline property: no prot_none/unmap before the copy ends."""
    m = make_machine()
    migrator, _si, space, vpn, frame, request = setup(m)
    observed = []

    def snooper():
        # Sample the PTE midway through the copy.
        yield 1500.0
        observed.append(bool(space.page_table.flags[vpn] & PTE_PRESENT))

    drive(m, migrator, request, during=snooper())
    assert observed == [True]


def test_store_during_copy_aborts():
    m = make_machine()
    migrator, shadow_index, space, vpn, frame, request = setup(m)
    pt = space.page_table

    def writer():
        yield 1500.0  # lands inside the copy window
        pt.set_flags(vpn, PTE_DIRTY)
        pt.last_write[vpn] = m.engine.now

    result = drive(m, migrator, request, during=writer())
    assert result.outcome is TpmOutcome.ABORTED_DIRTY
    # Original mapping restored verbatim, still on the slow tier.
    assert pt.is_present(vpn)
    assert m.tiers.tier_of(int(pt.gpfn[vpn])) == 1
    assert pt.is_writable(vpn)
    assert pt.is_dirty(vpn)
    # The allocated fast frame was released; no shadow created.
    assert m.tiers.fast.nr_free == m.tiers.fast.nr_pages
    assert shadow_index.nr_shadows == 0
    assert m.stats.get("nomad.tpm_aborts") == 1


def test_store_before_transaction_does_not_abort():
    m = make_machine()
    migrator, _si, space, vpn, frame, request = setup(m)
    pt = space.page_table
    pt.set_flags(vpn, PTE_DIRTY)
    pt.last_write[vpn] = -100.0  # dirtied long before the transaction
    # Step 1 clears the dirty bit; no store follows, so it commits.
    result = drive(m, migrator, request)
    assert result.outcome is TpmOutcome.COMMITTED


def test_nomem_fails_without_side_effects():
    m = make_machine()
    migrator, shadow_index, space, vpn, frame, request = setup(m)
    while m.tiers.fast.nr_free:
        m.tiers.alloc_on(0)
    result = drive(m, migrator, request)
    assert result.outcome is TpmOutcome.FAILED_NOMEM
    assert space.page_table.is_present(vpn)
    assert m.tiers.tier_of(int(space.page_table.gpfn[vpn])) == 1
    assert not frame.locked


def test_stale_request_skipped():
    m = make_machine()
    migrator, _si, space, vpn, frame, request = setup(m)
    request.generation -= 1  # frame was recycled since enqueue
    result = drive(m, migrator, request)
    assert result.outcome is TpmOutcome.FAILED_STALE


def test_fast_tier_page_is_stale():
    m = make_machine()
    migrator, _si, space, vpn, frame, request = setup(m)
    drive(m, migrator, request)
    # Second attempt on the (now fast-tier) mapping must be rejected.
    new_frame = m.tiers.frame(int(space.page_table.gpfn[vpn]))
    second = MigrationRequest(new_frame, space, vpn, new_frame.generation)
    result = drive(m, migrator, second)
    assert result.outcome is TpmOutcome.FAILED_STALE


def test_locked_page_is_busy():
    m = make_machine()
    migrator, _si, space, vpn, frame, request = setup(m)
    frame.set_flag(FrameFlags.LOCKED)
    result = drive(m, migrator, request)
    assert result.outcome is TpmOutcome.FAILED_BUSY
    frame.clear_flag(FrameFlags.LOCKED)


def test_tpm_without_shadowing_frees_source():
    m = make_machine()
    migrator, shadow_index, space, vpn, frame, request = setup(m, shadowing=False)
    result = drive(m, migrator, request)
    assert result.outcome is TpmOutcome.COMMITTED
    # Exclusive variant: old frame freed, master stays writable.
    assert m.tiers.slow.nr_free == m.tiers.slow.nr_pages
    assert shadow_index.nr_shadows == 0
    assert space.page_table.is_writable(vpn)


def test_two_shootdowns_per_committed_transaction():
    m = make_machine()
    migrator, _si, space, vpn, frame, request = setup(m)
    m.tlb_directory.note_access("app0", space.asid, vpn)
    before = m.stats.get("tlb.shootdowns")
    drive(m, migrator, request)
    assert m.stats.get("tlb.shootdowns") == before + 2


def test_cycles_accounted_to_kpromote():
    m = make_machine()
    migrator, _si, space, vpn, frame, request = setup(m)
    result = drive(m, migrator, request)
    breakdown = m.stats.breakdown("kpromote")
    assert breakdown.get("tpm_copy", 0) == pytest.approx(
        m.costs.page_copy_cycles(1, 0)
    )
    assert sum(breakdown.values()) == pytest.approx(result.cycles)


def test_read_only_page_master_has_no_soft_bit():
    m = make_machine()
    shadow_index = ShadowIndex(m)
    migrator = TransactionalMigrator(m, shadow_index)
    space = m.create_space()
    vma = space.mmap(1)
    m.populate(space, [vma.start], 1, writable=False)
    frame = m.tiers.frame(int(space.page_table.gpfn[vma.start]))
    request = MigrationRequest(frame, space, vma.start, frame.generation)
    result = drive(m, migrator, request)
    assert result.outcome is TpmOutcome.COMMITTED
    pt = space.page_table
    assert not pt.is_writable(vma.start)
    assert not pt.test_flags(vma.start, PTE_SOFT_SHADOW_RW)
