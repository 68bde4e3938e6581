"""Transactional migration of huge folios: the chunked-copy protocol.

Mirrors tests/core/test_tpm.py at PMD granularity. The properties under
test are the ones the chunked design exists for:

* the folio stays mapped during the whole copy; the original PMD is
  never cleared before commit, so an abort has nothing to restore;
* a store into *any* sub-page during the copy window is caught by the
  next chunk's dirty re-check (tracepoint reason ``chunk_dirty``), never
  by the engine-atomic final check (reason ``dirty``);
* after an abort the transaction can simply be retried.
"""

import pytest

from repro.core.queues import MigrationRequest
from repro.core.shadow import ShadowIndex
from repro.core.tpm import TpmOutcome, TransactionalMigrator
from repro.mmu.pte import PTE_DIRTY, PTE_SOFT_SHADOW_RW

from ..conftest import make_machine


def make_thp_machine(order=6):
    # Order 6 = 64 pages = two 32-page copy chunks on the default cost
    # model; a tiny tier (256 pages) still fits four folios.
    return make_machine(thp_enabled=True, thp_order=order)


def setup_folio(machine, shadowing=True):
    shadow_index = ShadowIndex(machine)
    migrator = TransactionalMigrator(machine, shadow_index, shadowing=shadowing)
    space = machine.create_space()
    fp = machine.folio_pages
    vma = space.mmap(fp, name="thp-area", thp=True)
    machine.populate(space, [vma.start], 1)
    head_vpn = vma.start
    pt = space.page_table
    assert pt.is_huge(head_vpn)
    frame = machine.tiers.frame(int(pt.gpfn[head_vpn]))
    assert frame.is_huge and not frame.is_tail
    request = MigrationRequest(frame, space, head_vpn, frame.generation)
    return migrator, shadow_index, space, head_vpn, frame, request


def drive(machine, migrator, request, during=None):
    out = {}
    cpu = machine.cpus.get("kpromote")

    def proc():
        result = yield from migrator.migrate(request, cpu)
        out["result"] = result

    machine.engine.spawn(proc(), "txn")
    if during is not None:
        machine.engine.spawn(during, "during")
    machine.engine.run(until=50_000_000)
    return out["result"]


def copy_window(machine):
    """(start, chunk_cycles) of the chunked copy, from the cost model."""
    costs = machine.costs
    start = (
        costs.migrate_setup
        + costs.pmd_update
        + costs.tlb_flush_local
        + costs.alloc_page
    )
    chunk = costs.folio_copy_cycles(1, 0, costs.thp_chunk_pages)
    return start, chunk


def abort_reasons(machine):
    return [
        r.args["reason"]
        for r in machine.obs.ring.records()
        if r.name == "tpm.abort"
    ]


def test_folio_commit_moves_whole_folio_and_creates_shadow():
    m = make_thp_machine()
    migrator, shadow_index, space, vpn, frame, request = setup_folio(m)
    fp = m.folio_pages
    result = drive(m, migrator, request)
    assert result.outcome is TpmOutcome.COMMITTED
    pt = space.page_table
    for off in range(fp):
        assert m.tiers.tier_of(int(pt.gpfn[vpn + off])) == 0
        assert pt.is_huge(vpn + off)
    # The whole slow folio survives as one shadow.
    assert frame.is_shadow and frame.is_huge
    assert shadow_index.lookup(result.new_frame) is frame
    assert shadow_index.nr_shadow_pages == fp
    assert m.stats.get("thp.folio_promotions") == 1
    assert m.stats.get("migrate.promotions") == 1  # one *event* per folio


def test_folio_commit_write_protects_every_subpage():
    m = make_thp_machine()
    migrator, _si, space, vpn, frame, request = setup_folio(m)
    drive(m, migrator, request)
    pt = space.page_table
    for off in range(m.folio_pages):
        assert not pt.is_writable(vpn + off)
        assert pt.test_flags(vpn + off, PTE_SOFT_SHADOW_RW)


def test_folio_stays_mapped_during_chunked_copy():
    m = make_thp_machine()
    migrator, _si, space, vpn, frame, request = setup_folio(m)
    start, chunk = copy_window(m)
    observed = []

    def snooper():
        # Midway through the second chunk's copy.
        yield start + chunk + m.costs.thp_chunk_check + chunk / 2
        pt = space.page_table
        observed.append(
            all(pt.is_present(vpn + off) for off in range(m.folio_pages))
        )

    drive(m, migrator, request, during=snooper())
    assert observed == [True]


@pytest.mark.parametrize("sub_page", [0, 17, 63])
def test_store_into_any_subpage_during_copy_aborts_via_chunk_check(sub_page):
    m = make_thp_machine()
    m.obs.enable(sample_period=None)
    migrator, shadow_index, space, vpn, frame, request = setup_folio(m)
    pt = space.page_table
    start, chunk = copy_window(m)

    def writer():
        yield start + chunk / 2  # inside the first chunk's copy
        pt.set_flags(vpn + sub_page, PTE_DIRTY)
        pt.last_write[vpn + sub_page] = m.engine.now

    result = drive(m, migrator, request, during=writer())
    assert result.outcome is TpmOutcome.ABORTED_DIRTY
    # The PMD was never cleared: the original mapping is fully intact.
    for off in range(m.folio_pages):
        assert pt.is_present(vpn + off)
        assert pt.is_huge(vpn + off)
        assert m.tiers.tier_of(int(pt.gpfn[vpn + off])) == 1
    assert pt.is_writable(vpn)
    # The destination folio was released; no shadow came to exist.
    assert m.tiers.fast.nr_free == m.tiers.fast.nr_pages
    assert shadow_index.nr_shadows == 0
    assert m.stats.get("nomad.tpm_aborts") == 1
    assert m.stats.get("nomad.tpm_chunk_aborts") == 1
    # Tracepoint-asserted: the abort came from the chunk re-check path,
    # never from the engine-atomic final dirty check.
    assert abort_reasons(m) == ["chunk_dirty"]


def test_store_in_later_chunk_window_caught_by_that_chunk():
    m = make_thp_machine(order=7)  # 128 pages -> four 32-page chunks
    m.obs.enable(sample_period=None)
    migrator, _si, space, vpn, frame, request = setup_folio(m)
    pt = space.page_table
    start, chunk = copy_window(m)
    check = m.costs.thp_chunk_check

    def writer():
        # Inside chunk 1's copy slice (after chunk 0's copy + re-check).
        yield start + chunk + check + chunk / 2
        pt.set_flags(vpn + 100, PTE_DIRTY)
        pt.last_write[vpn + 100] = m.engine.now

    result = drive(m, migrator, request, during=writer())
    assert result.outcome is TpmOutcome.ABORTED_DIRTY
    chunks = [r for r in m.obs.ring.records() if r.name == "tpm.chunk"]
    # Chunk 0 passed its re-check; chunk 1 observed the store; chunks
    # 2 and 3 were never copied.
    assert [c.args["dirty"] for c in chunks] == [False, True]
    assert abort_reasons(m) == ["chunk_dirty"]


def test_abort_then_retry_commits():
    m = make_thp_machine()
    migrator, shadow_index, space, vpn, frame, request = setup_folio(m)
    pt = space.page_table
    start, chunk = copy_window(m)

    def writer():
        yield start + chunk / 2
        pt.set_flags(vpn, PTE_DIRTY)
        pt.last_write[vpn] = m.engine.now

    first = drive(m, migrator, request, during=writer())
    assert first.outcome is TpmOutcome.ABORTED_DIRTY
    # No store races the retry: the re-opened transaction commits.
    retry = MigrationRequest(frame, space, vpn, frame.generation)
    second = drive(m, migrator, retry)
    assert second.outcome is TpmOutcome.COMMITTED
    assert shadow_index.nr_shadow_pages == m.folio_pages
    assert m.stats.get("nomad.tpm_aborts") == 1
    assert m.stats.get("nomad.tpm_commits") == 1


def test_store_before_transaction_does_not_abort():
    m = make_thp_machine()
    migrator, _si, space, vpn, frame, request = setup_folio(m)
    pt = space.page_table
    pt.set_flags(vpn + 5, PTE_DIRTY)
    pt.last_write[vpn + 5] = -100.0
    result = drive(m, migrator, request)
    assert result.outcome is TpmOutcome.COMMITTED


def test_folio_nomem_fails_without_side_effects():
    m = make_thp_machine()
    migrator, _si, space, vpn, frame, request = setup_folio(m)
    while m.tiers.fast.nr_free:
        m.tiers.alloc_on(0)
    result = drive(m, migrator, request)
    assert result.outcome is TpmOutcome.FAILED_NOMEM
    pt = space.page_table
    assert pt.is_present(vpn) and pt.is_huge(vpn)
    assert m.tiers.tier_of(int(pt.gpfn[vpn])) == 1
    assert not frame.locked


def test_folio_without_shadowing_frees_source_folio():
    m = make_thp_machine()
    migrator, shadow_index, space, vpn, frame, request = setup_folio(
        m, shadowing=False
    )
    result = drive(m, migrator, request)
    assert result.outcome is TpmOutcome.COMMITTED
    assert m.tiers.slow.nr_free == m.tiers.slow.nr_pages
    assert shadow_index.nr_shadows == 0
    assert space.page_table.is_writable(vpn)


def test_folio_transaction_needs_two_shootdowns():
    m = make_thp_machine()
    migrator, _si, space, vpn, frame, request = setup_folio(m)
    before = m.stats.get("tlb.shootdowns")
    drive(m, migrator, request)
    # One PMD entry to shoot down at open and one at commit -- not one
    # per sub-page.
    assert m.stats.get("tlb.shootdowns") == before + 2
