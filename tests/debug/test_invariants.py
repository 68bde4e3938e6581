"""The invariant registry and checker, proven on seeded corruptions.

Each check gets a clean small machine, one surgically corrupted
structure, and an assertion that the right invariant names it.
"""

import pytest

from repro.debug.invariants import (
    INVARIANTS,
    InvariantChecker,
    InvariantViolationError,
    register_invariant,
)
from repro.kernel.reclaim import MAX_RECLAIM_RETRIES
from repro.mem.frame import FrameFlags
from repro.mem.tiers import FAST_TIER
from repro.mmu.pte import PTE_SOFT_SHADOW_RW, PTE_WRITE
from repro.policies import make_policy

from ..conftest import make_machine

EXPECTED_CHECKS = {
    "pte.mapping",
    "shadow.index",
    "folio.integrity",
    "lru.membership",
    "mem.accounting",
    "tier.accounting",
    "queue.consistency",
    "kswapd.backoff",
}


def nomad_machine():
    machine = make_machine()
    machine.set_policy(make_policy("nomad", machine))
    return machine


def populated(machine, pages=8):
    space = machine.create_space("t")
    vma = space.mmap(pages)
    machine.populate(space, vma.vpns(), FAST_TIER)
    return space, vma


def details(machine, check):
    return INVARIANTS[check].func(machine)


# ----------------------------------------------------------------------
# Registry and checker plumbing
# ----------------------------------------------------------------------
def test_registry_contains_the_documented_checks():
    assert EXPECTED_CHECKS <= set(INVARIANTS)


def test_register_invariant_rejects_duplicates():
    with pytest.raises(ValueError):
        register_invariant("pte.mapping", "again")(lambda m: [])


def test_checker_rejects_unknown_check_names():
    with pytest.raises(ValueError):
        InvariantChecker(make_machine(), checks=["no.such.check"])


def test_clean_machine_passes_every_check():
    machine = nomad_machine()
    populated(machine)
    checker = InvariantChecker(machine)
    assert checker.check_now() == []
    assert checker.nr_passes == 1
    assert checker.nr_violations == 0


def test_checker_deduplicates_persistent_violations():
    machine = nomad_machine()
    space, vma = populated(machine)
    # One corruption, two findings: the PTE side reports the bad gpfn
    # and the rmap side reports the frame whose mapping went dangling.
    space.page_table.gpfn[vma.start] = 10**9
    checker = InvariantChecker(machine, checks=["pte.mapping"])
    first = checker.check_now()
    assert len(first) == 2
    assert checker.check_now() == []  # same corruption, nothing new
    assert checker.nr_violations == 4  # but every sighting is counted
    assert len(checker.violations) == 2


def test_raise_on_violation_raises_with_the_finding():
    machine = nomad_machine()
    space, vma = populated(machine)
    space.page_table.gpfn[vma.start] = 10**9
    checker = InvariantChecker(machine, raise_on_violation=True)
    with pytest.raises(InvariantViolationError) as excinfo:
        checker.check_now()
    assert excinfo.value.violation.check == "pte.mapping"


def test_violations_emit_tracepoints_and_bump_the_counter():
    machine = nomad_machine()
    space, vma = populated(machine)
    machine.obs.enable(sample_period=None)
    space.page_table.gpfn[vma.start] = 10**9
    InvariantChecker(machine, checks=["pte.mapping"]).check_now()
    assert machine.stats.counters["debug.invariant_violations"] == 2
    assert len(machine.obs.select("debug.violation")) == 2
    assert len(machine.obs.select("debug.check")) == 1


# ----------------------------------------------------------------------
# pte.mapping
# ----------------------------------------------------------------------
def test_pte_mapping_catches_dangling_pte():
    machine = nomad_machine()
    space, vma = populated(machine)
    # Point one PTE at a frame that never rmapped it.
    victim = int(space.page_table.gpfn[vma.start])
    other = victim + 1 if victim + 1 < machine.tiers.total_pages else victim - 1
    space.page_table.gpfn[vma.start] = other
    found = details(machine, "pte.mapping")
    assert any("no rmap" in d for d in found)


def test_pte_mapping_catches_rmap_to_wrong_gpfn():
    machine = nomad_machine()
    space, vma = populated(machine)
    frame = machine.tiers.frame(int(space.page_table.gpfn[vma.start]))
    frame.add_rmap(space, vma.start + 1)  # claims a vpn mapped elsewhere
    found = details(machine, "pte.mapping")
    assert any("expected" in d for d in found)


# ----------------------------------------------------------------------
# shadow.index
# ----------------------------------------------------------------------
def shadowed_master(machine):
    """Map one read-only fast page and hand-build its shadow entry."""
    space, vma = populated(machine, pages=1)
    pt = space.page_table
    pt.clear_flags(vma.start, PTE_WRITE)
    pt.set_flags(vma.start, PTE_SOFT_SHADOW_RW)
    master = machine.tiers.frame(int(pt.gpfn[vma.start]))
    shadow = machine.tiers.slow.alloc()
    machine.policy.shadow_index.insert(master, shadow)
    return space, vma, master, shadow


def test_shadow_index_clean_state_passes():
    machine = nomad_machine()
    shadowed_master(machine)
    assert details(machine, "shadow.index") == []


def test_shadow_index_catches_writable_master():
    machine = nomad_machine()
    space, vma, master, shadow = shadowed_master(machine)
    space.page_table.set_flags(vma.start, PTE_WRITE)
    found = details(machine, "shadow.index")
    assert any("writable" in d and "while its shadow lives" in d for d in found)


def test_shadow_index_catches_orphaned_flags():
    machine = nomad_machine()
    space, vma, master, shadow = shadowed_master(machine)
    machine.policy.shadow_index.xarray.erase(machine.tiers.gpfn(master))
    found = details(machine, "shadow.index")
    assert any("orphaned SHADOWED" in d for d in found)
    assert any("orphaned IS_SHADOW" in d for d in found)


def test_shadow_index_catches_page_accounting_drift():
    machine = nomad_machine()
    shadowed_master(machine)
    machine.policy.shadow_index._pages += 1
    found = details(machine, "shadow.index")
    assert any("accounting" in d for d in found)


# ----------------------------------------------------------------------
# folio.integrity
# ----------------------------------------------------------------------
def test_folio_integrity_catches_broken_tail_link():
    machine = make_machine()
    head = machine.tiers.fast.alloc_folio(2)
    assert head is not None
    tail = machine.tiers.fast.frames[head.pfn + 1]
    tail.head = None
    found = details(machine, "folio.integrity")
    assert any("head is" in d for d in found)


def test_folio_integrity_catches_free_covered_page():
    machine = make_machine()
    node = machine.tiers.fast
    head = node.alloc_folio(2)
    pfn = head.pfn + 2
    node._free_set.add(pfn)
    node._free_map[pfn] = True
    node._free.append(pfn)
    found = details(machine, "folio.integrity")
    assert any("free while" in d for d in found)


# ----------------------------------------------------------------------
# lru.membership
# ----------------------------------------------------------------------
def test_lru_membership_catches_flagged_but_unlisted_frame():
    machine = make_machine()
    frame = machine.tiers.fast.alloc()
    frame.set_flag(FrameFlags.LRU)
    found = details(machine, "lru.membership")
    assert any("on no list" in d for d in found)


def test_lru_membership_catches_active_flag_disagreement():
    machine = nomad_machine()
    populated(machine)
    listed = next(iter(machine.lru.inactive[FAST_TIER]))
    listed.set_flag(FrameFlags.ACTIVE)
    found = details(machine, "lru.membership")
    assert any("ACTIVE flag disagrees" in d for d in found)


# ----------------------------------------------------------------------
# mem.accounting
# ----------------------------------------------------------------------
def test_mem_accounting_catches_bitmap_divergence():
    machine = make_machine()
    node = machine.tiers.fast
    pfn = next(iter(node._free_set))
    node._free_map[pfn] = False  # bitmap says allocated, set says free
    found = details(machine, "mem.accounting")
    assert any("disagree" in d for d in found)


def test_mem_accounting_catches_dirty_free_frame():
    machine = make_machine()
    node = machine.tiers.fast
    pfn = next(iter(node._free_set))
    node.frames[pfn].set_flag(FrameFlags.REFERENCED)
    found = details(machine, "mem.accounting")
    assert any("not cleared" in d for d in found)


# ----------------------------------------------------------------------
# tier.accounting
# ----------------------------------------------------------------------
def test_tier_accounting_catches_base_drift():
    machine = make_machine()
    machine.tiers._base[1] += 1  # slow node's gpfn base slides off
    found = details(machine, "tier.accounting")
    assert any("cumulative" in d for d in found)


def test_tier_accounting_catches_foreign_tier_map_entry():
    machine = make_machine()
    machine.tiers.tier_of_gpfn[0] = 1  # a fast gpfn claims the slow tier
    found = details(machine, "tier.accounting")
    assert any("foreign entries" in d for d in found)


# ----------------------------------------------------------------------
# queue.consistency
# ----------------------------------------------------------------------
def test_queue_consistency_catches_member_desync():
    machine = nomad_machine()
    space, vma = populated(machine)
    frame = machine.tiers.frame(int(space.page_table.gpfn[vma.start]))
    from repro.core.queues import MigrationRequest

    req = MigrationRequest(frame, space, vma.start, frame.generation)
    machine.policy.mpq._queue.append(req)  # bypass the members dict
    found = details(machine, "queue.consistency")
    assert any("members" in d for d in found)


def test_queue_consistency_catches_exhausted_live_entry():
    machine = nomad_machine()
    space, vma = populated(machine)
    frame = machine.tiers.frame(int(space.page_table.gpfn[vma.start]))
    from repro.core.queues import MigrationRequest

    mpq = machine.policy.mpq
    req = MigrationRequest(
        frame, space, vma.start, frame.generation,
        attempts=mpq.max_attempts,
    )
    mpq._queue.append(req)
    mpq._members[id(frame)] = req
    found = details(machine, "queue.consistency")
    assert any("attempts" in d for d in found)


# ----------------------------------------------------------------------
# kswapd.backoff
# ----------------------------------------------------------------------
def parked_kswapd():
    """A no-migration machine whose fast-tier kswapd went hopeless."""
    machine = make_machine()
    machine.set_policy(make_policy("no-migration", machine))
    populated(machine, pages=machine.tiers.fast.nr_pages)
    machine.engine.run(until=50_000_000)
    daemon = machine.kswapd[FAST_TIER]
    assert daemon.parked_at is not None
    return machine, daemon


def test_kswapd_backoff_parked_daemon_passes():
    machine, _ = parked_kswapd()
    assert details(machine, "kswapd.backoff") == []


def test_kswapd_backoff_catches_wrong_failure_count():
    machine, daemon = parked_kswapd()
    daemon.failures = MAX_RECLAIM_RETRIES - 1
    found = details(machine, "kswapd.backoff")
    assert any("parked with" in d for d in found)


def test_kswapd_backoff_catches_snapshot_from_the_future():
    machine, daemon = parked_kswapd()
    daemon.parked_at = (daemon.parked_at[0] + 1,) + daemon.parked_at[1:]
    found = details(machine, "kswapd.backoff")
    assert any("exceeds its count" in d for d in found)
