"""Machine-level behaviour: wiring, populate/demote_all, fault dispatch,
reports."""

import numpy as np
import pytest

from repro import MachineConfig
from repro.mmu.faults import UnhandledFault
from repro.policies import make_policy
from repro.workloads import SeqScanWorkload

from .conftest import make_machine


def test_machine_builds_expected_components(machine):
    assert machine.tiers.fast.nr_pages == 256
    assert machine.tiers.slow.nr_pages == 256
    assert len(machine.kswapd) == 2
    assert machine.policy is None
    assert machine.scanner is None


def test_set_policy_twice_rejected(machine):
    machine.set_policy(make_policy("no-migration", machine))
    with pytest.raises(RuntimeError):
        machine.set_policy(make_policy("tpp", machine))


def test_start_numa_scanner_idempotent(machine):
    machine.start_numa_scanner()
    scanner = machine.scanner
    machine.start_numa_scanner()
    assert machine.scanner is scanner


def test_create_space_registers(machine):
    space = machine.create_space("x")
    assert space in machine.spaces
    assert space.page_table.nr_vpns == machine.config.address_space_pages


def test_populate_reports_on_tier_count(machine):
    space = machine.create_space()
    vma = space.mmap(300)
    on_fast = machine.populate(space, vma.vpns(), 0)
    # Only 256 fast frames exist; the rest spilled to slow.
    assert on_fast <= 256
    assert space.rss_pages == 300


def test_populate_skips_already_mapped(machine):
    space = machine.create_space()
    vma = space.mmap(4)
    machine.populate(space, vma.vpns(), 0)
    again = machine.populate(space, vma.vpns(), 1)
    assert again == 0
    pt = space.page_table
    tiers = machine.tiers.tier_of_gpfn[pt.gpfn[np.asarray(list(vma.vpns()))]]
    assert (tiers == 0).all()


def test_populate_readonly(machine):
    space = machine.create_space()
    vma = space.mmap(2)
    machine.populate(space, vma.vpns(), 0, writable=False)
    assert not space.page_table.is_writable(vma.start)


def test_demote_all_moves_fast_pages(machine):
    space = machine.create_space()
    vma = space.mmap(50)
    machine.populate(space, vma.vpns(), 0)
    moved = machine.demote_all(space)
    assert moved == 50
    pt = space.page_table
    tiers = machine.tiers.tier_of_gpfn[pt.gpfn[np.asarray(list(vma.vpns()))]]
    assert (tiers == 1).all()
    assert machine.tiers.fast.nr_free == machine.tiers.fast.nr_pages


def test_demote_all_stops_when_slow_full(machine):
    space = machine.create_space()
    big = space.mmap(256)
    machine.populate(space, big.vpns(), 1)  # fills slow tier
    small = space.mmap(10)
    machine.populate(space, small.vpns(), 0)
    moved = machine.demote_all(space)
    assert moved == 0


def test_demote_all_preserves_permissions(machine):
    space = machine.create_space()
    vma = space.mmap(2)
    machine.populate(space, [vma.start], 0, writable=True)
    machine.populate(space, [vma.start + 1], 0, writable=False)
    machine.demote_all(space)
    assert space.page_table.is_writable(vma.start)
    assert not space.page_table.is_writable(vma.start + 1)


def test_demand_page_prefers_policy_tier(machine):
    class SlowFirst(type(make_policy("no-migration", machine))):
        pass

    policy = make_policy("no-migration", machine)
    policy.alloc_preference = lambda fault: 1
    machine.set_policy(policy)
    space = machine.create_space()
    vma = space.mmap(1)
    machine.access.run_chunk(
        space,
        machine.cpus.get("app0"),
        np.array([vma.start], dtype=np.int64),
        np.array([False]),
    )
    gpfn = int(space.page_table.gpfn[vma.start])
    assert machine.tiers.tier_of(gpfn) == 1


def test_demand_page_write_fault_sets_dirty(machine):
    machine.set_policy(make_policy("no-migration", machine))
    space = machine.create_space()
    vma = space.mmap(1)
    machine.access.run_chunk(
        space,
        machine.cpus.get("app0"),
        np.array([vma.start], dtype=np.int64),
        np.array([True]),
    )
    assert space.page_table.is_dirty(vma.start)


def test_hint_fault_without_policy_raises(machine):
    space = machine.create_space()
    vma = space.mmap(1)
    machine.populate(space, [vma.start], 1)
    from repro.mmu.pte import PTE_PROT_NONE

    space.page_table.set_flags(vma.start, PTE_PROT_NONE)
    with pytest.raises(UnhandledFault):
        machine.access.run_chunk(
            space,
            machine.cpus.get("app0"),
            np.array([vma.start], dtype=np.int64),
            np.array([False]),
        )


def test_tlb_shootdown_cost_scales_with_holders(machine):
    space = machine.create_space()
    vma = space.mmap(1)
    machine.populate(space, [vma.start], 0)
    initiator = machine.cpus.get("kpromote")
    # No holders: local flush only.
    solo = machine.tlb_shootdown(space, vma.start, initiator)
    assert solo == machine.costs.tlb_flush_local
    # Two remote holders: base + one extra CPU.
    machine.tlb_directory.note_access("app0", space.asid, vma.start)
    machine.tlb_directory.note_access("app1", space.asid, vma.start)
    multi = machine.tlb_shootdown(space, vma.start, initiator)
    assert multi == machine.costs.shootdown_cycles(2)
    assert machine.cpus.get("app0").pending_stall > 0


def test_run_workload_requires_completion(machine):
    machine.set_policy(make_policy("no-migration", machine))
    wl = SeqScanWorkload(rss_gb=0.25, total_accesses=1000)
    report = machine.run_workload(wl)
    assert wl.finished
    assert report.overall.accesses == 1000


def test_policy_swap_mid_session():
    from repro.sim.bus import HintFault, WpFault

    machine = make_machine()
    machine.set_policy(make_policy("tpp", machine))
    assert machine.bus.has_subscribers(HintFault)
    first = machine.run_workload(SeqScanWorkload(rss_gb=0.25, total_accesses=500))
    assert first.overall.accesses == 500

    machine.clear_policy()
    assert machine.policy is None
    assert machine.scanner is None
    assert not machine.bus.has_subscribers(HintFault)
    assert not machine.bus.has_subscribers(WpFault)

    # A second policy installs cleanly onto the same machine and serves
    # the next run's faults through the bus.
    machine.set_policy(make_policy("nomad", machine))
    assert machine.bus.has_subscribers(WpFault)
    second = machine.run_workload(SeqScanWorkload(rss_gb=0.25, total_accesses=500))
    assert second.overall.accesses == 500


def test_clear_policy_without_policy_is_noop(machine):
    machine.clear_policy()
    assert machine.policy is None


def test_report_counter_delta_not_cumulative():
    machine = make_machine()
    machine.set_policy(make_policy("tpp", machine))
    first = machine.run_workload(SeqScanWorkload(rss_gb=0.25, total_accesses=500))
    second = machine.run_workload(
        SeqScanWorkload(rss_gb=0.25, total_accesses=500)
    )
    # The second report contains only the second run's fault growth.
    assert second.counters.get("fault.total", 0) <= first.counters.get(
        "fault.total", 0
    ) + 500


def test_machine_config_defaults():
    config = MachineConfig()
    assert config.chunk_size == 256
    assert 0 < config.transient_frac < 1
    assert 0 < config.stable_frac < 1
