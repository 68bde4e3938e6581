"""The access engine: vectorized execution, fault dispatch, timestamps."""

import numpy as np
import pytest

from repro.mem.tiers import FAST_TIER, SLOW_TIER
from repro.mmu.faults import UnhandledFault
from repro.mmu.pte import PTE_PROT_NONE, PTE_WRITE
from repro.policies.base import TieringPolicy

from ..conftest import make_machine


def run_chunk(machine, space, vpns, writes=None):
    cpu = machine.cpus.get("app0")
    vpns = np.asarray(vpns, dtype=np.int64)
    if writes is None:
        writes = np.zeros(len(vpns), dtype=bool)
    else:
        writes = np.asarray(writes, dtype=bool)
    return machine.access.run_chunk(space, cpu, vpns, writes)


def test_reads_cost_tier_latency():
    m = make_machine()
    space = m.create_space()
    vma = space.mmap(4)
    m.populate(space, [vma.start], FAST_TIER)
    m.populate(space, [vma.start + 1], SLOW_TIER)
    fast = run_chunk(m, space, [vma.start])
    slow = run_chunk(m, space, [vma.start + 1])
    assert fast.cycles == pytest.approx(m.costs.read_latency[0])
    assert slow.cycles == pytest.approx(m.costs.read_latency[1])


def test_chunk_accumulates_all_accesses():
    m = make_machine()
    space = m.create_space()
    vma = space.mmap(8)
    m.populate(space, vma.vpns(), FAST_TIER)
    result = run_chunk(m, space, list(vma.vpns()) * 3)
    assert result.reads == 24
    assert result.cycles == pytest.approx(24 * m.costs.read_latency[0])


def test_accessed_and_dirty_bits_set():
    m = make_machine()
    space = m.create_space()
    vma = space.mmap(2)
    m.populate(space, vma.vpns(), FAST_TIER)
    run_chunk(m, space, [vma.start, vma.start + 1], [False, True])
    pt = space.page_table
    assert pt.is_accessed(vma.start)
    assert not pt.is_dirty(vma.start)
    assert pt.is_dirty(vma.start + 1)


def test_write_timestamps_recorded_monotonically():
    m = make_machine()
    space = m.create_space()
    vma = space.mmap(2)
    m.populate(space, vma.vpns(), FAST_TIER)
    run_chunk(m, space, [vma.start, vma.start + 1], [True, True])
    pt = space.page_table
    t0 = pt.last_write[vma.start]
    t1 = pt.last_write[vma.start + 1]
    assert 0 < t0 < t1


def test_demand_paging_on_first_touch():
    m = make_machine()
    space = m.create_space()
    vma = space.mmap(4)
    result = run_chunk(m, space, [vma.start])
    assert result.faults == 1
    assert space.page_table.is_present(vma.start)
    # First-touch lands on the fast tier by default.
    gpfn = int(space.page_table.gpfn[vma.start])
    assert m.tiers.tier_of(gpfn) == FAST_TIER
    assert m.stats.get("fault.not_present") == 1


def test_demand_paged_frame_is_on_lru():
    m = make_machine()
    space = m.create_space()
    vma = space.mmap(1)
    run_chunk(m, space, [vma.start])
    frame = m.tiers.frame(int(space.page_table.gpfn[vma.start]))
    assert frame.on_lru
    assert not frame.active


def test_fault_mid_chunk_resumes_cleanly():
    m = make_machine()
    space = m.create_space()
    vma = space.mmap(3)
    m.populate(space, [vma.start, vma.start + 2], FAST_TIER)
    result = run_chunk(m, space, [vma.start, vma.start + 1, vma.start + 2])
    assert result.faults == 1
    assert result.reads == 3


def test_prot_none_dispatches_hint_fault_to_policy():
    m = make_machine()

    class Recorder(TieringPolicy):
        name = "recorder"

        def __init__(self, machine):
            super().__init__(machine)
            self.hints = []

        def handle_hint_fault(self, fault, cpu):
            self.hints.append(fault.vpn)
            fault.space.page_table.clear_flags(fault.vpn, PTE_PROT_NONE)
            return 10.0

    policy = Recorder(m)
    m.set_policy(policy)
    space = m.create_space()
    vma = space.mmap(1)
    m.populate(space, [vma.start], SLOW_TIER)
    space.page_table.set_flags(vma.start, PTE_PROT_NONE)
    result = run_chunk(m, space, [vma.start])
    assert policy.hints == [vma.start]
    assert result.faults == 1


def test_wp_fault_dispatches_to_policy():
    m = make_machine()

    class WpFix(TieringPolicy):
        name = "wpfix"
        wp_faults = 0

        def handle_wp_fault(self, fault, cpu):
            WpFix.wp_faults += 1
            fault.space.page_table.set_flags(fault.vpn, PTE_WRITE)
            return 5.0

    m.set_policy(WpFix(m))
    space = m.create_space()
    vma = space.mmap(1)
    m.populate(space, [vma.start], FAST_TIER, writable=False)
    run_chunk(m, space, [vma.start], [True])
    assert WpFix.wp_faults == 1
    assert space.page_table.is_writable(vma.start)


def test_unresolvable_fault_raises_after_retries():
    m = make_machine()

    class Broken(TieringPolicy):
        name = "broken"

        def handle_hint_fault(self, fault, cpu):
            return 1.0  # never fixes the PTE

    m.set_policy(Broken(m))
    space = m.create_space()
    vma = space.mmap(1)
    m.populate(space, [vma.start], SLOW_TIER)
    space.page_table.set_flags(vma.start, PTE_PROT_NONE)
    with pytest.raises(UnhandledFault):
        run_chunk(m, space, [vma.start])


def test_chunk_executed_event_sees_executed_segments():
    from repro.sim.bus import ChunkExecuted

    m = make_machine()
    seen = []

    def on_chunk(event):
        seen.append((list(event.vpns), list(event.writes)))

    sub = m.bus.subscribe(ChunkExecuted, on_chunk)
    space = m.create_space()
    vma = space.mmap(2)
    m.populate(space, vma.vpns(), FAST_TIER)
    run_chunk(m, space, [vma.start, vma.start + 1], [False, True])
    assert len(seen) == 1
    assert seen[0][0] == [vma.start, vma.start + 1]
    assert seen[0][1] == [False, True]
    m.bus.unsubscribe(sub)
    run_chunk(m, space, [vma.start])
    assert len(seen) == 1


def test_pending_stall_absorbed_into_chunk():
    m = make_machine()
    space = m.create_space()
    vma = space.mmap(1)
    m.populate(space, [vma.start], FAST_TIER)
    cpu = m.cpus.get("app0")
    cpu.pending_stall = 1000.0
    result = run_chunk(m, space, [vma.start])
    assert result.cycles == pytest.approx(1000.0 + m.costs.read_latency[0])
    assert cpu.pending_stall == 0.0


def test_user_cycles_accounted():
    m = make_machine()
    space = m.create_space()
    vma = space.mmap(1)
    m.populate(space, [vma.start], FAST_TIER)
    run_chunk(m, space, [vma.start] * 10)
    assert m.stats.breakdown("app0")["user"] == pytest.approx(
        10 * m.costs.read_latency[0]
    )


def test_access_one_wrapper():
    m = make_machine()
    space = m.create_space()
    vma = space.mmap(1)
    m.populate(space, [vma.start], SLOW_TIER)
    result = m.access.access_one(space, m.cpus.get("app0"), vma.start, write=True)
    assert result.writes == 1
    assert space.page_table.is_dirty(vma.start)


def test_tlb_directory_tracks_accessing_cpu():
    m = make_machine()
    space = m.create_space()
    vma = space.mmap(1)
    m.populate(space, [vma.start], FAST_TIER)
    run_chunk(m, space, [vma.start])
    assert m.tlb_directory.holders(space.asid, vma.start) == {"app0"}


@pytest.mark.parametrize("scalar_run_max", [0, 1 << 30])
def test_latency_hist_holds_accesses_plus_faults(monkeypatch, scalar_run_max):
    """A fault is one histogram sample at its service cycles and the
    retried access another at tier latency, in both run commits."""
    from repro.mmu import access

    monkeypatch.setattr(access, "SCALAR_RUN_MAX", scalar_run_max)
    m = make_machine()
    space = m.create_space()
    vma = space.mmap(8)
    m.populate(space, [vma.start, vma.start + 1], FAST_TIER)
    vpns = [vma.start, vma.start + 1] * 20 + list(vma.vpns())
    result = run_chunk(m, space, vpns, [i % 3 == 0 for i in range(len(vpns))])
    assert result.faults == 6
    assert result.reads + result.writes == len(vpns)
    assert result.latency_hist.sum() == len(vpns) + result.faults


def test_fractional_tier_latency_rejected():
    """Both run commits rely on whole-cycle latencies adding exactly."""
    from repro import Machine
    from repro.sim.platform import Platform

    platform = Platform(
        name="F",
        description="fractional latency",
        freq_ghz=2.0,
        cpu_count=4,
        read_latency_cycles=(300.0, 900.5),
        read_gbps=(12.0, 4.0),
        write_gbps=(20.0, 20.0),
        fast_gb=1.0,
        slow_gb=1.0,
    )
    name = platform.tier_topology().tiers[1].name
    with pytest.raises(ValueError, match=f"tier '{name}'.*whole number of cycles"):
        Machine(platform)


def test_store_after_a_fault_still_checks_write_permission():
    """Scans after a chunk's first fault test a store's PTE_WRITE too."""
    m = make_machine()
    seen = []

    class WpFix(TieringPolicy):
        name = "wpfix"

        def handle_wp_fault(self, fault, cpu):
            seen.append(fault.vpn)
            fault.space.page_table.set_flags(fault.vpn, PTE_WRITE)
            return 5.0

    m.set_policy(WpFix(m))
    space = m.create_space()
    vma = space.mmap(3)
    m.populate(space, [vma.start + 1], FAST_TIER, writable=False)
    m.populate(space, [vma.start + 2], FAST_TIER)
    vpns = [vma.start + 2, vma.start, vma.start + 2, vma.start + 1]
    result = run_chunk(m, space, vpns, [True, False, True, True])
    assert seen == [vma.start + 1]
    assert result.faults == 2
    assert result.writes == 3
