"""Failure injection: exhaustion, broken policies, daemon crashes.

The machine must fail loudly and leave consistent state -- never limp
along with corrupted page tables or leaked frames.
"""

import numpy as np
import pytest

from repro import Machine, MachineConfig, OutOfMemoryError
from repro.policies import make_policy
from repro.policies.base import TieringPolicy
from repro.workloads import SeqScanWorkload, ZipfianMicrobench

from ..conftest import tiny_platform
from .invariants import check_invariants


def build(policy=None, fast_gb=1.0, slow_gb=1.0):
    machine = Machine(
        tiny_platform(fast_gb=fast_gb, slow_gb=slow_gb),
        MachineConfig(chunk_size=32),
    )
    if policy is not None:
        machine.set_policy(make_policy(policy, machine))
    return machine


def test_oom_raises_cleanly_without_migration_relief():
    """An RSS beyond total capacity OOMs under no-migration; the machine
    state stays consistent afterwards."""
    machine = build("no-migration")
    workload = SeqScanWorkload(rss_gb=2.5, total_accesses=100_000)
    with pytest.raises(OutOfMemoryError):
        machine.run_workload(workload)
    check_invariants(machine)
    # Every frame is either free or mapped; none leaked mid-allocation.
    for node in machine.tiers.nodes:
        assert node.nr_free + node.nr_used == node.nr_pages


def test_nomad_survives_where_no_migration_ooms_is_not_expected():
    """Shadow reclamation helps only with shadow pressure -- a genuinely
    oversized RSS still OOMs under Nomad too (shadows cannot conjure
    capacity)."""
    machine = build("nomad")
    workload = SeqScanWorkload(rss_gb=2.5, total_accesses=100_000)
    with pytest.raises(OutOfMemoryError):
        machine.run_workload(workload)
    check_invariants(machine)


def test_policy_exception_propagates_with_state_intact():
    class Exploding(TieringPolicy):
        name = "exploding"

        def install(self):
            super().install()
            self.machine.start_numa_scanner()

        def handle_hint_fault(self, fault, cpu):
            raise RuntimeError("injected failure")

    machine = build()
    machine.set_policy(Exploding(machine))
    space = machine.create_space()
    vma = space.mmap(4)
    machine.populate(space, vma.vpns(), 1)
    from repro.mmu.pte import PTE_PROT_NONE

    space.page_table.set_flags(vma.start, PTE_PROT_NONE)
    with pytest.raises(RuntimeError, match="injected failure"):
        machine.access.run_chunk(
            space,
            machine.cpus.get("app0"),
            np.array([vma.start], dtype=np.int64),
            np.array([False]),
        )
    check_invariants(machine)


def test_daemon_crash_surfaces_from_run_workload():
    machine = build("no-migration")

    def broken_daemon():
        yield 1_000.0
        raise ValueError("daemon died")

    machine.engine.spawn(broken_daemon(), "broken")
    workload = SeqScanWorkload(rss_gb=0.5, total_accesses=50_000)
    with pytest.raises(ValueError, match="daemon died"):
        machine.run_workload(workload)


def test_kpromote_crash_mid_transaction_releases_lock():
    """Killing kpromote mid-copy must not leave the page locked forever
    (the generator's finally clause unlocks)."""
    from repro.core.queues import MigrationRequest

    machine = build("nomad")
    policy = machine.policy
    space = machine.create_space()
    vma = space.mmap(1)
    machine.populate(space, [vma.start], 1)
    frame = machine.tiers.frame(int(space.page_table.gpfn[vma.start]))
    policy.mpq.push(MigrationRequest(frame, space, vma.start, frame.generation))
    policy.kpromote.wake()
    # Run just far enough for the transaction to start (copy in flight).
    machine.engine.run(until=2_000)
    assert frame.locked, "transaction should be mid-flight"
    machine.engine.kill(policy.kpromote.proc)
    assert not frame.locked
    # The page is still mapped on the slow tier and usable.
    assert space.page_table.is_present(vma.start)
    result = machine.access.run_chunk(
        space,
        machine.cpus.get("app0"),
        np.array([vma.start], dtype=np.int64),
        np.array([True]),
    )
    assert result.writes == 1


def test_workload_touching_unmapped_range_demand_pages():
    """A stray access outside any populated range is not an error --
    demand paging maps it (first-touch), like a real anonymous mmap."""
    machine = build("no-migration")
    space = machine.create_space()
    vma = space.mmap(16)
    result = machine.access.run_chunk(
        space,
        machine.cpus.get("app0"),
        np.asarray(list(vma.vpns()), dtype=np.int64),
        np.zeros(16, dtype=bool),
    )
    assert result.faults == 16
    assert space.rss_pages == 16


def test_interrupted_run_can_be_resumed():
    """run_cycles acts as a checkpointed pause: a second call finishes
    the remaining work."""
    machine = build("tpp", fast_gb=2.0, slow_gb=2.0)
    workload = ZipfianMicrobench(
        wss_gb=1.0, rss_gb=1.0, total_accesses=30_000
    )
    first = machine.run_workload(workload, run_cycles=1_000_000)
    assert first.overall.accesses < 30_000
    # Resume: keep running the engine (the application process is still
    # alive) until the workload completes.
    while not workload.finished:
        machine.engine.run(max_events=20_000)
    check_invariants(machine)
