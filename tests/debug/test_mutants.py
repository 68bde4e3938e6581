"""Mutation tests: break the simulator on purpose, prove a check notices.

Each test monkeypatches a deliberate bug into a real code path, runs a
genuine workload (so the bug triggers through normal operation, not a
hand-built state), and asserts the invariant checker reports it. This is
the acceptance proof that the checks have teeth -- a checker that passes
on correct code *and* on broken code is measuring nothing.
"""

from repro import Machine, MachineConfig
from repro.core.shadow import ShadowIndex
from repro.debug import DebugConfig
from repro.kernel.reclaim import Kswapd
from repro.mem.node import MemoryNode
from repro.policies import make_policy
from repro.workloads import ZipfianMicrobench

from ..conftest import tiny_platform


def chaos_run(policy="nomad", write_ratio=0.4, accesses=30_000):
    """A pressured small-machine run with the interval checker armed."""
    machine = Machine(
        tiny_platform(fast_gb=2.0, slow_gb=2.0),
        MachineConfig(
            chunk_size=64,
            debug_enabled=True,
            debug=DebugConfig(check_interval=200_000.0),
        ),
    )
    machine.set_policy(make_policy(policy, machine))
    workload = ZipfianMicrobench(
        wss_gb=3.0,
        rss_gb=3.0,
        write_ratio=write_ratio,
        total_accesses=accesses,
        seed=1,
    )
    machine.run_workload(workload)
    machine.debug.check_now()
    return machine


def checks_hit(machine):
    return {v.check for v in machine.debug.violations}


def test_healthy_run_reports_nothing():
    machine = chaos_run()
    assert machine.debug.violations == []
    # The run must actually exercise the shadow path the mutants break.
    assert machine.stats.counters["nomad.shadows_created"] > 0
    assert machine.stats.counters["nomad.shadow_faults"] > 0


def test_skipped_shadow_discard_is_caught(monkeypatch):
    # The bug: the write-protect fault handler restores write permission
    # but forgets to drop the now-stale shadow copy. The master page can
    # be dirtied while a reclaimable "clean copy" of it still exists --
    # remap-demotion would silently resurrect stale data.
    monkeypatch.setattr(
        ShadowIndex, "discard", lambda self, master, reason="discard": None
    )
    machine = chaos_run()
    assert any(
        "writable" in v.detail and "while its shadow lives" in v.detail
        for v in machine.debug.violations
    ), checks_hit(machine)


def test_leaked_free_bitmap_update_is_caught(monkeypatch):
    # The bug: freeing a frame forgets the bitmap half of the free-list
    # bookkeeping, so the set and the bitmap drift apart.
    real_free_one = MemoryNode._free_one

    def buggy_free_one(self, frame):
        real_free_one(self, frame)
        self._free_map[frame.pfn] = False

    monkeypatch.setattr(MemoryNode, "_free_one", buggy_free_one)
    machine = chaos_run()
    assert "mem.accounting" in checks_hit(machine)
    assert any("disagree" in v.detail for v in machine.debug.violations)


def test_forgotten_shadowed_flag_clear_is_caught(monkeypatch):
    # The bug: discarding a shadow frees it but leaves the master's
    # SHADOWED flag behind, so demotion keeps treating the master as if
    # a remap target existed.
    real_discard = ShadowIndex.discard

    def buggy_discard(self, master, reason="discard"):
        shadow = real_discard(self, master, reason=reason)
        if shadow is not None:
            from repro.mem.frame import FrameFlags

            master.set_flag(FrameFlags.SHADOWED)
        return shadow

    monkeypatch.setattr(ShadowIndex, "discard", buggy_discard)
    machine = chaos_run()
    assert any(
        "orphaned SHADOWED" in v.detail for v in machine.debug.violations
    )


def test_hopeless_kswapd_parks_cleanly():
    # No migration on an overcommitted fast tier: kswapd can never free
    # anything, so it goes hopeless and parks on its wakeup event.
    machine = chaos_run(policy="no-migration")
    assert machine.stats.counters["kswapd.backoffs"] >= 1
    assert machine.debug.violations == []


def test_hopeless_kswapd_keeping_its_timer_is_caught(monkeypatch):
    # The bug: the daemon declares the node hopeless but still sleeps on
    # the old 500k-cycle retry timer, so it keeps scanning a node it
    # claims to have given up on.
    real_park = Kswapd._park

    def buggy_park(self):
        real_park(self)
        return 500_000.0

    monkeypatch.setattr(Kswapd, "_park", buggy_park)
    machine = chaos_run(policy="no-migration")
    assert "kswapd.backoff" in checks_hit(machine)
    assert any(
        "not waiting on its wakeup event" in v.detail
        for v in machine.debug.violations
    )
