"""The adaptive (Section-5) migration switch."""

import numpy as np

from repro.mmu.pte import PTE_PROT_NONE
from repro.policies import make_policy
from repro.policies.adaptive import AdaptiveNomadPolicy, ThrashDetector
from repro.workloads import ZipfianMicrobench

from ..conftest import make_machine


def test_factory_builds_adaptive():
    m = make_machine()
    policy = make_policy("nomad-adaptive", m)
    assert isinstance(policy, AdaptiveNomadPolicy)
    assert policy.promotion_enabled


# ----------------------------------------------------------------------
# ThrashDetector unit behaviour
# ----------------------------------------------------------------------
def test_detector_quiet_system_not_thrashing():
    m = make_machine()
    detector = ThrashDetector(m)
    state = detector.sample()
    assert not state.thrashing
    assert state.volume == 0


def test_detector_balanced_churn_trips_after_two_windows():
    m = make_machine()
    detector = ThrashDetector(m, volume_fraction=0.01)
    for i in range(1, 3):
        m.stats.bump("migrate.promotions", 100)
        m.stats.bump("migrate.demotions", 95)
        state = detector.sample()
    assert state.thrashing


def test_detector_one_hot_window_is_not_enough():
    m = make_machine()
    detector = ThrashDetector(m, volume_fraction=0.01)
    m.stats.bump("migrate.promotions", 100)
    m.stats.bump("migrate.demotions", 95)
    assert not detector.sample().thrashing


def test_detector_unbalanced_volume_is_not_thrashing():
    """Heavy promotion with little demotion is a warm-up, not a thrash."""
    m = make_machine()
    detector = ThrashDetector(m, volume_fraction=0.01)
    for _ in range(3):
        m.stats.bump("migrate.promotions", 200)
        m.stats.bump("migrate.demotions", 5)
        state = detector.sample()
    assert not state.thrashing


def test_detector_low_volume_is_not_thrashing():
    m = make_machine()
    detector = ThrashDetector(m, volume_fraction=0.5)
    for _ in range(3):
        m.stats.bump("migrate.promotions", 3)
        m.stats.bump("migrate.demotions", 3)
        state = detector.sample()
    assert not state.thrashing


def test_detector_reset_clears_streak():
    m = make_machine()
    detector = ThrashDetector(m, volume_fraction=0.01)
    m.stats.bump("migrate.promotions", 100)
    m.stats.bump("migrate.demotions", 95)
    detector.sample()
    detector.reset()
    m.stats.bump("migrate.promotions", 200)
    m.stats.bump("migrate.demotions", 190)
    assert not detector.sample().thrashing


# ----------------------------------------------------------------------
# Policy behaviour
# ----------------------------------------------------------------------
def run_workload(policy_name, wss_gb, rss_gb, accesses=40_000, **policy_kwargs):
    m = make_machine(fast_gb=2.0, slow_gb=2.0)
    m.set_policy(make_policy(policy_name, m, **policy_kwargs))
    wl = ZipfianMicrobench(
        wss_gb=wss_gb, rss_gb=rss_gb, total_accesses=accesses, seed=3
    )
    report = m.run_workload(wl)
    return m, report


def test_breaker_trips_under_thrashing():
    m, report = run_workload(
        "nomad-adaptive", wss_gb=3.0, rss_gb=3.0, accesses=60_000,
        window_cycles=500_000.0, volume_fraction=0.02,
    )
    assert report.counters.get("adaptive.breaker_trips", 0) > 0
    assert report.counters.get("adaptive.suppressed_faults", 0) > 0


def test_no_trips_when_wss_fits():
    m, report = run_workload(
        "nomad-adaptive", wss_gb=1.0, rss_gb=1.0, accesses=40_000,
        window_cycles=500_000.0,
    )
    assert report.counters.get("adaptive.suppressed_faults", 0) == 0


def test_adaptive_reduces_migration_volume_under_thrash():
    _, plain = run_workload("nomad", wss_gb=3.0, rss_gb=3.0, accesses=60_000)
    _, adaptive = run_workload(
        "nomad-adaptive", wss_gb=3.0, rss_gb=3.0, accesses=60_000,
        window_cycles=500_000.0, volume_fraction=0.02,
    )
    assert adaptive.counters.get("migrate.promotions", 0) < plain.counters.get(
        "migrate.promotions", 0
    )


def test_probing_reenables_promotion():
    m, report = run_workload(
        "nomad-adaptive", wss_gb=3.0, rss_gb=3.0, accesses=80_000,
        window_cycles=300_000.0, volume_fraction=0.02, cooldown_windows=2,
    )
    assert report.counters.get("adaptive.probes", 0) > 0


def test_suppressed_fault_still_unprotects_page():
    m = make_machine(fast_gb=2.0, slow_gb=2.0)
    policy = make_policy("nomad-adaptive", m)
    m.set_policy(policy)
    policy.promotion_enabled = False
    space = m.create_space()
    vma = space.mmap(1)
    m.populate(space, [vma.start], 1)
    space.page_table.set_flags(vma.start, PTE_PROT_NONE)
    result = m.access.run_chunk(
        space,
        m.cpus.get("app0"),
        np.array([vma.start], dtype=np.int64),
        np.array([False]),
    )
    assert result.faults == 1
    assert not space.page_table.is_prot_none(vma.start)
    # Page stayed put; no queue work happened.
    assert m.tiers.tier_of(int(space.page_table.gpfn[vma.start])) == 1
    assert len(policy.pcq) == 0


def test_trip_flushes_pending_queue():
    m = make_machine()
    policy = make_policy("nomad-adaptive", m)
    m.set_policy(policy)
    space = m.create_space()
    vma = space.mmap(2)
    m.populate(space, vma.vpns(), 1)
    from repro.core.queues import MigrationRequest

    for vpn in vma.vpns():
        frame = m.tiers.frame(int(space.page_table.gpfn[vpn]))
        policy.mpq.push(MigrationRequest(frame, space, vpn, frame.generation))
    policy._trip(probe_failed=False)
    assert len(policy.mpq) == 0
    assert not policy.promotion_enabled


def test_failed_probe_backs_off_exponentially():
    m = make_machine()
    policy = make_policy("nomad-adaptive", m, cooldown_windows=4)
    m.set_policy(policy)
    policy._trip(probe_failed=False)
    assert policy._current_cooldown == 4
    policy._probing = True
    policy._trip(probe_failed=True)
    assert policy._current_cooldown == 8
    policy._probing = True
    policy._trip(probe_failed=True)
    assert policy._current_cooldown == 16
