"""kpromote: the background promotion daemon."""

from repro.core.nomad import NomadPolicy
from ..conftest import make_machine


def build():
    m = make_machine()
    policy = NomadPolicy(m)
    m.set_policy(policy)
    space = m.create_space()
    return m, policy, space


def enqueue_directly(m, policy, space, vpn):
    """Bypass the PCQ and hand a request straight to the MPQ."""
    from repro.core.queues import MigrationRequest

    gpfn = int(space.page_table.gpfn[vpn])
    frame = m.tiers.frame(gpfn)
    request = MigrationRequest(frame, space, vpn, frame.generation)
    assert policy.mpq.push(request)
    policy.kpromote.wake()
    return frame, request


def test_daemon_drains_queue():
    m, policy, space = build()
    vma = space.mmap(4)
    m.populate(space, vma.vpns(), 1)
    for vpn in vma.vpns():
        enqueue_directly(m, policy, space, vpn)
    m.engine.run(until=10_000_000)
    assert len(policy.mpq) == 0
    assert m.stats.get("nomad.tpm_commits") == 4
    pt = space.page_table
    for vpn in vma.vpns():
        assert m.tiers.tier_of(int(pt.gpfn[vpn])) == 0


def test_daemon_sleeps_when_idle():
    m, policy, space = build()
    m.engine.run(until=1_000_000)
    # No work, no cycles burned.
    assert m.stats.breakdown("kpromote") == {}


def test_stale_requests_are_skipped():
    m, policy, space = build()
    vma = space.mmap(1)
    m.populate(space, [vma.start], 1)
    frame, request = enqueue_directly(m, policy, space, vma.start)
    request.generation -= 1
    m.engine.run(until=1_000_000)
    assert m.stats.get("nomad.kpromote_stale") == 1
    assert m.stats.get("nomad.tpm_commits") == 0


def test_nomem_requeues_with_bounded_attempts():
    m, policy, space = build()
    vma = space.mmap(1)
    m.populate(space, [vma.start], 1)
    while m.tiers.fast.nr_free:
        m.tiers.alloc_on(0)
    enqueue_directly(m, policy, space, vma.start)
    m.engine.run(until=20_000_000)
    # The transaction failed on allocation and was retried until the
    # attempt bound, then dropped.
    assert m.stats.get("nomad.tpm_nomem") >= 1
    assert len(policy.mpq) == 0


def test_work_runs_on_kpromote_core_not_app():
    m, policy, space = build()
    vma = space.mmap(2)
    m.populate(space, vma.vpns(), 1)
    for vpn in vma.vpns():
        enqueue_directly(m, policy, space, vpn)
    m.engine.run(until=10_000_000)
    kp = m.stats.breakdown("kpromote")
    assert sum(kp.values()) > 0
    assert "tpm_copy" in kp
    app = m.stats.breakdown("app0")
    assert "tpm_copy" not in app and "tpm" not in app
