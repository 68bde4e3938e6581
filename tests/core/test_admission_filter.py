"""The TierBPF-style promotion admission filter.

``NomadPolicy(admission_filter=...)`` installs a predicate consulted
right before a candidate moves from the PCQ into the MPQ; rejections
bump ``nomad.admission_rejected`` and the page simply stays where it
is -- the filter cannot reorder or mutate the pipeline, only veto.
"""

import numpy as np

from repro.core.nomad import NomadPolicy
from repro.mmu.pte import PTE_PROT_NONE

from ..conftest import make_machine


def build(**policy_kwargs):
    m = make_machine()
    policy = NomadPolicy(m, **policy_kwargs)
    m.set_policy(policy)
    space = m.create_space()
    return m, policy, space


def drive_candidate(m, space):
    """Fault a slow page into the PCQ, re-touch it, trigger the scan."""
    vma = space.mmap(1)
    m.populate(space, [vma.start], 1)
    vpn = vma.start
    space.page_table.set_flags(vpn, PTE_PROT_NONE)

    def touch(v):
        m.access.run_chunk(
            space,
            m.cpus.get("app0"),
            np.asarray([v], dtype=np.int64),
            np.zeros(1, dtype=bool),
        )

    touch(vpn)
    m.engine.run(until=m.engine.now + 200_000.0)
    touch(vpn)  # reuse evidence
    # Another page's fault triggers the PCQ scan.
    other = space.mmap(1).start
    m.populate(space, [other], 1)
    space.page_table.set_flags(other, PTE_PROT_NONE)
    touch(other)
    m.engine.run(until=m.engine.now + 10_000_000)
    return vpn


def test_rejecting_filter_blocks_promotion():
    m, policy, space = build(admission_filter=lambda req, src, dst: False)
    vpn = drive_candidate(m, space)
    assert m.stats.get("nomad.admission_rejected") >= 1
    assert len(policy.mpq) == 0
    assert m.stats.get("migrate.promotions") == 0
    assert m.tiers.tier_of(int(space.page_table.gpfn[vpn])) == 1


def test_filter_sees_source_and_destination_tiers():
    seen = []

    def spy(request, src, dst):
        seen.append((request.vpn, src, dst))
        return True

    m, policy, space = build(admission_filter=spy)
    vpn = drive_candidate(m, space)
    assert any(entry == (vpn, 1, 0) for entry in seen)
    # An admitting filter leaves the pipeline behaviour unchanged.
    assert m.stats.get("nomad.admission_rejected") == 0
    assert m.tiers.tier_of(int(space.page_table.gpfn[vpn])) == 0


def test_no_filter_admits_everything():
    m, policy, space = build()
    vpn = drive_candidate(m, space)
    assert m.stats.get("nomad.admission_rejected") == 0
    assert m.tiers.tier_of(int(space.page_table.gpfn[vpn])) == 0
