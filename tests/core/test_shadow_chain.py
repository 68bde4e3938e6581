"""Cross-chain shadowing on deep tiers: the ``shadow_chain`` knob.

On a two-tier machine a promoted master can never itself be shadowed,
so these semantics only appear on chains of three or more tiers: a
2->1 promotion leaves the tier-2 copy as a shadow, then the master
climbs 1->0 while still owning that deep shadow. ``shadow_chain``
decides whether the second commit collapses the chain (``"drop"``) or
re-keys the deep shadow to the new master (``"rekey"``).
"""

import pytest

from repro import Machine, MachineConfig
from repro.core.nomad import NomadPolicy
from repro.core.queues import MigrationRequest
from repro.core.shadow import ShadowIndex
from repro.core.tpm import TpmOutcome, TransactionalMigrator
from repro.sim.platform import three_tier

from ..conftest import make_machine, tiny_platform


def make_machine3(**config_kwargs):
    """A three-tier machine with 256-page nodes."""
    return Machine(
        three_tier(tiny_platform(), ssd_gb=1.0),
        MachineConfig(chunk_size=64, **config_kwargs),
    )


def setup(machine, shadow_chain="drop"):
    shadow_index = ShadowIndex(machine)
    migrator = TransactionalMigrator(
        machine, shadow_index, shadow_chain=shadow_chain
    )
    space = machine.create_space()
    vma = space.mmap(4)
    machine.populate(space, [vma.start], 2)  # start on the bottom tier
    frame = machine.tiers.frame(int(space.page_table.gpfn[vma.start]))
    return migrator, shadow_index, space, vma.start, frame


def promote_once(machine, migrator, space, vpn):
    """Drive one TPM transaction promoting ``vpn``'s frame one tier up."""
    frame = machine.tiers.frame(int(space.page_table.gpfn[vpn]))
    request = MigrationRequest(frame, space, vpn, frame.generation)
    out = {}
    cpu = machine.cpus.get("kpromote")

    def proc():
        result = yield from migrator.migrate(request, cpu)
        out["result"] = result

    machine.engine.spawn(proc(), "txn")
    machine.engine.run(until=machine.engine.now + 10_000_000)
    result = out["result"]
    assert result.outcome is TpmOutcome.COMMITTED
    return frame, result.new_frame


def test_first_promotion_shadows_the_adjacent_tier():
    m = make_machine3()
    migrator, shadow_index, space, vpn, frame = setup(m)
    old, master = promote_once(m, migrator, space, vpn)
    assert master.node_id == 1
    assert old.node_id == 2
    assert old.is_shadow
    assert shadow_index.lookup(master) is old
    assert m.stats.get("nomad.shadow_chain_drops") == 0
    assert m.stats.get("nomad.shadow_chain_rekeys") == 0


def test_drop_collapses_the_chain_on_the_second_promotion():
    m = make_machine3()
    migrator, shadow_index, space, vpn, deep = setup(m, shadow_chain="drop")
    _, mid = promote_once(m, migrator, space, vpn)
    mid_free_before = m.tiers.nodes[2].nr_free
    _, top = promote_once(m, migrator, space, vpn)
    assert top.node_id == 0
    # The deep (tier-2) shadow died and its frame went back to the pool;
    # the tier-1 copy is now the only shadow.
    assert shadow_index.lookup(top) is mid
    assert mid.is_shadow and mid.node_id == 1
    assert not deep.is_shadow
    assert m.tiers.nodes[2].nr_free == mid_free_before + 1
    assert shadow_index.nr_shadows == 1
    assert m.stats.get("nomad.shadow_chain_drops") == 1
    assert m.stats.get("nomad.shadow_chain_rekeys") == 0


def test_rekey_keeps_the_deep_shadow_and_frees_the_middle():
    m = make_machine3()
    migrator, shadow_index, space, vpn, deep = setup(m, shadow_chain="rekey")
    _, mid = promote_once(m, migrator, space, vpn)
    mid_tier_free = m.tiers.nodes[1].nr_free
    _, top = promote_once(m, migrator, space, vpn)
    assert top.node_id == 0
    # The tier-2 shadow survives, re-keyed to the new tier-0 master; the
    # intermediate tier-1 frame is retired entirely.
    assert shadow_index.lookup(top) is deep
    assert deep.is_shadow and deep.node_id == 2
    assert m.tiers.nodes[1].nr_free == mid_tier_free + 1
    assert shadow_index.nr_shadows == 1
    assert m.stats.get("nomad.shadow_chain_rekeys") == 1
    assert m.stats.get("nomad.shadow_chain_drops") == 0


def test_shadow_chain_knob_is_validated():
    m = make_machine3()
    with pytest.raises(ValueError):
        TransactionalMigrator(m, ShadowIndex(m), shadow_chain="keep")
    with pytest.raises(ValueError):
        NomadPolicy(m, shadow_chain="collapse")


def test_nomad_policy_plumbs_the_knob_to_its_migrator():
    m = make_machine3()
    policy = NomadPolicy(m, shadow_chain="rekey")
    assert policy.migrator.shadow_chain == "rekey"
    assert NomadPolicy(make_machine()).migrator.shadow_chain == "drop"


def test_reclaim_hint_only_frees_shadows_on_the_pressured_node():
    """Each kswapd reclaims shadows resident on its own tier of a chain."""
    m = make_machine3()
    policy = NomadPolicy(m)
    m.set_policy(policy)
    space = m.create_space()
    vma = space.mmap(2)
    # One shadow lands on tier 2 (master promoted 2->1), the other on
    # tier 1 (master promoted 1->0).
    m.populate(space, [vma.start], 2)
    m.populate(space, [vma.start + 1], 1)
    promote_once(m, policy.migrator, space, vma.start)
    promote_once(m, policy.migrator, space, vma.start + 1)
    shadows = policy.shadow_index
    assert shadows.nr_shadows == 2
    cpu = m.cpus.get("kswapd1")
    freed, _ = policy.reclaim_hint(2, target=4, cpu=cpu)
    assert freed == 1  # only the tier-2 shadow was eligible
    remaining = shadows.lookup(
        m.tiers.frame(int(space.page_table.gpfn[vma.start + 1]))
    )
    assert remaining is not None and remaining.node_id == 1
    # Tier 0 never hosts shadows: the hint is a no-op there.
    assert policy.reclaim_hint(0, target=4, cpu=cpu) == (0, 0.0)
