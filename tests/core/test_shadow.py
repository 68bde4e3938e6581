"""Shadow index: insert/discard/detach/rekey/reclaim and invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.shadow import ShadowIndex
from repro.debug import DebugConfig, FaultAttr
from repro.mmu.pte import PTE_SOFT_SHADOW_RW

from ..conftest import make_machine
from .test_shadow_chain import make_machine3


def make_pair(machine):
    """A fast master frame and a slow shadow frame."""
    master = machine.tiers.alloc_on(0)
    shadow = machine.tiers.alloc_on(1)
    return master, shadow


def test_insert_sets_flags_and_indexes():
    m = make_machine()
    index = ShadowIndex(m)
    master, shadow = make_pair(m)
    index.insert(master, shadow)
    assert master.shadowed
    assert shadow.is_shadow
    assert index.lookup(master) is shadow
    assert index.nr_shadows == 1
    assert index.nr_shadow_pages == 1


def test_insert_rejects_mapped_shadow():
    m = make_machine()
    index = ShadowIndex(m)
    master, shadow = make_pair(m)
    space = m.create_space()
    shadow.add_rmap(space, 0)
    with pytest.raises(RuntimeError):
        index.insert(master, shadow)


def test_insert_rejects_double_shadowing():
    m = make_machine()
    index = ShadowIndex(m)
    master, shadow = make_pair(m)
    index.insert(master, shadow)
    other = m.tiers.alloc_on(1)
    with pytest.raises(RuntimeError):
        index.insert(master, other)


def test_discard_frees_shadow():
    m = make_machine()
    index = ShadowIndex(m)
    master, shadow = make_pair(m)
    free_before = m.tiers.slow.nr_free
    index.insert(master, shadow)
    returned = index.discard(master)
    assert returned is shadow
    assert not master.shadowed
    assert not shadow.is_shadow
    assert m.tiers.slow.nr_free == free_before + 1
    assert index.lookup(master) is None


def test_discard_without_shadow_is_none():
    m = make_machine()
    index = ShadowIndex(m)
    master, _ = make_pair(m)
    assert index.discard(master) is None


def test_detach_keeps_frame_allocated():
    m = make_machine()
    index = ShadowIndex(m)
    master, shadow = make_pair(m)
    index.insert(master, shadow)
    free_before = m.tiers.slow.nr_free
    returned = index.detach(master)
    assert returned is shadow
    assert m.tiers.slow.nr_free == free_before  # not freed
    assert not shadow.is_shadow
    assert index.nr_shadows == 0


def test_rekey_follows_master_migration():
    m = make_machine()
    index = ShadowIndex(m)
    master, shadow = make_pair(m)
    index.insert(master, shadow)
    new_master = m.tiers.alloc_on(0)
    index.rekey(master, new_master)
    assert not master.shadowed
    assert new_master.shadowed
    assert index.lookup(new_master) is shadow
    assert index.lookup(master) is None


def test_reclaim_frees_up_to_target():
    m = make_machine()
    index = ShadowIndex(m)
    pairs = [make_pair(m) for _ in range(5)]
    for master, shadow in pairs:
        index.insert(master, shadow)
    freed, cycles = index.reclaim(3)
    assert freed == 3
    assert cycles > 0
    assert index.nr_shadows == 2
    assert m.stats.get("nomad.shadows_reclaimed") == 3


def test_reclaim_stops_when_empty():
    m = make_machine()
    index = ShadowIndex(m)
    master, shadow = make_pair(m)
    index.insert(master, shadow)
    freed, _ = index.reclaim(10)
    assert freed == 1
    assert index.reclaim(10) == (0, 0.0)


def test_reclaim_restores_master_write_permission():
    m = make_machine()
    index = ShadowIndex(m)
    space = m.create_space()
    vma = space.mmap(1)
    master, shadow = make_pair(m)
    space.page_table.map(vma.start, m.tiers.gpfn(master), PTE_SOFT_SHADOW_RW)
    master.add_rmap(space, vma.start)
    index.insert(master, shadow)
    index.reclaim(1)
    # Without a shadow the master needs no write protection.
    assert space.page_table.is_writable(vma.start)
    assert not space.page_table.test_flags(vma.start, PTE_SOFT_SHADOW_RW)


def test_live_shadow_invariant_master_clean():
    """A live shadow implies its master has never been written: the
    master is read-only, so any store would have faulted and discarded
    the shadow first."""
    m = make_machine()
    index = ShadowIndex(m)
    space = m.create_space()
    vma = space.mmap(1)
    master, shadow = make_pair(m)
    space.page_table.map(vma.start, m.tiers.gpfn(master), PTE_SOFT_SHADOW_RW)
    master.add_rmap(space, vma.start)
    index.insert(master, shadow)
    assert not space.page_table.is_writable(vma.start)
    assert not space.page_table.is_dirty(vma.start)


# ----------------------------------------------------------------------
# Index order: the contract the kernel's XArray gives the shadow index
# ----------------------------------------------------------------------
# Each op picks its target by position among the live masters, so the
# same op list stays meaningful whatever the index holds.
INSERT_OP = st.tuples(
    # master tier, extra shadow depth (tier 0 masters may shadow on 2)
    st.just("insert"), st.integers(0, 1), st.integers(0, 1)
)
SHADOW_OPS = st.lists(
    st.one_of(
        INSERT_OP,
        st.tuples(st.just("discard"), st.integers(0, 63)),
        st.tuples(st.just("detach"), st.integers(0, 63)),
        # live master, preferred tier of the new master
        st.tuples(st.just("rekey"), st.integers(0, 63), st.integers(0, 1)),
        st.tuples(
            st.just("reclaim"),
            st.integers(1, 6),
            st.sampled_from([None, 1, 2]),
        ),
    ),
    max_size=50,
)


@settings(max_examples=100, deadline=None)
@given(
    inserts=st.lists(INSERT_OP, min_size=2, max_size=24),
    ops=SHADOW_OPS,
    fail_interval=st.sampled_from([0, 2, 3, 5]),
)
def test_index_matches_sorted_dict_reference(inserts, ops, fail_interval):
    """Random index operations on a three-tier machine against a plain
    dict plus ``sorted``: reclaim frees the lowest eligible master gpfns
    first, ``shadow.drop`` tracepoints follow that order, and an injected
    ``shadow.reclaim_fail`` (every ``fail_interval``-th evaluation) ends
    the batch after the same prefix."""
    config = {}
    if fail_interval:
        fault = FaultAttr(interval=fail_interval)
        config = dict(
            debug_enabled=True,
            debug=DebugConfig(faults={"shadow.reclaim_fail": fault}),
        )
    m = make_machine3(**config)
    m.obs.enable(sample_period=None)
    index = ShadowIndex(m)
    tiers = m.tiers
    ref = {}  # master gpfn -> shadow frame
    masters = {}  # master gpfn -> master frame (live entries only)
    retired = []  # masters whose entry was removed
    drops = []  # expected shadow.drop (gpfn, reason), in order
    evaluations = 0  # expected shadow.reclaim_fail evaluations
    freed_log = []
    free_folio = tiers.free_folio

    def logged_free_folio(head):
        freed_log.append(head)
        free_folio(head)

    tiers.free_folio = logged_free_folio

    for op in inserts + ops:
        kind = op[0]
        if kind == "insert":
            _, master_tier, depth = op
            master = tiers.alloc_on(master_tier)
            shadow = tiers.alloc_on(min(master_tier + 1 + depth, 2))
            index.insert(master, shadow)
            gpfn = tiers.gpfn(master)
            ref[gpfn], masters[gpfn] = shadow, master
        elif kind == "reclaim":
            _, nr, node_id = op
            eligible = sorted(
                g for g, s in ref.items()
                if node_id is None or s.node_id == node_id
            )
            expected = []
            while len(expected) < nr:
                evaluations += 1
                if fail_interval and evaluations % fail_interval == 0:
                    break
                if len(expected) == len(eligible):
                    break
                expected.append(eligible[len(expected)])
            shadows = [ref[g] for g in expected]
            del freed_log[:]
            freed, _cycles = index.reclaim(nr, node_id=node_id)
            assert freed == len(expected)
            # The frames freed, in order, are the expected gpfns' shadows.
            assert len(freed_log) == len(shadows)
            assert all(a is b for a, b in zip(freed_log, shadows))
            for gpfn in expected:
                del ref[gpfn]
                retired.append(masters.pop(gpfn))
                drops.append((gpfn, "reclaim"))
        elif ref:
            gpfn = sorted(ref)[op[1] % len(ref)]
            master, shadow = masters.pop(gpfn), ref.pop(gpfn)
            retired.append(master)
            if kind == "discard":
                assert index.discard(master) is shadow
                drops.append((gpfn, "discard"))
            elif kind == "detach":
                assert index.detach(master) is shadow
                tiers.free_page(shadow)
                drops.append((gpfn, "detach"))
            else:
                new = tiers.alloc_on(min(op[2], shadow.node_id - 1))
                index.rekey(master, new)
                new_gpfn = tiers.gpfn(new)
                ref[new_gpfn], masters[new_gpfn] = shadow, new
                drops.append((gpfn, "rekey"))

        for gpfn, master in masters.items():
            assert index.lookup(master) is ref[gpfn]
        for master in retired:
            if tiers.gpfn(master) not in ref:
                assert index.lookup(master) is None
        assert index.nr_shadows == len(ref)
        assert index.nr_shadow_pages == sum(s.nr_pages for s in ref.values())

    got = [(r.args["gpfn"], r.args["reason"]) for r in m.obs.select("shadow.drop")]
    assert got == drops
    if fail_interval:
        calls = m.debug.injector.calls["shadow.reclaim_fail"]
        assert calls == evaluations

