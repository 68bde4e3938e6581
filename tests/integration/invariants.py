"""Whole-machine invariants checked after arbitrary simulation runs."""

from repro.debug.invariants import InvariantChecker

__all__ = ["check_invariants"]


def check_invariants(machine) -> None:
    _check_frame_accounting(machine)
    _check_lru_consistency(machine)
    InvariantChecker(
        machine, checks=["shadow.index"], raise_on_violation=True
    ).check_now()


def _check_frame_accounting(machine) -> None:
    """Every present PTE points at a frame that maps it back, and no
    free frame is mapped or on an LRU list."""
    for space in machine.spaces:
        pt = space.page_table
        for vpn in pt.mapped_vpns():
            vpn = int(vpn)
            gpfn = int(pt.gpfn[vpn])
            assert gpfn >= 0, f"present vpn {vpn} with invalid gpfn"
            frame = machine.tiers.frame(gpfn)
            assert (space, vpn) in frame.rmap, (
                f"vpn {vpn} -> gpfn {gpfn} missing rmap entry"
            )
    for node in machine.tiers.nodes:
        free = set(node._free)
        for pfn in free:
            frame = node.frames[pfn]
            assert not frame.mapped, f"free pfn {pfn} is mapped"
            assert not frame.on_lru, f"free pfn {pfn} on LRU"
            assert not frame.is_shadow, f"free pfn {pfn} is a shadow"
        assert len(free) == node.nr_free, "free-list duplication"


def _check_lru_consistency(machine) -> None:
    """LRU flag state matches list membership, one list per frame."""
    lru = machine.lru
    for node in machine.tiers.nodes:
        nid = node.node_id
        active = set(map(id, lru.active[nid]))
        inactive = set(map(id, lru.inactive[nid]))
        assert not active & inactive, "frame on both LRU lists"
        for frame in lru.active[nid]:
            assert frame.on_lru and frame.active
            assert frame.node_id == nid
        for frame in lru.inactive[nid]:
            assert frame.on_lru and not frame.active
            assert frame.node_id == nid
