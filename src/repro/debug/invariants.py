"""Runtime cross-layer invariant checking (CONFIG_DEBUG_VM-style).

The kernel's ``VM_BUG_ON_PAGE``/``VM_BUG_ON_FOLIO`` sprinkle cheap state
assertions through mm/ so corruption is caught where it happens, not
megabytes of log later. This module is the simulator's version: a
registry of *whole-machine* consistency checks that sweep the cross-
layer data structures (page tables, rmaps, LRU lists, the shadow index,
free lists, the promotion queues) and report anything inconsistent.

Checks never mutate simulation state and never raise on a violation by
default -- they *collect* :class:`Violation` records, bump the
``debug.invariant_violations`` counter, and emit ``debug.violation``
tracepoints, so a chaos run can finish and report everything it found.
``raise_on_violation=True`` turns the first finding into an
:class:`InvariantViolationError` for tests that want to bisect.

Checks are only ever invoked between engine events (the paranoid
post-step hook, the interval daemon, or an explicit ``check_now()``), so
they observe the machine at the same consistency points application
code does: engine-atomic blocks (TPM steps 4-8, fault handlers) never
yield mid-update. States that are legal *between* events -- an
allocated-but-unmapped TPM destination frame, a locked frame, an
unmapped-but-rmapped page mid-sync-migration, stale generation-matched
queue entries awaiting their lazy skip -- are deliberately not flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, TYPE_CHECKING

import numpy as np

from ..kernel.reclaim import MAX_RECLAIM_RETRIES
from ..mem.frame import compound_head
from ..mmu.pte import PTE_WRITE

if TYPE_CHECKING:  # pragma: no cover
    from ..system import Machine

__all__ = [
    "INVARIANTS",
    "register_invariant",
    "Violation",
    "InvariantViolationError",
    "InvariantChecker",
]


@dataclass(frozen=True)
class InvariantSpec:
    """One registered check: sweeps the machine, returns violation text."""

    name: str
    func: Callable[["Machine"], List[str]]
    doc: str


INVARIANTS: Dict[str, InvariantSpec] = {}


def register_invariant(name: str, doc: str):
    """Decorator declaring an invariant check under ``name``."""

    def wrap(func: Callable[["Machine"], List[str]]):
        if name in INVARIANTS:
            raise ValueError(f"invariant {name!r} registered twice")
        INVARIANTS[name] = InvariantSpec(name, func, doc)
        return func

    return wrap


@dataclass(frozen=True)
class Violation:
    """One invariant violation observed at simulation time ``ts``."""

    check: str
    detail: str
    ts: float


class InvariantViolationError(AssertionError):
    """Raised in ``raise_on_violation`` mode; carries the violation."""

    def __init__(self, violation: Violation) -> None:
        super().__init__(f"[{violation.check}] {violation.detail}")
        self.violation = violation


# ----------------------------------------------------------------------
# The checks. Each returns a list of violation detail strings.
# ----------------------------------------------------------------------
@register_invariant(
    "pte.mapping",
    "present PTEs and frame rmaps agree in both directions",
)
def _check_pte_mapping(machine: "Machine") -> List[str]:
    out: List[str] = []
    tiers = machine.tiers
    total = tiers.total_pages
    for space in machine.spaces:
        pt = space.page_table
        for vpn in pt.mapped_vpns():
            vpn = int(vpn)
            gpfn = int(pt.gpfn[vpn])
            if not 0 <= gpfn < total:
                out.append(
                    f"{space.name}: present vpn {vpn} -> bad gpfn {gpfn}"
                )
                continue
            frame = tiers.frame(gpfn)
            head = compound_head(frame)
            # A tail's PTE belongs to the folio mapping rooted at the
            # head vpn; translate before the rmap lookup.
            head_vpn = vpn - (gpfn - tiers.gpfn(head))
            if (space, head_vpn) not in head.rmap:
                out.append(
                    f"{space.name}: vpn {vpn} -> gpfn {gpfn} but pfn "
                    f"{head.pfn} (node {head.node_id}) has no rmap for "
                    f"head vpn {head_vpn}"
                )
    for node in tiers.nodes:
        for frame in node.frames:
            if not frame.rmap:
                continue
            if len(set(frame.rmap)) != len(frame.rmap):
                out.append(
                    f"node {node.node_id} pfn {frame.pfn}: duplicate "
                    f"rmap entries {frame.rmap!r}"
                )
            if frame.is_tail:
                out.append(
                    f"node {node.node_id} pfn {frame.pfn}: tail frame "
                    f"carries rmap {frame.rmap!r}"
                )
                continue
            gpfn = tiers.gpfn(frame)
            for space, vpn in frame.rmap:
                pt = space.page_table
                if not 0 <= vpn < pt.nr_vpns:
                    out.append(
                        f"node {node.node_id} pfn {frame.pfn}: rmap vpn "
                        f"{vpn} outside {space.name}'s table"
                    )
                    continue
                # The PTE may legally be non-present mid-migration; but
                # if it is present it must point back at this folio.
                if pt.is_present(vpn) and int(pt.gpfn[vpn]) != gpfn:
                    out.append(
                        f"node {node.node_id} pfn {frame.pfn}: rmapped "
                        f"vpn {vpn} maps gpfn {int(pt.gpfn[vpn])}, "
                        f"expected {gpfn}"
                    )
    return out


@register_invariant(
    "shadow.index",
    "shadow index entries and SHADOWED/IS_SHADOW frame flags agree; "
    "no shadowed master is writable while its shadow is live",
)
def _check_shadow_index(machine: "Machine") -> List[str]:
    out: List[str] = []
    tiers = machine.tiers
    index = getattr(machine.policy, "shadow_index", None)
    shadow_ids: Dict[int, int] = {}
    master_ids = set()
    if index is not None:
        pages = 0
        for gpfn, shadow in sorted(index.shadows.items()):
            master = tiers.frame(gpfn)
            master_ids.add(id(master))
            if not master.shadowed:
                out.append(f"indexed master gpfn {gpfn} lost SHADOWED")
            if master.is_tail:
                out.append(f"indexed master gpfn {gpfn} is a tail frame")
            if not shadow.is_shadow:
                out.append(f"shadow of gpfn {gpfn} lost IS_SHADOW")
            if shadow.mapped:
                out.append(f"shadow of gpfn {gpfn} is mapped")
            if shadow.on_lru:
                out.append(f"shadow of gpfn {gpfn} is on an LRU list")
            if shadow.node_id <= master.node_id:
                out.append(
                    f"shadow of gpfn {gpfn} on tier {shadow.node_id}, "
                    f"not below its master's tier {master.node_id}"
                )
            if shadow.order != master.order:
                out.append(
                    f"shadow of gpfn {gpfn}: order {shadow.order} != "
                    f"master order {master.order}"
                )
            if shadow.pfn in tiers.nodes[shadow.node_id]._free_set:
                out.append(f"shadow of gpfn {gpfn} is on the free list")
            if id(shadow) in shadow_ids:
                out.append(
                    f"shadow pfn {shadow.pfn} double-mapped: masters "
                    f"{shadow_ids[id(shadow)]} and {gpfn}"
                )
            shadow_ids[id(shadow)] = gpfn
            pages += shadow.nr_pages
            # A live shadow means the master cannot have been dirtied:
            # every store must trap, so write permission is parked in
            # the soft bit and *no* PTE of the master is writable.
            nr = master.nr_pages
            for space, vpn in master.rmap:
                flags = space.page_table.flags[vpn : vpn + nr]
                if (flags & np.uint32(PTE_WRITE)).any():
                    out.append(
                        f"shadowed master gpfn {gpfn} writable at "
                        f"{space.name} vpn {vpn} while its shadow lives"
                    )
        if pages != index.nr_shadow_pages:
            out.append(
                f"shadow page accounting: index sums {pages}, "
                f"counter says {index.nr_shadow_pages}"
            )
    for node in tiers.nodes:
        for frame in node.frames:
            if frame.is_shadow and id(frame) not in shadow_ids:
                out.append(
                    f"orphaned IS_SHADOW: node {node.node_id} pfn "
                    f"{frame.pfn} not in the shadow index"
                )
            if frame.shadowed and id(frame) not in master_ids:
                out.append(
                    f"orphaned SHADOWED: node {node.node_id} pfn "
                    f"{frame.pfn} has no shadow index entry"
                )
    return out


@register_invariant(
    "folio.integrity",
    "compound head/tail pointers, alignment, and span allocation agree",
)
def _check_folio_integrity(machine: "Machine") -> List[str]:
    out: List[str] = []
    for node in machine.tiers.nodes:
        free = node._free_set
        for frame in node.frames:
            if frame.is_tail:
                head = frame.head
                if frame.order != 0:
                    out.append(
                        f"node {node.node_id} pfn {frame.pfn}: tail with "
                        f"order {frame.order}"
                    )
                if head.node_id != node.node_id:
                    out.append(
                        f"node {node.node_id} pfn {frame.pfn}: head on "
                        f"node {head.node_id}"
                    )
                elif not head.pfn < frame.pfn < head.pfn + head.nr_pages:
                    out.append(
                        f"node {node.node_id} pfn {frame.pfn}: outside "
                        f"its head's span [{head.pfn}, "
                        f"{head.pfn + head.nr_pages})"
                    )
                elif head.order == 0:
                    out.append(
                        f"node {node.node_id} pfn {frame.pfn}: head pfn "
                        f"{head.pfn} is not compound (order 0)"
                    )
                if frame.on_lru:
                    out.append(
                        f"node {node.node_id} pfn {frame.pfn}: tail on LRU"
                    )
                if frame.pfn in free:
                    out.append(
                        f"node {node.node_id} pfn {frame.pfn}: free frame "
                        "still linked as a tail"
                    )
            if frame.is_huge:
                nr = frame.nr_pages
                if frame.pfn % nr:
                    out.append(
                        f"node {node.node_id} pfn {frame.pfn}: folio head "
                        f"not naturally aligned for order {frame.order}"
                    )
                if frame.pfn + nr > node.nr_pages:
                    out.append(
                        f"node {node.node_id} pfn {frame.pfn}: folio "
                        f"order {frame.order} overruns the node"
                    )
                    continue
                for pfn in range(frame.pfn + 1, frame.pfn + nr):
                    tail = node.frames[pfn]
                    if tail.head is not frame:
                        out.append(
                            f"node {node.node_id} pfn {pfn}: inside folio "
                            f"[{frame.pfn}, {frame.pfn + nr}) but head is "
                            f"{tail.head.pfn if tail.head else None}"
                        )
                    if pfn in free:
                        out.append(
                            f"node {node.node_id} pfn {pfn}: free while "
                            f"covered by folio at pfn {frame.pfn}"
                        )
    return out


@register_invariant(
    "lru.membership",
    "LRU flags match list membership: heads only, exactly one list",
)
def _check_lru_membership(machine: "Machine") -> List[str]:
    out: List[str] = []
    lru = machine.lru
    on_lists = set()
    for nid in range(len(machine.tiers.nodes)):
        active_ids = set(map(id, lru.active[nid]))
        inactive_ids = set(map(id, lru.inactive[nid]))
        if active_ids & inactive_ids:
            out.append(f"node {nid}: frame on both LRU lists")
        for kind, frames in (
            ("active", lru.active[nid]),
            ("inactive", lru.inactive[nid]),
        ):
            for frame in frames:
                where = f"node {nid} {kind} list pfn {frame.pfn}"
                if not frame.on_lru:
                    out.append(f"{where}: LRU flag clear")
                if frame.active != (kind == "active"):
                    out.append(f"{where}: ACTIVE flag disagrees")
                if frame.node_id != nid:
                    out.append(f"{where}: frame belongs to node {frame.node_id}")
                if frame.is_tail:
                    out.append(f"{where}: tail frame on an LRU list")
        on_lists |= active_ids | inactive_ids
    for node in machine.tiers.nodes:
        for frame in node.frames:
            if frame.on_lru and id(frame) not in on_lists:
                out.append(
                    f"node {node.node_id} pfn {frame.pfn}: LRU flag set "
                    "but on no list"
                )
    return out


@register_invariant(
    "mem.accounting",
    "free-list mirrors agree, free frames are pristine, watermarks sane",
)
def _check_mem_accounting(machine: "Machine") -> List[str]:
    out: List[str] = []
    for node in machine.tiers.nodes:
        free_set = node._free_set
        map_set = {int(p) for p in np.flatnonzero(node._free_map)}
        if free_set != map_set:
            delta = free_set.symmetric_difference(map_set)
            out.append(
                f"node {node.node_id}: free set and free bitmap disagree "
                f"on pfns {sorted(delta)[:8]}"
            )
        missing = free_set - set(node._free)
        if missing:
            out.append(
                f"node {node.node_id}: free pfns {sorted(missing)[:8]} "
                "absent from the FIFO (unallocatable leak)"
            )
        for pfn in free_set:
            frame = node.frames[pfn]
            where = f"node {node.node_id} free pfn {pfn}"
            if frame.flags != 0:
                out.append(f"{where}: flags {frame.flags:#x} not cleared")
            if frame.rmap:
                out.append(f"{where}: still mapped {frame.rmap!r}")
            if frame.order != 0 or frame.head is not None:
                out.append(f"{where}: compound state survived freeing")
        if not 0 < node.wmark_min <= node.wmark_low <= node.wmark_high:
            out.append(
                f"node {node.node_id}: watermarks out of order "
                f"{node.wmark_min}/{node.wmark_low}/{node.wmark_high}"
            )
    return out


@register_invariant(
    "tier.accounting",
    "chain addressing is consistent: gpfn bases are cumulative, the "
    "flat tier map matches node spans, per-node used+free adds up",
)
def _check_tier_accounting(machine: "Machine") -> List[str]:
    out: List[str] = []
    tiers = machine.tiers
    base = 0
    for node in tiers.nodes:
        nid = node.node_id
        if tiers._base[nid] != base:
            out.append(
                f"node {nid}: gpfn base {tiers._base[nid]} != cumulative "
                f"span start {base}"
            )
        span = tiers.tier_of_gpfn[base : base + node.nr_pages]
        if not (span == nid).all():
            out.append(
                f"node {nid}: tier_of_gpfn span [{base}, "
                f"{base + node.nr_pages}) has foreign entries"
            )
        if node.nr_used + node.nr_free != node.nr_pages:
            out.append(
                f"node {nid}: used {node.nr_used} + free {node.nr_free} "
                f"!= {node.nr_pages} pages"
            )
        base += node.nr_pages
    if base != tiers.total_pages:
        out.append(
            f"node spans sum to {base}, total_pages says "
            f"{tiers.total_pages}"
        )
    if len(tiers.tier_of_gpfn) != base:
        out.append(
            f"tier_of_gpfn covers {len(tiers.tier_of_gpfn)} gpfns, "
            f"chain holds {base}"
        )
    return out


@register_invariant(
    "queue.consistency",
    "PCQ/MPQ internal bookkeeping is in sync and entries are sane",
)
def _check_queue_consistency(machine: "Machine") -> List[str]:
    out: List[str] = []
    policy = machine.policy
    for qname in ("pcq", "mpq"):
        q = getattr(policy, qname, None) if policy is not None else None
        if q is None:
            continue
        entries = list(q._queue)
        if len(entries) != len(q._members):
            out.append(
                f"{qname}: queue has {len(entries)} entries, members "
                f"dict has {len(q._members)}"
            )
        ids = [id(r.frame) for r in entries]
        if len(set(ids)) != len(ids):
            out.append(f"{qname}: a frame is queued more than once")
        for rid in ids:
            if rid not in q._members:
                out.append(f"{qname}: queue entry missing from members")
                break
        if len(entries) > q.capacity:
            out.append(
                f"{qname}: {len(entries)} entries exceed capacity "
                f"{q.capacity}"
            )
        max_attempts = getattr(q, "max_attempts", None)
        for r in entries:
            if max_attempts is not None and r.attempts >= max_attempts:
                out.append(
                    f"{qname}: vpn {r.vpn} queued with attempts "
                    f"{r.attempts} >= max {max_attempts}"
                )
            # Stale entries (freed/reallocated frames) are legal -- they
            # are skipped lazily -- but a *live* entry must reference a
            # folio head, never interior storage.
            if (
                r.frame.generation == r.generation
                and r.frame.mapped
                and r.frame.is_tail
            ):
                out.append(
                    f"{qname}: live entry vpn {r.vpn} references tail "
                    f"pfn {r.frame.pfn}"
                )
    return out


@register_invariant(
    "kswapd.backoff",
    "a parked kswapd has exactly MAX_RECLAIM_RETRIES failures, sleeps on "
    "its wakeup event (not a timer), and its pgfree snapshots are in the past",
)
def _check_kswapd_backoff(machine: "Machine") -> List[str]:
    out: List[str] = []
    for daemon in machine.kswapd:
        proc = daemon.proc
        if proc is None or not proc.alive:
            continue
        where = f"kswapd{daemon.node_id}"
        if daemon.parked_at is None:
            if daemon.failures >= MAX_RECLAIM_RETRIES:
                out.append(
                    f"{where}: {daemon.failures} failures but not parked"
                )
            continue
        if daemon.failures != MAX_RECLAIM_RETRIES:
            out.append(
                f"{where}: parked with {daemon.failures} failures, "
                f"expected {MAX_RECLAIM_RETRIES}"
            )
        if proc not in daemon._wakeup._waiters:
            out.append(
                f"{where}: parked but not waiting on its wakeup event "
                "(sleeping on a timer?)"
            )
        for node, snap in zip(daemon.watched, daemon.parked_at):
            if snap > node.pgfree:
                out.append(
                    f"{where}: pgfree snapshot {snap} of node "
                    f"{node.node_id} exceeds its count {node.pgfree}"
                )
    return out


# ----------------------------------------------------------------------
class InvariantChecker:
    """Runs registered checks against one machine and collects findings.

    Violations are deduplicated on (check, detail) so a persistent
    corruption observed by every interval tick reports once, and the
    stored list is bounded by ``max_violations`` (the total count keeps
    incrementing). Checks only read simulation state.
    """

    def __init__(
        self,
        machine: "Machine",
        checks: Optional[Sequence[str]] = None,
        raise_on_violation: bool = False,
        max_violations: int = 1000,
    ) -> None:
        names = list(checks) if checks is not None else sorted(INVARIANTS)
        for name in names:
            if name not in INVARIANTS:
                raise ValueError(
                    f"unknown invariant {name!r}; known: {sorted(INVARIANTS)}"
                )
        self.machine = machine
        self.checks = names
        self.raise_on_violation = raise_on_violation
        self.max_violations = max_violations
        self.nr_passes = 0
        self.nr_violations = 0
        self.violations: List[Violation] = []
        self._seen = set()

    def check_now(self) -> List[Violation]:
        """Run every enabled check once; returns *new* violations."""
        m = self.machine
        self.nr_passes += 1
        fresh: List[Violation] = []
        for name in self.checks:
            for detail in INVARIANTS[name].func(m):
                self.nr_violations += 1
                key = (name, detail)
                if key in self._seen:
                    continue
                self._seen.add(key)
                violation = Violation(name, detail, m.engine.now)
                if len(self.violations) < self.max_violations:
                    self.violations.append(violation)
                fresh.append(violation)
                m.stats.bump("debug.invariant_violations")
                m.obs.emit("debug.violation", check=name, detail=detail)
                if self.raise_on_violation:
                    raise InvariantViolationError(violation)
        m.obs.emit(
            "debug.check",
            checks=len(self.checks),
            violations=len(fresh),
        )
        return fresh

    def summary(self) -> Dict[str, object]:
        return {
            "passes": self.nr_passes,
            "violations": self.nr_violations,
            "unique": len(self.violations),
            "details": [
                {"check": v.check, "detail": v.detail, "ts": v.ts}
                for v in self.violations
            ],
        }
