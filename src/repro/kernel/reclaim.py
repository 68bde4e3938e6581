"""kswapd: watermark-driven background reclaim.

One daemon per node. When a node dips below its low watermark the
allocator wakes the daemon, which works until free memory exceeds the
high watermark:

* it first offers the tiering policy a chance to reclaim cheaply (Nomad
  frees shadow pages here -- "NOMAD instructs kswapd to prioritize the
  reclamation of shadow pages", Section 3.2);
* it then scans the inactive list tail: recently-referenced pages get a
  second chance (and feed the activation machinery), cold pages are
  demoted through the policy's demotion path (stock copy-migration for
  TPP, remap-demotion for clean shadowed pages under Nomad).

The fast-tier daemon is TPP's asynchronous demotion engine; the paper's
Figure 2 shows it mostly idle, which our per-CPU accounting reproduces.

A node where reclaim keeps failing is *hopeless* (Linux's
``pgdat->kswapd_failures``): a run that gives up without freeing a page
counts as a failure, a run that frees one resets the count, and after
``MAX_RECLAIM_RETRIES`` failures in a row the daemon parks. A parked
daemon ignores watermark wakeups until a page has been freed on its node
or on its demotion target, which is what can make reclaim succeed again
(installing a new policy re-arms it too).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from ..mem.frame import Frame, FrameFlags
from ..mmu.pte import PTE_ACCESSED
from ..sim.bus import LowWatermark

if TYPE_CHECKING:  # pragma: no cover
    from ..system import Machine

__all__ = ["Kswapd", "MAX_RECLAIM_RETRIES"]

SCAN_BATCH = 32
# Fruitless runs in a row after which kswapd parks on a hopeless node.
MAX_RECLAIM_RETRIES = 16

_LOCKED = FrameFlags.LOCKED
_REFERENCED = FrameFlags.REFERENCED


class Kswapd:
    """Background reclaim daemon for one node."""

    def __init__(self, machine: "Machine", node_id: int) -> None:
        self.machine = machine
        self.node_id = node_id
        self.cpu = machine.cpus.get(f"kswapd{node_id}")
        self._wakeup = machine.engine.event(f"kswapd{node_id}.wakeup")
        self.proc = None
        self._sub = None
        # Consecutive runs that gave up without freeing a page.
        self.failures = 0
        # Frees on these nodes can make reclaim succeed again: our own
        # node, and the demotion target our victims would move to.
        tiers = machine.tiers
        target = tiers.demotion_target(node_id)
        self.watched = tuple(
            tiers.nodes[n] for n in (node_id, target) if n is not None
        )
        # While parked: the watched nodes' pgfree counts at parking time.
        self.parked_at: Optional[Tuple[int, ...]] = None

    def start(self) -> None:
        self.proc = self.machine.engine.spawn(
            self._run(), name=f"kswapd{self.node_id}"
        )
        self._sub = self.machine.bus.subscribe(
            LowWatermark, self._on_low_watermark
        )

    def stop(self) -> None:
        if self._sub is not None:
            self.machine.bus.unsubscribe(self._sub)
            self._sub = None
        if self.proc is not None and self.proc.alive:
            self.machine.engine.kill(self.proc)
        self.proc = None

    def _on_low_watermark(self, event: LowWatermark) -> None:
        if event.tier == self.node_id:
            self.wake()

    def wake(self) -> None:
        if self.parked_at is not None:
            if self.parked_at == self.freed_counts():
                return  # hopeless node: nothing freed since we parked
            self.parked_at = None
            self.failures = 0
            self.machine.stats.bump("kswapd.rearms")
        if not self._wakeup.triggered:
            self._wakeup.succeed()

    def freed_counts(self) -> Tuple[int, ...]:
        return tuple(node.pgfree for node in self.watched)

    def forget_failures(self) -> None:
        """Judge the node afresh, waking the daemon if it was parked."""
        self.failures = 0
        if self.parked_at is not None:
            self.parked_at = None
            self.wake()

    # ------------------------------------------------------------------
    def _run(self):
        m = self.machine
        node = m.tiers.nodes[self.node_id]
        while True:
            if not node.below_low() or self._no_policy():
                # Sleep until the allocator wakes us.
                yield self._sleep()
            passes_without_progress = 0
            run_freed = 0
            gave_up = False
            while node.reclaim_target() > 0:
                # Like the kernel's scan priority, reclaim escalates when
                # polite passes make no progress: priority 1 demotes
                # pages whose struct-page referenced flag is clear even
                # if the PTE accessed bit is set; priority 2 demotes
                # anything on the inactive list. Active-list pages are
                # never demoted directly -- they must age through
                # shrink_active first, which is what protects a stable
                # hot set from ping-pong demotion.
                priority = min(passes_without_progress, 2)
                freed, cycles, progressed = self._reclaim_pass(
                    node.reclaim_target(), priority=priority
                )
                m.stats.bump("kswapd.passes")
                m.obs.emit(
                    "reclaim.pass",
                    node=self.node_id,
                    priority=priority,
                    freed=freed,
                    cycles=cycles,
                )
                yield self.cpu.account("reclaim", max(cycles, 1.0))
                run_freed += freed
                if freed == 0 and not progressed:
                    passes_without_progress += 1
                    if passes_without_progress >= 4:
                        m.stats.bump("kswapd.gave_up")
                        gave_up = True
                        break
                    # Back off briefly, as kswapd does under congestion.
                    yield 50_000.0
                else:
                    passes_without_progress = 0
            if run_freed:
                self.failures = 0
            elif gave_up:
                self.failures += 1
                if self.failures >= MAX_RECLAIM_RETRIES:
                    yield self._park()
                    continue
            if gave_up:
                # Nothing reclaimable right now; avoid a busy loop while
                # the node stays below its watermark.
                yield 500_000.0

    def _sleep(self):
        """A fresh wakeup event for the daemon to wait on."""
        self._wakeup = self.machine.engine.event(f"kswapd{self.node_id}.wakeup")
        return self._wakeup

    def _park(self):
        """Give up on a hopeless node until a watched node frees a page."""
        m = self.machine
        self.parked_at = self.freed_counts()
        m.stats.bump("kswapd.backoffs")
        m.obs.emit("reclaim.backoff", node=self.node_id, failures=self.failures)
        return self._sleep()

    def _no_policy(self) -> bool:
        return self.machine.policy is None

    # ------------------------------------------------------------------
    def _reclaim_pass(self, target: int, priority: int = 0):
        """One batch of reclaim work.

        Returns (pages freed, cycles, progressed): ``progressed`` covers
        work that freed nothing yet but unblocked the next pass, such as
        splitting a cold huge folio so its base pages become demotable.
        """
        m = self.machine
        policy = m.policy
        cycles = 0.0
        freed = 0
        progressed = False

        # Reclaim drains pending LRU batches first (lru_add_drain), so
        # under memory pressure queued activation requests apply quickly
        # -- with an idle kswapd a hot page still waits out the 15-entry
        # pagevec, which is the TPP pathology of Section 3.1.
        m.lru.drain_pagevec()
        cycles += m.costs.lru_op

        # 1. Cheap policy reclaim (shadow pages under Nomad).
        if policy is not None:
            got, c = policy.reclaim_hint(self.node_id, target, self.cpu)
            freed += got
            cycles += c
            if freed >= target:
                return freed, cycles, True

        # 2. Scan the inactive list tail.
        lru_op = m.costs.lru_op
        recently_accessed = self._recently_accessed
        batch = m.lru.inactive_head_batch(self.node_id, SCAN_BATCH)
        for frame in batch:
            cycles += lru_op
            if frame.flags & _LOCKED or not frame.rmap:
                continue
            protected = (
                recently_accessed(frame)
                if priority == 0
                else bool(frame.flags & _REFERENCED) if priority == 1 else False
            )
            if protected:
                # Second chance: clear accessed bits, feed LRU aging.
                self._clear_accessed(frame)
                m.lru.mark_accessed(frame)
                m.lru.rotate(frame)
                cycles += m.costs.pte_update * frame.mapcount
                continue
            if policy is not None:
                if frame.order and policy.wants_split(frame):
                    # Split the cold folio so reclaim can work page-wise
                    # instead of demoting 2MB of possibly-mixed pages.
                    ok, c = m.split_folio(frame, self.cpu, reason="reclaim")
                    cycles += c
                    progressed = progressed or ok
                    continue
                if m.debug.should_fail("reclaim.demote_fail"):
                    # Injection: skip this candidate as if its migration
                    # had failed (locked destination, racing unmap...).
                    continue
                nr = frame.nr_pages
                ok, c = policy.demote_page(frame, self.cpu)
                cycles += c
                if ok:
                    freed += nr
                    if freed >= target:
                        break

        # 3. Keep the inactive list stocked (shrink_active_list).
        nr_inactive = m.lru.nr_inactive(self.node_id)
        nr_active = m.lru.nr_active(self.node_id)
        if nr_active > 0 and nr_inactive < max(SCAN_BATCH, nr_active // 2):
            for frame in m.lru.active_head_batch(self.node_id, SCAN_BATCH):
                cycles += lru_op
                if recently_accessed(frame):
                    self._clear_accessed(frame)
                    m.lru.rotate(frame)
                    cycles += m.costs.pte_update * frame.mapcount
                else:
                    m.lru.deactivate(frame)
        return freed, cycles, progressed or freed > 0

    @staticmethod
    def _recently_accessed(frame: Frame) -> bool:
        if frame.order:
            nr = frame.nr_pages
            for space, vpn in frame.rmap:
                if space.page_table.any_flags_range(vpn, nr, PTE_ACCESSED):
                    return True
            return False
        for space, vpn in frame.rmap:
            if space.page_table.flags.item(vpn) & PTE_ACCESSED:
                return True
        return False

    @staticmethod
    def _clear_accessed(frame: Frame) -> None:
        if frame.order:
            nr = frame.nr_pages
            for space, vpn in frame.rmap:
                space.page_table.clear_flags_range(vpn, nr, PTE_ACCESSED)
        else:
            for space, vpn in frame.rmap:
                space.page_table.clear_flags(vpn, PTE_ACCESSED)
