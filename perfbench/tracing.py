"""Per-layer host-time tracing from outside the simulator.

:class:`Tracer` wraps public functions at each layer boundary and records
one span per call: name, parent span, start and end (host nanoseconds).
Spans stay in memory and are written once, when the benchmark ends. A
layer's self time is its span time minus the time of the wrapped spans
nested inside it, so nested boundaries (handle_fault -> hint_fault ->
pcq.scan_hot) are not counted twice.

The tracer is also the engine's profiler (``Engine.profiler``): the run
loop reports every process resumption to :meth:`Tracer.note`, which
attributes host time by process name.

Wrappers go in before any machine is built, because policies bind their
bus handlers at install time, and only in the traced process.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, Optional

import numpy as np

# Engine process-name prefixes, grouped the way the layer table names them.
# The grouping matches repro.obs.selfprof; it is kept here so that
# reworking the self-profiler does not change what the benchmark reports.
_PROCESS_GROUPS = (
    ("app:", "app"),
    ("kswapd", "kswapd"),
    ("kpromote", "kpromote"),
    ("numa", "scanner"),
    ("obs.", "obs"),
)


def _process_group(proc_name: str) -> str:
    for prefix, group in _PROCESS_GROUPS:
        if proc_name.startswith(prefix):
            return group
    return "other"


class Tracer:
    """In-memory span recorder plus engine step profiler."""

    def __init__(self) -> None:
        self.names: list = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list = []
        self._patches: list = []
        self.reset_counts()

    def reset_counts(self) -> None:
        """Start a new repeat: zero the call, tally and engine counters."""
        self.first_span = len(self.span_name)
        self.calls: Counter = Counter()
        self.tally: Counter = Counter()
        self.engine_ns: Counter = Counter()
        self.engine_steps = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- spans --------------------------------------------------------------
    def _enter(self, name_id: int) -> None:
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.span_end))
        self.span_end.append(0)
        self.span_start.append(perf_counter_ns())

    def _exit(self) -> None:
        self.span_end[self._stack.pop()] = perf_counter_ns()

    # -- Engine.profiler protocol -------------------------------------------
    def note(self, proc_name: str, ns: int) -> None:
        self.engine_ns[_process_group(proc_name)] += ns
        self.engine_steps += 1

    @contextmanager
    def scope(self, name: str):
        self._enter(self.name_id(name))
        try:
            yield
        finally:
            self._exit()

    # -- wrappers -------------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        tally: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a spanning wrapper.

        ``tally(result)`` adds a number per call to ``self.tally[name]``
        (hot candidates found, pushes accepted, pages freed...).
        """
        original = owner.__dict__[attr]
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.calls[nid] += 1
            tracer._enter(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit()
            if tally is not None:
                tracer.tally[nid] += tally(result)
            return result

        self._patch(owner, attr, original, wrapper)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Like :meth:`wrap`, for a generator driven with ``yield from``:
        one call per generator, one span per resumption."""
        original = owner.__dict__[attr]
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.calls[nid] += 1
            gen = original(*args, **kwargs)
            sent = None
            try:
                while True:
                    tracer._enter(nid)
                    try:
                        yielded = gen.send(sent)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        tracer._exit()
                    sent = yield yielded
            finally:
                gen.close()

        self._patch(owner, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------
    def span_times(self) -> Dict[str, Dict[str, np.ndarray]]:
        """Per span name, this repeat's span durations and self times (ns)."""
        # Slicing copies, so no numpy view pins the growable arrays.
        lo = self.first_span
        name = np.frombuffer(self.span_name[lo:], dtype=np.int32)
        parent = np.frombuffer(self.span_parent[lo:], dtype=np.int32) - lo
        dur = np.frombuffer(self.span_end[lo:], dtype=np.int64) - np.frombuffer(
            self.span_start[lo:], dtype=np.int64
        )
        child = np.zeros(len(dur), dtype=np.int64)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return {
            self.names[nid]: {
                "dur": dur[name == nid],
                "self": (dur - child)[name == nid],
            }
            for nid in np.unique(name).tolist()
        }

    def write_spans(self, path: Path) -> None:
        """Dump every recorded span (all repeats) in one compressed file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
        )


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    import repro.workloads as rw
    from repro.core import (
        MigrationPendingQueue,
        NomadPolicy,
        PromotionCandidateQueue,
        ShadowIndex,
        TransactionalMigrator,
        kpromote,
        nomad,
    )
    from repro.kernel import LruManager
    from repro.mmu import AccessEngine
    from repro.policies import NoMigrationPolicy, memtis, tpp
    from repro.system import Machine

    # workloads
    for cls in (rw.ZipfianMicrobench, rw.StreamingTraceWorkload):
        tracer.wrap(cls, "generate", "workloads.generate")
    tracer.wrap(rw.Workload, "bind", "workloads.bind")
    tracer.wrap(rw, "build_trace", "workloads.build_trace")
    # mmu and system
    tracer.wrap(AccessEngine, "run_chunk", "mmu.run_chunk")
    tracer.wrap(Machine, "handle_fault", "system.handle_fault")
    # core (Nomad)
    tracer.wrap(NomadPolicy, "handle_hint_fault", "core.hint_fault")
    tracer.wrap(
        PromotionCandidateQueue, "scan_hot", "core.pcq.scan_hot", tally=len
    )
    tracer.wrap(MigrationPendingQueue, "push", "core.mpq.push", tally=int)
    tracer.wrap_generator(TransactionalMigrator, "migrate", "core.tpm")
    tracer.wrap(NomadPolicy, "handle_wp_fault", "core.wp_fault")
    tracer.wrap(
        ShadowIndex, "reclaim", "core.shadow.reclaim", tally=lambda r: r[0]
    )
    # kernel
    for cls in (NomadPolicy, NoMigrationPolicy):
        tracer.wrap(
            cls, "demote_page", "kernel.reclaim.demote", tally=lambda r: r[0]
        )
    # Callers import sync_migrate_page by name, so wrap it at each call site.
    for module in (nomad, kpromote, tpp, memtis):
        tracer.wrap(module, "sync_migrate_page", "kernel.migrate.sync")
    tracer.wrap(LruManager, "drain_pagevec", "kernel.lru.drain_pagevec")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, machine, report) -> Dict[str, float]:
    """This repeat's per-layer metrics.

    Host times come from the tracer; deterministic counts come from the
    run's counters and the fast-path executors.
    """
    spans = tracer.span_times()
    empty = {"dur": np.zeros(0, dtype=np.int64), "self": np.zeros(0, dtype=np.int64)}

    def calls(name: str) -> float:
        return float(tracer.calls[tracer.name_id(name)])

    def tally(name: str) -> float:
        return float(tracer.tally[tracer.name_id(name)])

    def seconds(name: str, kind: str = "dur") -> float:
        return float(spans.get(name, empty)[kind].sum()) / 1e9

    def micros(name: str, q: float) -> float:
        dur = spans.get(name, empty)["dur"]
        return float(np.percentile(dur, q)) / 1e3 if len(dur) else 0.0

    counters = report.counters
    executors = machine.fastpath_executors
    fast = float(sum(e.fast_chunks for e in executors))
    slow = float(sum(e.slow_chunks for e in executors))
    steps = float(tracer.engine_steps)
    obs = report.obs or {}
    events = obs.get("events", {})
    spans_ring = obs.get("spans", {})
    commits = counters.get("nomad.tpm_commits", 0.0)

    out = {
        "workloads.generate.calls": calls("workloads.generate"),
        "workloads.generate.s": seconds("workloads.generate"),
        "workloads.bind.s": seconds("workloads.bind"),
        "workloads.build_trace.s": seconds("workloads.build_trace"),
        "sim.engine.steps": steps,
        "sim.engine.ns_per_step": _ratio(sum(tracer.engine_ns.values()), steps),
    }
    for group in ("app", "kswapd", "kpromote", "scanner", "obs"):
        out[f"sim.engine.{group}.s"] = tracer.engine_ns[group] / 1e9
    out.update({
        "sim.fastpath.fast_chunks": fast,
        "sim.fastpath.slow_chunks": slow,
        "sim.fastpath.vector_batches": float(
            sum(e.vector_batches for e in executors)
        ),
        "sim.fastpath.revalidations": float(
            sum(e.revalidations for e in executors)
        ),
        "sim.fastpath.fast_frac": _ratio(fast, fast + slow),
        "mmu.run_chunk.calls": calls("mmu.run_chunk"),
        "mmu.run_chunk.s": seconds("mmu.run_chunk"),
        "mmu.run_chunk.us_p50": micros("mmu.run_chunk", 50),
        "mmu.run_chunk.us_p99": micros("mmu.run_chunk", 99),
        "system.handle_fault.calls": calls("system.handle_fault"),
        "system.handle_fault.hint": counters.get("fault.hint", 0.0),
        "system.handle_fault.write_protect": counters.get(
            "fault.write_protect", 0.0
        ),
        "system.handle_fault.not_present": counters.get("fault.not_present", 0.0),
        "system.handle_fault.self_s": seconds("system.handle_fault", "self"),
        "system.handle_fault.us_p50": micros("system.handle_fault", 50),
        "system.handle_fault.us_p99": micros("system.handle_fault", 99),
        "core.hint_fault.calls": calls("core.hint_fault"),
        "core.hint_fault.self_s": seconds("core.hint_fault", "self"),
        "core.pcq.scan_hot.calls": calls("core.pcq.scan_hot"),
        "core.pcq.scan_hot.s": seconds("core.pcq.scan_hot"),
        "core.pcq.hot_per_scan": _ratio(
            tally("core.pcq.scan_hot"), calls("core.pcq.scan_hot")
        ),
        "core.mpq.push.calls": calls("core.mpq.push"),
        "core.mpq.push.accept_ratio": _ratio(
            tally("core.mpq.push"), calls("core.mpq.push")
        ),
        "core.tpm.attempts": calls("core.tpm"),
        "core.tpm.commits": commits,
        "core.tpm.aborts_dirty": counters.get("nomad.tpm_aborts", 0.0),
        "core.tpm.commit_ratio": _ratio(commits, calls("core.tpm")),
        "core.tpm.s": seconds("core.tpm"),
        "core.wp_fault.calls": calls("core.wp_fault"),
        "core.wp_fault.s": seconds("core.wp_fault"),
        "core.shadow.reclaim.calls": calls("core.shadow.reclaim"),
        "core.shadow.reclaim.freed": tally("core.shadow.reclaim"),
        "core.shadow.reclaim.s": seconds("core.shadow.reclaim"),
        "kernel.kswapd.passes": counters.get("kswapd.passes", 0.0),
        "kernel.kswapd.gave_up": counters.get("kswapd.gave_up", 0.0),
        "kernel.reclaim.demote.calls": calls("kernel.reclaim.demote"),
        "kernel.reclaim.demote.ok_ratio": _ratio(
            tally("kernel.reclaim.demote"), calls("kernel.reclaim.demote")
        ),
        "kernel.reclaim.demote.s": seconds("kernel.reclaim.demote"),
        "kernel.migrate.sync.calls": calls("kernel.migrate.sync"),
        "kernel.migrate.sync.s": seconds("kernel.migrate.sync"),
        "kernel.lru.drain_pagevec.calls": calls("kernel.lru.drain_pagevec"),
        "kernel.lru.drain_pagevec.s": seconds("kernel.lru.drain_pagevec"),
        "obs.events": float(sum(events.values()) + obs.get("dropped", 0)),
        "obs.dropped": float(obs.get("dropped", 0)),
        # Both rings keep the newest records and count what they overwrote.
        "obs.spans_closed": float(
            spans_ring.get("completed", 0) + spans_ring.get("dropped", 0)
        ),
    })
    return out
