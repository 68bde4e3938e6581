"""Discrete-event simulation engine.

The engine drives every concurrent activity in the simulated machine:
application threads, ``kswapd``, ``kpromote``, the Memtis sampler, and so
on. Each activity is a *process*: a Python generator that yields either

* a non-negative number -- sleep for that many cycles, or
* an :class:`Event` -- suspend until the event is triggered.

The engine maintains a single global clock measured in CPU cycles. It is
fully deterministic: ties are broken by a monotonically increasing
sequence number, so two runs with the same seed produce identical
schedules.

A process whose numeric yield lands strictly before the queue head is
resumed inline, with no heap push and pop: the run loop would pop that
very entry next, with nothing in between (the event-horizon rule of
:meth:`Engine.try_advance`, applied to every process). Inline resumption
is refused whenever a resumption would be observable (tie jitter, the
post-step hook, ``max_events``, ``until``, a triggered ``until_event``,
``stop()``), so it never changes a schedule; it only changes what the
run loop counts as a step.

This is deliberately a from-scratch substrate (no SimPy) per the
reproduction rules: the paper's mechanisms (transactional migration,
TLB-shootdown ordering, daemon wakeups) are all expressed as processes on
this engine.
"""

from __future__ import annotations

import heapq
import itertools
from time import perf_counter_ns
from typing import Any, Generator, Iterable, List, Optional, Tuple

__all__ = ["Engine", "Event", "Process", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (bad yields, dead processes)."""


class Event:
    """A one-shot synchronization point.

    Processes wait on an event by yielding it; :meth:`succeed` wakes all
    waiters at the current simulation time and delivers ``value`` as the
    result of their ``yield`` expression.
    """

    __slots__ = ("_engine", "_waiters", "triggered", "value", "name")

    def __init__(self, engine: "Engine", name: str = "") -> None:
        self._engine = engine
        self._waiters: List["Process"] = []
        self.triggered = False
        self.value: Any = None
        self.name = name

    def succeed(self, value: Any = None) -> None:
        """Trigger the event, waking every waiter at the current time.

        Waiters killed while blocked on this event are stale; they are
        dropped here rather than scheduled for a resumption the run loop
        would discard anyway.
        """
        if self.triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self.triggered = True
        self.value = value
        for proc in self._waiters:
            if proc.alive:
                self._engine._schedule(proc, 0.0, value)
        self._waiters.clear()

    def _add_waiter(self, proc: "Process") -> None:
        if self.triggered:
            # Late waiters resume immediately with the stored value.
            self._engine._schedule(proc, 0.0, self.value)
        else:
            self._waiters.append(proc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<Event {self.name!r} {state}>"


class Process:
    """A running generator registered with the engine."""

    __slots__ = ("engine", "gen", "name", "alive", "result", "done_event")

    def __init__(self, engine: "Engine", gen: Generator, name: str) -> None:
        self.engine = engine
        self.gen = gen
        self.name = name
        self.alive = True
        self.result: Any = None
        self.done_event = Event(engine, name=f"{name}.done")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.name!r} {state}>"


class Engine:
    """The global event loop.

    Attributes
    ----------
    now:
        Current simulation time in cycles (float; sub-cycle precision is
        allowed because copy costs derived from bandwidth are fractional).
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List[Tuple[float, float, int, Process, Any]] = []
        self._seq = itertools.count()
        self._processes: List[Process] = []
        self._stopped = False
        # Same-timestamp tie-breaking. Normally a constant 0.0 ranks
        # entries purely by sequence number (FIFO, the historical
        # behaviour, bit-exact). The debug subsystem's jitter mode
        # installs an RNG here to randomize ordering among events that
        # share a timestamp, shaking out hidden ordering assumptions.
        self._tie_rng = None
        # Debug hook: called (no args) after every process resumption.
        # The paranoid invariant checker installs itself here.
        self.post_step_hook = None
        # Optional wall-clock self-profiler (repro.obs.selfprof): when
        # set, every run-loop step (one pop, with any inline resumptions
        # of the same process inside it) is timed and attributed by
        # process name. Host-clock only -- it cannot move simulated
        # time, so (unlike post_step_hook) it does not disqualify
        # inline resumption.
        self.profiler = None
        # Bounded inline time-advance: while a process holds control
        # inside run(), the clock may move forward without a heap
        # round-trip, at a numeric yield (_step) or by try_advance().
        # These mirror the active run() invocation's bounds so an inline
        # advance can never skip an event, overrun `until`, or miss an
        # `until_event` / stop() request.
        self._run_until: Optional[float] = None
        self._run_until_event: Optional[Event] = None
        self._inline_ok = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh one-shot event."""
        return Event(self, name)

    def spawn(self, gen: Generator, name: str = "proc") -> Process:
        """Register a generator as a process, runnable at the current time."""
        if not hasattr(gen, "send"):
            raise SimulationError(f"spawn() needs a generator, got {type(gen)!r}")
        proc = Process(self, gen, name)
        self._processes.append(proc)
        self._schedule(proc, 0.0, None)
        return proc

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        until_event: Optional[Event] = None,
    ) -> float:
        """Run the event loop.

        Stops when the queue drains, when the clock would pass ``until``,
        after ``max_events`` process resumptions, or once ``until_event``
        has triggered (checked between steps -- used to run "until this
        process finishes" while daemons keep the queue non-empty).
        Returns the final clock value.

        With ``max_events`` set every resumption is a step of its own;
        otherwise a step may resume its process several times inline.
        """
        count = 0
        prev_bounds = (self._run_until, self._run_until_event, self._inline_ok)
        self._run_until = until
        self._run_until_event = until_event
        # Inline advances bypass the per-resumption bookkeeping, so they
        # are only legal when nothing observes individual resumptions:
        # no event budget, no jitter RNG draws per push, no post-step
        # invariant hook.
        self._inline_ok = max_events is None
        try:
            while self._queue and not self._stopped:
                if until_event is not None and until_event.triggered:
                    break
                when, _tie, _seq, proc, value = self._queue[0]
                if until is not None and when > until:
                    self.now = until
                    break
                heapq.heappop(self._queue)
                if not proc.alive:
                    continue
                self.now = max(self.now, when)
                profiler = self.profiler
                if profiler is None:
                    self._step(proc, value)
                else:
                    t0 = perf_counter_ns()
                    self._step(proc, value)
                    profiler.note(proc.name, perf_counter_ns() - t0)
                if self.post_step_hook is not None:
                    self.post_step_hook()
                count += 1
                if max_events is not None and count >= max_events:
                    break
            self._stopped = False
            return self.now
        finally:
            self._run_until, self._run_until_event, self._inline_ok = prev_bounds

    def stop(self) -> None:
        """Request that :meth:`run` return after the current step."""
        self._stopped = True

    def try_advance(self, target: float) -> bool:
        """Advance the clock to ``target`` without a heap round-trip.

        A process calls this from inside its step in place of
        ``yield cycles`` (the fast path's batch commit does, before it
        commits): when it returns True the clock has moved to ``target``
        and the caller may keep executing inline; when it returns False
        the caller must yield normally so the run loop can service
        whatever made the shortcut illegal. ``_step`` applies the same
        rule to every numeric yield, so a plain ``yield cycles`` is
        already resumed inline whenever this would have returned True.

        Skipping the push+pop is bit-exact because a fresh push always
        carries a larger sequence number than every queued entry: on a
        timestamp tie the queued entry wins, so the caller resumes with
        nothing in between exactly when ``queue head > target`` --
        which is the condition tested here (conservatively, ties yield).
        Inline advance is refused whenever a resumption would have been
        observable: jitter tie-breaking draws RNG per push, the paranoid
        post-step hook runs per resumption, ``max_events`` counts
        resumptions, and ``stop()`` / a triggered ``until_event`` /
        ``until`` must regain control at the next boundary.
        """
        if not self._may_inline(target):
            return False
        if target < self.now:
            raise SimulationError(f"try_advance to the past: {target} < {self.now}")
        self.now = target
        return True

    def _may_inline(self, target: float) -> bool:
        """Would the run loop resume the running process at ``target``
        next, with nothing observable in between? (See try_advance.)"""
        if (
            not self._inline_ok
            or self._stopped
            or self._tie_rng is not None
            or self.post_step_hook is not None
        ):
            return False
        ue = self._run_until_event
        if ue is not None and ue.triggered:
            return False
        ru = self._run_until
        if ru is not None and target > ru:
            return False
        queue = self._queue
        return not queue or queue[0][0] > target

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the earliest queued event, or None if idle.

        Lets the fast path size a vectorized batch to end strictly
        before the next wakeup instead of discovering the conflict by a
        failed :meth:`try_advance`.
        """
        return self._queue[0][0] if self._queue else None

    def kill(self, proc: Process) -> None:
        """Terminate a process without resuming it again."""
        if proc.alive:
            proc.alive = False
            proc.gen.close()
            if not proc.done_event.triggered:
                proc.done_event.succeed(None)

    @property
    def pending(self) -> int:
        """Number of scheduled (possibly stale) resumptions."""
        return len(self._queue)

    def active_processes(self) -> Iterable[Process]:
        return [p for p in self._processes if p.alive]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def set_tie_jitter(self, rng) -> None:
        """Randomize same-timestamp event ordering (debug jitter mode).

        ``rng`` needs a ``random()`` method; pass ``None`` to restore
        deterministic FIFO tie-breaking. Must be set before events are
        queued to keep the heap's key shape consistent -- in practice
        the debug subsystem installs it at machine construction.
        """
        self._tie_rng = rng

    def _schedule(self, proc: Process, delay: float, value: Any) -> None:
        if not delay >= 0:  # negative or NaN
            raise SimulationError(f"invalid delay {delay!r} from {proc.name!r}")
        tie = 0.0 if self._tie_rng is None else self._tie_rng.random()
        heapq.heappush(
            self._queue, (self.now + delay, tie, next(self._seq), proc, value)
        )

    def _step(self, proc: Process, value: Any) -> None:
        """Resume ``proc``, and keep resuming it inline while each
        numeric yield may skip the heap (:meth:`_may_inline`)."""
        send = proc.gen.send
        while True:
            try:
                yielded = send(value)
            except StopIteration as stop:
                proc.alive = False
                proc.result = stop.value
                proc.done_event.succeed(stop.value)
                return
            if isinstance(yielded, Event):
                yielded._add_waiter(proc)
                return
            if not isinstance(yielded, (int, float)):
                proc.alive = False
                raise SimulationError(
                    f"process {proc.name!r} yielded {yielded!r}; expected a "
                    "number of cycles or an Event"
                )
            delay = float(yielded)
            target = self.now + delay
            if not delay >= 0 or not self._may_inline(target):
                self._schedule(proc, delay, None)
                return
            self.now = target
            value = None
