"""Property-based tests for the event engine's scheduling semantics."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine, SimulationError


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=10),
        min_size=1,
        max_size=8,
    )
)
def test_events_fire_in_global_time_order(sleep_lists):
    """Regardless of how processes interleave, observed wake-ups are
    globally sorted by time."""
    engine = Engine()
    observed = []

    def proc(tag, sleeps):
        for s in sleeps:
            yield s
            observed.append((engine.now, tag))

    for tag, sleeps in enumerate(sleep_lists):
        engine.spawn(proc(tag, sleeps), f"p{tag}")
    engine.run()
    times = [t for t, _ in observed]
    assert times == sorted(times)
    assert len(observed) == sum(len(s) for s in sleep_lists)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=500.0), min_size=1, max_size=20)
)
def test_single_process_clock_is_sum_of_sleeps(sleeps):
    engine = Engine()

    def proc():
        for s in sleeps:
            yield s

    engine.spawn(proc(), "p")
    final = engine.run()
    assert abs(final - sum(sleeps)) < 1e-6


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=10),
    st.floats(min_value=0.0, max_value=500.0),
)
def test_until_never_overshoots(sleeps, until):
    engine = Engine()

    def proc():
        while True:
            for s in sleeps:
                yield s
            if sum(sleeps) == 0:
                return  # avoid a zero-time livelock

    engine.spawn(proc(), "p")
    engine.run(until=until, max_events=10_000)
    assert engine.now <= until + max(sleeps) + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=20))
def test_event_broadcast_wakes_every_waiter_once(n_waiters):
    engine = Engine()
    woken = []
    ev = engine.event()

    def waiter(i):
        yield ev
        woken.append(i)

    def trigger():
        yield 10
        ev.succeed()

    for i in range(n_waiters):
        engine.spawn(waiter(i), f"w{i}")
    engine.spawn(trigger(), "t")
    engine.run()
    assert sorted(woken) == list(range(n_waiters))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=50.0),
            st.floats(min_value=0.0, max_value=50.0),
        ),
        min_size=1,
        max_size=10,
    )
)
def test_determinism_of_schedules(pairs):
    """Two engines fed identical processes produce identical histories."""

    def history():
        engine = Engine()
        log = []

        def proc(tag, a, b):
            yield a
            log.append((engine.now, tag, "a"))
            yield b
            log.append((engine.now, tag, "b"))

        for tag, (a, b) in enumerate(pairs):
            engine.spawn(proc(tag, a, b), f"p{tag}")
        engine.run()
        return log

    assert history() == history()


# ----------------------------------------------------------------------
# Inline resumption: a process whose numeric yield lands strictly before
# the queue head resumes without a heap round-trip. It must not be
# observable: ``run(max_events=...)`` refuses it, so the two runs below
# must log the same resumptions at the same clock values, also under an
# ``until_event``, a post-step hook and tie jitter (which refuse it too).
# ----------------------------------------------------------------------
_SLEEPS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
    st.floats(min_value=0.0, max_value=10.0),
)
_NR_EVENTS = 3
_MODES = ("plain", "until_event", "post_step_hook", "tie_jitter")

_action = st.one_of(
    st.tuples(st.just("sleep"), _SLEEPS),
    st.tuples(st.just("wait"), st.integers(0, _NR_EVENTS - 1)),
    st.tuples(st.just("trigger"), st.integers(0, _NR_EVENTS - 1)),
    st.tuples(st.just("kill"), st.integers(0, 3)),
)
_scripts = st.lists(
    st.lists(_action, min_size=1, max_size=12), min_size=1, max_size=4
)


def _scripted_run(scripts, mode, **run_kwargs):
    """Run one process per script under ``mode``; returns (resumption
    log, post-step hook log, final clock)."""
    engine = Engine()
    if mode == "tie_jitter":
        engine.set_tie_jitter(random.Random(5))
    events = [engine.event(f"e{k}") for k in range(_NR_EVENTS)]
    procs = []
    log = []
    hooked = []
    if mode == "post_step_hook":
        engine.post_step_hook = lambda: hooked.append(engine.now)
    elif mode == "until_event":
        run_kwargs["until_event"] = events[0]

    def proc(index, script):
        name = f"p{index}"
        for step, (op, arg) in enumerate(script):
            if op == "sleep":
                value = yield arg
            elif op == "wait":
                value = yield events[arg]
            elif op == "trigger":
                if not events[arg].triggered:
                    events[arg].succeed((name, step))
                continue
            else:  # kill
                if arg < len(procs) and arg != index:
                    engine.kill(procs[arg])
                continue
            log.append((engine.now, name, value))

    for index, script in enumerate(scripts):
        procs.append(engine.spawn(proc(index, script), f"p{index}"))
    final = engine.run(**run_kwargs)
    return log, hooked, final


@settings(max_examples=200, deadline=None)
@given(_scripts, st.sampled_from(_MODES))
def test_inline_resumption_is_unobservable(scripts, mode):
    inline = _scripted_run(scripts, mode)
    stepwise = _scripted_run(scripts, mode, max_events=10**9)
    assert inline == stepwise


def _sleep_chain(sleeps, **run_kwargs):
    """One process sleeping through ``sleeps``; returns (wake times, final clock)."""
    engine = Engine()
    log = []

    def proc():
        for s in sleeps:
            yield s
            log.append(engine.now)

    engine.spawn(proc(), "p")
    final = engine.run(**run_kwargs)
    return log, final


@settings(max_examples=50, deadline=None)
@given(
    st.lists(_SLEEPS, min_size=1, max_size=20),
    st.floats(min_value=0.0, max_value=50.0),
)
def test_sleep_chain_stops_exactly_at_until(sleeps, until):
    log, final = _sleep_chain(sleeps, until=until)
    if len(log) < len(sleeps):
        assert final == until  # the chain crossed `until`
    assert all(t <= until for t in log)
    assert (log, final) == _sleep_chain(sleeps, until=until, max_events=10**9)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(_SLEEPS, max_size=5),
    st.one_of(st.floats(max_value=-1e-9), st.just(float("nan"))),
)
def test_invalid_yield_raises_after_inline_sleeps(sleeps, invalid):
    """A negative or NaN yield raises, also where the queue is empty and
    the yield would otherwise resume inline."""
    engine = Engine()

    def proc():
        for s in sleeps:
            yield s
        yield invalid

    engine.spawn(proc(), "p")
    with pytest.raises(SimulationError):
        engine.run()
