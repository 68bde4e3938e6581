"""Engine semantics: scheduling order, events, process lifecycle."""

import pytest

from repro.sim.engine import Engine, SimulationError


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_single_process_advances_clock():
    engine = Engine()

    def proc():
        yield 100
        yield 50

    engine.spawn(proc(), "p")
    assert engine.run() == 150.0


def test_processes_interleave_by_time():
    engine = Engine()
    order = []

    def slow():
        yield 100
        order.append("slow")

    def fast():
        yield 10
        order.append("fast")

    engine.spawn(slow(), "slow")
    engine.spawn(fast(), "fast")
    engine.run()
    assert order == ["fast", "slow"]


def test_fifo_tiebreak_at_same_time():
    engine = Engine()
    order = []

    def make(tag):
        def proc():
            yield 10
            order.append(tag)

        return proc()

    for tag in ("a", "b", "c"):
        engine.spawn(make(tag), tag)
    engine.run()
    assert order == ["a", "b", "c"]


def test_run_until_caps_clock():
    engine = Engine()

    def proc():
        while True:
            yield 100

    engine.spawn(proc(), "p")
    assert engine.run(until=250) == 250.0


def test_run_max_events():
    engine = Engine()
    steps = []

    def proc():
        while True:
            steps.append(engine.now)
            yield 10

    engine.spawn(proc(), "p")
    engine.run(max_events=5)
    assert len(steps) == 5


def test_event_wakes_waiter_with_value():
    engine = Engine()
    got = []

    ev = engine.event("ev")

    def waiter():
        value = yield ev
        got.append(value)

    def trigger():
        yield 42
        ev.succeed("hello")

    engine.spawn(waiter(), "w")
    engine.spawn(trigger(), "t")
    engine.run()
    assert got == ["hello"]
    assert engine.now == 42.0


def test_event_wakes_multiple_waiters():
    engine = Engine()
    got = []
    ev = engine.event()

    def waiter(tag):
        yield ev
        got.append(tag)

    def trigger():
        yield 5
        ev.succeed()

    engine.spawn(waiter("a"), "a")
    engine.spawn(waiter("b"), "b")
    engine.spawn(trigger(), "t")
    engine.run()
    assert sorted(got) == ["a", "b"]


def test_late_waiter_on_triggered_event_resumes_immediately():
    engine = Engine()
    got = []
    ev = engine.event()
    ev.succeed("v")

    def waiter():
        value = yield ev
        got.append((value, engine.now))

    engine.spawn(waiter(), "w")
    engine.run()
    assert got == [("v", 0.0)]


def test_double_succeed_raises():
    engine = Engine()
    ev = engine.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_process_result_delivered_via_done_event():
    engine = Engine()

    def worker():
        yield 10
        return "result"

    proc = engine.spawn(worker(), "w")
    engine.run()
    assert not proc.alive
    assert proc.result == "result"
    assert proc.done_event.triggered
    assert proc.done_event.value == "result"


def test_run_until_event_stops_engine():
    engine = Engine()

    def finite():
        yield 100

    def forever():
        while True:
            yield 10

    proc = engine.spawn(finite(), "f")
    engine.spawn(forever(), "inf")
    engine.run(until_event=proc.done_event)
    assert not proc.alive
    assert engine.now <= 110.0


def test_kill_stops_process():
    engine = Engine()
    steps = []

    def proc():
        while True:
            steps.append(1)
            yield 10

    p = engine.spawn(proc(), "p")
    engine.run(max_events=3)
    engine.kill(p)
    engine.run()
    assert len(steps) == 3
    assert not p.alive
    assert p.done_event.triggered


def test_kill_while_waiting_on_event_not_resurrected():
    engine = Engine()
    resumed = []
    ev = engine.event("gate")

    def waiter():
        yield ev
        resumed.append("waiter")

    def killer(victim):
        yield 5
        engine.kill(victim)

    def trigger():
        yield 10
        ev.succeed("late")

    victim = engine.spawn(waiter(), "w")
    engine.spawn(killer(victim), "k")
    engine.spawn(trigger(), "t")
    engine.run()
    # succeed() must drop the dead waiter instead of rescheduling it.
    assert resumed == []
    assert not victim.alive
    assert ev.triggered


def test_kill_one_of_two_waiters_wakes_the_survivor():
    engine = Engine()
    resumed = []
    ev = engine.event()

    def waiter(tag):
        yield ev
        resumed.append(tag)

    def killer(victim):
        yield 5
        engine.kill(victim)

    def trigger():
        yield 10
        ev.succeed()

    victim = engine.spawn(waiter("victim"), "v")
    engine.spawn(waiter("survivor"), "s")
    engine.spawn(killer(victim), "k")
    engine.spawn(trigger(), "t")
    engine.run()
    assert resumed == ["survivor"]


def test_run_until_already_triggered_event_returns_immediately():
    engine = Engine()
    steps = []
    ev = engine.event()
    ev.succeed()

    def forever():
        while True:
            steps.append(engine.now)
            yield 10

    engine.spawn(forever(), "inf")
    engine.run(until_event=ev)
    # The stop condition is checked before any step runs.
    assert steps == []
    assert engine.now == 0.0


def test_negative_delay_rejected():
    engine = Engine()

    def proc():
        yield -5

    engine.spawn(proc(), "p")
    with pytest.raises(SimulationError):
        engine.run()


def test_bad_yield_type_rejected():
    engine = Engine()

    def proc():
        yield "nonsense"

    engine.spawn(proc(), "p")
    with pytest.raises(SimulationError):
        engine.run()


def test_spawn_requires_generator():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.spawn(lambda: None, "p")


def test_stop_interrupts_run():
    engine = Engine()

    def proc():
        yield 10
        engine.stop()
        yield 10

    engine.spawn(proc(), "p")
    engine.run()
    assert engine.now == 10.0
    # A later run() resumes where it left off.
    engine.run()
    assert engine.now == 20.0


def test_fractional_delays():
    engine = Engine()

    def proc():
        yield 0.5
        yield 0.25

    engine.spawn(proc(), "p")
    assert engine.run() == 0.75


def test_zero_delay_runs_in_same_time():
    engine = Engine()
    times = []

    def proc():
        yield 0
        times.append(engine.now)

    engine.spawn(proc(), "p")
    engine.run()
    assert times == [0.0]


def test_exception_in_process_propagates():
    engine = Engine()

    def proc():
        yield 10
        raise ValueError("boom")

    engine.spawn(proc(), "p")
    with pytest.raises(ValueError, match="boom"):
        engine.run()
