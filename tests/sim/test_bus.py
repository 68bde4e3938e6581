"""NotifierBus semantics: subscription order, consume, unsubscribe."""

import pytest

from repro.sim.bus import AllocFail, LowWatermark, NotifierBus


def test_publish_runs_all_handlers_in_order():
    bus = NotifierBus()
    seen = []
    bus.subscribe(LowWatermark, lambda e: seen.append("a"))
    bus.subscribe(LowWatermark, lambda e: seen.append("b"))
    bus.publish(LowWatermark(tier=0))
    assert seen == ["a", "b"]


def test_dispatch_first_value_wins():
    bus = NotifierBus()
    seen = []

    def decline(event):
        seen.append("decline")
        return None

    def consume(event):
        seen.append("consume")
        return 42.0

    def never(event):  # pragma: no cover - must not run
        seen.append("never")
        return 7.0

    bus.subscribe(LowWatermark, decline)
    bus.subscribe(LowWatermark, consume)
    bus.subscribe(LowWatermark, never)
    assert bus.dispatch(LowWatermark(tier=0)) == 42.0
    assert seen == ["decline", "consume"]


def test_dispatch_unhandled_returns_none():
    bus = NotifierBus()
    bus.subscribe(LowWatermark, lambda e: None)
    assert bus.dispatch(LowWatermark(tier=0)) is None


def test_dispatch_zero_is_a_valid_result():
    # 0.0 is not None: a zero-cost handler still consumes the event.
    bus = NotifierBus()
    bus.subscribe(LowWatermark, lambda e: 0.0)
    assert bus.dispatch(LowWatermark(tier=0)) == 0.0


def test_unsubscribe_removes_handler():
    bus = NotifierBus()
    seen = []
    sub = bus.subscribe(LowWatermark, lambda e: seen.append("x"))
    bus.publish(LowWatermark(tier=0))
    bus.unsubscribe(sub)
    bus.publish(LowWatermark(tier=0))
    assert seen == ["x"]
    assert not bus.has_subscribers(LowWatermark)


def test_unsubscribe_is_idempotent():
    bus = NotifierBus()
    sub = bus.subscribe(LowWatermark, lambda e: None)
    bus.unsubscribe(sub)
    bus.unsubscribe(sub)  # no error
    assert not bus.has_subscribers(LowWatermark)


def test_unsubscribe_during_publish_still_delivers_snapshot():
    bus = NotifierBus()
    seen = []
    subs = {}

    def first(event):
        seen.append("first")
        bus.unsubscribe(subs["second"])

    subs["first"] = bus.subscribe(LowWatermark, first)
    subs["second"] = bus.subscribe(LowWatermark, lambda e: seen.append("second"))
    # The chain is snapshotted at publish time, so "second" still runs
    # this round but is gone for the next.
    bus.publish(LowWatermark(tier=0))
    assert seen == ["first", "second"]
    bus.publish(LowWatermark(tier=0))
    assert seen == ["first", "second", "first"]


def test_mutable_event_accumulates_across_subscribers():
    bus = NotifierBus()
    bus.subscribe(AllocFail, lambda e: setattr(e, "freed", e.freed + 3))
    bus.subscribe(AllocFail, lambda e: setattr(e, "freed", e.freed + 4))
    event = AllocFail(tier=0, nr=1)
    bus.publish(event)
    assert event.freed == 7


def test_events_route_by_exact_type():
    bus = NotifierBus()
    seen = []
    bus.subscribe(LowWatermark, lambda e: seen.append("lw"))
    bus.publish(AllocFail(tier=0, nr=1))
    assert seen == []
    assert not bus.has_subscribers(AllocFail)


def test_subscribe_rejects_non_class():
    bus = NotifierBus()
    with pytest.raises(TypeError):
        bus.subscribe(LowWatermark(tier=0), lambda e: None)
