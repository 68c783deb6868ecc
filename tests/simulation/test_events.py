"""Unit tests for the event queue primitives."""

import pytest

from repro.errors import ClockError, EventCancelledError
from repro.simulation.events import (
    PRIORITY_EARLY,
    PRIORITY_LATE,
    EventQueue,
    validate_schedule_time,
)


def test_schedule_and_pop_in_time_order():
    queue = EventQueue()
    order = []
    queue.schedule(2.0, lambda: order.append("b"))
    queue.schedule(1.0, lambda: order.append("a"))
    queue.schedule(3.0, lambda: order.append("c"))
    while queue:
        queue.pop().callback()
    assert order == ["a", "b", "c"]


def test_fifo_within_same_timestamp():
    queue = EventQueue()
    first = queue.schedule(1.0, lambda: None)
    second = queue.schedule(1.0, lambda: None)
    assert queue.pop() is first
    assert queue.pop() is second


def test_priority_breaks_timestamp_ties():
    queue = EventQueue()
    normal = queue.schedule(1.0, lambda: None)
    early = queue.schedule(1.0, lambda: None, priority=PRIORITY_EARLY)
    late = queue.schedule(1.0, lambda: None, priority=PRIORITY_LATE)
    assert queue.pop() is early
    assert queue.pop() is normal
    assert queue.pop() is late


def test_cancelled_events_are_skipped():
    queue = EventQueue()
    doomed = queue.schedule(1.0, lambda: None)
    keeper = queue.schedule(2.0, lambda: None)
    queue.cancel(doomed)
    assert len(queue) == 1
    assert queue.pop() is keeper


def test_double_cancel_raises():
    queue = EventQueue()
    event = queue.schedule(1.0, lambda: None)
    queue.cancel(event)
    with pytest.raises(EventCancelledError):
        queue.cancel(event)


def test_cancel_if_pending_tolerates_none_and_cancelled():
    queue = EventQueue()
    queue.cancel_if_pending(None)
    event = queue.schedule(1.0, lambda: None)
    queue.cancel_if_pending(event)
    queue.cancel_if_pending(event)  # second call is a no-op
    assert len(queue) == 0


def test_pop_empty_queue_raises_index_error():
    queue = EventQueue()
    with pytest.raises(IndexError):
        queue.pop()
    with pytest.raises(IndexError):
        queue.peek_time()


def test_peek_time_skips_cancelled_head():
    queue = EventQueue()
    head = queue.schedule(1.0, lambda: None)
    queue.schedule(5.0, lambda: None)
    queue.cancel(head)
    assert queue.peek_time() == 5.0


def test_head_key_skips_cancelled_head():
    queue = EventQueue()
    assert queue.head_key() is None
    head = queue.schedule(1.0, lambda: None)
    queue.schedule(5.0, lambda: None, priority=PRIORITY_LATE)
    assert queue.head_key() == (1.0, head.priority)
    queue.cancel(head)
    assert queue.head_key() == (5.0, PRIORITY_LATE)
    assert len(queue) == 1


def test_compact_removes_tombstones():
    queue = EventQueue()
    events = [queue.schedule(float(i), lambda: None) for i in range(10)]
    for event in events[:9]:
        queue.cancel(event)
    assert queue.dead_fraction == pytest.approx(0.9)
    queue.compact()
    assert queue.dead_fraction == 0.0
    assert len(queue) == 1


def test_validate_schedule_time_rejects_past():
    with pytest.raises(ClockError):
        validate_schedule_time(now=5.0, time=4.0)
    validate_schedule_time(now=5.0, time=5.0)  # boundary is allowed
