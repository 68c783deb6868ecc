"""Unit tests for the Simulator event loop."""

import pytest

from repro.errors import ClockError, SimulationError
from repro.simulation import Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_run_executes_in_time_order_and_advances_clock():
    sim = Simulator()
    seen = []
    sim.at(3.0, lambda: seen.append(("c", sim.now)))
    sim.at(1.0, lambda: seen.append(("a", sim.now)))
    sim.after(2.0, lambda: seen.append(("b", sim.now)))
    sim.run()
    assert seen == [("a", 1.0), ("b", 2.0), ("c", 3.0)]
    assert sim.now == 3.0


def test_run_until_stops_before_later_events():
    sim = Simulator()
    seen = []
    sim.at(1.0, lambda: seen.append(1))
    sim.at(10.0, lambda: seen.append(10))
    sim.run(until=5.0)
    assert seen == [1]
    assert sim.now == 5.0
    sim.run()
    assert seen == [1, 10]


def test_run_until_advances_clock_even_with_empty_queue():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_events_can_schedule_more_events():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append(sim.now)
        if n > 0:
            sim.after(1.0, lambda: chain(n - 1))

    sim.at(0.0, lambda: chain(3))
    sim.run()
    assert seen == [0.0, 1.0, 2.0, 3.0]


def test_scheduling_in_past_raises():
    sim = Simulator()
    sim.at(5.0, lambda: None)
    sim.run()
    with pytest.raises(ClockError):
        sim.at(1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.after(-1.0, lambda: None)


def test_cancel_pending_event():
    sim = Simulator()
    seen = []
    event = sim.at(1.0, lambda: seen.append("doomed"))
    sim.at(2.0, lambda: seen.append("kept"))
    sim.cancel(event)
    sim.run()
    assert seen == ["kept"]


def test_max_events_guard_trips_on_runaway():
    sim = Simulator()

    def rearm():
        sim.after(0.1, rearm)

    sim.at(0.0, rearm)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=100)


def test_events_processed_counter():
    sim = Simulator()
    for t in range(5):
        sim.at(float(t), lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_step_returns_false_on_empty_queue():
    assert Simulator().step() is False


def test_mid_run_compaction_loses_no_events():
    # Regression: Simulator.run inlines the dispatch loop around a local
    # binding of queue._heap. compact() used to rebind queue._heap to a
    # fresh list, so a callback calling compact() mid-run (an observer or
    # audit sweep is allowed to) stranded the loop on the stale list —
    # events scheduled afterwards never fired and the loop crashed with
    # IndexError once the stale heap drained. compact() now rebuilds in
    # place, so everything scheduled after the sweep must still fire.
    sim = Simulator()
    seen = []
    doomed = [sim.at(5.0, lambda: None) for _ in range(3)]

    def observer_sweep():
        for event in doomed:
            sim.cancel(event)
        sim.queue.compact()  # the audit-style mid-run compaction
        sim.after(1.0, lambda: seen.append(("late", sim.now)))

    sim.at(1.0, observer_sweep)
    sim.at(3.0, lambda: seen.append(("mid", sim.now)))
    sim.run()
    assert seen == [("late", 2.0), ("mid", 3.0)]
    assert len(sim.queue) == 0


def test_mid_run_compaction_preserves_step_order():
    # The same sweep must not perturb dispatch order relative to an
    # uncompacted twin.
    def build():
        sim = Simulator()
        seen = []
        doomed = [sim.at(9.0, lambda: None) for _ in range(4)]
        sim.at(2.0, lambda: seen.append(2.0))

        def sweep(compact):
            for event in doomed:
                sim.cancel(event)
            if compact:
                sim.queue.compact()
            sim.after(0.5, lambda: seen.append(sim.now))

        sim.at(4.0, lambda: seen.append(4.0))
        return sim, seen, sweep

    sim_a, seen_a, sweep_a = build()
    sim_a.at(1.0, lambda: sweep_a(True))
    sim_a.run()
    sim_b, seen_b, sweep_b = build()
    sim_b.at(1.0, lambda: sweep_b(False))
    sim_b.run()
    assert seen_a == seen_b == [1.5, 2.0, 4.0]


def test_max_events_parity_with_step():
    # run(max_events=N) must execute exactly the first N events step()
    # would, in the same order, before tripping the guard.
    def build():
        sim = Simulator()
        seen = []
        for t in (3.0, 1.0, 2.0, 5.0, 4.0):
            sim.at(t, lambda t=t: seen.append(t))
        return sim, seen

    sim_a, seen_a = build()
    for _ in range(3):
        assert sim_a.step()
    sim_b, seen_b = build()
    with pytest.raises(SimulationError, match="max_events"):
        sim_b.run(max_events=3)
    assert seen_a == seen_b == [1.0, 2.0, 3.0]
    assert sim_a.events_processed == sim_b.events_processed == 3


def test_run_order_equals_step_order_under_random_cancellations():
    # Property: for a random schedule with random cancellations (some
    # up-front, some performed *by callbacks* mid-run), run() dispatches
    # exactly the sequence repeated step() calls produce.
    import random

    def build(seed):
        rng = random.Random(seed)
        sim = Simulator()
        seen = []
        events = []
        for i in range(200):
            t = round(rng.uniform(0.0, 50.0), 3)
            priority = rng.choice([10, 100, 100, 100, 1000])
            events.append(
                sim.at(t, lambda i=i: seen.append(i), priority=priority,
                       label=f"e{i}")
            )
        # Up-front cancellations.
        for event in rng.sample(events, 40):
            sim.cancel(event)
        # Mid-run cancellations: a few killer callbacks that cancel
        # still-pending victims when they fire.
        victims = rng.sample(events, 20)
        for victim in victims:
            t = round(rng.uniform(0.0, victim.time), 3)
            sim.at(t, lambda v=victim: sim.cancel(v)
                   if v.pending else None, label="killer")
        return sim, seen

    for seed in range(5):
        sim_run, seen_run = build(seed)
        sim_run.run()
        sim_step, seen_step = build(seed)
        while sim_step.step():
            pass
        assert seen_run == seen_step
        assert sim_run.events_processed == sim_step.events_processed
        assert sim_run.now == sim_step.now


def test_dead_fraction_accounting_across_inlined_tombstone_pops():
    # run() pops tombstones inline (without EventQueue.pop); the queue's
    # live/heap accounting must stay exact across those pops so
    # dead_fraction keeps meaning "fraction of heap entries cancelled".
    sim = Simulator()
    keepers = [sim.at(float(t), lambda: None) for t in range(10, 15)]
    doomed = [sim.at(float(t), lambda: None) for t in range(5)]
    for event in doomed:
        sim.cancel(event)
    assert len(sim.queue) == 5
    assert sim.queue.dead_fraction == pytest.approx(0.5)
    # Run past the tombstones but before any live event: the inlined
    # loop drops the dead heads, fires nothing...
    sim.run(until=9.0)
    assert sim.events_processed == 0
    # ...and the accounting reflects the pops: no tombstones remain.
    assert len(sim.queue._heap) == 5
    assert len(sim.queue) == 5
    assert sim.queue.dead_fraction == 0.0
    assert all(entry[3] in keepers for entry in sim.queue._heap)


def test_run_is_not_reentrant():
    sim = Simulator()
    failures = []

    def reenter():
        try:
            sim.run()
        except SimulationError:
            failures.append(True)

    sim.at(0.0, reenter)
    sim.run()
    assert failures == [True]


def test_due_now_reports_live_events_due_at_now():
    # Priority ties are covered through inject in
    # tests/serverless/test_arrival_grouping.py::TestTieOrder.
    sim = Simulator()
    answers = []

    def probe():
        # Nothing else is due at t=1 yet.
        answers.append(sim.due_now())
        # A later time is never due now.
        sim.at(2.0, lambda: None)
        answers.append(sim.due_now())
        # A same-time event would run before one scheduled now...
        tick = sim.after(0.0, lambda: None)
        answers.append(sim.due_now())
        # ...until it is cancelled.
        sim.cancel(tick)
        answers.append(sim.due_now())

    sim.at(1.0, probe)
    sim.run()
    assert answers == [False, False, True, False]
    # The tombstone the probe skipped left the live count and order intact.
    assert sim.events_processed == 2


def test_due_now_on_an_idle_simulator():
    sim = Simulator()
    assert not sim.due_now()
    sim.at(0.0, lambda: None)
    assert sim.due_now()
