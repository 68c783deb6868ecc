"""The Clock/Timers protocol boundary and its two implementations."""

import asyncio

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.simulation import (
    AsyncioClock,
    Clock,
    Simulator,
    Timers,
    ensure_clock,
)


class TestProtocolConformance:
    def test_simulator_satisfies_clock(self):
        sim = Simulator(seed=1)
        assert isinstance(sim, Clock)
        assert isinstance(sim, Timers)
        assert ensure_clock(sim) is sim

    def test_asyncio_clock_satisfies_clock(self):
        clock = AsyncioClock(seed=1)
        assert isinstance(clock, Clock)
        assert ensure_clock(clock) is clock

    def test_asyncio_clock_never_reports_due_callbacks(self):
        # Wall instants never tie: a grouped callback may always go on.
        async def body():
            clock = AsyncioClock().start()
            clock.after(0.0, lambda: None)
            answer = clock.due_now()
            clock.shutdown()
            return answer

        assert asyncio.run(body()) is False

    def test_non_clock_rejected_with_typed_error(self):
        with pytest.raises(ConfigurationError, match="Clock protocol"):
            ensure_clock(object())

    def test_simulator_schedule_is_the_canonical_spelling(self):
        sim = Simulator(seed=1)
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now), label="via-schedule")
        sim.at(2.0, lambda: fired.append(sim.now), label="via-at")
        sim.run()
        assert fired == [1.0, 2.0]


class TestAsyncioClock:
    def test_speedup_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            AsyncioClock(speedup=0.0)

    def test_unstarted_clock_reads_zero_and_refuses_timers(self):
        clock = AsyncioClock()
        assert clock.now == 0.0
        assert not clock.started
        with pytest.raises(SimulationError, match="not started"):
            clock.after(0.1, lambda: None)

    def test_double_start_rejected(self):
        async def body():
            clock = AsyncioClock().start()
            with pytest.raises(SimulationError, match="twice"):
                clock.start()

        asyncio.run(body())

    def test_negative_delay_rejected(self):
        async def body():
            clock = AsyncioClock().start()
            with pytest.raises(SimulationError, match="negative delay"):
                clock.after(-1.0, lambda: None)

        asyncio.run(body())

    def test_timers_fire_in_order_on_the_scaled_timeline(self):
        async def body():
            clock = AsyncioClock(speedup=100.0).start()
            fired = []
            clock.after(2.0, lambda: fired.append("late"))
            clock.after(0.5, lambda: fired.append("early"))
            clock.schedule(1.0, lambda: fired.append("mid"))
            # 2 trace seconds = 0.02 wall seconds at 100x.
            ok = await clock.wait_for(
                lambda: len(fired) == 3, timeout_wall=5.0
            )
            assert ok
            assert fired == ["early", "mid", "late"]
            assert clock.now >= 2.0
            assert clock.timers_fired == 3

        asyncio.run(body())

    def test_past_times_clamp_instead_of_raising(self):
        async def body():
            clock = AsyncioClock(speedup=1000.0).start()
            await clock.sleep(1.0)
            fired = []
            timer = clock.schedule(0.0, lambda: fired.append(clock.now))
            ok = await clock.wait_for(lambda: bool(fired), timeout_wall=5.0)
            assert ok
            assert timer.fired
            # Fired "as soon as possible": at or after the schedule call.
            assert fired[0] >= 1.0

        asyncio.run(body())

    def test_cancel_matches_simulator_semantics(self):
        async def body():
            clock = AsyncioClock(speedup=100.0).start()
            fired = []
            timer = clock.after(0.5, lambda: fired.append(1))
            assert timer.pending
            clock.cancel(timer)
            assert timer.cancelled and not timer.pending
            clock.cancel(timer)  # double-cancel: no-op
            clock.cancel(None)  # None: no-op
            done = clock.after(0.1, lambda: fired.append(2))
            ok = await clock.wait_for(lambda: bool(fired), timeout_wall=5.0)
            assert ok
            clock.cancel(done)  # already fired: no-op
            assert fired == [2]
            assert clock.timers_cancelled == 1

        asyncio.run(body())

    def test_wall_view_is_unscaled(self):
        async def body():
            clock = AsyncioClock(speedup=50.0).start()
            await clock.sleep(1.0)  # 1 trace second = 0.02 wall seconds
            assert clock.now >= 1.0
            assert clock.wall_now < 1.0
            wall = clock.wall
            assert wall.now == pytest.approx(clock.wall_now, abs=0.05)
            assert wall.unix_origin == clock.unix_origin > 0

        asyncio.run(body())

    def test_shutdown_cancels_pending_timers(self):
        async def body():
            clock = AsyncioClock().start()
            fired = []
            for delay in (10.0, 20.0, 30.0):
                clock.after(delay, lambda: fired.append(delay))
            assert clock.pending_timers == 3
            assert clock.shutdown() == 3
            assert clock.pending_timers == 0
            assert not fired

        asyncio.run(body())

    def test_rng_registry_matches_simulator_streams(self):
        # Same seed, same named stream, same draws: components that draw
        # randomness behave identically on either clock.
        sim = Simulator(seed=42)
        clock = AsyncioClock(seed=42)
        a = sim.rng.stream("spot").random(5)
        b = clock.rng.stream("spot").random(5)
        assert list(a) == list(b)
