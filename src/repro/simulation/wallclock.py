"""Wall-clock implementation of the :class:`~repro.simulation.clock.Clock`
protocol on an :mod:`asyncio` event loop.

:class:`AsyncioClock` lets the *same* platform components that run inside
the discrete-event :class:`~repro.simulation.simulator.Simulator` — the
batcher's flush timers, the GPU engine's completion events, container
keep-alive deadlines, autoscaler/reconfigurator daemons — run against
real time instead: every ``schedule``/``after`` becomes an asyncio timer
and ``now`` reads the loop's monotonic clock.

Timeline convention: ``now`` is in **trace seconds** — wall seconds since
:meth:`start`, multiplied by ``speedup``. A replay at ``speedup=50``
therefore drives a 5-second recorded trace in ~0.1 wall seconds while
every deadline, keep-alive, and batch-wait computation in the platform
still sees the trace's own timescale. ``speedup=1`` is true real time.

Differences from the discrete-event clock, by design (documented in
``docs/live_serving.md``):

- Scheduling at a time that has already passed is *clamped* to "as soon
  as possible" rather than raising — wall time cannot be held back while
  a Python callback runs.
- ``priority`` is accepted and ignored: real instants never tie exactly;
  the loop's FIFO ready-queue order applies instead.
- Nothing here is bit-deterministic. Determinism claims for live mode
  are at the *counting* level (admitted/completed/rejected), asserted by
  ``tests/serving/test_replay.py``.
"""

from __future__ import annotations

import asyncio
import time as _time
from typing import Callable

from repro.errors import ConfigurationError, SimulationError
from repro.simulation.events import PRIORITY_NORMAL
from repro.simulation.rng import RngRegistry


class WallTimer:
    """Handle for one scheduled wall-clock callback.

    Mirrors the observable surface of
    :class:`~repro.simulation.events.Event` (``time``, ``label``,
    ``cancelled``, ``fired``, ``pending``) so component code holding
    handles works identically on either clock.
    """

    __slots__ = ("time", "label", "cancelled", "fired", "_handle")

    def __init__(self, time: float, label: str) -> None:
        self.time = time
        self.label = label
        self.cancelled = False
        self.fired = False
        self._handle: asyncio.TimerHandle | None = None

    @property
    def pending(self) -> bool:
        """True while scheduled and neither fired nor cancelled."""
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"WallTimer(t={self.time:.6f}, {self.label!r}, {state})"


class _WallView:
    """Read-only *unscaled* wall view of an :class:`AsyncioClock`.

    ``now`` is wall seconds since the clock started (speedup **not**
    applied). Threading this view into a tracer makes live-mode spans
    carry wall-clock durations — what an operator actually measured —
    while the platform itself keeps computing in trace seconds. The
    companion ``unix_origin`` anchors those relative stamps to absolute
    time for export.
    """

    __slots__ = ("_clock",)

    def __init__(self, clock: "AsyncioClock") -> None:
        self._clock = clock

    @property
    def now(self) -> float:
        return self._clock.wall_now

    @property
    def unix_origin(self) -> float:
        return self._clock.unix_origin


class AsyncioClock:
    """The wall-clock :class:`~repro.simulation.clock.Clock`.

    Parameters
    ----------
    seed:
        Root seed for the named RNG streams (same registry the simulator
        exposes, so components drawing randomness work unchanged).
    speedup:
        Trace seconds per wall second. ``50`` replays a recorded trace
        fifty times faster than real time.
    """

    def __init__(self, seed: int = 0, *, speedup: float = 1.0) -> None:
        if speedup <= 0:
            raise ConfigurationError(f"speedup must be positive, got {speedup}")
        self.speedup = float(speedup)
        self.rng = RngRegistry(seed)
        self.timers_scheduled = 0
        self.timers_fired = 0
        self.timers_cancelled = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._origin_monotonic = 0.0
        self._unix_origin = 0.0
        #: Live (pending) timers, for drain/teardown introspection.
        self._pending: set[WallTimer] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "AsyncioClock":
        """Bind to the running event loop and zero the timeline.

        Must be called from inside a running loop (the serving runtime
        does this first thing); calling twice raises, mirroring
        ``Simulator.run``'s non-reentrancy guard.
        """
        if self._loop is not None:
            raise SimulationError("AsyncioClock.start called twice")
        self._loop = asyncio.get_running_loop()
        self._origin_monotonic = self._loop.time()
        self._unix_origin = _time.time()
        return self

    @property
    def started(self) -> bool:
        """Whether :meth:`start` has bound the clock to a loop."""
        return self._loop is not None

    def _require_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            raise SimulationError(
                "AsyncioClock is not started; call start() from inside a "
                "running asyncio event loop first"
            )
        return self._loop

    # ------------------------------------------------------------------
    # Clock protocol
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Trace seconds since :meth:`start` (wall seconds × speedup)."""
        if self._loop is None:
            return 0.0
        return (self._loop.time() - self._origin_monotonic) * self.speedup

    @property
    def wall_now(self) -> float:
        """Wall seconds since :meth:`start` (speedup *not* applied)."""
        if self._loop is None:
            return 0.0
        return self._loop.time() - self._origin_monotonic

    @property
    def unix_origin(self) -> float:
        """Unix timestamp (``time.time``) captured at :meth:`start`."""
        return self._unix_origin

    @property
    def wall(self) -> _WallView:
        """Unscaled wall-clock view (for tracers; see :class:`_WallView`)."""
        return _WallView(self)

    def schedule(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> WallTimer:
        """Run ``callback`` at absolute trace time ``time``.

        Times at or before ``now`` are clamped to "as soon as possible".
        ``priority`` is ignored (see module docstring).
        """
        del priority  # wall instants never tie; loop FIFO order applies
        loop = self._require_loop()
        timer = WallTimer(time, label)
        delay_wall = max(0.0, (time - self.now) / self.speedup)

        def fire() -> None:
            if timer.cancelled:  # pragma: no cover - cancel() detaches first
                return
            timer.fired = True
            timer._handle = None
            self._pending.discard(timer)
            self.timers_fired += 1
            callback()

        timer._handle = loop.call_later(delay_wall, fire)
        self._pending.add(timer)
        self.timers_scheduled += 1
        return timer

    def at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> WallTimer:
        """Alias of :meth:`schedule` (the historical simulator spelling)."""
        return self.schedule(time, callback, priority=priority, label=label)

    def after(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> WallTimer:
        """Run ``callback`` ``delay`` trace seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.schedule(
            self.now + delay, callback, priority=priority, label=label
        )

    def cancel(self, timer: WallTimer | None) -> None:
        """Cancel ``timer`` if pending; no-op for ``None``/fired/cancelled.

        Matches ``Simulator.cancel`` semantics exactly — component code
        cancels handles it may have let fire already.
        """
        if timer is None or timer.cancelled or timer.fired:
            return
        timer.cancelled = True
        if timer._handle is not None:
            timer._handle.cancel()
            timer._handle = None
        self._pending.discard(timer)
        self.timers_cancelled += 1

    def due_now(self) -> bool:
        """Always ``False``: wall instants never tie, so there is no
        same-instant order for a grouped callback to preserve (the loop's
        FIFO ready queue applies)."""
        return False

    # ------------------------------------------------------------------
    # Drain / introspection
    # ------------------------------------------------------------------
    @property
    def pending_timers(self) -> int:
        """Number of scheduled-but-unfired (and uncancelled) timers."""
        return len(self._pending)

    async def sleep(self, delay: float) -> None:
        """Coroutine: wait ``delay`` *trace* seconds (wall = delay/speedup)."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        await asyncio.sleep(delay / self.speedup)

    async def wait_for(
        self,
        condition: Callable[[], bool],
        *,
        timeout_wall: float,
        poll_wall: float = 0.005,
    ) -> bool:
        """Poll ``condition`` until true or ``timeout_wall`` wall seconds.

        Returns whether the condition became true. The poll interval is
        in wall seconds so drains behave identically at every speedup.
        """
        loop = self._require_loop()
        deadline = loop.time() + timeout_wall
        while not condition():
            if loop.time() >= deadline:
                return False
            await asyncio.sleep(poll_wall)
        return True

    def shutdown(self) -> int:
        """Cancel every still-pending timer (teardown). Returns the count."""
        pending = list(self._pending)
        for timer in pending:
            self.cancel(timer)
        return len(pending)
