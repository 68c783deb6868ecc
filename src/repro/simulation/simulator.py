"""The discrete-event simulator core.

A :class:`Simulator` owns the clock, the event queue, and the RNG registry.
Components schedule callbacks at absolute times; :meth:`Simulator.run`
drains the queue in time order. The design is deliberately single-threaded
and synchronous — determinism is a hard requirement for reproducing the
paper's experiments.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.errors import SimulationError
from repro.simulation.events import (
    PRIORITY_NORMAL,
    Event,
    EventQueue,
    validate_schedule_time,
)
from repro.simulation.rng import RngRegistry

#: Compact the event heap when this fraction of entries are tombstones.
_COMPACT_THRESHOLD = 0.5
#: ... but only when the heap is at least this large (avoid churn).
_COMPACT_MIN_SIZE = 4096
#: Check the compaction condition every ``_COMPACT_CHECK_EVERY`` events
#: (power of two: the dispatch loop tests ``processed & mask``) instead of
#: on every dispatch — the ratio test itself was showing up in profiles.
_COMPACT_CHECK_EVERY = 1024


class Simulator:
    """Deterministic discrete-event simulator.

    ``Simulator`` is the discrete-event implementation of the
    :class:`~repro.simulation.clock.Clock` protocol (``now`` /
    ``schedule`` / ``at`` / ``after`` / ``cancel`` / ``due_now``); the
    wall-clock implementation is
    :class:`~repro.simulation.wallclock.AsyncioClock`.
    Components written against that surface run unchanged on either.

    Parameters
    ----------
    seed:
        Root seed for all named RNG streams.
    """

    def __init__(self, seed: int = 0) -> None:
        self._now = 0.0
        self.queue = EventQueue()
        self.rng = RngRegistry(seed)
        self._events_processed = 0
        self._running = False

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``.

        The canonical Clock-protocol spelling; :meth:`at` is the
        historical alias. Times in the past raise
        :class:`~repro.errors.ClockError` (a discrete-event clock can
        enforce this; the wall clock clamps instead).
        """
        validate_schedule_time(self._now, time)
        return self.queue.schedule(time, callback, priority=priority, label=label)

    #: Schedule ``callback`` at absolute simulated ``time`` (the historical
    #: spelling of :meth:`schedule`).
    at = schedule

    def after(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.queue.schedule(
            self._now + delay, callback, priority=priority, label=label
        )

    def cancel(self, event: Event | None) -> None:
        """Cancel ``event`` if it is pending; no-op for ``None``/cancelled."""
        self.queue.cancel_if_pending(event)

    def due_now(self) -> bool:
        """Whether a pending event would run before a callback scheduled
        now, at ``now``, with the default priority.

        Same-time ties run in (priority, FIFO) order, so that is a live
        head at or before ``(now, PRIORITY_NORMAL)``. A callback that does
        the work of several same-time events in one (the platform's one
        arrival event per instant) asks this between them to keep the
        order separate events would have had.
        """
        head = self.queue.head_key()
        return head is not None and head <= (self._now, PRIORITY_NORMAL)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event. Return ``False`` if the queue is empty."""
        if not self.queue:
            return False
        event = self.queue.pop()
        if event.time < self._now:
            raise SimulationError(
                f"time went backwards: event at {event.time} < now {self._now}"
            )
        self._now = event.time
        self._events_processed += 1
        event.callback()
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Drain the event queue.

        Parameters
        ----------
        until:
            Stop once the next event lies strictly after this time (the
            clock is advanced to ``until``). ``None`` runs to exhaustion.
        max_events:
            Safety valve against runaway simulations.

        The loop is the simulator's hottest path (one iteration per event,
        ~70k/simulated-minute under fig05 load), so the queue's pop/peek
        is inlined here: dead-entry skipping, the ``until`` check, and the
        dispatch all touch the heap directly through local bindings, and
        the tombstone-compaction ratio test runs every
        :data:`_COMPACT_CHECK_EVERY` events instead of every event. The
        event order is exactly what :meth:`step` would produce.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        queue = self.queue
        heap = queue._heap
        heappop = heapq.heappop
        check_mask = _COMPACT_CHECK_EVERY - 1
        processed = 0
        try:
            while queue._live:
                # Skip tombstones at the head (inlined EventQueue._drop_dead).
                while heap[0][3].cancelled:
                    heappop(heap)
                time = heap[0][0]
                if until is not None and time > until:
                    if until > self._now:
                        self._now = until
                    return
                if time < self._now:
                    raise SimulationError(
                        f"time went backwards: event at {time} < now {self._now}"
                    )
                event = heappop(heap)[3]
                event.fired = True
                queue._live -= 1
                self._now = time
                self._events_processed += 1
                event.callback()
                processed += 1
                if max_events is not None and processed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events} (runaway simulation?)"
                    )
                if (
                    not processed & check_mask
                    and len(heap) >= _COMPACT_MIN_SIZE
                    and queue.dead_fraction > _COMPACT_THRESHOLD
                ):
                    # compact() rebuilds in place, so the local `heap`
                    # binding stays valid — here and when a callback
                    # above compacts mid-run (see EventQueue.compact).
                    queue.compact()
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
