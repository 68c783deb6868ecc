"""Event primitives for the discrete-event simulation kernel.

The kernel is a classic calendar-queue design: callbacks are scheduled at
absolute simulated times and executed in time order. Events are *handles* —
they can be cancelled or rescheduled, which the GPU execution engine relies
on heavily (a job's completion event moves every time its co-location set
changes).

Ties are broken by (priority, sequence number) so that same-timestamp events
execute in a deterministic order: lower priority value first, then FIFO.

Performance note: the heap stores ``(time, priority, seq, event)`` tuples
rather than the :class:`Event` objects themselves. Tuple comparison runs
entirely in C, so heap sifts never re-enter the interpreter — replacing the
dataclass-generated ``__lt__`` this way removed the single largest item
from the simulator's dispatch profile (~1.5M Python-frame comparisons per
minute of simulated time at fig05 load).
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.errors import ClockError, EventCancelledError

#: Default priority for ordinary events.
PRIORITY_NORMAL = 100
#: Priority for bookkeeping that must run before ordinary events at a tick.
PRIORITY_EARLY = 10
#: Priority for work that must observe all ordinary events at a tick.
PRIORITY_LATE = 1000


class Event:
    """A scheduled callback.

    Instances are created through :meth:`EventQueue.schedule`; user code
    holds them only to call :meth:`cancel`. Ordering lives in the queue's
    key tuples, not on the event itself.
    """

    __slots__ = ("time", "priority", "seq", "callback", "label", "cancelled", "fired")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], None],
        label: str = "",
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Mark the event dead; the queue drops it when it surfaces.

        Callers must go through :meth:`EventQueue.cancel` /
        :meth:`Simulator.cancel` (as :class:`OneShotTimer` does) — calling
        this directly leaves the queue's live count stale.
        """
        self.cancelled = True

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and not yet fired/cancelled."""
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, prio={self.priority}, {self.label!r}, {state})"


class EventQueue:
    """A cancellable priority queue of :class:`Event` objects.

    Cancellation is lazy: cancelled events stay in the heap and are skipped
    on pop. :meth:`compact` may be called if the fraction of dead entries
    grows large (the simulator does this automatically).
    """

    def __init__(self) -> None:
        #: Heap of ``(time, priority, seq, event)`` — compared in C.
        self._heap: list[tuple[float, int, int, Event]] = []
        self._next_seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def schedule(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> Event:
        """Insert ``callback`` to run at simulated ``time``; return its handle."""
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time, priority, seq, callback, label)
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def cancel(self, event: Event) -> None:
        """Cancel ``event``. Idempotent errors are surfaced to catch bugs."""
        if event.cancelled:
            raise EventCancelledError(f"event already cancelled: {event!r}")
        if event.fired:
            raise EventCancelledError(f"event already fired: {event!r}")
        event.cancel()
        self._live -= 1

    def cancel_if_pending(self, event: Event | None) -> None:
        """Cancel ``event`` unless it is ``None``, fired, or cancelled."""
        if event is not None and not event.cancelled and not event.fired:
            self.cancel(event)

    def peek_time(self) -> float:
        """Return the timestamp of the next live event.

        Raises :class:`IndexError` when the queue is empty.
        """
        self._drop_dead()
        return self._heap[0][0]

    def head_key(self) -> tuple[float, int] | None:
        """``(time, priority)`` of the next live event; ``None`` if empty.

        Drops cancelled entries off the top of the heap on the way.
        """
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        return heap[0][:2] if heap else None

    def pop(self) -> Event:
        """Remove and return the next live event.

        Raises :class:`IndexError` when the queue is empty.
        """
        self._drop_dead()
        event = heapq.heappop(self._heap)[3]
        event.fired = True
        self._live -= 1
        return event

    def compact(self) -> None:
        """Rebuild the heap without cancelled entries.

        The rebuild is **in place** (slice assignment on the existing
        list, never a rebind): :meth:`Simulator.run` inlines the dispatch
        loop around a local binding of this list, and an event callback —
        an observer, an audit sweep — is allowed to call ``compact()``
        mid-run. Replacing the list object here would strand that local
        binding on the stale heap, silently dropping every event
        scheduled afterwards (regression-tested by the mid-run
        compaction test in ``tests/simulation/test_simulator.py``).
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[3].cancelled]
        heapq.heapify(heap)

    @property
    def dead_fraction(self) -> float:
        """Fraction of heap entries that are cancelled tombstones."""
        if not self._heap:
            return 0.0
        return 1.0 - self._live / len(self._heap)

    def _drop_dead(self) -> None:
        if self.head_key() is None:
            raise IndexError("pop from empty EventQueue")


def validate_schedule_time(now: float, time: float) -> None:
    """Raise :class:`ClockError` if ``time`` lies in the simulated past."""
    if time < now:
        raise ClockError(f"cannot schedule at t={time} before now={now}")
