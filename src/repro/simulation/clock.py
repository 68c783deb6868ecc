"""The clock boundary: what platform components may ask of "time".

Every scheduler, batcher, dispatcher, autoscaler, and reconfigurator in
this repository was written against the discrete-event
:class:`~repro.simulation.simulator.Simulator`. The protocols here name
the *exact* surface those components actually use, so the same logic can
run unchanged against either time source:

- :class:`Timers` — schedule/cancel callbacks at absolute times or
  after relative delays;
- :class:`Clock` — a readable ``now`` plus :class:`Timers`.

Two implementations ship with the repository:

- :class:`~repro.simulation.simulator.Simulator` — virtual time, events
  dispatched synchronously in deterministic order (the default path for
  every experiment; bit-identical results are pinned by tests);
- :class:`~repro.simulation.wallclock.AsyncioClock` — wall time (with an
  optional speedup factor) on an :mod:`asyncio` event loop, used by the
  live serving mode (:mod:`repro.serving`).

Contract notes (what a conforming clock must guarantee):

- ``now`` is monotonically non-decreasing within one run.
- ``schedule``/``at`` accept absolute times; a discrete-event clock may
  reject times in the past (:class:`~repro.errors.ClockError`) while a
  wall clock clamps them to "as soon as possible" — wall time cannot be
  held back while a callback runs.
- ``priority`` orders same-timestamp callbacks on a discrete-event
  clock; a wall clock cannot distinguish simultaneous instants and may
  ignore it (FIFO within the loop's ready queue applies instead).
- ``cancel`` is safe on ``None`` and on handles that already fired —
  it only ever cancels genuinely pending work.
- ``due_now()`` says whether a pending callback would run before one
  scheduled now, at ``now``, with the default priority. A callback that
  does the work of several same-time callbacks in one asks it between
  them.
  A discrete-event clock answers from its queue; a wall clock answers
  ``False``, since its FIFO ready queue keeps no same-instant order to
  preserve.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

from repro.simulation.events import PRIORITY_NORMAL

#: What a clock hands back from ``schedule``/``at``/``after``. Opaque to
#: callers except for the ``pending`` query; pass it to ``cancel``.
TimerHandle = Any


@runtime_checkable
class Timers(Protocol):
    """Scheduling half of the clock boundary."""

    def schedule(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> TimerHandle:
        """Run ``callback`` at absolute ``time``; return a cancellable handle."""
        ...  # pragma: no cover - protocol

    def at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> TimerHandle:
        """Alias of :meth:`schedule` (the historical spelling)."""
        ...  # pragma: no cover - protocol

    def after(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> TimerHandle:
        """Run ``callback`` ``delay`` seconds from now."""
        ...  # pragma: no cover - protocol

    def cancel(self, handle: TimerHandle | None) -> None:
        """Cancel ``handle`` if still pending; no-op for ``None``/fired."""
        ...  # pragma: no cover - protocol


@runtime_checkable
class Clock(Timers, Protocol):
    """A readable current time plus :class:`Timers`.

    ``now`` is in *seconds* on the clock's own timeline: simulated
    seconds for the discrete-event implementation, trace seconds for the
    wall-clock implementation (wall seconds × speedup since start).
    """

    @property
    def now(self) -> float:
        """Current time in seconds on this clock's timeline."""
        ...  # pragma: no cover - protocol

    def due_now(self) -> bool:
        """Whether a pending callback would run before one scheduled now,
        at ``now``, with the default priority."""
        ...  # pragma: no cover - protocol


def ensure_clock(obj: object) -> Clock:
    """Validate that ``obj`` structurally satisfies :class:`Clock`.

    Raises :class:`~repro.errors.ConfigurationError` otherwise — used by
    entry points that accept a pluggable clock so misconfiguration fails
    fast with a typed error instead of an attribute error mid-run.
    """
    from repro.errors import ConfigurationError

    if isinstance(obj, Clock):
        return obj
    raise ConfigurationError(
        f"{type(obj).__name__} does not satisfy the Clock protocol "
        "(needs now/schedule/at/after/cancel/due_now; see "
        "repro.simulation.clock)"
    )
