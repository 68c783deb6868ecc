"""Deterministic discrete-event simulation kernel.

Public surface:

- :class:`~repro.simulation.simulator.Simulator` — clock + event loop.
- :class:`~repro.simulation.clock.Clock` / ``Timers`` — the protocol
  boundary platform components are written against (``now`` /
  ``schedule`` / ``at`` / ``after`` / ``cancel``).
- :class:`~repro.simulation.wallclock.AsyncioClock` — the wall-clock
  implementation of that protocol (live serving mode).
- :class:`~repro.simulation.events.Event` / ``EventQueue`` — cancellable
  scheduled callbacks.
- :class:`~repro.simulation.processes.PeriodicProcess` /
  ``OneShotTimer`` — recurring daemons and restartable timers.
- :class:`~repro.simulation.rng.RngRegistry` — named seeded RNG streams.
"""

from repro.simulation.clock import Clock, TimerHandle, Timers, ensure_clock
from repro.simulation.events import (
    PRIORITY_EARLY,
    PRIORITY_LATE,
    PRIORITY_NORMAL,
    Event,
    EventQueue,
)
from repro.simulation.processes import OneShotTimer, PeriodicProcess
from repro.simulation.rng import RngRegistry, derive_seed
from repro.simulation.simulator import Simulator
from repro.simulation.wallclock import AsyncioClock, WallTimer

__all__ = [
    "AsyncioClock",
    "Clock",
    "Event",
    "EventQueue",
    "OneShotTimer",
    "PRIORITY_EARLY",
    "PRIORITY_LATE",
    "PRIORITY_NORMAL",
    "PeriodicProcess",
    "RngRegistry",
    "Simulator",
    "TimerHandle",
    "Timers",
    "WallTimer",
    "derive_seed",
    "ensure_clock",
]
