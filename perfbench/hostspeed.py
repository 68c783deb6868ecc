"""Host-speed calibration for the benchmark's host times.

The benchmark's host is a small virtual machine whose single-core speed
moves by up to 2x within seconds, as other guests load the physical
cores. A median over repeats cannot average that out when the slow and
fast spells last longer than a repeat. :class:`HostSpeed` therefore
times a fixed pure-Python calibration loop while the measured code runs
(on a ``SIGALRM`` interval timer, every :data:`PERIOD_S`) and around it,
and converts the measured wall time into *reference seconds*: the time
the same work would take on a host where the loop takes
:data:`REFERENCE_LOOP_S`. The loop's own time inside the measured span
is subtracted first.

A change that makes the program faster lowers reference seconds just as
it lowers wall seconds; the loop itself does not depend on the program.

Set-up time is spent starting an interpreter and loading modules, which
the loop does not follow. :func:`interpreter_reference_seconds` instead
pairs each fresh interpreter with a baseline one that loads numpy and
part of the standard library, and scales by the baseline's time.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time

#: Iterations of the calibration loop.
LOOP_ITERATIONS = 20_000
#: Seconds one calibration loop lasts on the reference host. It fixes the
#: unit only: on a 2-vCPU 2.1 GHz Xeon VM under CPython 3.11 the loop
#: took 3-5 ms, so reference seconds are close to wall seconds there.
REFERENCE_LOOP_S = 0.005
#: Seconds between calibration loops while the measured code runs.
PERIOD_S = 0.2
#: Calibration loops run just before and just after the measured span.
EDGE_LOOPS = 3
#: What the baseline interpreter runs: imports that do not depend on the
#: program, of the kind its own start-up does.
BASELINE_ARGS = (
    "-c",
    "import numpy, argparse, asyncio, dataclasses, decimal, email.message, "
    "http.server, json, unittest",
)
#: Seconds the baseline interpreter lasts on the reference host. It fixes
#: the unit only: on the host named above it took 0.24-0.36 s.
REFERENCE_BASELINE_S = 0.3


def _loop() -> None:
    counts: dict[int, int] = {}
    for i in range(LOOP_ITERATIONS):
        key = i % 1000
        counts[key] = counts.get(key, 0) + i


class HostSpeed:
    """Calibrates one measured span; use as a context manager."""

    def __init__(self) -> None:
        #: ``(start, duration)`` of every calibration loop run.
        self.loops: list[tuple[float, float]] = []
        self._previous_handler = None

    def _time_loop(self, *_signal_args) -> None:
        start = time.perf_counter()
        _loop()
        self.loops.append((start, time.perf_counter() - start))

    def __enter__(self) -> "HostSpeed":
        for _ in range(EDGE_LOOPS):
            self._time_loop()
        self._previous_handler = signal.signal(signal.SIGALRM, self._time_loop)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        for _ in range(EDGE_LOOPS):
            self._time_loop()

    def reference_seconds(self, start: float, end: float) -> float:
        """The span ``[start, end)`` of ``perf_counter`` time, less the
        calibration loops run inside it, in reference seconds."""
        inside = sum(d for t, d in self.loops if start <= t < end)
        loop_s = statistics.fmean(self.durations())
        return (end - start - inside) * REFERENCE_LOOP_S / loop_s

    def durations(self) -> list[float]:
        """Seconds each calibration loop took."""
        return [d for _, d in self.loops]


def _interpreter_seconds(args) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, *args], check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def interpreter_reference_seconds(args: list[str]) -> tuple[float, float]:
    """Run a fresh interpreter with ``args``, then a baseline one; returns
    the first's time in reference seconds and the baseline's wall time."""
    wall = _interpreter_seconds(args)
    baseline = _interpreter_seconds(BASELINE_ARGS)
    return wall * REFERENCE_BASELINE_S / baseline, baseline
