"""Trace replay: drive the live platform with a recorded request stream
and cross-check the measured latencies against the discrete-event
prediction for the same seed.

This closes the sim-to-real loop: :func:`replay` generates the exact
request stream the simulator would see (same seed, same trace model,
same batch alignment), injects it into a :class:`LiveRun` at
``speedup``× real time with the configured executor realizing each
batch, then runs the discrete-event simulator on the *same* specs and
compares strict p50/p99 and SLO attainment. The agreement tolerances
live in :class:`~repro.serving.config.ServeConfig` and are documented in
``docs/live_serving.md`` — they bound the wall-clock skew a live run
legitimately accumulates (callback processing time is invisible to the
simulator but real on a wall clock, and is amplified by the speedup).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, fields

from repro.experiments.runner import build_specs, run_scheme
from repro.metrics.latency import p50, p99
from repro.metrics.slo import slo_compliance
from repro.metrics.summary import partition_window
from repro.serving.config import ServeConfig
from repro.serving.runtime import LiveRun
from repro.wire import parse_payload

#: Version stamp of the :meth:`ReplayReport.to_dict` wire format.
REPLAY_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of one sim-vs-live replay cross-check (plain data)."""

    scheme: str
    seed: int
    speedup: float
    executor: str

    # Live-side conservation counters.
    injected: int
    admitted: int
    completed: int
    rejected: int
    drained: bool
    executor_incomplete: int
    wall_seconds: float

    # Measured-window metrics, live vs simulated.
    live_strict_requests: int
    live_p50: float
    live_p99: float
    live_attainment: float
    sim_strict_requests: int
    sim_p50: float
    sim_p99: float
    sim_attainment: float

    # Agreement verdict under the config's documented tolerances.
    p99_tolerance: float
    attainment_tolerance: float
    p99_agrees: bool
    attainment_agrees: bool

    @property
    def agrees(self) -> bool:
        """Overall verdict: drained cleanly and both metrics in band."""
        return self.drained and self.p99_agrees and self.attainment_agrees

    def to_dict(self) -> dict:
        """JSON-safe, versioned representation; round-trips exactly."""
        payload: dict = {"version": REPLAY_SCHEMA_VERSION}
        for spec in fields(self):
            payload[spec.name] = getattr(self, spec.name)
        payload["agrees"] = self.agrees
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ReplayReport":
        """Parse a :meth:`to_dict` payload, rejecting unknown keys."""
        return cls(
            **parse_payload(
                cls, payload, "report",
                version=REPLAY_SCHEMA_VERSION,
                derived=("agrees",),
            )
        )

    def summary_lines(self) -> list[str]:
        """Human-readable report body for the CLI."""
        verdict = "AGREE" if self.agrees else "DISAGREE"
        return [
            f"replay: scheme={self.scheme} seed={self.seed} "
            f"speedup={self.speedup:g}x executor={self.executor}",
            f"  counts: injected={self.injected} admitted={self.admitted} "
            f"completed={self.completed} rejected={self.rejected} "
            f"drained={self.drained}",
            f"  wall time: {self.wall_seconds:.2f}s",
            f"  strict p50:  live {self.live_p50:.4f}s  "
            f"vs sim {self.sim_p50:.4f}s",
            f"  strict p99:  live {self.live_p99:.4f}s  "
            f"vs sim {self.sim_p99:.4f}s  "
            f"(tolerance ±{self.p99_tolerance:.3f}s: "
            f"{'ok' if self.p99_agrees else 'FAIL'})",
            f"  attainment:  live {self.live_attainment:.4f}  "
            f"vs sim {self.sim_attainment:.4f}  "
            f"(tolerance ±{self.attainment_tolerance:.3f}: "
            f"{'ok' if self.attainment_agrees else 'FAIL'})",
            f"  verdict: {verdict}",
        ]


async def replay_async(config: ServeConfig) -> ReplayReport:
    """Coroutine body of :func:`replay` (call from a running loop)."""
    experiment = config.experiment
    specs = build_specs(experiment)
    run = await LiveRun(config).start()
    try:
        injected = run.inject(specs)
        # Wall budget: the trace itself plus its drain window at this
        # speedup, then the configured teardown allowance on top.
        budget = (
            (experiment.duration + experiment.drain) / config.speedup
            + config.drain_wall_seconds
        )
        drained = await run.drain(timeout_wall=budget)
        wall_seconds = run.clock.wall_now
        platform = run.platform
        assert platform is not None
        records = list(platform.collector.records)
        admitted = run.requests_admitted
        rejected = run.requests_rejected
        completed = run.requests_completed
        executor_incomplete = run.executor_incomplete
    finally:
        await run.stop()

    window_start, window_end = experiment.warmup, experiment.duration
    _measured, live_strict, _be, _in_window = partition_window(
        records, window_start, window_end
    )
    expected_strict = sum(
        1
        for s in specs
        if s.strict and window_start <= s.arrival < window_end
    )
    live_dropped = max(0, expected_strict - len(live_strict))

    # The discrete-event prediction for the very same request stream.
    sim_result = run_scheme(config.scheme, experiment, specs=specs)
    sim = sim_result.summary

    live_p99 = p99(live_strict)
    live_attainment = slo_compliance(live_strict, dropped_strict=live_dropped)
    p99_tolerance = config.p99_tolerance(sim.strict_p99)
    return ReplayReport(
        scheme=config.scheme,
        seed=experiment.seed,
        speedup=config.speedup,
        executor=config.executor,
        injected=injected,
        admitted=admitted,
        completed=completed,
        rejected=rejected,
        drained=drained,
        executor_incomplete=executor_incomplete,
        wall_seconds=wall_seconds,
        live_strict_requests=len(live_strict),
        live_p50=p50(live_strict),
        live_p99=live_p99,
        live_attainment=live_attainment,
        sim_strict_requests=sim.strict_requests,
        sim_p50=sim.strict_p50,
        sim_p99=sim.strict_p99,
        sim_attainment=sim.slo_compliance,
        p99_tolerance=p99_tolerance,
        attainment_tolerance=config.attainment_tolerance,
        p99_agrees=abs(live_p99 - sim.strict_p99) <= p99_tolerance,
        attainment_agrees=(
            abs(live_attainment - sim.slo_compliance)
            <= config.attainment_tolerance
        ),
    )


def replay(*, config: ServeConfig) -> ReplayReport:
    """Replay ``config``'s trace live and cross-check against the sim.

    Blocking entry point (owns the event loop); keyword-only by the
    public-API convention.
    """
    return asyncio.run(replay_async(config))
