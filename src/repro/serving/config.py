"""Live-serving configuration: one :class:`ServeConfig` per deployment.

Follows the :class:`~repro.experiments.config.ExperimentConfig`
conventions exactly: a frozen dataclass, misconfiguration normalised to
:class:`~repro.errors.ConfigurationError` at construction, and a
versioned ``to_dict``/``from_dict`` wire format that rejects unknown
keys and refuses payloads from a newer schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.serving.executor import executor_names
from repro.wire import parse_payload

#: Version stamp of the :meth:`ServeConfig.to_dict` wire format. Bump
#: when a field changes meaning (not when one is merely added with a
#: default — old payloads then still parse).
SERVE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ServeConfig:
    """Full description of one live-serving deployment.

    The embedded ``experiment`` supplies everything the platform needs
    (scheme-agnostic knobs, workload mix, seed); the fields here are the
    live-mode additions: where to listen, how fast to replay, which
    executor realizes batches, and the sim-vs-live agreement tolerances
    the replay report asserts.
    """

    #: Platform/workload description (cluster size, SLOs, seed, ...).
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    #: Scheme registry name driving the live platform.
    scheme: str = "protean"

    # Gateway
    host: str = "127.0.0.1"
    #: TCP port; 0 lets the OS pick (the bound port is reported back).
    port: int = 8100

    # Replay
    #: Trace seconds per wall second (replay accelerator; 1.0 = real time).
    speedup: float = 1.0
    #: Which registered executor realizes batches ("sleep" = the stub).
    executor: str = "sleep"
    #: Extra wall seconds to wait for in-flight work after the trace's
    #: own duration+drain budget has elapsed (replay teardown bound).
    drain_wall_seconds: float = 30.0

    # Sim-vs-live agreement tolerances (documented in docs/live_serving.md).
    #: Absolute tolerance on SLO attainment (a fraction in [0, 1]).
    attainment_tolerance: float = 0.1
    #: Relative tolerance on strict p99 latency...
    p99_tolerance_frac: float = 0.5
    #: ... with this absolute floor (seconds) so near-zero p99s compare
    #: on the skew scale that actually bounds a live run.
    p99_tolerance_abs: float = 0.5
    #: Wall-clock scheduling-jitter budget (seconds). Event-loop lag is a
    #: *wall* phenomenon, so on the trace timeline it is amplified by the
    #: speedup factor; the p99 band widens by ``jitter × speedup`` so the
    #: same machine noise judges identically at any replay speed.
    jitter_wall_seconds: float = 0.025

    def __post_init__(self) -> None:
        if not isinstance(self.experiment, ExperimentConfig):
            raise ConfigurationError(
                "experiment must be an ExperimentConfig; "
                f"got {type(self.experiment).__name__}"
            )
        # Experiment features LiveRun.start does not arm: reject them
        # rather than serve without them.
        experiment = self.experiment
        for name, armed in (
            ("audit", experiment.audit),
            ("pipelines", experiment.pipelines is not None),
            ("fault_plan", bool(experiment.fault_plan)),
            ("streaming_metrics", experiment.streaming_metrics),
        ):
            if armed:
                raise ConfigurationError(
                    f"live serving does not support experiment.{name}"
                )
        if not 0 <= self.port <= 65535:
            raise ConfigurationError(f"port must be in [0, 65535], got {self.port}")
        if self.speedup <= 0:
            raise ConfigurationError("speedup must be positive")
        if self.executor.lower().strip() not in executor_names():
            raise ConfigurationError(
                f"unknown executor {self.executor!r}; "
                f"available: {', '.join(executor_names())}"
            )
        if self.drain_wall_seconds <= 0:
            raise ConfigurationError("drain_wall_seconds must be positive")
        if not 0.0 <= self.attainment_tolerance <= 1.0:
            raise ConfigurationError("attainment_tolerance must lie in [0, 1]")
        if self.p99_tolerance_frac < 0 or self.p99_tolerance_abs < 0:
            raise ConfigurationError("p99 tolerances must be non-negative")
        if self.jitter_wall_seconds < 0:
            raise ConfigurationError("jitter_wall_seconds must be non-negative")

    def with_overrides(self, **overrides) -> "ServeConfig":
        """A copy with fields replaced (convenience for the CLI)."""
        return replace(self, **overrides)

    def p99_tolerance(self, sim_p99: float) -> float:
        """The p99 agreement band around a given simulator prediction."""
        return max(
            self.p99_tolerance_frac * sim_p99,
            self.p99_tolerance_abs,
            self.jitter_wall_seconds * self.speedup,
        )

    # ------------------------------------------------------------------
    # Serialisation (mirrors ExperimentConfig's wire-format conventions)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe, versioned representation; round-trips exactly."""
        payload: dict = {"version": SERVE_SCHEMA_VERSION}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "experiment":
                value = value.to_dict()
            payload[spec.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ServeConfig":
        """Parse a :meth:`to_dict` payload, rejecting unknown keys.

        The ``version`` key is optional (defaults to the current schema);
        payloads from a *newer* schema are refused rather than silently
        misread.
        """
        data = parse_payload(cls, payload, "serve", version=SERVE_SCHEMA_VERSION)
        if "experiment" in data:
            data["experiment"] = ExperimentConfig.from_dict(data["experiment"])
        return cls(**data)


def _smoke_experiment() -> ExperimentConfig:
    # Lightly loaded on purpose: sim-vs-live agreement for the sleep stub
    # degrades with queueing sensitivity, and the smoke preset exists to
    # validate the serving machinery, not to stress the scheduler.
    return ExperimentConfig(
        duration=5.0,
        warmup=1.0,
        drain=60.0,
        n_nodes=2,
        trace="constant",
        strict_fraction=1.0,
        offered_load=0.4,
        # Short cold starts: with an 8 s paper-default cold start a 5 s
        # trace is wall-to-wall cold, attainment pins at 0 on both sides,
        # and the agreement check degenerates. Half a second keeps the
        # cold-start path exercised while leaving SLO headroom.
        cold_start_seconds=0.5,
        prewarm_containers=3,
        seed=7,
    )


#: Named deployments for the CLI (``repro serve <name>``): name → factory.
SERVE_PRESETS = {
    # 5 s constant-rate strict-only trace on 2 nodes at half load — the
    # CI smoke target; replayable end-to-end in well under a minute at
    # --speedup 50.
    "smoke": lambda: ServeConfig(experiment=_smoke_experiment()),
    # The standard small experiment, live — wiki trace, mixed workload.
    "default": lambda: ServeConfig(
        experiment=ExperimentConfig(
            duration=60.0, warmup=10.0, drain=120.0, n_nodes=2,
            offered_load=0.6, seed=7,
        )
    ),
}


def serve_preset(name: str) -> ServeConfig:
    """Resolve a named deployment preset to a fresh :class:`ServeConfig`."""
    factory = SERVE_PRESETS.get(name.lower().strip())
    if factory is None:
        raise ConfigurationError(
            f"unknown serve preset {name!r}; "
            f"available: {', '.join(sorted(SERVE_PRESETS))}"
        )
    return factory()
