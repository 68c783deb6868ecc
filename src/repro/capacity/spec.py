"""Workload specification for capacity planning.

A :class:`WorkloadSpec` pins everything about the *demand* side of a
what-if question — trace shape, model mix, request rate, SLO tightness —
while leaving the *supply* side (cluster size, procurement mode, scheme)
to the candidate grid. The crucial difference from a plain
:class:`~repro.experiments.config.ExperimentConfig` is that the request
rate is fixed in absolute terms: ``ExperimentConfig.offered_load`` scales
demand with ``n_nodes`` (useful for figures that compare schemes at equal
pressure), which would make every candidate cluster face a different
workload. The planner's question is the inverse — one workload, many
clusters — so the spec resolves a single rate once and every candidate
config carries it explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.wire import parse_payload


@dataclass(frozen=True)
class WorkloadSpec:
    """The demand side of a capacity-planning question."""

    #: Display name (presets use it; free-form otherwise).
    name: str = "custom"
    strict_model: str = "resnet50"
    trace: str = "wiki"
    strict_fraction: float = 0.5
    slo_multiplier: float = 3.0
    rotation_period: float = 20.0

    #: Explicit request rate (same convention as ``ExperimentConfig.rate``:
    #: unscaled rps, multiplied by ``scale`` at run time). When ``None``,
    #: the rate is derived once from ``offered_load`` at
    #: ``reference_nodes`` and then held fixed across all candidates.
    rate: float | None = None
    offered_load: float = 0.6
    reference_nodes: int = 8

    duration: float = 60.0
    warmup: float = 20.0
    drain: float = 120.0
    scale: float = 0.1
    spot_availability: str = "moderate"
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.strict_fraction <= 1.0:
            raise ConfigurationError(
                "strict_fraction must lie in (0, 1]: SLO attainment is "
                "defined over strict requests, so the planner needs some"
            )
        if self.rate is not None and self.rate <= 0:
            raise ConfigurationError("rate must be positive")
        if self.rate is None and self.offered_load <= 0:
            raise ConfigurationError("offered_load must be positive")
        if self.reference_nodes < 1:
            raise ConfigurationError("reference_nodes must be >= 1")
        # Delegate the remaining validation (trace names, durations, spot
        # levels, model names) to ExperimentConfig by building one.
        self.to_config(n_nodes=self.reference_nodes)

    def resolved_rate(self) -> float:
        """The one absolute request rate every candidate faces.

        Same unit as ``ExperimentConfig.rate`` (unscaled rps). Derived
        from ``offered_load`` at ``reference_nodes`` when no explicit
        rate was given.
        """
        if self.rate is not None:
            return self.rate
        reference = ExperimentConfig(
            strict_model=self.strict_model,
            trace=self.trace,
            strict_fraction=self.strict_fraction,
            slo_multiplier=self.slo_multiplier,
            rotation_period=self.rotation_period,
            offered_load=self.offered_load,
            n_nodes=self.reference_nodes,
            duration=self.duration,
            warmup=self.warmup,
            drain=self.drain,
            scale=self.scale,
            spot_availability=self.spot_availability,
            seed=self.seed,
        )
        return reference.request_rate() / self.scale

    def to_config(
        self,
        *,
        n_nodes: int,
        procurement: str = "on_demand_only",
        **knobs,
    ) -> ExperimentConfig:
        """The :class:`ExperimentConfig` for one candidate cluster."""
        return ExperimentConfig(
            strict_model=self.strict_model,
            trace=self.trace,
            strict_fraction=self.strict_fraction,
            slo_multiplier=self.slo_multiplier,
            rotation_period=self.rotation_period,
            rate=self.resolved_rate(),
            n_nodes=n_nodes,
            procurement=procurement,
            duration=self.duration,
            warmup=self.warmup,
            drain=self.drain,
            scale=self.scale,
            spot_availability=self.spot_availability,
            seed=self.seed,
            **knobs,
        )

    # ------------------------------------------------------------------
    # Serialisation (workload files for the CLI)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe representation; round-trips via :meth:`from_dict`."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "WorkloadSpec":
        """Parse a :meth:`to_dict` payload, rejecting unknown keys."""
        return cls(**parse_payload(cls, payload, "workload"))


#: Named workload presets for ``python -m repro plan <workload>``.
PLAN_PRESETS: dict[str, WorkloadSpec] = {
    # The paper's headline setting: ResNet 50 strict traffic on the
    # Wikipedia diurnal trace.
    "wiki": WorkloadSpec(name="wiki", strict_model="resnet50", trace="wiki"),
    # Figure 11's bursty setting: MobileNet on the Twitter trace.
    "twitter": WorkloadSpec(
        name="twitter", strict_model="mobilenet", trace="twitter"
    ),
    # Steady-state sanity check.
    "constant": WorkloadSpec(
        name="constant", strict_model="resnet50", trace="constant"
    ),
    # Tiny deterministic workload for CI smoke runs and tests. The
    # warmup must cover the container cold-start ramp (~15 s) or the
    # measured attainment is capacity-independent cold-start noise.
    "smoke": WorkloadSpec(
        name="smoke",
        strict_model="mobilenet",
        trace="constant",
        offered_load=0.4,
        reference_nodes=2,
        duration=40.0,
        warmup=20.0,
        drain=60.0,
        spot_availability="high",
    ),
    # Mixed-fleet demonstrator for the ``hetero-smoke`` grid: 40% of
    # the traffic is strict (A100-only — the T4 cannot meet the SLO
    # even idle) and the best-effort bulk is cheap to soak on T4s, so a
    # single A100 drowns, a second A100 meets the target at far higher
    # cost, and the cheapest feasible cluster is genuinely
    # heterogeneous. Pinned by the mixed-beats-homogeneous regression
    # test and the CI smoke step.
    "hetero-smoke": WorkloadSpec(
        name="hetero-smoke",
        strict_model="mobilenet",
        trace="constant",
        strict_fraction=0.4,
        offered_load=1.2,
        reference_nodes=2,
        duration=40.0,
        warmup=20.0,
        drain=60.0,
        spot_availability="high",
    ),
}
