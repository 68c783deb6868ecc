"""Experiment configuration.

One :class:`ExperimentConfig` describes everything about a run except the
scheme under test: workload mix, trace shape, load level, cluster size,
SLO tightness, spot-market regime, and simulation scale. The same config
run against different schemes produces the comparisons in the paper's
figures.

Load convention: ``offered_load`` expresses the total offered work (in
solo-7g execution seconds per second per GPU) as a fraction of the
cluster's serial capacity. The paper's evaluation operates near
saturation — that is where scheduling policy differentiates (Section 6.1's
throughput discussion only makes sense for throughput-limited systems) —
so the default is 0.95.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
import numpy as np

from repro.errors import ConfigurationError
from repro.wire import parse_payload
from repro.faults.plan import FaultPlan
from repro.pipelines.model import PipelineSpec
from repro.tenancy.model import TenancySpec
from repro.workloads.profile import InterferenceCategory, ModelProfile
from repro.workloads.registry import get_model, models_by_category, opposite_category
from repro.workloads.scaling import scale_model, scale_models

#: Version stamp of the :meth:`ExperimentConfig.to_dict` wire format.
#: Bump when a field changes meaning (not when one is merely added with a
#: default — old payloads then still parse).
CONFIG_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment run (scheme supplied separately)."""

    # Workload mix
    strict_model: str = "resnet50"
    be_pool: tuple[str, ...] | None = None  # None → opposite category
    strict_fraction: float = 0.5
    slo_multiplier: float = 3.0
    rotation_period: float = 20.0

    # Trace
    trace: str = "wiki"  # "constant" | "wiki" | "twitter"
    offered_load: float = 0.85
    rate: float | None = None  # explicit rps; overrides offered_load
    duration: float = 150.0
    warmup: float = 40.0
    drain: float = 240.0  # extra simulated time to let queues empty

    # Cluster / platform
    n_nodes: int = 8
    gpu_device: str = "a100"  # | "a100-80gb" | "h100"
    scale: float = 0.1  # batch-size (and hence rate) scale factor
    batch_max_wait: float = 0.05
    cold_start_seconds: float = 8.0
    keep_alive_seconds: float = 600.0
    reconfig_seconds: float = 2.0
    prewarm_containers: int = 3

    # Spot market / procurement
    procurement: str = "on_demand_only"  # | "hybrid" | "spot_only"
    spot_availability: str = "high"  # | "moderate" | "low"
    spot_check_interval: float = 60.0
    spot_notice_seconds: float = 30.0
    provision_seconds: float = 30.0

    #: Align request arrivals to batch-formation instants, matching the
    #: paper's latency model (no batch-formation term in Section 4.1).
    batched_arrivals: bool = True

    # Observability. Tracing is an observer: enabling it must leave every
    # metric bit-identical (asserted by the determinism regression test).
    tracing: bool = False
    telemetry_interval: float = 5.0

    #: Fault injection. None (or an empty plan) disables it entirely —
    #: a run with an empty plan is bit-identical to faults disabled
    #: (asserted by the fault determinism regression tests).
    fault_plan: FaultPlan | None = None

    #: Runtime auditing (repro.audit): continuously verify conservation
    #: invariants (request lifecycle, GPU memory, MIG geometry, clock,
    #: spot lifecycle). Like tracing, auditing is a pure observer: an
    #: audited run's metrics are bit-identical to an unaudited one.
    audit: bool = False
    audit_interval: float = 5.0
    #: Raise AuditViolationError at the first violation instead of
    #: collecting them into the run's AuditReport.
    audit_fail_fast: bool = False

    #: Multi-tenancy (repro.tenancy). None — the default — runs the
    #: platform single-tenant and bit-identical to pre-tenancy builds
    #: (asserted by the default-path regression test). A TenancySpec
    #: multiplexes the workload across its tenants, enforces per-tenant
    #: admission quotas at the gateway, and orders batches tenant-fairly
    #: on every node.
    tenants: TenancySpec | None = None

    #: Multi-stage workflows (repro.pipelines). None — the default —
    #: keeps the single-stage request path bit-identical to
    #: pre-pipelines builds (pinned by the default-path regression
    #: test). A PipelineSpec replaces the strict/BE mix entirely: the
    #: workload becomes a stream of workflow arrivals whose root stages
    #: enter at the gateway and whose downstream stages are released
    #: live by the PipelineRuntime as their parents complete, with
    #: per-stage deadlines split from the end-to-end SLO by the spec's
    #: deadline policy.
    pipelines: PipelineSpec | None = None

    #: Streaming metrics (repro.metrics.streaming). False — the default —
    #: collects every RequestRecord as before (exact summaries, O(n)
    #: memory, raw records available to figures). True swaps in the
    #: bounded-memory StreamingCollector: percentile sketches + running
    #: counters, for million-request hyperscale runs. Counters, SLO
    #: compliance, throughput, and cost are exact either way; percentiles
    #: and the tail breakdown carry the documented sketch bounds
    #: (docs/hyperscale.md), and ``ExperimentResult.measured`` is empty.
    streaming_metrics: bool = False

    # Determinism
    seed: int = 0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if not 0.0 <= self.warmup < self.duration:
            raise ConfigurationError("warmup must lie in [0, duration)")
        if self.rate is None and self.offered_load <= 0:
            raise ConfigurationError("offered_load must be positive")
        if self.trace not in ("constant", "wiki", "twitter"):
            raise ConfigurationError(f"unknown trace kind {self.trace!r}")
        if self.procurement not in ("on_demand_only", "hybrid", "spot_only"):
            raise ConfigurationError(
                f"unknown procurement mode {self.procurement!r}"
            )
        if self.telemetry_interval <= 0:
            raise ConfigurationError("telemetry_interval must be positive")
        if self.audit_interval <= 0:
            raise ConfigurationError("audit_interval must be positive")
        if self.fault_plan is not None and not isinstance(
            self.fault_plan, FaultPlan
        ):
            raise ConfigurationError(
                "fault_plan must be a repro.faults.FaultPlan (or None); "
                f"got {type(self.fault_plan).__name__}"
            )
        if self.tenants is not None and not isinstance(
            self.tenants, TenancySpec
        ):
            raise ConfigurationError(
                "tenants must be a repro.tenancy.TenancySpec (or None); "
                f"got {type(self.tenants).__name__}"
            )
        if self.pipelines is not None and not isinstance(
            self.pipelines, PipelineSpec
        ):
            raise ConfigurationError(
                "pipelines must be a repro.pipelines.PipelineSpec (or "
                f"None); got {type(self.pipelines).__name__}"
            )
        if self.pipelines is not None and self.streaming_metrics:
            raise ConfigurationError(
                "pipelines cannot be combined with streaming_metrics "
                "(per-stage records back the pipeline report)"
            )
        if self.pipelines is not None and self.tenants is not None:
            # Tenant multiplexing rebuilds RequestSpecs without the
            # workflow/stage lineage, which would silently orphan every
            # workflow — refuse the combination outright.
            raise ConfigurationError(
                "pipelines cannot be combined with tenants (the tenant "
                "multiplexer does not preserve workflow lineage)"
            )

    # ------------------------------------------------------------------
    # Derived workload objects
    # ------------------------------------------------------------------
    def strict_profile(self) -> ModelProfile:
        """The (scale-adjusted) strict model profile."""
        return scale_model(get_model(self.strict_model), self.scale)

    def be_profiles(self) -> tuple[ModelProfile, ...]:
        """The (scale-adjusted) BE rotation pool.

        Defaults to the paper's rule: BE models come from the opposite
        interference category of the strict model (LI ↔ HI); VHI strict
        models draw BE from the other VHI models.
        """
        if self.be_pool is not None:
            models = tuple(get_model(name) for name in self.be_pool)
        else:
            strict = get_model(self.strict_model)
            category = opposite_category(strict.category)
            models = tuple(
                m
                for m in models_by_category(category)
                if m.name != strict.name
            )
            if category is InterferenceCategory.VHI:
                # Figure 12/13 setup: BE drawn from the non-generative LLMs.
                models = tuple(m for m in models if not m.generative)
        if not models and self.strict_fraction < 1.0:
            raise ConfigurationError("empty BE pool with BE traffic requested")
        return scale_models(models, self.scale)

    def request_rate(self) -> float:
        """Total request rate (rps) for the run.

        Either the explicit ``rate`` (scaled), or derived from
        ``offered_load`` so the offered solo-7g work per GPU per second
        equals the load target.
        """
        if self.rate is not None:
            return self.rate * self.scale
        strict = self.strict_profile()
        per_request = self.strict_fraction * (
            strict.solo_latency_7g / strict.batch_size
        )
        if self.strict_fraction < 1.0:
            pool = self.be_profiles()
            be_work = float(
                np.mean([m.solo_latency_7g / m.batch_size for m in pool])
            )
            per_request += (1.0 - self.strict_fraction) * be_work
        if per_request <= 0:
            raise ConfigurationError("degenerate workload: zero per-request work")
        return self.offered_load * self.n_nodes / per_request

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        """A copy with fields replaced (convenience for sweeps)."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------
    # Serialisation (the one wire format shared by the CLI, fault plans,
    # and parallel RunRequests)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe, versioned representation.

        Round-trips exactly: ``ExperimentConfig.from_dict(cfg.to_dict())
        == cfg`` for every constructible config (property-tested over the
        whole figure suite).
        """
        payload: dict = {"version": CONFIG_SCHEMA_VERSION}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "be_pool":
                value = list(value) if value is not None else None
            elif spec.name in ("fault_plan", "tenants", "pipelines"):
                value = value.to_dict() if value is not None else None
            payload[spec.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        """Parse a :meth:`to_dict` payload, rejecting unknown keys.

        The ``version`` key is optional (defaults to the current schema);
        payloads from a *newer* schema are refused rather than silently
        misread.
        """
        data = parse_payload(
            cls, payload, "config", version=CONFIG_SCHEMA_VERSION
        )
        if data.get("be_pool") is not None:
            data["be_pool"] = tuple(data["be_pool"])
        if data.get("fault_plan") is not None:
            data["fault_plan"] = FaultPlan.from_dict(data["fault_plan"])
        if data.get("tenants") is not None:
            data["tenants"] = TenancySpec.from_dict(data["tenants"])
        if data.get("pipelines") is not None:
            data["pipelines"] = PipelineSpec.from_dict(data["pipelines"])
        return cls(**data)
