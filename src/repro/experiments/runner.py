"""Experiment runner: build, run, and summarize one (scheme, config) pair.

The runner owns all the glue the paper's testbed scripts would: trace
generation, request mixing, platform provisioning (through the
cost-aware procurement layer), container pre-warming, warm-up exclusion,
and metric summarization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.audit import AuditReport, Auditor
from repro.baselines.oracle import GeometryPlan
from repro.cluster.pricing import pricing_for_device
from repro.cluster.spot import AVAILABILITY_LEVELS, SpotMarket
from repro.core.procurement import Procurement, ProcurementConfig, ProcurementMode
from repro.core.reconfigurator import decide_geometry
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.schemes import get_scheme
from repro.faults.injector import FaultInjector
from repro.metrics.latency import latency_cdf
from repro.metrics.pipelines import PipelineReport, pipeline_report
from repro.metrics.records import RecordCollector, RequestRecord
from repro.metrics.streaming import StreamingCollector
from repro.metrics.summary import RecordWindow, RunSummary
from repro.metrics.tenancy import TenancyReport, tenancy_report
from repro.observability.span import CATEGORY_RUN
from repro.observability.telemetry import TelemetrySampler
from repro.observability.tracer import NULL_TRACER, SimTracer, Tracer
from repro.pipelines.model import compile_pipeline
from repro.pipelines.runtime import PipelineRuntime
from repro.pipelines.workload import PipelineWorkload
from repro.metrics.throughput import (
    cluster_utilization,
    throughput_per_gpu_from_counts,
)
from repro.serverless.platform import PlatformConfig, ServerlessPlatform
from repro.serverless.scheme import Scheme
from repro.simulation.identity import reset_run_ids
from repro.simulation.simulator import Simulator
from repro.tenancy.workload import TenantWorkload
from repro.traces.base import arrival_times, constant_trace
from repro.traces.mixing import (
    MixSpec,
    RequestSpec,
    collapse_to_batches,
    mix_requests,
)
from repro.traces.twitter import twitter_trace
from repro.traces.wiki import wiki_trace


@dataclass
class ExperimentResult:
    """Outcome of one run: summary metrics plus raw material for plots."""

    scheme: str
    config: ExperimentConfig
    summary: RunSummary
    #: The run's record collector. ``None`` on detached results — the
    #: measured window below is all a figure consumes.
    collector: RecordCollector | None
    measured: list[RequestRecord]
    extras: dict = field(default_factory=dict)
    #: The live platform (scheme daemons, cluster, pools) for post-hoc
    #: inspection — e.g. Figure 7 reads the reconfigurator's geometry log.
    #: ``None`` on detached results; figures that need platform internals
    #: extract them worker-side via a ``RunRequest.postprocess`` hook.
    platform: ServerlessPlatform | None = None
    #: The run's tracer when ``config.tracing`` is set; feed it to
    #: :func:`repro.observability.write_chrome_trace` et al. None otherwise.
    #: On detached results this is a
    #: :class:`~repro.observability.spanlog.DetachedTrace` (same exporter
    #: surface, picklable).
    tracer: Tracer | None = None
    #: The run's conservation-audit report when ``config.audit`` is set
    #: (``None`` otherwise). Plain data; survives :meth:`detach`.
    audit: AuditReport | None = None
    #: Per-tenant metrics when ``config.tenants`` is set (``None``
    #: otherwise). Plain data; survives :meth:`detach`.
    tenancy: TenancyReport | None = None
    #: Workflow-level metrics when ``config.pipelines`` is set (``None``
    #: otherwise). Plain data; survives :meth:`detach`.
    pipelines: PipelineReport | None = None

    def cdf(self, *, strict_only: bool = True, points: int = 200):
        """Latency CDF over the measured window (Figure 8)."""
        records = [r for r in self.measured if r.strict] if strict_only else self.measured
        return latency_cdf(records, points)

    @property
    def detached(self) -> bool:
        """Whether this result has been stripped of live platform state."""
        return self.platform is None and self.collector is None

    def detach(self) -> "ExperimentResult":
        """A picklable copy that releases the live platform.

        Carries summary + measured records + extras + (when tracing) the
        exported span log across a process boundary; drops the
        ``ServerlessPlatform``, its collector, and the live tracer, whose
        scheduled closures neither pickle nor free until dropped. This is
        also the memory fix for long suites: once a figure's rows are
        extracted, nothing keeps the whole platform object graph alive.
        """
        trace = None
        if self.tracer is not None and self.tracer.enabled:
            from repro.observability.spanlog import DetachedTrace

            if isinstance(self.tracer, DetachedTrace):
                trace = self.tracer
            else:
                trace = DetachedTrace.from_tracer(self.tracer)
        return ExperimentResult(
            scheme=self.scheme,
            config=self.config,
            summary=self.summary,
            collector=None,
            measured=self.measured,
            extras=dict(self.extras),
            platform=None,
            tracer=trace,
            audit=self.audit,
            tenancy=self.tenancy,
            pipelines=self.pipelines,
        )


def build_specs(config: ExperimentConfig) -> list[RequestSpec]:
    """Generate the run's full request stream from its config.

    With ``config.pipelines`` set the stream holds only *root* stage
    requests (one per workflow arrival); downstream stages are released
    live by the :class:`~repro.pipelines.runtime.PipelineRuntime` as
    their parents complete, so they cannot be pre-generated here. Their
    arrival rate is *per workflow*: ``offered_load`` is converted through
    the pipeline's total per-workflow work (every stage, batch-amortised)
    so a chain offers the same solo-7g work per GPU-second as the
    equivalent single-stage run. ``batched_arrivals`` is not applied
    there — batch collapse rewrites specs without workflow lineage, and
    workflow arrivals are individual by nature (each is its own DAG
    instance).
    """
    rng = np.random.default_rng(config.seed)
    if config.pipelines is not None:
        workload = PipelineWorkload(
            config.pipelines,
            scale=config.scale,
            slo_multiplier=config.slo_multiplier,
            strict_fraction=config.strict_fraction,
        )
        if config.rate is not None:
            rate = config.rate * config.scale
        else:
            rate = workload.workflow_rate(config.offered_load, config.n_nodes)
        arrivals = arrival_times(_trace(config, rate, rng), rng)
        return workload.root_specs(arrivals, rng)
    arrivals = arrival_times(_trace(config, config.request_rate(), rng), rng)
    mix = MixSpec(
        strict_model=config.strict_profile(),
        be_pool=config.be_profiles() if config.strict_fraction < 1.0 else (),
        strict_fraction=config.strict_fraction,
        rotation_period=config.rotation_period,
        slo_multiplier=config.slo_multiplier,
    )
    specs = mix_requests(arrivals, mix, rng)
    if config.tenants is not None:
        # Multiplex before batch collapse so arrivals are aligned to
        # *tenant-homogeneous* batch-formation instants (the batcher
        # never mixes tenants in a batch). The default path takes no
        # extra RNG draws, keeping it bit-identical to pre-tenancy runs.
        specs = TenantWorkload(config.tenants).multiplex(specs, rng)
    if config.batched_arrivals:
        specs = collapse_to_batches(specs)
    return specs


def _trace(config: ExperimentConfig, rate: float, rng: np.random.Generator):
    """The run's arrival-rate curve at mean (peak, for Twitter) ``rate``."""
    if config.trace == "constant":
        return constant_trace(rate, config.duration)
    if config.trace == "wiki":
        return wiki_trace(config.duration, rng, mean_rate=rate)
    if config.trace == "twitter":
        # The paper scales Twitter so its *peak* hits the target rate
        # (the mean then lands ~35% lower, Section 6.2).
        return twitter_trace(config.duration, rng, peak_rate=rate)
    # Unreachable: config validation rejects unknown traces.
    raise ConfigurationError(f"unknown trace {config.trace!r}")  # pragma: no cover


def build_oracle_plan(
    config: ExperimentConfig,
    specs: list[RequestSpec],
    *,
    monitor_interval: float = 5.0,
) -> GeometryPlan:
    """Derive the Oracle's geometry plan from the *true* request stream.

    For each BE rotation window, the plan applies the same decision rule
    PROTEAN uses online (Algorithm 2), but fed the window's actual BE
    request count and model instead of EWMA predictions.
    """
    windows: dict[int, tuple[int, object]] = {}
    for spec in specs:
        if spec.strict:
            continue
        index = int(spec.arrival // config.rotation_period)
        count, _model = windows.get(index, (0, None))
        windows[index] = (count + 1, spec.model)
    plan = []
    horizon = int(math.ceil(config.duration / config.rotation_period))
    for index in range(horizon):
        count, model = windows.get(index, (0, None))
        per_monitor = count * monitor_interval / config.rotation_period
        plan.append(
            (
                index * config.rotation_period,
                decide_geometry(per_monitor, model),
            )
        )
    return plan


def assemble_platform(
    clock,
    scheme: Scheme,
    config: ExperimentConfig,
    *,
    collector=None,
    tracer: Tracer = NULL_TRACER,
) -> tuple[ServerlessPlatform, SpotMarket, Procurement]:
    """Wire platform + spot market + procurement for one run.

    Shared by :func:`run_scheme` (discrete-event clock) and the live
    serving runtime (:mod:`repro.serving`, wall clock): ``clock`` is any
    :class:`~repro.simulation.clock.Clock` with an ``rng`` registry. The
    construction order — platform, then market (which draws the
    ``"spot"`` RNG stream), then procurement — is part of the default
    path's bit-identity and must not change.
    """
    platform = ServerlessPlatform(
        clock,
        scheme,
        PlatformConfig(
            n_nodes=config.n_nodes,
            cold_start_seconds=config.cold_start_seconds,
            keep_alive_seconds=config.keep_alive_seconds,
            batch_max_wait=config.batch_max_wait,
            reconfig_seconds=config.reconfig_seconds,
            gpu_device=config.gpu_device,
        ),
        collector=collector,
        pricing=pricing_for_device(config.gpu_device),
        tracer=tracer,
        tenancy=config.tenants,
    )
    market = SpotMarket(
        clock,
        clock.rng.stream("spot"),
        AVAILABILITY_LEVELS[config.spot_availability],
        notice_seconds=config.spot_notice_seconds,
        check_interval=config.spot_check_interval,
        tracer=tracer,
    )
    procurement = Procurement(
        platform,
        market,
        ProcurementConfig(
            mode=ProcurementMode(config.procurement),
            provision_seconds=config.provision_seconds,
        ),
    )
    return platform, market, procurement


def run_scheme(
    scheme,
    config: ExperimentConfig,
    *,
    specs: list[RequestSpec] | None = None,
) -> ExperimentResult:
    """Run one scheme under ``config`` and summarize the outcome.

    This is a stable entry point: the two leading parameters are
    positional (``scheme`` then ``config``) and everything else is
    keyword-only. ``scheme`` is a registry name (``"protean"``,
    ``"oracle"``, an alias, ...) or a pre-built
    :class:`~repro.serverless.scheme.Scheme` instance (custom schemes,
    ablation variants).
    """
    if specs is None:
        specs = build_specs(config)
    if isinstance(scheme, Scheme):
        scheme_name = scheme.name
    else:
        oracle_plan = (
            build_oracle_plan(config, specs)
            if scheme.lower().strip() == "oracle"
            else None
        )
        scheme_name = scheme
        scheme = get_scheme(scheme_name, oracle_plan=oracle_plan)

    # Fresh id spaces (nodes, requests, spans, ...) so the run's full
    # output is a pure function of its config — required for the
    # serial/parallel bit-identity guarantee (see repro.parallel).
    reset_run_ids()
    sim = Simulator(config.seed)
    tracer: Tracer = SimTracer(sim) if config.tracing else NULL_TRACER
    # Streaming mode swaps the collector for the bounded-memory one; the
    # default path passes None and gets the plain RecordCollector, so its
    # behaviour (and bit-identity) is untouched.
    collector = (
        StreamingCollector(
            window_start=config.warmup, window_end=config.duration
        )
        if config.streaming_metrics
        else None
    )
    platform, market, procurement = assemble_platform(
        sim, scheme, config, collector=collector, tracer=tracer
    )
    # The pipeline runtime arms *before* the auditor so a root admission
    # registers its workflow before the auditor's admit hook checks it
    # (observers run in append order).
    pipeline_runtime: PipelineRuntime | None = None
    if config.pipelines is not None:
        pipeline_runtime = PipelineRuntime(
            sim,
            platform,
            config.pipelines,
            scale=config.scale,
            base_multiplier=config.slo_multiplier,
        )
        # Bulk-register workflows off the hot path (no-op when tracing;
        # the admission hook then registers them at admission time so
        # the pipeline.admit span keeps its true timestamp).
        pipeline_runtime.seed(specs)
        pipeline_runtime.arm()
    # The auditor is a pure observer (no mutation, no RNG): an audited
    # run's metrics are bit-identical to an unaudited one.
    auditor: Auditor | None = None
    if config.audit:
        auditor = Auditor(
            sim,
            platform,
            interval=config.audit_interval,
            fail_fast=config.audit_fail_fast,
        )
        auditor.arm()
    procurement.provision_initial()
    _prewarm(platform, config)
    platform.inject(specs)
    # Fault injection: armed only for a non-empty plan, so a run with an
    # empty plan is bit-identical to faults disabled (no RNG stream is
    # touched, no events scheduled, no extras keys added).
    injector: FaultInjector | None = None
    if config.fault_plan is not None and config.fault_plan.faults:
        injector = FaultInjector(
            platform,
            procurement,
            config.fault_plan,
            rng=sim.rng.stream("faults"),
            tracer=tracer,
        )
        injector.arm()
    sampler: TelemetrySampler | None = None
    if tracer.enabled:
        tracer.instant(
            "run.start",
            category=CATEGORY_RUN,
            track="run",
            scheme=scheme_name,
            seed=config.seed,
            duration=config.duration,
        )
        sampler = TelemetrySampler(
            sim, tracer.telemetry, interval=config.telemetry_interval
        )
        sampler.start()
    # Snapshot utilization when the trace ends so drain time does not
    # dilute the Figure 10b metrics.
    utilization_box: list = []
    sim.at(
        config.duration,
        lambda: utilization_box.append(cluster_utilization(platform.all_nodes)),
        label="utilization-snapshot",
    )
    sim.run(until=config.duration + config.drain)
    platform.finalize()
    if tracer.enabled:
        if sampler is not None:
            sampler.stop()
        tracer.instant("run.end", category=CATEGORY_RUN, track="run")
        tracer.close_open_spans(reason="run ended")
    utilization = (
        utilization_box[0]
        if utilization_box
        else cluster_utilization(platform.all_nodes)
    )
    result = _summarize(
        scheme_name, config, platform, procurement, specs, utilization
    )
    if injector is not None:
        result.extras.update(injector.stats())
        result.extras["crashes_handled"] = procurement.crashes_handled
    if auditor is not None:
        result.audit = auditor.finalize()
        result.extras["audit_violations"] = len(result.audit.violations)
    if config.tenants is not None:
        # Extras keys and the report exist only when tenancy is active,
        # so the default path's extras dict is unchanged bit for bit.
        if isinstance(platform.collector, StreamingCollector):
            result.tenancy = platform.collector.tenancy_report(
                config.tenants.tenant_set,
                total_cost=platform.meter.total_cost,
            )
        else:
            result.tenancy = tenancy_report(
                config.tenants.tenant_set,
                result.measured,
                platform.collector.rejections,
                total_cost=platform.meter.total_cost,
            )
        result.extras["tenant_rejections"] = platform.gateway.requests_rejected
        result.extras["tenant_fairness"] = result.tenancy.fairness_index
    if pipeline_runtime is not None:
        # Extras keys and the report exist only when pipelines are
        # active, so the default path's extras dict is unchanged.
        result.pipelines = pipeline_report(
            pipeline_runtime,
            platform.collector.records,
            window_start=config.warmup,
            window_end=config.duration,
        )
        result.extras["pipeline_workflows"] = (
            pipeline_runtime.workflows_started
        )
        result.extras["pipeline_rebudgets"] = pipeline_runtime.rebudgets
        result.extras["pipeline_retries"] = pipeline_runtime.stage_retries
    if tracer.enabled:
        result.tracer = tracer
    return result


def run_comparison(
    schemes: list[str] | tuple[str, ...],
    config: ExperimentConfig,
    *,
    jobs: int | None = None,
) -> dict[str, ExperimentResult]:
    """Run several schemes on the *same* request stream.

    Stable entry point: ``(schemes, config)`` positional, the rest
    keyword-only. With ``jobs`` > 1 the runs fan out across worker
    processes through
    :mod:`repro.parallel` and come back *detached* (summary + measured
    records + span log, no live platform); results and ordering are
    bit-identical to the serial path. ``jobs=None`` resolves the ambient
    default (``repro.parallel.using_jobs`` / ``REPRO_JOBS``, else serial),
    and the serial path returns live results exactly as before.
    """
    from repro.parallel import RunRequest, execute_runs, resolve_jobs

    if resolve_jobs(jobs) > 1:
        requests = [
            RunRequest(
                key=name.name if isinstance(name, Scheme) else str(name),
                scheme=name,
                config=config,
            )
            for name in schemes
        ]
        results = execute_runs(requests, jobs=jobs)
        return {
            request.key: result
            for request, result in zip(requests, results)
        }
    specs = build_specs(config)
    return {
        name: run_scheme(name, config, specs=specs) for name in schemes
    }


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _prewarm(platform: ServerlessPlatform, config: ExperimentConfig) -> None:
    if config.prewarm_containers <= 0:
        return
    if config.pipelines is not None:
        compiled = compile_pipeline(config.pipelines, config.scale)
        # Dedupe by name: two stages sharing a model need one warm pool.
        models = list(
            {p.name: p for p in compiled.profiles.values()}.values()
        )
    else:
        models = [config.strict_profile()]
        if config.strict_fraction < 1.0:
            models.extend(config.be_profiles())
    for node in platform.cluster.nodes:
        pool = platform.pool_for(node)
        for model in models:
            for _ in range(config.prewarm_containers):
                pool.prewarm(model.name)


def _summarize(
    scheme_name: str,
    config: ExperimentConfig,
    platform: ServerlessPlatform,
    procurement: Procurement,
    specs: list[RequestSpec],
    utilization,
) -> ExperimentResult:
    window_start, window_end = config.warmup, config.duration
    expected_strict = sum(
        1
        for s in specs
        if s.strict and window_start <= s.arrival < window_end
    )
    window = window_end - window_start
    meter = platform.meter
    # Both collectors answer through one surface: the streaming one from
    # running counters and sketches (bounds in docs/hyperscale.md), the
    # record one exactly over the window's records. Throughput counts
    # requests that both arrived and completed inside the window: an
    # overloaded scheme's completions lag its arrivals (Figure 10a's
    # differentiation), while backlog drained from before the window does
    # not inflate the figure.
    collector = platform.collector
    streaming = isinstance(collector, StreamingCollector)
    stats = (
        collector
        if streaming
        else RecordWindow(collector.records, window_start, window_end)
    )
    dropped_strict = max(0, expected_strict - stats.strict_count)
    summary = RunSummary(
        scheme=scheme_name,
        strict_model=config.strict_model,
        requests_served=stats.measured_count,
        strict_requests=stats.strict_count,
        slo_compliance=stats.slo_compliance(dropped_strict=dropped_strict),
        strict_p50=stats.strict_percentile(50),
        strict_p99=stats.strict_percentile(99),
        be_p50=stats.be_percentile(50),
        be_p99=stats.be_percentile(99),
        tail_breakdown=stats.tail_breakdown(),
        strict_throughput_per_gpu=throughput_per_gpu_from_counts(
            stats.completed_strict_in_window, config.n_nodes, window
        ),
        total_throughput_per_gpu=throughput_per_gpu_from_counts(
            stats.completed_in_window, config.n_nodes, window
        ),
        gpu_busy_fraction=utilization.gpu_busy_fraction,
        gpu_any_busy_fraction=utilization.gpu_any_busy_fraction,
        memory_fraction=utilization.memory_fraction,
        reconfigurations=utilization.reconfigurations,
        total_cost=meter.total_cost,
        cost_savings_fraction=meter.savings_fraction,
        dropped_requests=dropped_strict,
    )
    extras = {
        "spot_nodes_built": procurement.spot_nodes_built,
        "on_demand_nodes_built": procurement.on_demand_nodes_built,
        "evictions": procurement.market.evictions,
        "spot_notices": procurement.market.notices_issued,
        "resubmissions": platform.dispatcher.resubmissions,
        "backlog_at_end": platform.dispatcher.backlog_size,
        "cold_starts": platform.total_cold_starts(),
        "nodes_at_end": len(platform.cluster),
    }
    if streaming:
        # No measured records: streaming mode exists so they are never
        # materialised.
        extras["streaming_metrics"] = True
    return ExperimentResult(
        scheme=scheme_name,
        config=config,
        summary=summary,
        collector=collector,
        measured=[] if streaming else stats.measured,
        extras=extras,
        platform=platform,
    )
