"""The serverless platform: wiring of gateway → batcher → dispatcher →
per-node schedulers → GPUs, plus node lifecycle and metrics emission.

This is the scheme-agnostic harness of Figure 4. PROTEAN and every baseline
run on the *same* platform; only the :class:`~repro.serverless.scheme.Scheme`
(scheduling policies) and the procurement policy differ — mirroring the
paper's methodology, where the evaluated schemes are "the request serving
policies of state-of-the-art GPU-enabled serverless frameworks".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.node import WorkerNode
from repro.cluster.pricing import CostMeter, DEFAULT_PRICING, ProviderPricing, VMTier
from repro.cluster.vm import VM, VMState
from repro.errors import ConfigurationError
from repro.gpu.device import GPU
from repro.gpu.device_models import get_device_model
from repro.gpu.engine import JobTiming, ShareMode
from repro.gpu.mig import GEOMETRY_FULL
from repro.metrics.records import RecordCollector, RejectionRecord, RequestRecord
from repro.observability.span import CATEGORY_REQUEST, CATEGORY_TENANT
from repro.observability.tracer import NULL_TRACER, Tracer
from repro.serverless.batcher import DEFAULT_MAX_WAIT, Batcher
from repro.serverless.container import (
    DEFAULT_COLD_START_SECONDS,
    DEFAULT_KEEP_ALIVE_SECONDS,
    ContainerPool,
)
from repro.serverless.dispatcher import Dispatcher, Gateway
from repro.serverless.request import Request, RequestBatch
from repro.serverless.scheme import Scheme
from repro.simulation.simulator import Simulator
from repro.tenancy.model import TenancySpec
from repro.tenancy.runtime import TenancyRuntime
from repro.traces.mixing import RequestSpec


@dataclass(frozen=True)
class PlatformConfig:
    """Knobs of the scheme-agnostic platform machinery."""

    n_nodes: int = 8
    cold_start_seconds: float = DEFAULT_COLD_START_SECONDS
    keep_alive_seconds: float = DEFAULT_KEEP_ALIVE_SECONDS
    batch_max_wait: float = DEFAULT_MAX_WAIT
    reconfig_seconds: float = 2.0
    reconfig_fraction: float = 0.3
    #: GPU part per worker node: "a100" (paper testbed), "a100-80gb",
    #: or "h100" — same MIG shape, different memory capacities.
    gpu_device: str = "a100"

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigurationError("n_nodes must be >= 1")
        if self.reconfig_seconds < 0:
            raise ConfigurationError("reconfig_seconds must be non-negative")


class ServerlessPlatform:
    """One running deployment of a scheme on a simulated cluster."""

    def __init__(
        self,
        sim: Simulator,
        scheme: Scheme,
        config: PlatformConfig | None = None,
        *,
        collector: RecordCollector | None = None,
        pricing: ProviderPricing = DEFAULT_PRICING,
        tracer: Tracer = NULL_TRACER,
        tenancy: TenancySpec | None = None,
    ) -> None:
        self.sim = sim
        self.scheme = scheme
        self.config = config or PlatformConfig()
        # Identity check, not truthiness: an empty collector is falsy
        # (len() == 0), and a fresh StreamingCollector must not be
        # silently replaced by the record-keeping default.
        self.collector = collector if collector is not None else RecordCollector()
        self.meter = CostMeter(pricing)
        self.tracer = tracer
        self.cluster = Cluster(reconfig_fraction=self.config.reconfig_fraction)
        self.dispatcher = Dispatcher(
            self.cluster,
            policy=scheme.dispatch_policy,
            consolidation_limit=scheme.consolidation_limit,
            tracer=tracer,
        )
        self.batcher = Batcher(
            sim,
            self.dispatcher.route,
            max_wait=self.config.batch_max_wait,
            tracer=tracer,
        )
        telemetry = tracer.telemetry
        self._ctr_admitted = telemetry.counter("gateway.requests_admitted")
        self._ctr_completed = telemetry.counter("requests.completed")
        self._ctr_violations = telemetry.counter("requests.slo_violations")
        self._hist_latency = telemetry.histogram("request.latency_s")
        self._hist_queue_delay = telemetry.histogram("request.queue_delay_s")
        telemetry.register_gauge(
            "dispatch.backlog", lambda: self.dispatcher.backlog_size
        )
        telemetry.register_gauge(
            "batcher.pending", lambda: self.batcher.pending_requests
        )
        telemetry.register_gauge(
            "cluster.active_nodes", lambda: len(self.cluster.active_nodes)
        )
        #: Daemons (reconfigurator, autoscaler) observing the ingest path.
        self.request_observers: list = []
        #: Observers invoked as ``observer(batch, timing)`` on every batch
        #: completion, before records are emitted (the runtime auditor
        #: hooks request-conservation checking here).
        self.completion_observers: list = []
        self.gateway = Gateway(self._ingest, sim=sim)
        #: Live pipeline runtime; None on the default (single-stage) path.
        #: Set by PipelineRuntime.arm() — the platform itself never
        #: branches on it (observers do all the work), but the auditor
        #: reads the armed runtime's compiled DAG from here.
        self.pipelines = None
        #: Live tenancy state; None on the default (single-tenant) path,
        #: where the platform takes zero tenancy branches per request.
        self.tenancy: TenancyRuntime | None = None
        if tenancy is not None:
            self.tenancy = TenancyRuntime(
                tenancy, on_reject=self._on_tenant_reject
            )
            self.gateway.admission = self.tenancy.admission.try_admit
            # The counter exists only when tenancy is active so the
            # default path's telemetry snapshot stays unchanged.
            self._ctr_rejected = telemetry.counter("tenant.rejections")
        #: Fault-injection hook inherited by every container pool (set on
        #: existing pools *and* pools of nodes built while a container
        #: start-failure window is active). See ContainerPool.
        self.container_start_interceptor = None
        self._pools: dict[int, ContainerPool] = {}
        #: Every node ever provisioned (metric rollup spans evictions).
        self.all_nodes: list[WorkerNode] = []
        self._started_at = sim.now

    def _ingest(self, request: Request) -> None:
        self._ctr_admitted.inc()
        if self.tracer.enabled:
            # The tenant attribute appears only for real tenants so the
            # default path's span log stays bit-identical to pre-tenancy
            # builds (pinned by the default-path regression test).
            attrs = {
                "request_id": request.request_id,
                "model": request.model.name,
                "strict": request.strict,
                "deadline": request.deadline,
            }
            if request.tenant != "default":
                attrs["tenant"] = request.tenant
            if request.workflow is not None:
                attrs["workflow"] = request.workflow
                attrs["stage"] = request.stage
            self.tracer.instant(
                "gateway.admit",
                category=CATEGORY_REQUEST,
                track="gateway",
                **attrs,
            )
        for observer in self.request_observers:
            observer(request)
        self.batcher.add(request)

    def _on_tenant_reject(self, request: Request) -> None:
        """Record a 429-style gateway rejection (quota enforcement)."""
        self._ctr_rejected.inc()
        self.collector.add_rejection(
            RejectionRecord(
                tenant=request.tenant,
                model=request.model.name,
                strict=request.strict,
                arrival=request.arrival,
            )
        )
        if self.tracer.enabled:
            self.tracer.instant(
                "tenant.reject",
                category=CATEGORY_TENANT,
                track="tenant",
                request_id=request.request_id,
                tenant=request.tenant,
                model=request.model.name,
            )

    # ------------------------------------------------------------------
    # Node lifecycle
    # ------------------------------------------------------------------
    def build_node(self, tier: VMTier) -> WorkerNode:
        """Provision a VM + GPU + scheduler and join it to the cluster."""
        vm = VM(self.sim, tier, self.meter)
        device_model = get_device_model(self.config.gpu_device)
        geometry = self.scheme.initial_geometry()
        mode = self.scheme.share_mode
        if not device_model.partitionable:
            # Non-MIG parts (T4/A10) run one full-GPU slice with replicas
            # time-slicing it — modelled as MPS-style concurrent sharing.
            geometry = GEOMETRY_FULL
            mode = ShareMode.MPS
        gpu = GPU(
            self.sim,
            geometry,
            mode,
            reconfig_seconds=self.config.reconfig_seconds,
            device_model=device_model,
            tracer=self.tracer,
        )
        node = WorkerNode(vm, gpu)
        if self.tracer.enabled:
            self.tracer.instant(
                "node.join",
                track="cluster",
                node=node.name,
                tier=tier.value,
                gpu=gpu.name,
            )
            self.tracer.telemetry.register_gauge(
                f"gpu.occupancy.{node.name}", lambda: node.gpu.occupancy
            )
        pool = ContainerPool(
            self.sim,
            cold_start_seconds=self.config.cold_start_seconds,
            keep_alive_seconds=self.config.keep_alive_seconds,
            tracer=self.tracer,
        )
        pool.start_interceptor = self.container_start_interceptor
        scheduler = self.scheme.create_scheduler(self, node, pool)
        if self.tenancy is not None:
            scheduler.tenant_policy = self.tenancy.make_node_policy()
        self._pools[node.node_id] = pool
        self.cluster.add(node)
        self.all_nodes.append(node)
        self.dispatcher.register(node, scheduler)
        self.scheme.on_node_added(self, node, scheduler)
        return node

    def provision_initial(self, tier: VMTier = VMTier.ON_DEMAND) -> None:
        """Bring up the configured node count and start scheme daemons."""
        for _ in range(self.config.n_nodes):
            self.build_node(tier)
        self.scheme.on_platform_start(self)

    def retire_node(self, node: WorkerNode) -> None:
        """Tear a node down and resubmit everything it still held."""
        scheduler = self.dispatcher.deregister(node)
        unfinished: list[RequestBatch] = []
        if scheduler is not None:
            unfinished.extend(scheduler.collect_unfinished())
        for payload in node.retire():
            if isinstance(payload, RequestBatch):
                unfinished.append(payload)
        pool = self._pools.pop(node.node_id, None)
        if pool is not None:
            pool.stop()
        if node.vm.state is not VMState.TERMINATED:
            node.vm.terminate()
        self.cluster.remove(node)
        self.scheme.on_node_retired(self, node)
        if self.tracer.enabled:
            self.tracer.telemetry.unregister_gauge(f"gpu.occupancy.{node.name}")
            self.tracer.instant(
                "node.retire",
                track="cluster",
                node=node.name,
                resubmitted_batches=len(unfinished),
            )
        for batch in unfinished:
            self.dispatcher.resubmit(batch)

    # ------------------------------------------------------------------
    # Request injection
    # ------------------------------------------------------------------
    def inject(self, specs: Sequence[RequestSpec]) -> None:
        """Schedule trace-generated requests for arrival.

        Arrivals are injected lazily, one pending event per distinct
        arrival instant, so huge traces do not bloat the event heap. The
        event admits every request of its instant in trace order, then
        schedules the next instant. The tie order is that of one event
        per request: when admitting a request leaves another event due
        that would have run before the next request's own event (a
        zero-second cold start, say), the rest of the instant moves to a
        fresh event behind it (label ``arrival-rest``).
        """
        ordered = sorted(specs, key=lambda s: s.arrival)
        if not ordered:
            return
        clock = self.sim
        end = len(ordered)
        cursor = 0

        def admit_instant() -> None:
            nonlocal cursor
            admit = self.gateway.admit
            from_spec = Request.from_spec
            due_now = clock.due_now
            index = cursor
            arrival = ordered[index].arrival
            while True:
                admit(from_spec(ordered[index]))
                index += 1
                if index == end:
                    return
                upcoming = ordered[index].arrival
                if upcoming != arrival:
                    cursor = index
                    clock.at(upcoming, admit_instant, label="arrival")
                    return
                if due_now():
                    cursor = index
                    clock.at(arrival, admit_instant, label="arrival-rest")
                    return

        clock.at(ordered[0].arrival, admit_instant, label="arrival")

    # ------------------------------------------------------------------
    # Completion accounting
    # ------------------------------------------------------------------
    def record_batch_completion(self, batch: RequestBatch, timing: JobTiming) -> None:
        """Emit one :class:`RequestRecord` per member request.

        The decomposition is additive: for each request,
        ``batch_wait + cold_start + queue_delay + exec_min + deficiency +
        interference == completion − arrival``.
        """
        queue_delay = max(
            0.0,
            timing.started_at - batch.created_at - batch.cold_start_seconds,
        )
        for observer in self.completion_observers:
            observer(batch, timing)
        if self.tenancy is not None:
            self.tenancy.release_batch(batch)
        self._ctr_completed.inc(len(batch.requests))
        self._hist_queue_delay.observe(queue_delay)
        if self.tracer.enabled:
            self._trace_batch_completion(batch, timing, queue_delay)
        # Batch and timing fields are the same for every member: read
        # them once. Records are built positionally, which is cheaper than
        # keywords, in the field order tests/serverless/test_platform.py
        # pins.
        model = batch.model.name
        strict = batch.strict
        created_at = batch.created_at
        cold_start = batch.cold_start_seconds
        tenant = batch.tenant
        completion = timing.finished_at
        exec_min = timing.work
        deficiency = timing.deficiency_time
        interference = timing.interference_time
        add = self.collector.add
        for request in batch.requests:
            arrival = request.arrival
            add(
                RequestRecord(
                    model,
                    strict,
                    arrival,
                    completion,
                    request.deadline,
                    created_at - arrival,
                    cold_start,
                    queue_delay,
                    exec_min,
                    deficiency,
                    interference,
                    tenant,
                    request.workflow,
                    request.stage,
                )
            )

    def _trace_batch_completion(
        self, batch: RequestBatch, timing: JobTiming, queue_delay: float
    ) -> None:
        """Emit the lifecycle spans of a finished batch and its requests.

        ``queue.wait`` and ``slice.execute`` are recorded retroactively
        from the authoritative :class:`JobTiming` — the engine already
        measured the exact transitions, so live begin/end hooks on the
        execution hot path would only duplicate them.
        """
        request_ids = [r.request_id for r in batch.requests]
        self.tracer.record(
            "queue.wait",
            batch.created_at,
            timing.started_at,
            category=CATEGORY_REQUEST,
            track="queue",
            batch_id=batch.batch_id,
            request_ids=request_ids,
            cold_start_s=batch.cold_start_seconds,
            queue_delay_s=queue_delay,
        )
        execute_attrs = {
            "batch_id": batch.batch_id,
            "request_ids": request_ids,
            "model": batch.model.name,
            "strict": batch.strict,
            "slice": timing.slice_name,
            "work_s": timing.work,
            "deficiency_s": timing.deficiency_time,
            "interference_s": timing.interference_time,
        }
        if batch.tenant != "default":
            execute_attrs["tenant"] = batch.tenant
        self.tracer.record(
            "slice.execute",
            timing.started_at,
            timing.finished_at,
            category=CATEGORY_REQUEST,
            track="execute",
            **execute_attrs,
        )
        for request in batch.requests:
            latency = timing.finished_at - request.arrival
            self._hist_latency.observe(latency)
            violated = (
                request.deadline is not None
                and timing.finished_at > request.deadline
            )
            if violated:
                self._ctr_violations.inc()
            complete_attrs = {
                "request_id": request.request_id,
                "batch_id": batch.batch_id,
                "latency_s": latency,
                "deadline": request.deadline,
            }
            if request.workflow is not None:
                complete_attrs["workflow"] = request.workflow
                complete_attrs["stage"] = request.stage
            self.tracer.instant(
                "slo_violation" if violated else "complete",
                category=CATEGORY_REQUEST,
                track="complete",
                **complete_attrs,
            )

    # ------------------------------------------------------------------
    # Run finalization
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Settle VM billing at the end of a run."""
        for node in self.cluster:
            node.vm.flush_billing()

    def pool_for(self, node: WorkerNode) -> ContainerPool:
        """The container pool attached to ``node``."""
        return self._pools[node.node_id]

    def set_container_start_interceptor(self, interceptor) -> None:
        """Install (or clear, with None) the container start-failure hook
        on every live pool and on pools of nodes built afterwards."""
        self.container_start_interceptor = interceptor
        for pool in self._pools.values():
            pool.start_interceptor = interceptor

    @property
    def elapsed(self) -> float:
        """Seconds since the platform was created."""
        return self.sim.now - self._started_at

    def total_cold_starts(self) -> int:
        """Cold starts across live pools (retired pools keep their stats
        in scheme-level accounting; live total suffices for reporting)."""
        return sum(pool.cold_starts for pool in self._pools.values())
