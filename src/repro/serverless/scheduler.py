"""Per-node batch scheduling: the policy extension point.

A :class:`NodeScheduler` owns one worker node's batch queue. The generic
machinery (container acquisition, queue bookkeeping, job submission,
completion accounting) lives here; schemes differ only in two hooks:

- :meth:`_order_queue` — how waiting batches are ordered (FIFO by default;
  PROTEAN reorders strict-first, Section 4.1);
- :meth:`_place` — which GPU slice a batch goes to and with what
  deficiency/interference parameters (the heart of each scheme).

A batch that cannot be placed right now (no slice has free memory, the GPU
is reconfiguring, ...) stays in the queue; the scheduler re-runs dispatch
whenever state changes (completion, reconfiguration end, new arrival).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Optional

from repro.cluster.node import WorkerNode
from repro.gpu.engine import GPUSlice, JobTiming, SliceJob
from repro.serverless.container import Container, ContainerPool
from repro.serverless.request import RequestBatch
from repro.simulation.simulator import Simulator

#: Signature of the platform's completion callback.
CompletionCallback = Callable[[RequestBatch, JobTiming], None]


@dataclass(frozen=True)
class Placement:
    """A scheduling decision for one batch."""

    gpu_slice: GPUSlice
    rdf: float
    fbr: float
    sm_fraction: float = 1.0


class NodeScheduler(ABC):
    """Base class for all per-node scheduling policies."""

    def __init__(
        self,
        sim: Simulator,
        node: WorkerNode,
        pool: ContainerPool,
        on_batch_complete: CompletionCallback,
        on_batch_lost: Callable[[RequestBatch], None] | None = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.pool = pool
        self.on_batch_complete = on_batch_complete
        self.on_batch_lost = on_batch_lost
        self.queue: list[RequestBatch] = []
        self._awaiting_container: dict[int, RequestBatch] = {}
        self._containers: dict[int, Container] = {}
        self.in_flight = 0
        self.batches_completed = 0
        #: When True, dispatch is paused (e.g. draining ahead of a MIG
        #: reconfiguration); queued batches are held until released.
        self.hold = False
        #: Tenant fairness/isolation policy for this node, installed by
        #: the platform when tenancy is active (None otherwise — the
        #: default path takes zero extra branches per batch). See
        #: :class:`repro.tenancy.fairness.NodeTenancy`.
        self.tenant_policy = None
        #: Invoked as ``launch_observer(batch, placement)`` right after a
        #: batch's job is submitted to its slice. None on the default
        #: path (zero overhead); the live serving runtime installs the
        #: executor bridge here (see :mod:`repro.serving.executor`).
        self.launch_observer = None

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def submit(self, batch: RequestBatch) -> None:
        """Accept a batch routed to this node by the dispatcher.

        Reactive scale-up (Section 4.2): every batch acquires its own
        container — warm if available, else a cold start is paid here.
        """
        self._awaiting_container[batch.batch_id] = batch

        def ready(container: Container, cold_seconds: float) -> None:
            if self._awaiting_container.pop(batch.batch_id, None) is None:
                # The batch was reclaimed (node retired and the platform
                # resubmitted it elsewhere); ignore the late container.
                return
            if self.node.state.value == "retired":
                # Node died while the container booted; hand the batch back.
                self.pool.release(container)
                self._lost(batch)
                return
            batch.ready_at = self.sim.now
            batch.cold_start_seconds += cold_seconds
            self._containers[batch.batch_id] = container
            self.queue.append(batch)
            self.dispatch()

        self.pool.acquire(batch.model.name, ready)

    # ------------------------------------------------------------------
    # Dispatch loop
    # ------------------------------------------------------------------
    #: Stop a dispatch round after this many consecutive placement
    #: failures — under heavy overload the queue can grow to thousands of
    #: batches, and once the GPU is full the rest will fail too.
    _MAX_CONSECUTIVE_FAILURES = 32

    def dispatch(self) -> None:
        """Try to place every queued batch, in policy order."""
        if self.hold or not self.queue:
            return
        self._order_queue(self.queue)
        tenancy = self.tenant_policy
        if tenancy is not None:
            # Tenant-fair ordering (WFQ) sits above the scheme's own
            # ordering: the sort is stable, so the scheme's order holds
            # within equal (priority tier, fair tag) pairs.
            tenancy.order(self.queue)
        remaining: list[RequestBatch] = []
        failures = 0
        for index, batch in enumerate(self.queue):
            if failures >= self._MAX_CONSECUTIVE_FAILURES:
                remaining.extend(self.queue[index:])
                break
            placement = self._place(batch)
            if placement is not None and tenancy is not None and (
                not tenancy.placement_allowed(batch, placement.gpu_slice)
            ):
                # Soft exclusivity: the slice holds (or the batch is)
                # exclusive-tenant work; wait like a memory-full slice.
                placement = None
            if placement is None:
                remaining.append(batch)
                failures += 1
                continue
            failures = 0
            self._launch(batch, placement)
        self.queue = remaining

    def _launch(self, batch: RequestBatch, placement: Placement) -> None:
        if self.tenant_policy is not None:
            self.tenant_policy.on_launch(batch)
        self.in_flight += 1
        job = SliceJob(
            # Workload profiles are calibrated on a full A100-40GB; faster
            # (or slower) parts scale the work, not the profile tables.
            work=batch.work / self.node.gpu.device_model.speed_factor,
            rdf=placement.rdf,
            fbr=placement.fbr,
            memory_gb=batch.memory_gb,
            sm_fraction=placement.sm_fraction,
            payload=batch,
            on_complete=self._on_job_complete,
        )
        placement.gpu_slice.submit(job)
        if self.launch_observer is not None:
            self.launch_observer(batch, placement)

    def _on_job_complete(self, job: SliceJob, timing: JobTiming) -> None:
        batch = job.payload
        assert isinstance(batch, RequestBatch)
        self.in_flight -= 1
        self.batches_completed += 1
        container = self._containers.pop(batch.batch_id, None)
        if container is not None:
            self.pool.release(container)
        self.on_batch_complete(batch, timing)
        self.dispatch()

    # ------------------------------------------------------------------
    # Policy hooks
    # ------------------------------------------------------------------
    def _order_queue(self, queue: list[RequestBatch]) -> None:
        """Order waiting batches in place. Default: FIFO (no-op)."""

    @abstractmethod
    def _place(self, batch: RequestBatch) -> Optional[Placement]:
        """Choose a slice for ``batch`` or return ``None`` to keep waiting."""

    # ------------------------------------------------------------------
    # Placement helpers shared by concrete schedulers
    # ------------------------------------------------------------------
    def standard_placement(
        self, batch: RequestBatch, gpu_slice: GPUSlice
    ) -> Placement:
        """Default MPS placement: full-slice SMs, profile-derived RDF/FBR."""
        model = batch.model
        return Placement(
            gpu_slice=gpu_slice,
            rdf=model.rdf(gpu_slice.profile),
            fbr=model.slice_fbr(gpu_slice.profile),
        )

    @staticmethod
    def fits_now(batch: RequestBatch, gpu_slice: GPUSlice) -> bool:
        """Whether ``batch`` can start on ``gpu_slice`` immediately."""
        return batch.memory_gb <= gpu_slice.memory_free

    # ------------------------------------------------------------------
    # Load & teardown
    # ------------------------------------------------------------------
    def load(self) -> float:
        """Outstanding work estimate for load balancing: seconds of solo-7g
        work attached to this node (queued, booting, and in flight)."""
        queued = sum(b.work for b in self.queue)
        booting = sum(b.work for b in self._awaiting_container.values())
        running = 0.0
        for gpu_slice in self.node.gpu.slices:
            for job in gpu_slice.running_jobs:
                running += job.work
            for job in gpu_slice.pending_jobs:
                running += job.work
        return queued + booting + running

    def outstanding_batches(self) -> int:
        """Count of batches attached to this node in any stage."""
        return len(self.queue) + len(self._awaiting_container) + self.in_flight

    def attached_batches(self) -> tuple[RequestBatch, ...]:
        """Non-destructive snapshot of scheduler-held batches (queued or
        awaiting containers); GPU-resident batches live on the slices."""
        return tuple(self.queue) + tuple(self._awaiting_container.values())

    def collect_unfinished(self) -> list[RequestBatch]:
        """Pull back every batch not yet completed (node retirement).

        GPU-resident jobs are surrendered by ``WorkerNode.retire``; this
        returns the scheduler-held ones (queued or awaiting containers)
        and clears internal state.
        """
        unfinished = list(self.queue) + list(self._awaiting_container.values())
        self.queue.clear()
        self._awaiting_container.clear()
        return unfinished

    def _lost(self, batch: RequestBatch) -> None:
        """Surface a batch orphaned by node death after deregistration.

        The platform wires ``on_batch_lost`` to dispatcher resubmission;
        standalone schedulers (unit tests) simply drop the batch.
        """
        if self.on_batch_lost is not None:
            self.on_batch_lost(batch)

    # ------------------------------------------------------------------
    # Reconfiguration support (used by geometry-changing schemes)
    # ------------------------------------------------------------------
    def gpu_is_quiescent(self) -> bool:
        """True when the GPU holds no running or pending jobs."""
        return self.node.gpu.idle
