"""PROTEAN assembled: scheduler + scheme (paper Section 4, Figure 4).

The :class:`ProteanScheduler` combines request reordering (Section 4.1)
with the Job Distribution logic (Algorithm 1, Section 4.3). The
:class:`ProteanScheme` additionally runs the platform-wide daemons: the
GPU Reconfigurator (Algorithm 2, Section 4.4) and the conservative
autoscaler (Section 4.2). Cost-aware procurement (Section 4.5) is supplied
separately by :mod:`repro.core.procurement` so experiments can mix e.g.
PROTEAN scheduling with on-demand-only hosting.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.autoscaler import Autoscaler, AutoscalerConfig
from repro.core.distribution import distribute_batch
from repro.core.reconfigurator import GpuReconfigurator, ReconfiguratorConfig
from repro.core.reordering import best_effort_queued_memory, reorder_strict_first
from repro.gpu.engine import ShareMode
from repro.gpu.mig import GEOMETRY_4G_2G_1G, Geometry
from repro.serverless.request import RequestBatch
from repro.serverless.scheduler import NodeScheduler, Placement
from repro.serverless.scheme import Scheme


class ProteanScheduler(NodeScheduler):
    """Strict-first ordering + Algorithm 1 slice placement."""

    def __init__(
        self,
        sim,
        node,
        pool,
        on_batch_complete,
        on_batch_lost=None,
        *,
        on_quiescent: Optional[Callable[[], None]] = None,
        enable_reordering: bool = True,
        balance_best_effort: bool = False,
    ) -> None:
        super().__init__(sim, node, pool, on_batch_complete, on_batch_lost)
        self._on_quiescent = on_quiescent
        self.enable_reordering = enable_reordering
        self.balance_best_effort = balance_best_effort
        #: This round's BE_mem, computed on its first strict placement.
        self._round_be_mem: Optional[float] = None

    def dispatch(self) -> None:
        # Algorithm 1 takes one BE_mem figure per scheduling round. The
        # queue's order and contents are fixed for the whole round (it is
        # reassigned only when the round ends), so the figure is too.
        self._round_be_mem = None
        super().dispatch()

    def _order_queue(self, queue: list[RequestBatch]) -> None:
        if self.enable_reordering:
            reorder_strict_first(queue)

    def _strict_present(self) -> bool:
        """Any strict work queued or running on this node's GPU."""
        if any(batch.strict for batch in self.queue):
            return True
        for gpu_slice in self.node.gpu.slices:
            for job in gpu_slice.running_jobs:
                if getattr(job.payload, "strict", False):
                    return True
        return False

    def _place(self, batch: RequestBatch) -> Optional[Placement]:
        gpu = self.node.gpu
        if not gpu.available or not gpu.slices:
            return None  # mid-reconfiguration
        if batch.strict:
            be_mem = self._round_be_mem
            if be_mem is None:
                be_mem = self._round_be_mem = best_effort_queued_memory(self.queue)
        else:
            be_mem = 0.0  # BE placement does not read BE_mem
        chosen = distribute_batch(
            batch,
            gpu.slices,
            be_mem,
            balance_best_effort=self.balance_best_effort,
            strict_present=(
                self._strict_present() if self.balance_best_effort else True
            ),
        )
        if chosen is None:
            return None
        return self.standard_placement(batch, chosen)

    def _on_job_complete(self, job, timing) -> None:
        super()._on_job_complete(job, timing)
        # A held scheduler (pending MIG reconfiguration) signals the
        # reconfigurator the moment its GPU drains.
        if self.hold and self.node.gpu.idle and self._on_quiescent is not None:
            self._on_quiescent()


class ProteanScheme(Scheme):
    """The full PROTEAN policy bundle.

    One scheme instance drives one platform (the daemons hold platform
    references); build a fresh instance per experiment run.
    """

    name = "protean"
    share_mode = ShareMode.MPS

    def __init__(
        self,
        *,
        initial_geometry: Geometry = GEOMETRY_4G_2G_1G,
        reconfigurator_config: ReconfiguratorConfig | None = None,
        autoscaler_config: AutoscalerConfig | None = None,
        enable_reconfigurator: bool = True,
        enable_autoscaler: bool = True,
        enable_reordering: bool = True,
        balance_best_effort: bool = False,
    ) -> None:
        self._initial_geometry = initial_geometry
        self._reconfigurator_config = reconfigurator_config
        self._autoscaler_config = autoscaler_config
        self._enable_reconfigurator = enable_reconfigurator
        self._enable_autoscaler = enable_autoscaler
        self._enable_reordering = enable_reordering
        #: Paper future work (Table 5 discussion): when no strict traffic
        #: is present, place BE batches by η instead of packing them.
        self._balance_best_effort = balance_best_effort
        self.reconfigurator: GpuReconfigurator | None = None
        self.autoscaler: Autoscaler | None = None

    def initial_geometry(self) -> Geometry:
        """Figure 7: PROTEAN's GPUs start at (4g, 2g, 1g)."""
        return self._initial_geometry

    def create_scheduler(self, platform, node, pool) -> ProteanScheduler:
        def quiescent() -> None:
            if self.reconfigurator is not None:
                self.reconfigurator.notify_quiescent(node)

        return ProteanScheduler(
            platform.sim,
            node,
            pool,
            platform.record_batch_completion,
            platform.dispatcher.resubmit,
            on_quiescent=quiescent,
            enable_reordering=self._enable_reordering,
            balance_best_effort=self._balance_best_effort,
        )

    def on_platform_start(self, platform) -> None:
        if self._enable_reconfigurator:
            self.reconfigurator = GpuReconfigurator(
                platform, self._reconfigurator_config
            )
            platform.request_observers.append(self.reconfigurator.observe_request)
            self.reconfigurator.start()
        if self._enable_autoscaler:
            self.autoscaler = Autoscaler(platform, self._autoscaler_config)
            platform.request_observers.append(self.autoscaler.observe_request)
            self.autoscaler.start()

    def on_node_retired(self, platform, node) -> None:
        if self.reconfigurator is not None:
            self.reconfigurator.node_retired(node)
