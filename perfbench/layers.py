"""Per-layer self time for the traced run.

The benchmark wraps the public entry points of each layer from here,
outside the program: a wrapper times the call, charges the time its
wrapped callees took to them, and keeps the rest as the layer's *self*
time. Only call boundaries are wrapped; properties and per-event
callbacks that run millions of times (``RequestBatch.work``,
``memory_gb``) are not, so the tracing overhead stays a few percent.

Self times of all layers add up to the time spent inside top-level
wrapped calls; what the traced run spends outside them is reported as
``bench.unattributed_s``.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable

from repro.core import autoscaler, protean, reconfigurator
from repro.core.procurement import Procurement
from repro.experiments import runner
from repro.gpu.engine import GPUSlice
from repro.metrics.records import RecordCollector
from repro.pipelines.runtime import PipelineRuntime
from repro.pipelines.workload import PipelineWorkload
from repro.serverless.batcher import Batcher
from repro.serverless.dispatcher import Dispatcher, Gateway
from repro.serverless.platform import ServerlessPlatform
from repro.serverless.scheduler import NodeScheduler
from repro.simulation.simulator import Simulator
from repro.tenancy.admission import AdmissionController
from repro.tenancy.fairness import NodeTenancy
from repro.tenancy.workload import TenantWorkload
from repro.traces import base, mixing, twitter, wiki


@dataclass(frozen=True)
class Layer:
    """One timed layer: its metric names and the entry points it wraps."""

    time_metric: str
    calls_metric: str | None
    targets: tuple[tuple[object, str], ...]


#: Every wrapped entry point, grouped by the layer it is charged to.
#: ``calls`` counts entries into any of the layer's targets, nested
#: ones included (``Batcher.add`` flushing a full buffer counts twice).
LAYERS: tuple[Layer, ...] = (
    Layer(
        "traces.gen_s",
        "traces.gen_calls",
        (
            (base, "constant_trace"),
            (wiki, "wiki_trace"),
            (twitter, "twitter_trace"),
            (base, "arrival_times"),
        ),
    ),
    Layer(
        "traces.mix_s",
        "traces.mix_calls",
        (
            (mixing, "mix_requests"),
            (mixing, "collapse_to_batches"),
            (TenantWorkload, "multiplex"),
            (PipelineWorkload, "root_specs"),
        ),
    ),
    Layer(
        "experiments.assemble_s",
        None,
        (
            (runner, "assemble_platform"),
            (Procurement, "provision_initial"),
            (runner, "_prewarm"),
        ),
    ),
    Layer("simulation.self_s", None, ((Simulator, "run"),)),
    Layer(
        "serverless.ingest_s",
        "serverless.ingest_calls",
        ((Gateway, "admit"), (Batcher, "add"), (Batcher, "_flush")),
    ),
    Layer(
        "serverless.route_s",
        "serverless.route_calls",
        ((Dispatcher, "route"), (Dispatcher, "resubmit")),
    ),
    Layer(
        "serverless.dispatch_s",
        "serverless.dispatch_calls",
        ((NodeScheduler, "submit"), (NodeScheduler, "dispatch")),
    ),
    Layer("serverless.load_s", "serverless.load_calls", ((NodeScheduler, "load"),)),
    Layer(
        "serverless.complete_s",
        "serverless.complete_calls",
        ((ServerlessPlatform, "record_batch_completion"),),
    ),
    Layer(
        "core.be_mem_s",
        "core.be_mem_calls",
        ((protean, "best_effort_queued_memory"),),
    ),
    Layer("core.reorder_s", "core.reorder_calls", ((protean, "reorder_strict_first"),)),
    Layer("core.distribute_s", "core.distribute_calls", ((protean, "distribute_batch"),)),
    Layer(
        "core.monitor_s",
        "core.monitor_calls",
        (
            (reconfigurator.GpuReconfigurator, "on_monitor"),
            (autoscaler.Autoscaler, "on_monitor"),
        ),
    ),
    Layer("gpu.submit_s", "gpu.submit_calls", ((GPUSlice, "submit"),)),
    Layer("gpu.finish_s", "gpu.finish_calls", ((GPUSlice, "_finish"),)),
    Layer("metrics.record_s", "metrics.record_calls", ((RecordCollector, "add"),)),
    Layer(
        "metrics.summarize_s",
        None,
        (
            (runner, "_summarize"),
            (runner, "pipeline_report"),
            (runner, "tenancy_report"),
        ),
    ),
    Layer(
        "pipelines.hook_s",
        "pipelines.hook_calls",
        (
            (PipelineRuntime, "seed"),
            (PipelineRuntime, "_on_admit"),
            (PipelineRuntime, "_on_batch_completion"),
            (PipelineRuntime, "_on_resubmit"),
        ),
    ),
    Layer("tenancy.admit_s", "tenancy.admit_calls", ((AdmissionController, "try_admit"),)),
    Layer("tenancy.order_s", "tenancy.order_calls", ((NodeTenancy, "order"),)),
)


def _queue_length(args: tuple) -> int:
    return len(args[0])


#: Arguments sampled on entry: ``best_effort_queued_memory(queue)``
#: scans the whole node queue, so the queue length is its work.
SAMPLED: dict[tuple[object, str], tuple[str, Callable[[tuple], int]]] = {
    (protean, "best_effort_queued_memory"): ("core.be_mem_scanned", _queue_length),
}


class LayerProfiler:
    """Installs the layer wrappers for one traced run, then removes them.

    Use as a context manager; :attr:`self_s`, :attr:`calls` and
    :attr:`sampled` hold the run's totals afterwards.
    """

    def __init__(self) -> None:
        self.layers = LAYERS
        self.self_s = {layer.time_metric: 0.0 for layer in LAYERS}
        self.calls = {layer.time_metric: 0 for layer in LAYERS}
        self.sampled = {name: 0 for name, _ in SAMPLED.values()}
        #: Child-time accumulators of the open wrapped calls; the bottom
        #: entry collects the wall time of top-level calls.
        self._stack = [0.0]
        self._originals: list[tuple[object, str, object]] = []

    @property
    def top_level_s(self) -> float:
        """Wall time spent inside top-level wrapped calls."""
        return self._stack[0]

    def __enter__(self) -> "LayerProfiler":
        for layer in self.layers:
            for owner, name in layer.targets:
                original = vars(owner)[name]
                wrapper = self._wrap(original, layer.time_metric, SAMPLED.get((owner, name)))
                self._originals.append((owner, name, original))
                setattr(owner, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        # Restore every wrapped entry point to the original object.
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)

    def installed(self) -> int:
        """How many wrapped entry points are in place."""
        return len(self._originals)

    def _wrap(self, fn, metric: str, sampler) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        sampled = self.sampled
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sampler is not None:
                sampled[sampler[0]] += sampler[1](args)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[metric] += elapsed - stack.pop()
                calls[metric] += 1
                stack[-1] += elapsed

        return wrapper


def wrapped_targets() -> list[tuple[object, str]]:
    """Every (owner, attribute) pair the profiler wraps."""
    return [target for layer in LAYERS for target in layer.targets]
