"""One benchmark run of a workload, and the checks on its outputs.

:func:`run_once` times one offline run: generating the seeded request
stream plus one ``run_scheme`` call (platform assembly, ``sim.run`` and
the summary), in wall seconds or, given a :class:`~hostspeed.HostSpeed`,
in its reference seconds. :func:`evaluate` reads the simulated outcome
off the live result, checks that every generated request is accounted
for, and digests the simulated output so repeats can be compared bit
for bit.
"""

from __future__ import annotations

import gc
import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np

from repro.experiments import run_scheme
from repro.metrics.latency import p99

from hostspeed import HostSpeed
from layers import LayerProfiler
from workloads import SCHEME, Workload, build_inputs


class CheckFailed(Exception):
    """An output check failed; the benchmark reports the run incorrect."""


@dataclass
class Outcome:
    """What one run simulated, independent of host timing."""

    digest: str
    generated: int
    served: int
    refused: int
    dropped: int
    unfinished: int
    #: Simulated end-to-end metrics (attainment, tail, cost, ...).
    simulated: dict[str, float]
    #: Simulated per-layer counts (batches, evictions, events, ...).
    counts: dict[str, float]
    audit_violations: int | None


def run_once(
    workload: Workload,
    seed: int,
    *,
    audit: bool = False,
    profiler: LayerProfiler | None = None,
    speed: HostSpeed | None = None,
):
    """Generate the inputs and run the workload once; returns
    ``(run_s, specs, result)`` with ``result.platform`` still live."""
    config = replace(workload.config, audit=True) if audit else workload.config
    gc.collect()
    with speed if speed is not None else nullcontext():
        start = time.perf_counter()
        with profiler if profiler is not None else nullcontext():
            specs = build_inputs(config, seed)
            result = run_scheme(SCHEME, config, specs=specs)
        end = time.perf_counter()
    if speed is not None:
        return speed.reference_seconds(start, end), specs, result
    return end - start, specs, result


def _unfinished(platform) -> int:
    """Requests still held anywhere in the platform after the drain."""
    count = platform.batcher.pending_requests
    count += sum(len(b.requests) for b in platform.dispatcher.backlog_batches)
    for scheduler in platform.dispatcher.schedulers():
        count += sum(len(b.requests) for b in scheduler.attached_batches())
    for node in platform.all_nodes:
        for gpu_slice in node.gpu.slices:
            for job in gpu_slice.running_jobs + gpu_slice.pending_jobs:
                count += len(job.payload.requests)
    return count


def _field(records, name: str) -> np.ndarray:
    getter = attrgetter(name)
    return np.fromiter((getter(r) for r in records), float, len(records))


def _digest(result, records) -> str:
    sha = hashlib.sha256()
    sha.update(repr(result.summary).encode())
    extras = sorted(
        (k, v) for k, v in result.extras.items() if not k.startswith("audit")
    )
    sha.update(repr(extras).encode())
    sha.update(repr((result.pipelines, result.tenancy)).encode())
    sha.update(repr(result.platform.collector.rejections).encode())
    for name in ("arrival", "completion", "queue_delay", "exec_min", "interference"):
        sha.update(_field(records, name).tobytes())
    return sha.hexdigest()


def _victim_attainment(workload: Workload, specs, records) -> float:
    """Victim-tenant strict attainment over its *offered* requests in the
    measured window: refused, dropped or unfinished ones count as misses."""
    start, end = workload.config.warmup, workload.config.duration
    offered = sum(
        1
        for s in specs
        if s.tenant == "victim" and s.strict and start <= s.arrival < end
    )
    met = sum(
        1
        for r in records
        if r.tenant == "victim" and r.strict and start <= r.arrival < end
        and r.slo_met
    )
    return met / offered


def evaluate(workload: Workload, specs, result) -> Outcome:
    """Check and summarise one run; raises :class:`CheckFailed`."""
    platform = result.platform
    summary = result.summary
    extras = result.extras
    records = platform.collector.records
    runtime = platform.pipelines
    generated = len(specs) + (runtime.stages_released if runtime is not None else 0)
    served = len(records)
    refused = len(platform.collector.rejections)
    dropped = platform.collector.dropped_requests
    unfinished = _unfinished(platform)
    if served + refused + dropped + unfinished != generated:
        raise CheckFailed(
            f"{workload.name}: served {served} + refused {refused} + dropped "
            f"{dropped} + unfinished {unfinished} != generated {generated}"
        )
    if refused != platform.gateway.requests_rejected:
        raise CheckFailed(
            f"{workload.name}: {refused} rejection records but the gateway "
            f"refused {platform.gateway.requests_rejected}"
        )

    if workload.attainment == "workflow":
        attainment = result.pipelines.e2e_attainment
    elif workload.attainment == "victim":
        attainment = _victim_attainment(workload, specs, records)
    else:
        attainment = summary.slo_compliance
    if workload.tail == "workflow":
        tail = result.pipelines.e2e_p99
    elif workload.tail == "all":
        tail = p99(result.measured)
    else:
        tail = summary.strict_p99
    simulated = {
        "slo_attainment": attainment,
        "sim_p99_s": tail,
        "cost_usd": summary.total_cost,
        "served_fraction": served / generated,
    }

    events = platform.sim.events_processed
    batches = platform.batcher.batches_emitted
    queue_delays = _field(records, "queue_delay")
    counts = {
        "traces.requests": len(specs),
        "simulation.events": events,
        "simulation.events_per_request": events / generated,
        "metrics.records": served,
        "metrics.strict_p99_s": summary.strict_p99,
        "serverless.batches": batches,
        "serverless.batch_fill_mean": platform.gateway.requests_admitted / batches,
        "serverless.queue_delay_p99_s": float(np.percentile(queue_delays, 99)),
        "serverless.cold_starts": extras["cold_starts"],
        "serverless.resubmissions": extras["resubmissions"],
        "core.reconfigurations": summary.reconfigurations,
        "cluster.evictions": extras["evictions"],
        "cluster.spot_notices": extras["spot_notices"],
        "cluster.nodes_built": extras["spot_nodes_built"] + extras["on_demand_nodes_built"],
        "gpu.busy_fraction": summary.gpu_busy_fraction,
        "pipelines.releases": runtime.stages_released if runtime is not None else 0,
        "pipelines.rebudgets": runtime.rebudgets if runtime is not None else 0,
        "pipelines.retries": runtime.stage_retries if runtime is not None else 0,
        "tenancy.rejections": platform.gateway.requests_rejected,
        # Jain's index over one tenant is 1 by definition.
        "tenancy.fairness_index": (
            result.tenancy.fairness_index if result.tenancy is not None else 1.0
        ),
    }
    return Outcome(
        digest=_digest(result, records),
        generated=generated,
        served=served,
        refused=refused,
        dropped=dropped,
        unfinished=unfinished,
        simulated=simulated,
        counts=counts,
        audit_violations=(
            len(result.audit.violations) if result.audit is not None else None
        ),
    )
