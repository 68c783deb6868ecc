"""Throughput and utilization aggregation (Figure 10)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.cluster.node import WorkerNode
from repro.errors import ConfigurationError
from repro.metrics.records import RequestRecord


def strict_throughput_per_gpu(
    records: Iterable[RequestRecord], n_gpus: int, window_seconds: float
) -> float:
    """Strict requests served per GPU per second (Figure 10a's metric)."""
    if n_gpus <= 0 or window_seconds <= 0:
        raise ConfigurationError("n_gpus and window_seconds must be positive")
    count = sum(1 for r in records if r.strict)
    return count / (n_gpus * window_seconds)


def total_throughput_per_gpu(
    records: Iterable[RequestRecord], n_gpus: int, window_seconds: float
) -> float:
    """All requests (strict + BE) served per GPU per second."""
    if n_gpus <= 0 or window_seconds <= 0:
        raise ConfigurationError("n_gpus and window_seconds must be positive")
    count = sum(1 for _ in records)
    return count / (n_gpus * window_seconds)


def throughput_per_gpu_from_counts(
    count: int, n_gpus: int, window_seconds: float
) -> float:
    """Requests per GPU per second from a request count (what the run
    summary uses for both collectors); the count-based twin of the
    record-iterating helpers above."""
    if n_gpus <= 0 or window_seconds <= 0:
        raise ConfigurationError("n_gpus and window_seconds must be positive")
    return count / (n_gpus * window_seconds)


@dataclass(frozen=True)
class ClusterUtilization:
    """Aggregated GPU utilization across worker nodes (Figure 10b)."""

    gpu_busy_fraction: float
    gpu_any_busy_fraction: float
    memory_fraction: float
    reconfigurations: int


def cluster_utilization(nodes: Sequence[WorkerNode]) -> ClusterUtilization:
    """Average the per-GPU utilization integrals over ``nodes``."""
    if not nodes:
        return ClusterUtilization(0.0, 0.0, 0.0, 0)
    stats = [node.gpu.utilization() for node in nodes]
    return ClusterUtilization(
        gpu_busy_fraction=sum(s.busy_fraction for s in stats) / len(stats),
        gpu_any_busy_fraction=sum(s.any_busy_fraction for s in stats)
        / len(stats),
        memory_fraction=sum(s.memory_fraction for s in stats) / len(stats),
        reconfigurations=sum(s.reconfigurations for s in stats),
    )
