"""Run-level metric summaries and text rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.metrics.breakdown import LatencyBreakdown, tail_breakdown
from repro.metrics.latency import percentile
from repro.metrics.records import RequestRecord
from repro.metrics.slo import slo_compliance


@dataclass(frozen=True)
class RunSummary:
    """Everything the paper reports about one (scheme, workload) run."""

    scheme: str
    strict_model: str
    requests_served: int
    strict_requests: int
    slo_compliance: float  # 0..1, NaN if no strict requests
    strict_p50: float
    strict_p99: float
    be_p50: float
    be_p99: float
    tail_breakdown: LatencyBreakdown
    strict_throughput_per_gpu: float
    total_throughput_per_gpu: float
    gpu_busy_fraction: float
    gpu_any_busy_fraction: float
    memory_fraction: float
    reconfigurations: int
    total_cost: float
    cost_savings_fraction: float
    dropped_requests: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def slo_percent(self) -> float:
        """SLO compliance as the paper prints it (percent)."""
        return 100.0 * self.slo_compliance

    def row(self) -> dict[str, float | str | int]:
        """A flat dict suitable for table rendering."""
        return {
            "scheme": self.scheme,
            "model": self.strict_model,
            "slo_%": round(self.slo_percent, 2),
            "strict_p50_ms": round(self.strict_p50 * 1000, 1),
            "strict_p99_ms": round(self.strict_p99 * 1000, 1),
            "be_p99_ms": round(self.be_p99 * 1000, 1),
            "thru_strict_rps_gpu": round(self.strict_throughput_per_gpu, 2),
            "gpu_util_%": round(self.gpu_any_busy_fraction * 100, 1),
            "mem_util_%": round(self.memory_fraction * 100, 1),
            "cost_$": round(self.total_cost, 4),
            "savings_%": round(self.cost_savings_fraction * 100, 1),
        }


def format_table(rows: list[dict], *, title: str = "") -> str:
    """Render dict rows as a fixed-width text table (bench output)."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(rows[0].keys())
    widths = {
        c: max(len(str(c)), *(len(str(r.get(c, ""))) for r in rows))
        for c in columns
    }
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(c).ljust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[c] for c in columns))
    for row in rows:
        lines.append(
            " | ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns)
        )
    return "\n".join(lines)


def filter_window(
    records: list[RequestRecord], start: float, end: float | None = None
) -> list[RequestRecord]:
    """Records whose *arrival* falls inside ``[start, end)``.

    Experiments exclude a warm-up prefix this way, so cold-start
    transients at t=0 do not pollute steady-state metrics.
    """
    return [
        r
        for r in records
        if r.arrival >= start and (end is None or r.arrival < end)
    ]


def partition_window(
    records: list[RequestRecord], start: float, end: float
) -> tuple[list[RequestRecord], list[RequestRecord], list[RequestRecord], list[RequestRecord]]:
    """One-pass split of ``records`` for run summarisation.

    Returns ``(measured, strict, best_effort, completed_in_window)`` where
    ``measured`` matches :func:`filter_window` and the other three are the
    views :func:`repro.experiments.runner` derives from it. Fusing the four
    comprehensions into one loop halves the record-summarisation time on
    large runs (each record is touched once instead of four times).
    """
    measured: list[RequestRecord] = []
    strict: list[RequestRecord] = []
    best_effort: list[RequestRecord] = []
    completed: list[RequestRecord] = []
    for r in records:
        arrival = r.arrival
        if arrival < start or arrival >= end:
            continue
        measured.append(r)
        if r.strict:
            strict.append(r)
        else:
            best_effort.append(r)
        if r.completion < end:
            completed.append(r)
    return measured, strict, best_effort, completed


class RecordWindow:
    """The records of a measured window, read like a streaming collector.

    Offers the counters and report methods of
    :class:`~repro.metrics.streaming.StreamingCollector`
    (``measured_count``, ``strict_count``, ``completed_in_window``,
    ``completed_strict_in_window``, ``slo_compliance``,
    ``strict_percentile``/``be_percentile``, ``tail_breakdown``), computed
    exactly from the records whose arrival falls in ``[start, end)``.
    """

    def __init__(
        self, records: Sequence[RequestRecord], start: float, end: float
    ) -> None:
        self.measured, self.strict, self.best_effort, completed = (
            partition_window(records, start, end)
        )
        self.measured_count = len(self.measured)
        self.strict_count = len(self.strict)
        self.completed_in_window = len(completed)
        self.completed_strict_in_window = sum(1 for r in completed if r.strict)

    def slo_compliance(self, *, dropped_strict: int = 0) -> float:
        return slo_compliance(self.strict, dropped_strict=dropped_strict)

    def strict_percentile(self, p: float) -> float:
        return percentile([r.latency for r in self.strict], p)

    def be_percentile(self, p: float) -> float:
        return percentile([r.latency for r in self.best_effort], p)

    def tail_breakdown(self, q: float = 99.0) -> LatencyBreakdown:
        return tail_breakdown(self.strict, q)
