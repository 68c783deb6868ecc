"""Requests and request batches flowing through the platform."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.traces.mixing import RequestSpec
from repro.workloads.profile import ModelProfile

_request_ids = itertools.count()
_batch_ids = itertools.count()


def reset_ids() -> None:
    """Restart request/batch numbering (fresh id space per experiment run)."""
    global _request_ids, _batch_ids
    _request_ids = itertools.count()
    _batch_ids = itertools.count()


@dataclass(frozen=True, slots=True)
class Request:
    """One user request as admitted by the gateway.

    ``slots=True``: requests are the most numerous live objects in a run
    (one per in-flight arrival), so the slotted layout matters at
    hyperscale request counts.
    """

    model: ModelProfile
    strict: bool
    arrival: float
    deadline: float | None
    request_id: int = field(default_factory=lambda: next(_request_ids))
    #: Owning tenant (the implicit "default" tenant when tenancy is off).
    tenant: str = "default"
    #: Owning workflow id and stage name for pipeline stage requests
    #: (see repro.pipelines); None on the default single-stage path.
    workflow: str | None = None
    stage: str | None = None

    @classmethod
    def from_spec(cls, spec: RequestSpec) -> "Request":
        """Admit a trace-generated :class:`RequestSpec`."""
        return cls(
            model=spec.model,
            strict=spec.strict,
            arrival=spec.arrival,
            deadline=spec.slo_deadline,
            tenant=spec.tenant,
            workflow=spec.workflow,
            stage=spec.stage,
        )


class RequestBatch:
    """A batch of same-model, same-strictness, same-tenant requests
    served as one job.

    Strict and best-effort requests are never mixed in a batch: the
    schedulers treat strictness per batch (reordering, slice placement),
    which requires homogeneous batches.

    Timing fields are filled in as the batch moves through the platform:
    ``created_at`` (flush from the batcher) → ``ready_at`` (container
    available, cold start paid) → execution timing from the GPU engine.
    """

    __slots__ = (
        "batch_id",
        "model",
        "strict",
        "created_at",
        "tenant",
        "requests",
        "ready_at",
        "cold_start_seconds",
        "resubmissions",
        "_work",
    )

    def __init__(
        self,
        model: ModelProfile,
        strict: bool,
        created_at: float,
        tenant: str = "default",
    ):
        self.batch_id = next(_batch_ids)
        self.model = model
        self.strict = strict
        self.created_at = created_at
        self.tenant = tenant
        self.requests: list[Request] = []
        # Filled by the platform as the batch progresses.
        self.ready_at: float | None = None
        self.cold_start_seconds: float = 0.0
        self.resubmissions: int = 0
        self._work: float | None = None

    def add(self, request: Request) -> None:
        """Append a request; model/strictness/tenant must match the batch.

        Batches are tenant-homogeneous: fair queueing charges a batch's
        work to exactly one tenant, and exclusive placement isolates at
        batch granularity.
        """
        if (
            request.model.name != self.model.name
            or request.strict != self.strict
            or request.tenant != self.tenant
        ):
            raise ConfigurationError(
                f"request {request.request_id} does not belong in batch "
                f"{self.batch_id} ({self.model.name}, strict={self.strict}, "
                f"tenant={self.tenant!r})"
            )
        self.requests.append(request)
        self._work = None

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def memory_gb(self) -> float:
        """GPU memory the batch occupies while executing."""
        return self.model.memory_gb

    #: Fraction of the full-batch latency paid even by a near-empty batch
    #: (kernel-launch and framework overheads are occupancy-independent).
    FIXED_OVERHEAD_FRACTION = 0.25

    @property
    def fill(self) -> float:
        """Occupancy of the batch relative to the model's batch size."""
        return min(1.0, len(self.requests) / self.model.batch_size)

    @property
    def work(self) -> float:
        """Solo 7g execution time of the batch (the engine's work unit).

        GPU batch latency is roughly linear in occupancy above a fixed
        overhead: ``solo × (α + (1−α)·fill)`` with α the fixed fraction.
        A full batch costs exactly the profiled solo latency. Cached
        until the next :meth:`add`: load balancing reads it on every
        routing decision.
        """
        work = self._work
        if work is None:
            alpha = self.FIXED_OVERHEAD_FRACTION
            work = self._work = self.model.solo_latency_7g * (
                alpha + (1.0 - alpha) * self.fill
            )
        return work

    @property
    def earliest_deadline(self) -> float | None:
        """Tightest member deadline (used by strict-first ordering)."""
        deadlines = [r.deadline for r in self.requests if r.deadline is not None]
        return min(deadlines) if deadlines else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "strict" if self.strict else "BE"
        return (
            f"RequestBatch(#{self.batch_id}, {self.model.name}, {kind}, "
            f"n={len(self.requests)})"
        )
