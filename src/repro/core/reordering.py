"""Request reordering (paper Section 4.1).

PROTEAN prioritizes strict batches ahead of best-effort batches before
batch-serving them, reducing the queueing delay of SLO-bound requests —
especially under request surges that find the node under-provisioned.
Within the strict class, batches are served earliest-deadline-first;
within the BE class, FIFO by batch creation time.

The paper reports a total reordering overhead below 1 ms; here it is a
sort over the per-node queue once per dispatch round. The queue is not
always small: under a spot-eviction backlog (the ``twitter-spot-backlog``
benchmark workload) it holds ~176 batches on average, so the scheduler
also takes ``BE_mem`` once per round rather than once per placement.
"""

from __future__ import annotations

from repro.serverless.request import RequestBatch


def reorder_strict_first(queue: list[RequestBatch]) -> None:
    """Reorder ``queue`` in place: strict EDF first, then BE FIFO.

    The sort is stable, so batches that compare equal keep their arrival
    order.
    """
    queue.sort(key=_priority_key)


def _priority_key(batch: RequestBatch) -> tuple[int, float]:
    if batch.strict:
        deadline = batch.earliest_deadline
        # A strict batch without member deadlines (possible if SLOs are
        # disabled) still outranks BE but falls back to creation order.
        return (0, deadline if deadline is not None else batch.created_at)
    return (1, batch.created_at)


def best_effort_queued_memory(queue: list[RequestBatch]) -> float:
    """Total memory demand of the BE batches waiting in ``queue``.

    This is the ``BE_mem`` input of Algorithm 1 ("from
    request_reordering_module get BE_mem").
    """
    return sum(batch.memory_gb for batch in queue if not batch.strict)
