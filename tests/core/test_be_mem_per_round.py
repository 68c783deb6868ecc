"""Counter gate: PROTEAN scans the node queue for ``BE_mem`` once per round.

Algorithm 1 takes one ``BE_mem`` figure from the reordering module per
scheduling round, and only strict placements read it. These tests count
calls to ``repro.core.protean.best_effort_queued_memory`` on a scheduler
with a long mixed strict/BE queue, so they are exact on any host: a
per-placement rescan (O(queue²) per round) fails them outright.
"""

from collections import Counter

import pytest

from repro.cluster.pricing import VMTier
from repro.core import protean
from repro.core.protean import ProteanScheduler, ProteanScheme
from repro.serverless.platform import PlatformConfig, ServerlessPlatform
from repro.serverless.request import Request, RequestBatch
from repro.simulation import Simulator
from repro.tenancy import NodeTenancy, TenancySpec, Tenant, TenantSet
from repro.traces.mixing import RequestSpec
from repro.workloads import get_model
from repro.workloads.scaling import scale_model

MOBILENET = scale_model(get_model("mobilenet"), 4 / 128)  # 2 GB
SHUFFLE = scale_model(get_model("shufflenet_v2"), 4 / 128)  # 4 GB
RESNET = scale_model(get_model("resnet50"), 4 / 128)  # 8 GB

#: Queue length: long enough that one round attempts many placements.
QUEUE_LENGTH = 120


def make_batch(model, strict, created_at, tenant="default", size=2):
    batch = RequestBatch(model, strict, created_at=created_at, tenant=tenant)
    for _ in range(size):
        batch.add(
            Request.from_spec(
                RequestSpec(
                    arrival=created_at, model=model, strict=strict, tenant=tenant
                )
            )
        )
    return batch


def mixed_queue(tenant_of=lambda strict: "default"):
    models = (MOBILENET, SHUFFLE, RESNET)
    return [
        make_batch(
            models[i % len(models)],
            strict=i % 3 == 0,
            created_at=i * 0.001,
            tenant=tenant_of(i % 3 == 0),
        )
        for i in range(QUEUE_LENGTH)
    ]


def held_scheduler():
    sim = Simulator()
    scheme = ProteanScheme(enable_reconfigurator=False, enable_autoscaler=False)
    platform = ServerlessPlatform(
        sim,
        scheme,
        PlatformConfig(n_nodes=1, cold_start_seconds=0.0, batch_max_wait=0.01),
    )
    platform.provision_initial(VMTier.ON_DEMAND)
    scheduler = platform.dispatcher.scheduler_for(platform.cluster.nodes[0])
    scheduler.hold = True
    return sim, scheduler


class RoundLog:
    """Per-round counts of BE_mem scans and strict/BE placement attempts.

    Also records, for every strict placement, the BE_mem it was given
    next to a fresh scan of the queue as it stands at that moment (the
    round's final order), and the sequence of ordering/scan events.
    """

    def __init__(self, monkeypatch, scheduler: ProteanScheduler) -> None:
        self.rounds: list[Counter] = []
        self.strict_be_mem: list[tuple[float, float]] = []
        self.events: list[str] = []
        scan = protean.best_effort_queued_memory
        distribute = protean.distribute_batch

        def counting_scan(queue):
            self.rounds[-1]["be_mem"] += 1
            self.events.append("be_mem")
            return scan(queue)

        def recording_distribute(batch, slices, be_queued_memory, **kwargs):
            self.rounds[-1]["strict" if batch.strict else "be"] += 1
            if batch.strict:
                self.strict_be_mem.append((be_queued_memory, scan(scheduler.queue)))
            return distribute(batch, slices, be_queued_memory, **kwargs)

        def tracked_dispatch():
            self.rounds.append(Counter())
            self.events.append("round")
            ProteanScheduler.dispatch(scheduler)

        monkeypatch.setattr(protean, "best_effort_queued_memory", counting_scan)
        monkeypatch.setattr(protean, "distribute_batch", recording_distribute)
        scheduler.dispatch = tracked_dispatch

    def assert_gate(self) -> None:
        assert self.rounds, "no dispatch round ran"
        for counts in self.rounds:
            assert counts["be_mem"] <= 1, counts
            if counts["strict"] == 0:
                assert counts["be_mem"] == 0, counts
            else:
                assert counts["be_mem"] == 1, counts
        for given, rescanned in self.strict_be_mem:
            assert given == rescanned


def release(sim, scheduler, until=30.0):
    scheduler.hold = False
    scheduler.dispatch()
    sim.run(until=until)


def test_one_scan_per_round_on_a_long_mixed_queue(monkeypatch):
    sim, scheduler = held_scheduler()
    log = RoundLog(monkeypatch, scheduler)
    scheduler.queue.extend(mixed_queue())
    release(sim, scheduler)
    log.assert_gate()
    # The gate is not vacuous: some round placed several strict batches
    # against a queue holding best-effort work, and the queue drained.
    assert max(counts["strict"] for counts in log.rounds) >= 3
    assert any(given > 0 for given, _ in log.strict_be_mem)
    assert scheduler.batches_completed == QUEUE_LENGTH


def test_no_scan_in_a_best_effort_only_round(monkeypatch):
    sim, scheduler = held_scheduler()
    log = RoundLog(monkeypatch, scheduler)
    scheduler.queue.extend(b for b in mixed_queue() if not b.strict)
    release(sim, scheduler)
    assert sum(counts["be"] for counts in log.rounds) > 0
    assert sum(counts["be_mem"] for counts in log.rounds) == 0
    log.assert_gate()


@pytest.mark.parametrize("reordering", [True, False])
def test_scan_sees_the_tenancy_order(monkeypatch, reordering):
    # Strict work belongs to the low-priority tenant, so WFQ moves the
    # best-effort batches of the high-priority tenant ahead of it: the
    # round's final order differs from the scheme's own.
    sim, scheduler = held_scheduler()
    scheduler.enable_reordering = reordering
    tenancy = NodeTenancy(
        TenancySpec(
            TenantSet((Tenant("gold", priority=0), Tenant("bronze", priority=2))),
            policy="wfq",
        )
    )
    order = tenancy.order
    log = RoundLog(monkeypatch, scheduler)

    def logged_order(queue):
        order(queue)
        log.events.append("order")

    tenancy.order = logged_order
    scheduler.tenant_policy = tenancy
    scheduler.queue.extend(mixed_queue(lambda strict: "bronze" if strict else "gold"))
    release(sim, scheduler)
    log.assert_gate()
    assert log.strict_be_mem
    # Every scan comes after the round's tenancy ordering.
    for index, event in enumerate(log.events):
        if event == "be_mem":
            previous = [e for e in log.events[:index] if e != "be_mem"]
            assert previous[-2:] == ["round", "order"]
