"""Tests for Request, RequestBatch, and the Batcher."""

import pytest

from repro.errors import ConfigurationError
from repro.serverless.batcher import Batcher
from repro.serverless.request import Request, RequestBatch
from repro.simulation import Simulator
from repro.traces.mixing import RequestSpec
from repro.workloads import get_model
from repro.workloads.scaling import scale_model

SMALL = scale_model(get_model("resnet50"), 4 / 128)  # batch size 4


def make_request(model=SMALL, strict=True, arrival=0.0, slo_multiplier=3.0):
    spec = RequestSpec(
        arrival=arrival, model=model, strict=strict, slo_multiplier=slo_multiplier
    )
    return Request.from_spec(spec)


class TestRequest:
    def test_from_spec_carries_deadline(self):
        request = make_request(arrival=1.0)
        assert request.deadline == pytest.approx(1.0 + 3 * SMALL.solo_latency_7g)

    def test_best_effort_has_no_deadline(self):
        assert make_request(strict=False).deadline is None

    def test_tight_slo_multiplier(self):
        request = make_request(arrival=0.0, slo_multiplier=2.0)
        assert request.deadline == pytest.approx(2 * SMALL.solo_latency_7g)

    def test_ids_are_unique(self):
        assert make_request().request_id != make_request().request_id


class TestRequestBatch:
    def test_add_enforces_homogeneity(self):
        batch = RequestBatch(SMALL, strict=True, created_at=0.0)
        batch.add(make_request())
        with pytest.raises(ConfigurationError):
            batch.add(make_request(strict=False))
        other = scale_model(get_model("vgg19"), 4 / 128)
        with pytest.raises(ConfigurationError):
            batch.add(make_request(model=other))

    def test_memory_and_work_from_model(self):
        batch = RequestBatch(SMALL, strict=True, created_at=0.0)
        assert batch.memory_gb == SMALL.memory_gb
        # Empty batch: only the fixed overhead fraction of the latency.
        alpha = RequestBatch.FIXED_OVERHEAD_FRACTION
        assert batch.work == pytest.approx(alpha * SMALL.solo_latency_7g)
        # Full batch: exactly the profiled solo latency.
        for _ in range(SMALL.batch_size):
            batch.add(make_request())
        assert batch.fill == 1.0
        assert batch.work == pytest.approx(SMALL.solo_latency_7g)
        # Half batch: linear interpolation above the fixed overhead.
        half = RequestBatch(SMALL, strict=True, created_at=0.0)
        for _ in range(SMALL.batch_size // 2):
            half.add(make_request())
        assert half.work == pytest.approx(
            SMALL.solo_latency_7g * (alpha + (1 - alpha) * 0.5)
        )

    def test_cached_work_follows_add(self):
        # The cache is read before and after every add: a stale value
        # would show as the previous fill's work.
        alpha = RequestBatch.FIXED_OVERHEAD_FRACTION
        batch = RequestBatch(SMALL, strict=True, created_at=0.0)
        for n in range(1, SMALL.batch_size + 1):
            before = batch.work
            batch.add(make_request())
            assert batch.work != before
            fill = min(1.0, n / SMALL.batch_size)
            # Exact, not approximate: the cache stores the formula's float.
            assert batch.work == SMALL.solo_latency_7g * (alpha + (1.0 - alpha) * fill)

    def test_slots_reject_unknown_attributes(self):
        batch = RequestBatch(SMALL, strict=True, created_at=0.0)
        with pytest.raises(AttributeError):
            batch.work_cache = 1.0
        assert not hasattr(batch, "__dict__")

    def test_earliest_deadline(self):
        batch = RequestBatch(SMALL, strict=True, created_at=0.0)
        batch.add(make_request(arrival=2.0))
        batch.add(make_request(arrival=1.0))
        assert batch.earliest_deadline == pytest.approx(
            1.0 + 3 * SMALL.solo_latency_7g
        )

    def test_earliest_deadline_none_for_be(self):
        batch = RequestBatch(SMALL, strict=False, created_at=0.0)
        batch.add(make_request(strict=False))
        assert batch.earliest_deadline is None


class TestBatcher:
    def test_flush_on_batch_size(self):
        sim = Simulator()
        batches = []
        batcher = Batcher(sim, batches.append)
        for _ in range(4):  # SMALL.batch_size == 4
            batcher.add(make_request())
        assert len(batches) == 1
        assert len(batches[0]) == 4
        assert batcher.pending_requests == 0

    def test_flush_on_timeout(self):
        sim = Simulator()
        batches = []
        batcher = Batcher(sim, batches.append, max_wait=0.05)
        sim.at(0.0, lambda: batcher.add(make_request()))
        sim.run()
        assert len(batches) == 1
        assert len(batches[0]) == 1
        assert batches[0].created_at == pytest.approx(0.05)

    def test_timeout_measured_from_first_request(self):
        sim = Simulator()
        batches = []
        batcher = Batcher(sim, batches.append, max_wait=0.05)
        sim.at(0.00, lambda: batcher.add(make_request()))
        sim.at(0.04, lambda: batcher.add(make_request()))
        sim.run()
        assert len(batches) == 1
        assert batches[0].created_at == pytest.approx(0.05)

    def test_strict_and_be_batched_separately(self):
        sim = Simulator()
        batches = []
        batcher = Batcher(sim, batches.append)
        for _ in range(4):
            batcher.add(make_request(strict=True))
            batcher.add(make_request(strict=False))
        assert len(batches) == 2
        assert {b.strict for b in batches} == {True, False}

    def test_size_flush_cancels_timer(self):
        sim = Simulator()
        batches = []
        batcher = Batcher(sim, batches.append, max_wait=0.05)

        def fill():
            for _ in range(4):
                batcher.add(make_request())

        sim.at(0.0, fill)
        sim.run()
        assert len(batches) == 1  # no duplicate timeout flush

    def test_flush_all(self):
        sim = Simulator()
        batches = []
        batcher = Batcher(sim, batches.append)
        batcher.add(make_request())
        batcher.add(make_request(strict=False))
        batcher.flush_all()
        assert len(batches) == 2

    def test_pending_best_effort_memory(self):
        sim = Simulator()
        batcher = Batcher(sim, lambda b: None)
        batcher.add(make_request(strict=False))
        # One partial BE batch pending => one batch worth of memory.
        assert batcher.pending_best_effort_memory() == pytest.approx(
            SMALL.memory_gb
        )
        batcher.add(make_request(strict=True))
        assert batcher.pending_best_effort_memory() == pytest.approx(
            SMALL.memory_gb
        )

    def test_rejects_bad_max_wait(self):
        with pytest.raises(ConfigurationError):
            Batcher(Simulator(), lambda b: None, max_wait=0.0)
