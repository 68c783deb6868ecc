"""Unit tests for the ServerlessPlatform wiring and node lifecycle."""

import dataclasses

import pytest

from repro.cluster.pricing import VMTier
from repro.cluster.vm import VMState
from repro.core.protean import ProteanScheme
from repro.errors import ConfigurationError
from repro.metrics.records import RequestRecord
from repro.serverless.platform import PlatformConfig, ServerlessPlatform
from repro.serverless.request import Request
from repro.simulation import Simulator
from repro.traces.mixing import RequestSpec
from repro.workloads import get_model
from repro.workloads.scaling import scale_model

MODEL = scale_model(get_model("resnet50"), 4 / 128)


def make_platform(sim, n_nodes=2, **config_kwargs):
    config_kwargs.setdefault("cold_start_seconds", 0.0)
    config_kwargs.setdefault("batch_max_wait", 0.01)
    scheme = ProteanScheme(
        enable_reconfigurator=False, enable_autoscaler=False
    )
    platform = ServerlessPlatform(
        sim, scheme, PlatformConfig(n_nodes=n_nodes, **config_kwargs)
    )
    platform.provision_initial(VMTier.ON_DEMAND)
    return platform


def spec(arrival=0.0, strict=True):
    return RequestSpec(arrival=arrival, model=MODEL, strict=strict)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PlatformConfig(n_nodes=0)
        with pytest.raises(ConfigurationError):
            PlatformConfig(reconfig_seconds=-1.0)


class TestProvisioning:
    def test_initial_nodes_and_pools(self):
        sim = Simulator()
        platform = make_platform(sim, n_nodes=3)
        assert len(platform.cluster) == 3
        assert len(platform.all_nodes) == 3
        for node in platform.cluster.nodes:
            assert platform.pool_for(node) is not None
            assert node.vm.tier is VMTier.ON_DEMAND

    def test_build_node_registers_with_dispatcher(self):
        sim = Simulator()
        platform = make_platform(sim, n_nodes=1)
        node = platform.build_node(VMTier.SPOT)
        assert platform.dispatcher.try_scheduler_for(node) is not None
        assert len(platform.cluster) == 2


class TestInjectAndServe:
    def test_inject_serves_requests(self):
        sim = Simulator()
        platform = make_platform(sim)
        specs = [spec(arrival=0.1 * i) for i in range(8)]  # two batches
        platform.inject(specs)
        sim.run(until=10.0)
        assert platform.gateway.requests_admitted == 8
        assert len(platform.collector) == 8

    def test_record_components_additive(self):
        sim = Simulator()
        platform = make_platform(sim)
        platform.inject([spec(arrival=0.0) for _ in range(4)])
        sim.run(until=5.0)
        for record in platform.collector:
            assert sum(record.components().values()) == pytest.approx(
                record.latency
            )

    def test_record_field_order_matches_positional_construction(self):
        # record_batch_completion builds RequestRecord positionally; a
        # reordered or inserted field would land values in the wrong slot.
        assert [field.name for field in dataclasses.fields(RequestRecord)] == [
            "model", "strict", "arrival", "completion", "deadline",
            "batch_wait", "cold_start", "queue_delay", "exec_min",
            "deficiency", "interference", "tenant", "workflow", "stage",
        ]

    def test_empty_injection_is_fine(self):
        sim = Simulator()
        platform = make_platform(sim)
        platform.inject([])
        sim.run(until=1.0)
        assert len(platform.collector) == 0


class TestRetirement:
    def test_retire_resubmits_unfinished_work(self):
        sim = Simulator()
        platform = make_platform(sim, n_nodes=2)
        victim = platform.cluster.nodes[0]
        # Hold the victim's scheduler so work stays queued there.
        platform.dispatcher.scheduler_for(victim).hold = True
        # Route a batch explicitly to the victim.
        from repro.serverless.request import RequestBatch

        batch = RequestBatch(MODEL, True, created_at=0.0)
        for _ in range(4):
            batch.add(Request.from_spec(spec()))
        platform.dispatcher.scheduler_for(victim).submit(batch)
        sim.run(until=0.5)
        platform.retire_node(victim)
        sim.run(until=5.0)
        # The batch was resubmitted to the surviving node and completed.
        assert platform.dispatcher.resubmissions == 1
        assert len(platform.collector) == 4
        assert victim.vm.state is VMState.TERMINATED
        assert len(platform.cluster) == 1

    def test_retire_settles_billing(self):
        sim = Simulator()
        platform = make_platform(sim, n_nodes=1)
        node = platform.cluster.nodes[0]
        sim.run(until=100.0)
        platform.retire_node(node)
        assert platform.meter.seconds(VMTier.ON_DEMAND) == pytest.approx(100.0)

    def test_finalize_flushes_live_vms(self):
        sim = Simulator()
        platform = make_platform(sim, n_nodes=2)
        sim.run(until=50.0)
        platform.finalize()
        assert platform.meter.seconds(VMTier.ON_DEMAND) == pytest.approx(100.0)


class TestObservers:
    def test_request_observers_see_ingest(self):
        sim = Simulator()
        platform = make_platform(sim)
        seen = []
        platform.request_observers.append(seen.append)
        platform.inject([spec()])
        sim.run(until=1.0)
        assert len(seen) == 1
        assert seen[0].model.name == MODEL.name
