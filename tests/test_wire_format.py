"""Every versioned/unversioned ``from_dict`` owner obeys one wire contract.

All fourteen payload types parse through :func:`repro.wire.parse_payload`:
a non-dict payload is rejected, an unknown key is rejected by name, a
newer ``version`` is refused (versioned types only), and
``from_dict(x.to_dict()) == x``.
"""

import pytest

from repro.capacity import CandidateGrid, WorkloadSpec, resolve_workload
from repro.errors import ConfigurationError, FaultPlanError
from repro.experiments import CONFIG_SCHEMA_VERSION, ExperimentConfig
from repro.faults import FaultKind, FaultPlan, FaultSpec, demo_plan
from repro.hyperscale import HyperscaleConfig
from repro.hyperscale.config import HYPERSCALE_SCHEMA_VERSION
from repro.pipelines import PIPELINE_SCHEMA_VERSION, PipelineSpec, StageSpec
from repro.pipelines.scenarios import chain_pipeline
from repro.serving import (
    REPLAY_SCHEMA_VERSION,
    SERVE_SCHEMA_VERSION,
    ReplayReport,
    ServeConfig,
    serve_preset,
)
from repro.tenancy import (
    TENANCY_SCHEMA_VERSION,
    Tenant,
    TenancySpec,
    TenantSet,
    TenantSurge,
)

_TENANTS = TenantSet(
    (Tenant(tenant_id="a", quota=4), Tenant(tenant_id="b", weight=2.0))
)
_SURGE = TenantSurge(tenant_id="b", start=1.0, end=5.0, multiplier=3.0)
_TENANCY = TenancySpec(tenant_set=_TENANTS, policy="fifo", surges=(_SURGE,))
_REPLAY = ReplayReport(
    scheme="protean", seed=3, speedup=50.0, executor="sleep",
    injected=10, admitted=10, completed=10, rejected=0, drained=True,
    executor_incomplete=0, wall_seconds=1.5,
    live_strict_requests=8, live_p50=0.1, live_p99=0.4, live_attainment=0.875,
    sim_strict_requests=8, sim_p50=0.1, sim_p99=0.35, sim_attainment=1.0,
    p99_tolerance=0.5, attainment_tolerance=0.1,
    p99_agrees=True, attainment_agrees=True,
)

#: (type, sample instance, schema version or None, error type).
OWNERS = [
    (ExperimentConfig, ExperimentConfig(tenants=_TENANCY, fault_plan=demo_plan(60.0)),
     CONFIG_SCHEMA_VERSION, ConfigurationError),
    (Tenant, Tenant(tenant_id="a", slo_class="relaxed", quota=2), None, ConfigurationError),
    (TenantSet, _TENANTS, None, ConfigurationError),
    (TenantSurge, _SURGE, None, ConfigurationError),
    (TenancySpec, _TENANCY, TENANCY_SCHEMA_VERSION, ConfigurationError),
    (FaultSpec, FaultSpec(FaultKind.SLOW_SLICE, at=2.0, duration=3.0), None, FaultPlanError),
    (FaultPlan, demo_plan(60.0), None, FaultPlanError),
    (StageSpec, StageSpec(name="s", model="resnet50", parents=("r",)), None,
     ConfigurationError),
    (PipelineSpec, chain_pipeline("naive"), PIPELINE_SCHEMA_VERSION, ConfigurationError),
    (HyperscaleConfig, HyperscaleConfig.smoke(seed=7), HYPERSCALE_SCHEMA_VERSION,
     ConfigurationError),
    (ServeConfig, serve_preset("smoke"), SERVE_SCHEMA_VERSION, ConfigurationError),
    (ReplayReport, _REPLAY, REPLAY_SCHEMA_VERSION, ConfigurationError),
    (WorkloadSpec, resolve_workload("smoke"), None, ConfigurationError),
    (CandidateGrid, CandidateGrid(gpu_classes=("a100", "t4"), class_counts=(0, 1)), None,
     ConfigurationError),
]

IDS = [owner[0].__name__ for owner in OWNERS]


def test_table_covers_every_owner():
    assert len(OWNERS) == 14 == len(set(IDS))


@pytest.mark.parametrize("cls, sample, version, error", OWNERS, ids=IDS)
def test_round_trip(cls, sample, version, error):
    assert cls.from_dict(sample.to_dict()) == sample


@pytest.mark.parametrize("cls, sample, version, error", OWNERS, ids=IDS)
def test_non_dict_payload_rejected(cls, sample, version, error):
    with pytest.raises(error):
        cls.from_dict(42)


@pytest.mark.parametrize("cls, sample, version, error", OWNERS, ids=IDS)
def test_unknown_key_rejected_by_name(cls, sample, version, error):
    payload = {**sample.to_dict(), "bogus_field": 1}
    with pytest.raises(error, match="bogus_field"):
        cls.from_dict(payload)


@pytest.mark.parametrize("cls, sample, version, error", OWNERS, ids=IDS)
def test_version_contract(cls, sample, version, error):
    payload = sample.to_dict()
    if version is None:
        assert "version" not in payload
        return
    assert payload["version"] == version
    del payload["version"]  # optional: defaults to the current schema
    assert cls.from_dict(payload) == sample
    with pytest.raises(error, match="version"):
        cls.from_dict({**payload, "version": version + 1})
