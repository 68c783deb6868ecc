"""ServeConfig: validation, presets, and the versioned wire format."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import ExperimentConfig
from repro.faults import EMPTY_PLAN, FaultKind, FaultPlan, FaultSpec
from repro.pipelines.scenarios import chain_pipeline
from repro.serving import (
    SERVE_PRESETS,
    SERVE_SCHEMA_VERSION,
    ServeConfig,
    serve_preset,
)


class TestValidation:
    def test_defaults_construct(self):
        config = ServeConfig()
        assert config.scheme == "protean"
        assert config.executor == "sleep"

    def test_bad_port_rejected(self):
        with pytest.raises(ConfigurationError, match="port"):
            ServeConfig(port=70000)

    def test_bad_speedup_rejected(self):
        with pytest.raises(ConfigurationError, match="speedup"):
            ServeConfig(speedup=-1.0)

    def test_unknown_executor_rejected(self):
        with pytest.raises(ConfigurationError, match="executor"):
            ServeConfig(executor="nope")

    def test_experiment_must_be_a_config(self):
        with pytest.raises(ConfigurationError, match="ExperimentConfig"):
            ServeConfig(experiment={"duration": 5.0})

    def test_tolerances_validated(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(attainment_tolerance=1.5)
        with pytest.raises(ConfigurationError):
            ServeConfig(p99_tolerance_abs=-0.1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("audit", True),
            ("pipelines", chain_pipeline()),
            ("fault_plan", FaultPlan((FaultSpec(FaultKind.NODE_CRASH, at=1.0),))),
            ("streaming_metrics", True),
        ],
    )
    def test_unarmed_experiment_field_rejected(self, field, value):
        # LiveRun.start arms none of these; accepting them would serve
        # without the audit, pipeline, faults or bounded metrics asked for.
        experiment = ExperimentConfig(**{field: value})
        with pytest.raises(ConfigurationError, match=f"experiment.{field}"):
            ServeConfig(experiment=experiment)

    def test_empty_fault_plan_accepted(self):
        # An empty plan is bit-identical to no plan: nothing is dropped.
        ServeConfig(experiment=ExperimentConfig(fault_plan=EMPTY_PLAN))

    def test_misconfig_is_also_a_value_error(self):
        # ConfigurationError subclasses ValueError (the repo-wide
        # convention callers may rely on).
        with pytest.raises(ValueError):
            ServeConfig(speedup=0.0)


class TestWireFormat:
    def test_round_trip(self):
        config = ServeConfig(
            experiment=ExperimentConfig(duration=10.0, warmup=2.0, seed=3),
            scheme="mps_mig",
            port=0,
            speedup=25.0,
        )
        payload = config.to_dict()
        assert payload["version"] == SERVE_SCHEMA_VERSION
        assert ServeConfig.from_dict(payload) == config

    def test_round_trip_through_json(self):
        import json

        config = serve_preset("smoke")
        payload = json.loads(json.dumps(config.to_dict()))
        assert ServeConfig.from_dict(payload) == config

    def test_unknown_keys_rejected(self):
        payload = ServeConfig().to_dict()
        payload["mystery"] = 1
        with pytest.raises(ConfigurationError, match="mystery"):
            ServeConfig.from_dict(payload)

    def test_newer_schema_refused(self):
        payload = ServeConfig().to_dict()
        payload["version"] = SERVE_SCHEMA_VERSION + 1
        with pytest.raises(ConfigurationError, match="version"):
            ServeConfig.from_dict(payload)

    def test_non_dict_rejected(self):
        with pytest.raises(ConfigurationError, match="dict"):
            ServeConfig.from_dict([1, 2])


class TestPresets:
    def test_every_preset_constructs(self):
        for name in SERVE_PRESETS:
            config = serve_preset(name)
            assert isinstance(config, ServeConfig)
            # Every preset (the `serve --replay` targets) stays valid
            # under the unarmed-field check.
            assert ServeConfig.from_dict(config.to_dict()) == config

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError, match="preset"):
            serve_preset("nope")

    def test_smoke_preset_is_actually_smoke_sized(self):
        config = serve_preset("smoke")
        assert config.experiment.duration <= 10.0
        assert config.experiment.n_nodes <= 2

    def test_p99_tolerance_has_an_absolute_floor(self):
        config = ServeConfig(p99_tolerance_frac=0.5, p99_tolerance_abs=0.5)
        assert config.p99_tolerance(0.0) == 0.5
        assert config.p99_tolerance(10.0) == 5.0

    def test_p99_tolerance_widens_with_speedup(self):
        # A fixed wall-clock jitter budget maps to jitter × speedup trace
        # seconds, so faster replays get a proportionally wider band.
        config = ServeConfig(speedup=100.0, jitter_wall_seconds=0.025)
        assert config.p99_tolerance(0.0) == pytest.approx(2.5)
        slow = ServeConfig(speedup=1.0, jitter_wall_seconds=0.025)
        assert slow.p99_tolerance(0.0) == slow.p99_tolerance_abs

    def test_negative_jitter_budget_rejected(self):
        with pytest.raises(ConfigurationError, match="jitter"):
            ServeConfig(jitter_wall_seconds=-0.01)
