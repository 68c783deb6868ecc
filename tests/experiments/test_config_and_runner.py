"""Tests for the experiment configuration and runner."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    ExperimentConfig,
    build_oracle_plan,
    build_specs,
    get_scheme,
    run_comparison,
    run_scheme,
    scheme_names,
)
from repro.gpu.mig import GEOMETRY_4G_3G

QUICK = dict(
    trace="constant",
    duration=30.0,
    warmup=10.0,
    drain=30.0,
    n_nodes=2,
    offered_load=0.5,
)


class TestConfig:
    def test_defaults_validate(self):
        ExperimentConfig()

    def test_validation_errors(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(duration=0.0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(warmup=200.0, duration=100.0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(trace="netflix")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(procurement="free_gpus")

    def test_strict_profile_is_scaled(self):
        config = ExperimentConfig(strict_model="resnet50", scale=0.1)
        assert config.strict_profile().batch_size == 13

    def test_be_pool_defaults_to_opposite_category(self):
        config = ExperimentConfig(strict_model="resnet50")  # HI
        names = {m.category.value for m in config.be_profiles()}
        assert names == {"LI"}
        config = ExperimentConfig(strict_model="shufflenet_v2")  # LI
        names = {m.category.value for m in config.be_profiles()}
        assert names == {"HI"}

    def test_vhi_strict_draws_be_from_other_llms(self):
        config = ExperimentConfig(strict_model="gpt2")
        pool = config.be_profiles()
        assert all(m.category.value == "VHI" for m in pool)
        assert not any(m.generative for m in pool)
        assert all(m.name != "gpt2" for m in pool)

    def test_explicit_be_pool(self):
        config = ExperimentConfig(
            strict_model="resnet50", be_pool=("mobilenet", "senet18")
        )
        assert {m.name for m in config.be_profiles()} == {
            "mobilenet",
            "senet18",
        }

    def test_request_rate_scales_with_load_and_nodes(self):
        base = ExperimentConfig(strict_model="resnet50", offered_load=0.5)
        double_load = base.with_overrides(offered_load=1.0)
        double_nodes = base.with_overrides(n_nodes=16)
        assert double_load.request_rate() == pytest.approx(
            2 * base.request_rate()
        )
        assert double_nodes.request_rate() == pytest.approx(
            2 * base.request_rate()
        )

    def test_explicit_rate_is_scaled(self):
        config = ExperimentConfig(rate=5000.0, scale=0.1)
        assert config.request_rate() == pytest.approx(500.0)


class TestBuildSpecs:
    def test_spec_count_matches_rate(self):
        config = ExperimentConfig(**QUICK)
        specs = build_specs(config)
        expected = config.request_rate() * config.duration
        assert len(specs) == pytest.approx(expected, rel=0.1)

    def test_specs_are_deterministic_per_seed(self):
        config = ExperimentConfig(**QUICK)
        a = build_specs(config)
        b = build_specs(config)
        assert [(s.arrival, s.model.name, s.strict) for s in a] == [
            (s.arrival, s.model.name, s.strict) for s in b
        ]

    def test_all_strict_config(self):
        config = ExperimentConfig(strict_fraction=1.0, **QUICK)
        specs = build_specs(config)
        assert all(s.strict for s in specs)

    def test_slo_multiplier_propagates(self):
        config = ExperimentConfig(slo_multiplier=2.0, **QUICK)
        spec = next(s for s in build_specs(config) if s.strict)
        assert spec.slo_deadline == pytest.approx(
            spec.arrival + 2.0 * spec.model.solo_latency_7g
        )


class TestOraclePlan:
    def test_plan_covers_duration(self):
        config = ExperimentConfig(**QUICK)
        specs = build_specs(config)
        plan = build_oracle_plan(config, specs)
        assert plan[0][0] == 0.0
        assert len(plan) == math.ceil(config.duration / config.rotation_period)

    def test_all_strict_plan_is_4g_3g(self):
        config = ExperimentConfig(strict_fraction=1.0, **QUICK)
        specs = build_specs(config)
        plan = build_oracle_plan(config, specs)
        assert all(g == GEOMETRY_4G_3G for _t, g in plan)


class TestSchemeFactory:
    def test_known_names(self):
        for name in ["protean", "infless", "molecule", "naive", "gpulet"]:
            assert get_scheme(name) is not get_scheme(name)  # fresh each time

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            get_scheme("magic")

    def test_oracle_requires_plan(self):
        with pytest.raises(ConfigurationError):
            get_scheme("oracle")
        assert "oracle" in scheme_names()


class TestRunScheme:
    def test_summary_fields_populated(self):
        config = ExperimentConfig(strict_model="resnet50", **QUICK)
        result = run_scheme("protean", config)
        summary = result.summary
        assert summary.requests_served > 0
        assert 0.0 <= summary.slo_compliance <= 1.0
        assert summary.strict_p99 > 0
        assert summary.total_cost > 0
        assert result.extras["cold_starts"] >= 0

    def test_determinism(self):
        config = ExperimentConfig(strict_model="resnet50", **QUICK)
        a = run_scheme("protean", config)
        b = run_scheme("protean", config)
        assert a.summary.slo_compliance == b.summary.slo_compliance
        assert a.summary.strict_p99 == b.summary.strict_p99
        assert a.summary.total_cost == b.summary.total_cost

    def test_comparison_shares_request_stream(self):
        config = ExperimentConfig(strict_model="resnet50", **QUICK)
        results = run_comparison(["protean", "molecule"], config)
        assert set(results) == {"protean", "molecule"}
        assert (
            results["protean"].summary.strict_requests
            == results["molecule"].summary.strict_requests
        )

    def test_cdf_accessor(self):
        config = ExperimentConfig(strict_model="resnet50", **QUICK)
        result = run_scheme("protean", config)
        values, fractions = result.cdf()
        assert values.size > 0
        assert fractions[-1] == 1.0

    def test_measured_window_excludes_warmup(self):
        config = ExperimentConfig(strict_model="resnet50", **QUICK)
        result = run_scheme("protean", config)
        assert all(r.arrival >= config.warmup for r in result.measured)
        assert all(r.arrival < config.duration for r in result.measured)
