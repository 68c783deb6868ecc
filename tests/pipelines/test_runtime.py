"""End-to-end pipeline runs through run_scheme: both policies, audited.

These are short real simulations (seconds of wall time) — the cheapest
way to prove the whole loop holds together: workload generation → root
admission → stage completion → live child release → end-to-end
accounting, with the conservation auditor armed and silent.
"""

import math

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_scheme
from repro.pipelines import PipelineSpec, StageSpec

CHAIN = PipelineSpec(
    name="mini-chain",
    stages=(
        StageSpec(name="front", model="resnet50"),
        StageSpec(name="back", model="resnet18", parents=("front",)),
    ),
)


def run(policy, **overrides):
    from dataclasses import replace

    kwargs = dict(
        pipelines=replace(CHAIN, deadline_policy=policy),
        trace="constant",
        duration=25.0,
        warmup=5.0,
        drain=60.0,
        n_nodes=2,
        offered_load=0.9,
        seed=5,
        audit=True,
        audit_fail_fast=True,
    )
    kwargs.update(overrides)
    return run_scheme("protean", ExperimentConfig(**kwargs))


@pytest.fixture(scope="module")
def aware_result():
    return run("pipeline-aware")


@pytest.fixture(scope="module")
def naive_result():
    return run("naive")


class TestReport:
    def test_report_attached(self, aware_result):
        report = aware_result.pipelines
        assert report is not None
        assert report.pipeline == "mini-chain"
        assert report.policy == "pipeline-aware"

    def test_workflows_measured_and_completed(self, aware_result):
        report = aware_result.pipelines
        assert report.workflows > 0
        assert report.completed == report.workflows  # drain long enough
        assert report.incomplete == 0

    def test_e2e_attainment_is_a_fraction(self, aware_result):
        report = aware_result.pipelines
        assert 0.0 <= report.e2e_attainment <= 1.0
        assert report.e2e_p99 >= report.e2e_p50 > 0.0

    def test_per_stage_rows_follow_topology(self, aware_result):
        report = aware_result.pipelines
        assert [row.stage for row in report.per_stage] == ["front", "back"]
        for row in report.per_stage:
            assert row.requests > 0
            assert row.p99 >= row.p50 > 0.0
            assert 0.0 <= row.stage_attainment <= 1.0
        # Every measured workflow pushed exactly one request per stage.
        front, back = report.per_stage
        assert front.requests == back.requests == report.workflows

    def test_stage_lookup(self, aware_result):
        report = aware_result.pipelines
        assert report.stage("back").model.startswith("resnet18")
        with pytest.raises(KeyError):
            report.stage("nope")

    def test_stats_and_extras(self, aware_result):
        stats = aware_result.pipelines.stats
        assert stats["workflows_started"] >= stats["workflows_completed"] > 0
        assert stats["stages_released"] > 0
        assert aware_result.extras["pipeline_workflows"] == (
            stats["workflows_started"]
        )
        assert (
            aware_result.extras["pipeline_rebudgets"] == stats["rebudgets"]
        )

    def test_audit_is_silent_on_a_clean_run(self, aware_result, naive_result):
        for result in (aware_result, naive_result):
            assert result.audit is not None
            assert result.audit.ok
            assert result.extras["audit_violations"] == 0


class TestPolicies:
    def test_aware_rebudgets_naive_does_not(self, aware_result, naive_result):
        assert aware_result.pipelines.stats["rebudgets"] > 0
        assert naive_result.pipelines.stats["rebudgets"] == 0

    def test_policies_measure_the_same_workflow_stream(
        self, aware_result, naive_result
    ):
        # Same seed, same DAG, same trace: the arms see identical arrival
        # streams — only deadlines (and hence ordering) differ.
        assert (
            aware_result.pipelines.workflows
            == naive_result.pipelines.workflows
        )
        assert (
            aware_result.pipelines.strict_workflows
            == naive_result.pipelines.strict_workflows
        )


class TestRuntimeGuards:
    def test_double_arm_refused(self):
        from repro.experiments.schemes import get_scheme
        from repro.pipelines import PipelineRuntime
        from repro.serverless.platform import PlatformConfig, ServerlessPlatform
        from repro.simulation import Simulator
        from repro.simulation.identity import reset_run_ids

        reset_run_ids()
        sim = Simulator()
        platform = ServerlessPlatform(
            sim, get_scheme("protean"), PlatformConfig(n_nodes=1)
        )
        runtime = PipelineRuntime(sim, platform, CHAIN, scale=8 / 128)
        runtime.arm()
        with pytest.raises(ConfigurationError):
            runtime.arm()

    def test_best_effort_workflow_has_no_deadline(self):
        from repro.pipelines import PipelineWorkload
        import numpy as np

        workload = PipelineWorkload(
            CHAIN, scale=8 / 128, strict_fraction=0.0
        )
        specs = workload.root_specs([0.0], np.random.default_rng(0))
        assert not specs[0].strict

    def test_nan_attainment_with_no_strict_load(self):
        result = run("pipeline-aware", strict_fraction=0.0, duration=10.0)
        assert math.isnan(result.pipelines.e2e_attainment)
        assert result.pipelines.stats["rebudgets"] == 0
