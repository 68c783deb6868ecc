"""Canonical pipeline scenarios: chain, ensemble, branchy.

Each scenario runs the *same* workflow DAG, trace, seed, and cluster
twice — once per deadline-splitting policy (``naive`` vs
``pipeline-aware``) — so the two arms differ in nothing but how the
end-to-end SLO is divided among stages. Both arms buy identical
on-demand capacity (fixed ``n_nodes``), making the comparison equal-cost
by construction; the verdict records both costs so the claim is checked,
not assumed.

**chain** — a three-stage vision chain (detect → classify → caption) at
high load. Naive splitting grants every stage its full ``M×L_s`` budget
regardless of how late the workflow already is, so queueing overshoot in
an early stage silently consumes the end-to-end slack; the aware policy
re-budgets the remaining slack at every release, which tightens the
deadlines of behind-schedule workflows and lets strict-first EDF pull
them forward. The CI smoke run asserts the aware arm's end-to-end
attainment strictly exceeds the naive arm's.

**ensemble** — one preprocessing root fans out to three parallel
classifiers whose votes join in a sink stage (fan-out/fan-in). The join
waits for the *slowest* branch, so the aware policy's per-branch budgets
follow each branch's profiled latency instead of splitting evenly.

**branchy** — an asymmetric DAG: a heavy two-stage branch and a light
one-stage branch from the same root, rejoining at a sink. Stresses
downstream-latency bookkeeping where the critical path runs through only
one branch.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.pipelines.model import PipelineSpec, StageSpec
from repro.scenarios import RUN_SHAPE, ScenarioFamily, ScenarioResult, run_scenario

if TYPE_CHECKING:  # pragma: no cover - imported lazily to avoid a cycle
    from repro.experiments.config import ExperimentConfig

#: Scenario names accepted by :func:`run_pipeline_scenario` and the CLI.
SCENARIOS = ("chain", "ensemble", "branchy")

#: The two arms every scenario runs (label doubles as the policy name).
POLICY_ARMS = ("naive", "pipeline-aware")

#: The shared run shape at a load near saturation — where deadline
#: policy differentiates.
_BASE = {**RUN_SHAPE, "offered_load": 1.05}


def chain_pipeline(policy: str = "pipeline-aware") -> PipelineSpec:
    """Three-stage vision chain: detect → classify → caption."""
    return PipelineSpec(
        name="chain",
        stages=(
            StageSpec(name="detect", model="resnet50"),
            StageSpec(name="classify", model="densenet121", parents=("detect",)),
            StageSpec(name="caption", model="googlenet", parents=("classify",)),
        ),
        deadline_policy=policy,
    )


def ensemble_pipeline(policy: str = "pipeline-aware") -> PipelineSpec:
    """Fan-out/fan-in: preprocess → {3 classifiers} → vote."""
    return PipelineSpec(
        name="ensemble",
        stages=(
            StageSpec(name="preprocess", model="mobilenet"),
            StageSpec(name="model-a", model="resnet50", parents=("preprocess",)),
            StageSpec(name="model-b", model="densenet121", parents=("preprocess",)),
            StageSpec(name="model-c", model="googlenet", parents=("preprocess",)),
            StageSpec(
                name="vote",
                model="resnet18",
                parents=("model-a", "model-b", "model-c"),
            ),
        ),
        deadline_policy=policy,
    )


def branchy_pipeline(policy: str = "pipeline-aware") -> PipelineSpec:
    """Asymmetric DAG: a heavy 2-stage branch and a light 1-stage branch."""
    return PipelineSpec(
        name="branchy",
        stages=(
            StageSpec(name="ingest", model="mobilenet"),
            StageSpec(name="heavy-a", model="vgg19", parents=("ingest",)),
            StageSpec(name="heavy-b", model="densenet121", parents=("heavy-a",)),
            StageSpec(name="light", model="resnet18", parents=("ingest",)),
            StageSpec(
                name="merge", model="googlenet", parents=("heavy-b", "light")
            ),
        ),
        deadline_policy=policy,
    )


_PIPELINES = {
    "chain": chain_pipeline,
    "ensemble": ensemble_pipeline,
    "branchy": branchy_pipeline,
}


def scenario_configs(name: str, seed: int = 0) -> dict[str, ExperimentConfig]:
    """The run configs of scenario ``name`` (policy label → config).

    Both arms are byte-for-byte identical except for the spec's
    ``deadline_policy`` — same DAG, same trace/seed, same fixed
    on-demand cluster — so any outcome difference is the policy's.
    """
    from repro.experiments.config import ExperimentConfig

    try:
        builder = _PIPELINES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown pipeline scenario {name!r}; known: {list(SCENARIOS)}"
        ) from None
    base_spec = builder()
    return {
        policy: ExperimentConfig(
            seed=seed,
            pipelines=replace(base_spec, deadline_policy=policy),
            **_BASE,
        )
        for policy in POLICY_ARMS
    }


def _describe_run(label: str, payload: dict) -> list[str]:
    from repro.metrics.pipelines import PipelineReport, StageOutcome

    per_stage = tuple(StageOutcome(**row) for row in payload["per_stage"])
    report = PipelineReport(**{**payload, "per_stage": per_stage})
    lines = [f"  arm {label}:"]
    lines.extend("  " + line for line in report.describe().splitlines())
    return lines


#: ``run_pipeline_scenario(name, *, scheme, seed, jobs)``: this family's
#: :func:`repro.scenarios.run_scenario`.
run_pipeline_scenario = partial(run_scenario, "pipelines")


def _verdict(outcome: ScenarioResult) -> dict:
    naive = outcome.reports["naive"]
    aware = outcome.reports["pipeline-aware"]
    naive_cost = outcome.rows["naive"]["cost_$"]
    aware_cost = outcome.rows["pipeline-aware"]["cost_$"]
    return {
        "naive_e2e_attainment": naive["e2e_attainment"],
        "aware_e2e_attainment": aware["e2e_attainment"],
        "attainment_gap_points": 100.0
        * (aware["e2e_attainment"] - naive["e2e_attainment"]),
        "naive_cost": naive_cost,
        "aware_cost": aware_cost,
        "equal_cost": naive_cost == aware_cost,
        "aware_rebudgets": aware["stats"]["rebudgets"],
    }


FAMILY = ScenarioFamily(
    command="pipelines",
    help="run a multi-stage workflow scenario (chain, ensemble, "
    "branchy), comparing naive vs pipeline-aware deadline splitting",
    scenarios=SCENARIOS,
    configs=scenario_configs,
    report="pipelines",
    verdict=_verdict,
    describe_run=_describe_run,
)
