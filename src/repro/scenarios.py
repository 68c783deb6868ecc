"""One registry for named scenario families.

A scenario family is a CLI command (``python -m repro tenants <name>``,
``python -m repro pipelines <name>``) over a few named scenarios. Each
scenario is a small bundle of experiment runs whose configs are a pure
function of the seed, plus a verdict over their outcomes — the CLI and
the regression tests execute exactly the same configs, so a number
quoted from the CLI is the number a test pins.

A family contributes only what differs: its scenario configs, the
:class:`~repro.experiments.runner.ExperimentResult` attribute holding
each run's report, the verdict, and the text rendering of one run. The
run loop (serial or fanned out through :mod:`repro.parallel`), the
result type and the CLI handler are shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

#: Run shape every scenario shares: short enough for CI, long enough for
#: stable tails.
RUN_SHAPE = dict(
    trace="constant",
    duration=60.0,
    warmup=15.0,
    drain=90.0,
    n_nodes=2,
)


@dataclass(frozen=True)
class ScenarioFamily:
    """What one family of scenarios contributes to the shared runner."""

    #: CLI subcommand (and registry key).
    command: str
    #: CLI help line.
    help: str
    #: Scenario names, in CLI ``choices`` order.
    scenarios: tuple[str, ...]
    #: ``(name, seed)`` → run label → ``ExperimentConfig``.
    configs: Callable[[str, int], dict]
    #: ``ExperimentResult`` attribute with each run's report; also the
    #: key the reports appear under in :meth:`ScenarioResult.to_dict`.
    report: str
    #: Headline facts over a finished :class:`ScenarioResult`.
    verdict: Callable[["ScenarioResult"], dict]
    #: ``(label, report dict)`` → the text lines describing one run.
    describe_run: Callable[[str, dict], list[str]]


def scenario_families() -> dict[str, ScenarioFamily]:
    """The registered families, keyed by CLI command."""
    from repro.pipelines.scenarios import FAMILY as pipelines
    from repro.tenancy.scenarios import FAMILY as tenants

    return {"tenants": tenants, "pipelines": pipelines}


@dataclass
class ScenarioResult:
    """Outcome of one scenario: per-run rows, per-run reports, verdict."""

    name: str
    scheme: str
    #: Command of the :class:`ScenarioFamily` that ran it.
    family: str
    #: Run label → ``RunSummary.row()``.
    rows: dict[str, dict] = field(default_factory=dict)
    #: Run label → the family's report ``to_dict()``.
    reports: dict[str, dict] = field(default_factory=dict)
    #: Scenario-specific headline facts (attainment deltas, rejections).
    verdict: dict = field(default_factory=dict)

    def __getattr__(self, attr: str):
        # ``result.tenancy`` / ``result.pipelines``: the reports under the
        # family's own name, as they appear in ``to_dict``.
        family = self.__dict__.get("family")
        if family is not None and attr == scenario_families()[family].report:
            return self.reports
        raise AttributeError(attr)

    def to_dict(self) -> dict:
        """JSON-safe representation (CLI ``--json``, CI artifact)."""
        return {
            "scenario": self.name,
            "scheme": self.scheme,
            "rows": self.rows,
            scenario_families()[self.family].report: self.reports,
            "verdict": self.verdict,
        }

    def describe(self) -> str:
        """Multi-line text rendering for the CLI."""
        describe_run = scenario_families()[self.family].describe_run
        lines = [f"scenario {self.name} (scheme={self.scheme})"]
        for label, report in self.reports.items():
            lines.extend(describe_run(label, report))
        for key, value in self.verdict.items():
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)


def run_scenario(
    family: str,
    name: str,
    *,
    scheme: str = "protean",
    seed: int = 0,
    jobs: int | None = None,
) -> ScenarioResult:
    """Execute scenario ``name`` of ``family`` and assemble its result.

    With ``jobs`` > 1 the scenario's runs fan out across processes via
    :mod:`repro.parallel` — results are bit-identical to the serial path.
    """
    from repro.experiments.runner import run_scheme
    from repro.parallel import RunRequest, execute_keyed, resolve_jobs

    spec = scenario_families()[family]
    configs = spec.configs(name, seed)
    if resolve_jobs(jobs) > 1 and len(configs) > 1:
        results = execute_keyed(
            [
                RunRequest(key=label, scheme=scheme, config=config)
                for label, config in configs.items()
            ],
            jobs=jobs,
        )
    else:
        results = {
            label: run_scheme(scheme, config)
            for label, config in configs.items()
        }
    outcome = ScenarioResult(name=name, scheme=scheme, family=family)
    for label, result in results.items():
        outcome.rows[label] = result.summary.row()
        report = getattr(result, spec.report)
        assert report is not None  # every run of the family carries one
        outcome.reports[label] = report.to_dict()
    outcome.verdict = spec.verdict(outcome)
    return outcome
