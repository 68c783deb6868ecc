"""Canonical multi-tenant scenarios: noisy neighbour, flash crowd, quota
exhaustion.

Each scenario is a small, named bundle of experiment runs whose configs
are built by a pure function of (scheme, seed) — the CLI (``python -m
repro tenants <scenario>``) and the regression tests execute exactly the
same configs, so a number quoted from the CLI is the number the test
pins.

**noisy-neighbour** — a victim tenant is sized to run comfortably alone
(its solo attainment is the reference), then an aggressor offering
several times the victim's load joins. The FIFO arm (no fairness, no
admission control) shows the failure mode: the victim's SLO attainment
collapses even though its own traffic never changed. The WFQ arm
(weighted fair queueing + priority + an aggressor concurrency quota)
restores the victim to within a few points of its solo attainment while
the aggressor's excess is shed at the gateway.

**flash-crowd** — two equal tenants; one surges 8× for the middle third
of the run. Shows surge-window modulation and how fairness contains the
blast radius.

**quota-exhaustion** — a capped tenant offers far more traffic than its
concurrency quota admits; the gateway sheds the excess as 429-style
rejections while a steady tenant rides along untouched.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.scenarios import RUN_SHAPE, ScenarioFamily, ScenarioResult, run_scenario
from repro.tenancy.model import Tenant, TenantSet, TenantSurge, TenancySpec

if TYPE_CHECKING:  # pragma: no cover - imported lazily to avoid a cycle
    from repro.experiments.config import ExperimentConfig

#: Scenario names accepted by :func:`run_tenancy_scenario` and the CLI.
SCENARIOS = ("noisy-neighbour", "flash-crowd", "quota-exhaustion")

#: Aggressor offered load as a multiple of the victim's (noisy neighbour).
AGGRESSOR_MULTIPLE = 3.0

#: The victim's comfortable solo operating point (fraction of capacity).
VICTIM_SOLO_LOAD = 0.55

def _victim() -> Tenant:
    return Tenant(
        tenant_id="victim",
        slo_class="standard",
        priority=0,
        weight=3.0,
        traffic_share=1.0,
    )


def _aggressor(quota: int | None) -> Tenant:
    return Tenant(
        tenant_id="aggressor",
        slo_class="relaxed",
        priority=1,
        quota=quota,
        weight=1.0,
        traffic_share=AGGRESSOR_MULTIPLE,
    )


def noisy_neighbour_configs(seed: int = 0) -> dict[str, ExperimentConfig]:
    """The three runs of the noisy-neighbour scenario.

    ``solo`` carries only the victim at its comfortable load. ``fifo``
    and ``wfq`` add the aggressor at :data:`AGGRESSOR_MULTIPLE`× the
    victim's load — identical traffic, differing only in policy: FIFO
    with admission off (the no-tenancy failure mode) vs. WFQ with
    priority tiers and an aggressor quota.
    """
    from repro.experiments.config import ExperimentConfig

    solo = ExperimentConfig(
        seed=seed,
        offered_load=VICTIM_SOLO_LOAD,
        tenants=TenancySpec(
            tenant_set=TenantSet((_victim(),)),
            policy="fifo",
            admission=False,
        ),
        **RUN_SHAPE,
    )
    mixed_load = VICTIM_SOLO_LOAD * (1.0 + AGGRESSOR_MULTIPLE)
    fifo = ExperimentConfig(
        seed=seed,
        offered_load=mixed_load,
        tenants=TenancySpec(
            tenant_set=TenantSet((_victim(), _aggressor(quota=None))),
            policy="fifo",
            admission=False,
        ),
        **RUN_SHAPE,
    )
    wfq = ExperimentConfig(
        seed=seed,
        offered_load=mixed_load,
        tenants=TenancySpec(
            tenant_set=TenantSet((_victim(), _aggressor(quota=8))),
            policy="wfq",
            admission=True,
        ),
        **RUN_SHAPE,
    )
    return {"solo": solo, "fifo": fifo, "wfq": wfq}


def flash_crowd_configs(seed: int = 0) -> dict[str, ExperimentConfig]:
    """One run: two equal tenants, one surging 8× mid-run."""
    from repro.experiments.config import ExperimentConfig

    tenants = TenantSet(
        (
            Tenant(tenant_id="steady", priority=0, weight=1.0, quota=None),
            Tenant(tenant_id="burst", priority=1, weight=1.0, quota=24),
        )
    )
    duration = RUN_SHAPE["duration"]
    spec = TenancySpec(
        tenant_set=tenants,
        policy="wfq",
        admission=True,
        surges=(
            TenantSurge(
                tenant_id="burst",
                start=duration / 3.0,
                end=2.0 * duration / 3.0,
                multiplier=8.0,
            ),
        ),
    )
    config = ExperimentConfig(
        seed=seed, offered_load=0.7, tenants=spec, **RUN_SHAPE
    )
    return {"flash-crowd": config}


def quota_exhaustion_configs(seed: int = 0) -> dict[str, ExperimentConfig]:
    """One run: a capped tenant offering far beyond its quota."""
    from repro.experiments.config import ExperimentConfig

    tenants = TenantSet(
        (
            Tenant(tenant_id="steady", priority=0, weight=1.0),
            Tenant(
                tenant_id="capped",
                priority=1,
                quota=4,
                weight=1.0,
                traffic_share=3.0,
                slo_class="relaxed",
            ),
        )
    )
    spec = TenancySpec(tenant_set=tenants, policy="wfq", admission=True)
    config = ExperimentConfig(
        seed=seed, offered_load=1.2, tenants=spec, **RUN_SHAPE
    )
    return {"quota-exhaustion": config}


_BUILDERS = {
    "noisy-neighbour": noisy_neighbour_configs,
    "flash-crowd": flash_crowd_configs,
    "quota-exhaustion": quota_exhaustion_configs,
}


def _describe_run(label: str, report: dict) -> list[str]:
    lines = [f"  run {label}:"]
    for outcome in report["outcomes"]:
        attainment = outcome["slo_attainment"]
        shown = (
            f"{100.0 * attainment:5.1f}%"
            if attainment == attainment  # not NaN
            else "  n/a"
        )
        lines.append(
            f"    {outcome['tenant_id']:<10} slo={shown}  "
            f"served={outcome['requests']:>5}  "
            f"rejected={outcome['rejections']:>5}"
        )
    lines.append(
        f"    fairness(Jain)={report['fairness_index']:.3f}  "
        f"revenue={report['total_revenue']:.1f}"
    )
    return lines


def scenario_configs(name: str, seed: int = 0) -> dict[str, ExperimentConfig]:
    """The run configs of scenario ``name`` (label → config)."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown tenancy scenario {name!r}; known: {list(SCENARIOS)}"
        ) from None
    return builder(seed)


#: ``run_tenancy_scenario(name, *, scheme, seed, jobs)``: this family's
#: :func:`repro.scenarios.run_scenario`.
run_tenancy_scenario = partial(run_scenario, "tenants")


def _attainment(outcome: ScenarioResult, run: str, tenant: str) -> float:
    for row in outcome.reports[run]["outcomes"]:
        if row["tenant_id"] == tenant:
            return row["slo_attainment"]
    raise ConfigurationError(
        f"tenant {tenant!r} missing from run {run!r} of {outcome.name}"
    )


def _verdict(outcome: ScenarioResult) -> dict:
    name = outcome.name
    if name == "noisy-neighbour":
        solo = _attainment(outcome, "solo", "victim")
        fifo = _attainment(outcome, "fifo", "victim")
        wfq = _attainment(outcome, "wfq", "victim")
        return {
            "victim_solo_attainment": solo,
            "victim_fifo_attainment": fifo,
            "victim_wfq_attainment": wfq,
            "fifo_degradation_points": 100.0 * (solo - fifo),
            "wfq_gap_to_solo_points": 100.0 * (solo - wfq),
        }
    if name == "flash-crowd":
        report = outcome.reports["flash-crowd"]
        return {
            "steady_attainment": _attainment(
                outcome, "flash-crowd", "steady"
            ),
            "burst_attainment": _attainment(outcome, "flash-crowd", "burst"),
            "fairness_index": report["fairness_index"],
        }
    if name == "quota-exhaustion":
        report = outcome.reports["quota-exhaustion"]
        rejections = {
            row["tenant_id"]: row["rejections"]
            for row in report["outcomes"]
        }
        return {
            "capped_rejections": rejections.get("capped", 0),
            "steady_rejections": rejections.get("steady", 0),
            "steady_attainment": _attainment(
                outcome, "quota-exhaustion", "steady"
            ),
        }
    return {}


FAMILY = ScenarioFamily(
    command="tenants",
    help="run a multi-tenant scenario (noisy-neighbour, flash-crowd, "
    "quota-exhaustion)",
    scenarios=SCENARIOS,
    configs=scenario_configs,
    report="tenancy",
    verdict=_verdict,
    describe_run=_describe_run,
)
