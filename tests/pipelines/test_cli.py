"""CLI plumbing for ``python -m repro pipelines``.

The scenario itself is exercised (and its numbers pinned) by
test_scenarios.py; here the heavy run is monkeypatched out so these
tests cover only the argument wiring: scenario choices, scheme
canonicalisation, ``--json`` to stdout and to a file, the jobs flag, and
the ConfigurationError → exit-code-2 contract.
"""

import json

import pytest

import repro.scenarios as scenarios_mod
from repro.cli import main
from repro.errors import ConfigurationError
from repro.scenarios import ScenarioResult


@pytest.fixture
def fake_scenario(monkeypatch):
    """Replace the heavy scenario run with a canned result; record calls."""
    calls = []

    def fake(family, name, *, scheme="protean", seed=0, jobs=None):
        calls.append(
            {"family": family, "name": name, "scheme": scheme, "seed": seed, "jobs": jobs}
        )
        result = ScenarioResult(name=name, scheme=scheme, family=family)
        result.rows = {"naive": {"cost_$": 1.0}, "pipeline-aware": {"cost_$": 1.0}}
        result.verdict = {
            "naive_e2e_attainment": 0.9,
            "aware_e2e_attainment": 0.95,
            "attainment_gap_points": 5.0,
            "equal_cost": True,
        }
        return result

    monkeypatch.setattr(scenarios_mod, "run_scenario", fake)
    return calls


@pytest.mark.parametrize("cpus", [1, 4])
def test_pipelines_text_output(fake_scenario, capsys, monkeypatch, cpus):
    # Without --jobs the CLI fans out over every core; pin the core count
    # (and clear REPRO_JOBS, which outranks it) so the host does not matter.
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.setattr("repro.cli.cpu_jobs", lambda: cpus)
    assert main(["pipelines", "chain"]) == 0
    output = capsys.readouterr().out
    assert "scenario chain" in output
    assert "attainment_gap_points: 5.0" in output
    assert fake_scenario == [
        {
            "family": "pipelines",
            "name": "chain",
            "scheme": "protean",
            "seed": 0,
            "jobs": cpus,
        }
    ]


def test_tenants_shares_the_scenario_handler(fake_scenario, capsys):
    assert main(["tenants", "quota-exhaustion", "--jobs", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario"] == "quota-exhaustion"
    assert payload["tenancy"] == {}
    assert fake_scenario[0]["family"] == "tenants"


def test_pipelines_json_to_stdout(fake_scenario, capsys):
    assert main(["pipelines", "ensemble", "--seed", "7", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario"] == "ensemble"
    assert payload["verdict"]["aware_e2e_attainment"] == 0.95
    assert fake_scenario[0]["seed"] == 7


def test_pipelines_json_to_file(fake_scenario, capsys, tmp_path):
    target = tmp_path / "out.json"
    assert main(["pipelines", "chain", "--json", str(target)]) == 0
    assert f"wrote {target}" in capsys.readouterr().out
    payload = json.loads(target.read_text())
    assert payload["scenario"] == "chain"


def test_pipelines_jobs_flag_forwarded(fake_scenario, capsys):
    assert main(["pipelines", "branchy", "--jobs", "4"]) == 0
    assert fake_scenario[0]["jobs"] == 4


def test_pipelines_rejects_unknown_scenario():
    with pytest.raises(SystemExit):  # argparse choices
        main(["pipelines", "no-such-scenario"])


def test_pipelines_configuration_error_exits_2(monkeypatch, capsys):
    def explode(family, name, **kwargs):
        raise ConfigurationError("broken pipeline config")

    monkeypatch.setattr(scenarios_mod, "run_scenario", explode)
    assert main(["pipelines", "chain"]) == 2
    assert "broken pipeline config" in capsys.readouterr().err
