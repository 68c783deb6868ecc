"""Checks on the benchmark itself.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import signal
import time
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.experiments.runner import build_specs  # noqa: E402

import run  # noqa: E402
from hostspeed import REFERENCE_LOOP_S, HostSpeed  # noqa: E402
from layers import LayerProfiler, wrapped_targets  # noqa: E402
from measure import evaluate, run_once  # noqa: E402
from workloads import WORKLOADS, Workload, build_inputs  # noqa: E402


def _short(workload: Workload) -> Workload:
    """The workload cut to 30 simulated seconds, for quick checks."""
    config = replace(workload.config, duration=30.0, warmup=5.0, drain=60.0)
    return replace(workload, config=config)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_at_the_config_seed_are_the_runners_stream(name):
    config = WORKLOADS[name].config
    assert build_inputs(config, config.seed) == build_specs(config)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_another_seed_draws_another_stream_over_the_same_curve(name):
    config = _short(WORKLOADS[name]).config
    first, second = build_inputs(config, 1), build_inputs(config, 2)
    assert first != second
    assert build_inputs(config, 1) == first
    assert abs(len(first) - len(second)) < 0.05 * len(first)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrapped_run_gives_the_unwrapped_digest(name):
    workload = _short(WORKLOADS[name])
    originals = {t: vars(t[0])[t[1]] for t in wrapped_targets()}
    _, specs, result = run_once(workload, 3)
    plain = evaluate(workload, specs, result)
    profiler = LayerProfiler()
    wall, specs, result = run_once(workload, 3, profiler=profiler)
    traced = evaluate(workload, specs, result)

    assert traced.digest == plain.digest
    assert profiler.installed() == 0
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in originals.items())
    assert sum(profiler.self_s.values()) == pytest.approx(profiler.top_level_s)
    assert 0.0 <= wall - profiler.top_level_s < wall
    assert profiler.calls["serverless.ingest_s"] >= plain.generated


def test_host_speed_subtracts_its_loops_and_restores_the_alarm():
    handler = signal.getsignal(signal.SIGALRM)
    with HostSpeed() as speed:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.5:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = [d for t, d in speed.loops if start <= t < end]
    assert len(inside) >= 1 and len(speed.loops) == len(inside) + 6
    loop_s = sum(speed.durations()) / len(speed.loops)
    assert speed.reference_seconds(start, end) == pytest.approx(
        (end - start - sum(inside)) * REFERENCE_LOOP_S / loop_s
    )


def test_audited_run_has_no_violations_and_the_same_digest():
    workload = _short(WORKLOADS["twitter-spot-backlog"])
    _, specs, result = run_once(workload, 0)
    plain = evaluate(workload, specs, result)
    _, specs, result = run_once(workload, 0, audit=True)
    audited = evaluate(workload, specs, result)
    assert audited.audit_violations == 0
    assert audited.digest == plain.digest


def test_benchmark_json_names_what_the_command_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == (
        run.END_TO_END
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER


def test_command_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wiki-steady",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
