#!/usr/bin/env python3
"""The simulator's benchmark: host run time and simulated SLO outcomes.

Usage, from the repository root::

    python3 perfbench/run.py --workload wiki-steady --seed 0 --seconds 25 --trace 0

Runs one workload offline, in this process, with ``REPRO_JOBS=1``:
repeated ``run_scheme`` calls for ``--seconds`` seconds (median run
time) and fresh interpreters for the set-up time, both in reference
seconds calibrated against the host's speed as it is measured (see
``hostspeed.py``). ``--trace 1`` instead
alternates untraced runs with runs whose layer entry points are wrapped
(see ``layers.py``), reports per-layer self time and counts, and ends
with one audited run. Every run's outputs are checked; a failed check makes
the result incorrect and the exit code 1. The last line of standard
output is the JSON result. See ``README.md`` for the workloads, the
metrics and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh interpreters started per run to time set-up.
SETUP_PROBES = 5
#: Repeats a run makes at least, so their digests can be compared.
MIN_REPEATS = 2

#: End-to-end metrics: name -> (unit, better, bound). Times and memory
#: are host measurements, times in reference seconds; the other four are
#: simulated and repeat exactly for a given seed.
END_TO_END = {
    "run_s": ("s", "lower", 0.25),
    "requests_per_s": ("1/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "slo_attainment": ("fraction", "higher", 0.1),
    "sim_p99_s": ("s", "lower", 0.25),
    "cost_usd": ("USD", "lower", 0.05),
    "served_fraction": ("fraction", "higher", 0.1),
}

#: Per-layer metrics of the traced run: name -> (unit, better).
PER_LAYER = {
    "traces.gen_s": ("s", "lower"),
    "traces.gen_calls": ("count", "lower"),
    "traces.mix_s": ("s", "lower"),
    "traces.mix_calls": ("count", "lower"),
    "traces.requests": ("count", "lower"),
    "experiments.assemble_s": ("s", "lower"),
    "simulation.self_s": ("s", "lower"),
    "simulation.events": ("count", "lower"),
    "simulation.events_per_request": ("events/request", "lower"),
    "serverless.ingest_s": ("s", "lower"),
    "serverless.ingest_calls": ("count", "lower"),
    "serverless.route_s": ("s", "lower"),
    "serverless.route_calls": ("count", "lower"),
    "serverless.dispatch_s": ("s", "lower"),
    "serverless.dispatch_calls": ("count", "lower"),
    "serverless.load_s": ("s", "lower"),
    "serverless.load_calls": ("count", "lower"),
    "serverless.complete_s": ("s", "lower"),
    "serverless.complete_calls": ("count", "lower"),
    "core.be_mem_s": ("s", "lower"),
    "core.be_mem_calls": ("count", "lower"),
    "core.be_mem_scan_mean": ("batches", "lower"),
    "core.reorder_s": ("s", "lower"),
    "core.reorder_calls": ("count", "lower"),
    "core.distribute_s": ("s", "lower"),
    "core.distribute_calls": ("count", "lower"),
    "core.monitor_s": ("s", "lower"),
    "core.monitor_calls": ("count", "lower"),
    "gpu.submit_s": ("s", "lower"),
    "gpu.submit_calls": ("count", "lower"),
    "gpu.finish_s": ("s", "lower"),
    "gpu.finish_calls": ("count", "lower"),
    "metrics.record_s": ("s", "lower"),
    "metrics.record_calls": ("count", "lower"),
    "metrics.records": ("count", "higher"),
    "metrics.strict_p99_s": ("s", "lower"),
    "metrics.summarize_s": ("s", "lower"),
    "pipelines.hook_s": ("s", "lower"),
    "pipelines.hook_calls": ("count", "lower"),
    "pipelines.releases": ("count", "higher"),
    "pipelines.rebudgets": ("count", "lower"),
    "pipelines.retries": ("count", "lower"),
    "tenancy.admit_s": ("s", "lower"),
    "tenancy.admit_calls": ("count", "lower"),
    "tenancy.order_s": ("s", "lower"),
    "tenancy.order_calls": ("count", "lower"),
    "tenancy.rejections": ("count", "lower"),
    "tenancy.fairness_index": ("index", "higher"),
    "serverless.batches": ("count", "lower"),
    "serverless.batch_fill_mean": ("requests/batch", "higher"),
    "serverless.queue_delay_p99_s": ("s", "lower"),
    "serverless.cold_starts": ("count", "lower"),
    "serverless.resubmissions": ("count", "lower"),
    "core.reconfigurations": ("count", "lower"),
    "cluster.evictions": ("count", "lower"),
    "cluster.spot_notices": ("count", "lower"),
    "cluster.nodes_built": ("count", "lower"),
    "gpu.busy_fraction": ("fraction", "higher"),
    "bench.traced_run_s": ("s", "lower"),
    "bench.trace_overhead_fraction": ("fraction", "lower"),
    "bench.unattributed_s": ("s", "lower"),
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="import the package, build the workload's config and exit "
        "(what set-up time measures)",
    )
    return parser.parse_args(argv)


def stamp() -> dict:
    """Host and build identity printed with every result."""
    import numpy

    sha = "unknown"
    if (ROOT / ".git").exists():
        completed = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
        )
        if completed.returncode == 0:
            sha = completed.stdout.strip()
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "REPRO_JOBS": os.environ["REPRO_JOBS"],
    }


def setup_probe() -> int:
    from repro.experiments import run_scheme  # noqa: F401
    from repro.experiments.schemes import get_scheme
    from workloads import SCHEME  # builds every workload's config

    get_scheme(SCHEME)
    return 0


def time_setup(workload: str) -> tuple[list[float], list[float]]:
    """Reference seconds from starting a fresh interpreter to a built
    config, and the wall seconds of each paired baseline interpreter."""
    from hostspeed import interpreter_reference_seconds

    args = [str(Path(__file__)), "--setup-probe", "--workload", workload]
    pairs = [interpreter_reference_seconds(args) for _ in range(SETUP_PROBES)]
    return [setup for setup, _ in pairs], [baseline for _, baseline in pairs]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_same(outcomes, what: str) -> None:
    from measure import CheckFailed

    digests = {o.digest for o in outcomes}
    if len(digests) != 1:
        raise CheckFailed(f"{what}: {len(digests)} different simulated digests")


def audited_run(workload, seed: int, reference) -> None:
    """One run with the conservation auditor armed: zero violations, and
    the same simulated digest as the unaudited runs."""
    from measure import CheckFailed, evaluate, run_once

    _, specs, result = run_once(workload, seed, audit=True)
    outcome = evaluate(workload, specs, result)
    if outcome.audit_violations:
        raise CheckFailed(
            f"{workload.name}: {outcome.audit_violations} audit violations: "
            + "; ".join(v.describe() for v in result.audit.violations[:3])
        )
    check_same([reference, outcome], f"{workload.name} audited vs unaudited")


def measure_end_to_end(workload, seed: int, seconds: float, report) -> dict:
    from hostspeed import HostSpeed
    from measure import evaluate, run_once

    setup, baselines = time_setup(workload.name)
    run_times, loop_ms, repeat_walls, outcomes = [], [], [], []
    rss = None
    deadline = time.perf_counter() + seconds
    while True:
        began = time.perf_counter()
        speed = HostSpeed()
        run_s, specs, result = run_once(workload, seed, speed=speed)
        if rss is None:
            rss = peak_rss_mb()
        outcomes.append(evaluate(workload, specs, result))
        run_times.append(run_s)
        loop_ms.append(1e3 * statistics.fmean(speed.durations()))
        report["attempted"] += 1
        del specs, result
        now = time.perf_counter()
        repeat_walls.append(now - began)
        # Stop before a repeat that would overrun the measuring time.
        if (
            now + statistics.median(repeat_walls) > deadline
            and len(run_times) >= MIN_REPEATS
        ):
            break
    check_same(outcomes, f"{workload.name} repeats")

    outcome = outcomes[0]
    run_s = statistics.median(run_times)
    print(f"run_s samples: {len(run_times)}  " + " ".join(f"{t:.4f}" for t in run_times))
    print("calibration loop ms: " + " ".join(f"{t:.3f}" for t in loop_ms))
    print(f"setup_s samples: {len(setup)}  " + " ".join(f"{t:.4f}" for t in setup))
    print("baseline interpreter s: " + " ".join(f"{t:.4f}" for t in baselines))
    print(
        f"requests: generated {outcome.generated} served {outcome.served} "
        f"refused {outcome.refused} dropped {outcome.dropped} "
        f"unfinished {outcome.unfinished}  digest {outcome.digest[:16]}"
    )
    return {
        "run_s": run_s,
        "requests_per_s": outcome.generated / run_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
        **outcome.simulated,
    }


def measure_layers(workload, seed: int, seconds: float, report) -> dict:
    from layers import LayerProfiler, wrapped_targets
    from measure import CheckFailed, evaluate, run_once

    originals = {target: vars(target[0])[target[1]] for target in wrapped_targets()}
    plain_times, traced_times, outcomes, profilers = [], [], [], []
    deadline = time.perf_counter() + seconds
    # Alternate untraced and traced runs so host drift hits both alike.
    while not profilers or time.perf_counter() < deadline:
        profiler = LayerProfiler() if len(plain_times) > len(traced_times) else None
        run_s, specs, result = run_once(workload, seed, profiler=profiler)
        outcomes.append(evaluate(workload, specs, result))
        report["attempted"] += 1
        del specs, result
        if profiler is None:
            plain_times.append(run_s)
            continue
        restored = all(
            vars(owner)[name] is original
            for (owner, name), original in originals.items()
        )
        if profiler.installed() or not restored:
            raise CheckFailed("layer wrappers were not removed after the traced run")
        traced_times.append(run_s)
        profilers.append(profiler)
    check_same(outcomes, f"{workload.name} traced vs untraced")
    report["attempted"] += 1
    audited_run(workload, seed, outcomes[0])

    metrics = {}
    n = len(profilers)
    unattributed = []
    for profiler, wall in zip(profilers, traced_times):
        total_self = sum(profiler.self_s.values())
        if not math.isclose(total_self, profiler.top_level_s, rel_tol=1e-9, abs_tol=1e-9):
            raise CheckFailed(
                f"layer self times sum to {total_self} s but top-level wrapped "
                f"calls took {profiler.top_level_s} s"
            )
        unattributed.append(wall - profiler.top_level_s)
    for layer in profilers[0].layers:
        name = layer.time_metric
        metrics[name] = sum(p.self_s[name] for p in profilers) / n
        if layer.calls_metric is not None:
            metrics[layer.calls_metric] = profilers[0].calls[name]
    be_mem_calls = metrics["core.be_mem_calls"]
    scanned = profilers[0].sampled["core.be_mem_scanned"]
    metrics["core.be_mem_scan_mean"] = scanned / be_mem_calls if be_mem_calls else 0.0
    metrics.update(outcomes[0].counts)
    traced = statistics.median(traced_times)
    metrics["bench.traced_run_s"] = traced
    metrics["bench.trace_overhead_fraction"] = traced / statistics.median(plain_times) - 1.0
    metrics["bench.unattributed_s"] = sum(unattributed) / n

    print("untraced run_s: " + " ".join(f"{t:.4f}" for t in plain_times))
    print("traced run_s:   " + " ".join(f"{t:.4f}" for t in traced_times))
    print("self time share of the traced run:")
    timed = [layer.time_metric for layer in profilers[0].layers] + ["bench.unattributed_s"]
    for name in sorted(timed, key=lambda name: -metrics[name]):
        print(f"  {name:32s} {metrics[name]:9.4f} s  {100 * metrics[name] / traced:6.2f}%")
    return metrics


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}/repro", file=sys.stderr)
        return 2
    os.environ["REPRO_JOBS"] = "1"
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe()

    from measure import CheckFailed
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    print("stamp: " + json.dumps(stamp(), sort_keys=True))
    report = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        if args.trace:
            values = measure_layers(workload, args.seed, args.seconds, report)
            units = {name: spec[0] for name, spec in PER_LAYER.items()}
        else:
            values = measure_end_to_end(workload, args.seed, args.seconds, report)
            units = {name: spec[0] for name, spec in END_TO_END.items()}
        if set(values) != set(units):
            raise CheckFailed(f"metric set mismatch: {sorted(set(values) ^ set(units))}")
        for name, value in values.items():
            if not math.isfinite(value):
                raise CheckFailed(f"{name} is {value}")
    except CheckFailed as failure:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
        report.update(correct=False, failed=1, attempted=max(report["attempted"], 1))
        print(json.dumps(report))
        return 1
    for name in units:
        print(f"  {name:32s} {values[name]:.6g} {units[name]}")
    report["metrics"] = {
        name: {"value": values[name], "unit": units[name]} for name in units
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
