"""Benchmark the vectorised hyperscale engine at full scale.

Recorded in ``BENCH_hyperscale.json``: the 1000-node / 100k-rps / 24-h
:class:`~repro.hyperscale.HyperscaleConfig` run with auditing on, which
must finish inside the 10-minute budget.

As with the other benches, the budget is conservative; the recorded
values are the real signal across commits.
"""

import json
import pathlib
import time

from repro.hyperscale import HyperscaleConfig, run_hyperscale

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_hyperscale.json"

#: Wall-clock budget (seconds) for the full-scale engine run.
MAX_FULL_SCALE_SECONDS = 600.0


def _bench_engine_full_scale():
    config = HyperscaleConfig.full()
    start = time.perf_counter()
    report = run_hyperscale(config, jobs=1)
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_hyperscale_throughput():
    report, engine_s = _bench_engine_full_scale()
    payload = {
        "benchmark": "hyperscale",
        "full_scale_nodes": report.n_nodes,
        "full_scale_arrivals": report.total_arrivals,
        "full_scale_seconds": round(engine_s, 2),
        "full_scale_arrivals_per_sec": round(report.total_arrivals / engine_s),
        "full_scale_slo_attainment": round(report.slo_attainment, 4),
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n{json.dumps(payload, indent=2)}\n[saved to {BENCH_PATH}]")

    assert engine_s < MAX_FULL_SCALE_SECONDS
