"""Pin: the spot-eviction path with long node queues stays bit-identical.

``tests/tenancy/test_default_path.py`` pins the default run, whose node
queues fill but whose nodes never die. This run covers what that pin
cannot: spot-only nodes on a low-availability market with a 5 s notice,
so two nodes are evicted with work still attached and seven batches are
resubmitted, while PROTEAN places strict batches against queues that
hold tens of best-effort batches (the ``BE_mem`` input of Algorithm 1).

The summary row, extras and span digest below were captured before the
scheduler's per-round ``BE_mem`` cache and ``RequestBatch.work`` cache
landed. A drift means an optimisation changed what the simulator
computes; find it, don't re-pin.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_scheme

PINNED_CONFIG = ExperimentConfig(
    duration=90.0,
    warmup=10.0,
    drain=60.0,
    n_nodes=3,
    seed=5,
    trace="twitter",
    strict_model="mobilenet",
    procurement="spot_only",
    spot_availability="low",
    spot_notice_seconds=5.0,
    tracing=True,
)

PINNED_ROW = {
    "scheme": "protean",
    "model": "mobilenet",
    "slo_%": 96.3,
    "strict_p50_ms": 54.4,
    "strict_p99_ms": 2097.2,
    "be_p99_ms": 8365.0,
    "thru_strict_rps_gpu": 38.02,
    "gpu_util_%": 47.4,
    "mem_util_%": 15.7,
    "cost_$": 0.0853,
    "savings_%": 70.0,
}

PINNED_EXTRAS = {
    "spot_nodes_built": 4,
    "on_demand_nodes_built": 0,
    "evictions": 2,
    "spot_notices": 3,
    "resubmissions": 7,
    "backlog_at_end": 0,
    "cold_starts": 190,
    "nodes_at_end": 2,
}

PINNED_SPAN_DIGEST = (
    "bd51035ba20ce389fe96398be48862fcd9361db6b8912e839549110a020a7c24"
)


def test_eviction_path_matches_pin():
    result = run_scheme("protean", PINNED_CONFIG)
    assert result.summary.row() == PINNED_ROW
    extras = dict(result.extras)
    assert extras == PINNED_EXTRAS
    assert extras["evictions"] > 0 and extras["resubmissions"] > 0
    assert result.detach().tracer.digest() == PINNED_SPAN_DIGEST
