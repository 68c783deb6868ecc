"""Experiment harness reproducing the paper's evaluation (Section 6).

Typical use::

    from repro.experiments import ExperimentConfig, run_scheme, run_comparison

    config = ExperimentConfig(strict_model="vgg19", duration=120.0)
    results = run_comparison(["protean", "infless_llama"], config)
    for name, result in results.items():
        print(name, result.summary.slo_percent)

Per-figure experiment definitions live in ``repro.experiments.figures``;
the ``benchmarks/`` directory exposes one pytest-benchmark target per
paper table/figure on top of them.
"""

from repro.experiments.ablations import (
    ABLATION_VARIANTS,
    make_variant,
    run_ablation,
    run_ablation_suite,
)
from repro.experiments.config import CONFIG_SCHEMA_VERSION, ExperimentConfig
from repro.experiments.runner import (
    ExperimentResult,
    build_oracle_plan,
    build_specs,
    run_comparison,
    run_scheme,
)
from repro.experiments.schemes import (
    COMPARISON_SCHEMES,
    available_schemes,
    canonical_name,
    get_scheme,
    register_scheme,
    scheme_names,
)

__all__ = [
    "ABLATION_VARIANTS",
    "COMPARISON_SCHEMES",
    "CONFIG_SCHEMA_VERSION",
    "ExperimentConfig",
    "ExperimentResult",
    "available_schemes",
    "build_oracle_plan",
    "build_specs",
    "canonical_name",
    "get_scheme",
    "make_variant",
    "register_scheme",
    "run_ablation",
    "run_ablation_suite",
    "run_comparison",
    "run_scheme",
    "scheme_names",
]
