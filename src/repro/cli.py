"""Command-line interface: run experiments and regenerate paper figures.

Usage::

    python -m repro list-figures
    python -m repro figure fig05 [--full]
    python -m repro run --scheme protean --model resnet50 --trace wiki
    python -m repro compare --model vgg19 --schemes protean infless_llama
    python -m repro trace fig5 --out trace.json
    python -m repro faults fig9 --plan plan.json
    python -m repro audit default
    python -m repro audit fig9 --fault-demo --schemes protean
    python -m repro plan wiki --target 0.99 --jobs 4
    python -m repro plan smoke --json plan.json
    python -m repro tenants noisy-neighbour --json
    python -m repro pipelines chain --json
    python -m repro hyperscale smoke --jobs 2 --json report.json
    python -m repro models
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_comparison, run_scheme
from repro.experiments.schemes import (
    COMPARISON_SCHEMES,
    available_schemes,
    canonical_name,
    scheme_names,
)
from repro.metrics.summary import format_table
from repro.parallel import cpu_jobs, resolve_jobs, using_jobs
from repro.workloads.registry import ALL_MODELS


def _add_jobs_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help="worker processes for run fan-out "
        "(default: $REPRO_JOBS, else the CPU count; 1 = serial)",
    )


def _cli_jobs(args: argparse.Namespace) -> int:
    """Effective job count for a CLI command (defaults to all cores)."""
    return resolve_jobs(args.jobs, default=cpu_jobs())


def _add_experiment_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="resnet50", help="strict model")
    parser.add_argument(
        "--trace", default="wiki", choices=["constant", "wiki", "twitter"]
    )
    parser.add_argument("--duration", type=float, default=120.0)
    parser.add_argument("--warmup", type=float, default=40.0)
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--load", type=float, default=0.85)
    parser.add_argument("--strict-fraction", type=float, default=0.5)
    parser.add_argument("--slo-multiplier", type=float, default=3.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--procurement",
        default="on_demand_only",
        choices=["on_demand_only", "hybrid", "spot_only"],
    )
    parser.add_argument(
        "--spot-availability",
        default="high",
        choices=["high", "moderate", "low"],
    )


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        strict_model=args.model,
        trace=args.trace,
        duration=args.duration,
        warmup=args.warmup,
        n_nodes=args.nodes,
        offered_load=args.load,
        strict_fraction=args.strict_fraction,
        slo_multiplier=args.slo_multiplier,
        seed=args.seed,
        procurement=args.procurement,
        spot_availability=args.spot_availability,
    )


def _cmd_models(_args: argparse.Namespace) -> int:
    rows = [
        {
            "name": m.name,
            "display": m.display_name,
            "domain": m.domain.value,
            "category": m.category.value,
            "batch": m.batch_size,
            "latency_ms": round(m.solo_latency_7g * 1000, 1),
            "memory_gb": m.memory_gb,
            "fbr": m.fbr,
        }
        for m in ALL_MODELS
    ]
    print(format_table(rows, title="Workload registry (22 models)"))
    return 0


def _cmd_list_figures(_args: argparse.Namespace) -> int:
    from repro.experiments.figures import ALL_FIGURES

    for figure_id, module in sorted(ALL_FIGURES.items()):
        doc = (module.run.__module__ or "").rsplit(".", 1)[-1]
        summary = (module.__doc__ or "").strip().splitlines()[0]
        print(f"{figure_id:7s} {doc:26s} {summary}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.figures import ALL_FIGURES

    module = ALL_FIGURES.get(args.figure_id)
    if module is None:
        print(
            f"unknown figure {args.figure_id!r}; "
            f"known: {', '.join(sorted(ALL_FIGURES))}",
            file=sys.stderr,
        )
        return 2
    with using_jobs(_cli_jobs(args)):
        result = module.run(quick=not args.full)
    print(result.table())
    return 0


def _cmd_reproduce_all(args: argparse.Namespace) -> int:
    from repro.experiments.suite import run_full_suite

    jobs = _cli_jobs(args)
    entries = run_full_suite(
        quick=not args.full,
        output_dir=args.output,
        only=tuple(args.only) if args.only else None,
        jobs=jobs,
        progress=lambda figure_id: print(f"... {figure_id}", flush=True),
        on_complete=lambda entry: print(
            f"    {entry.figure_id} done in {entry.seconds:.1f}s"
            + (f"  [{entry.error}]" if entry.error else ""),
            flush=True,
        ),
    )
    failures = [e for e in entries if e.error]
    print(
        f"regenerated {len(entries) - len(failures)}/{len(entries)} "
        f"artifacts into {args.output}/"
    )
    for entry in failures:
        print(f"  FAILED {entry.figure_id}: {entry.error}", file=sys.stderr)
    return 1 if failures else 0


#: ``trace`` experiment presets: config overrides recreating each paper
#: experiment's setup (durations applied separately via quick/full).
_TRACE_PRESETS: dict[str, dict] = {
    "default": {},
    "fig5": {"strict_model": "resnet50", "trace": "wiki"},
    "fig7": {"strict_model": "shufflenet_v2", "trace": "wiki"},
    "fig9": {
        "strict_model": "resnet50",
        "procurement": "hybrid",
        "spot_availability": "moderate",
    },
    "fig11": {"strict_model": "mobilenet", "trace": "twitter"},
    "fig13": {"strict_model": "gpt2", "trace": "wiki"},
    "fig15": {"strict_model": "resnet50", "slo_multiplier": 2.0},
}


def _preset_config(
    args: argparse.Namespace, **fields
) -> tuple[str, ExperimentConfig] | None:
    """Resolve a ``trace``/``faults``/``audit`` experiment preset.

    Applies ``--full``/``--duration``/``--warmup``/``--nodes``/``--seed``
    and ``fields`` on top of the preset and returns the normalised preset
    name with its config, or ``None`` (after reporting) when the preset
    is unknown.
    """
    experiment = args.experiment.lower().replace("fig0", "fig")
    overrides = _TRACE_PRESETS.get(experiment)
    if overrides is None:
        print(
            f"unknown experiment {args.experiment!r}; "
            f"known: {', '.join(sorted(_TRACE_PRESETS))}",
            file=sys.stderr,
        )
        return None
    duration, warmup = (240.0, 60.0) if args.full else (60.0, 20.0)
    if args.duration is not None:
        duration = args.duration
    if args.warmup is not None:
        warmup = args.warmup
    if args.nodes is not None:
        overrides = {**overrides, "n_nodes": args.nodes}
    config = ExperimentConfig(
        duration=duration,
        warmup=warmup,
        seed=args.seed,
        **fields,
        **overrides,
    )
    return experiment, config


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.observability.export import (
        text_summary,
        write_chrome_trace,
        write_span_jsonl,
    )

    resolved = _preset_config(args, tracing=True)
    if resolved is None:
        return 2
    _, config = resolved
    # Detach before exporting: the exporters run against the same
    # DetachedTrace surface the parallel layer ships between processes.
    result = run_scheme(args.scheme, config).detach()
    write_chrome_trace(result.tracer, args.out)
    print(f"wrote {args.out} (open in https://ui.perfetto.dev)")
    if args.jsonl:
        write_span_jsonl(result.tracer, args.jsonl)
        print(f"wrote {args.jsonl}")
    print(text_summary(result.tracer))
    if args.rollup:
        from repro.observability import format_rollup, rollup_spans

        print()
        print(format_rollup(rollup_spans(result.tracer.spans)))
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults import FaultPlan, check_recovery, demo_plan
    from repro.observability.export import write_chrome_trace

    resolved = _preset_config(args, tracing=True)
    if resolved is None:
        return 2
    _, config = resolved
    plan = (
        FaultPlan.from_json(args.plan)
        if args.plan
        else demo_plan(config.duration)
    )
    config = config.with_overrides(fault_plan=plan)
    result = run_scheme(args.scheme, config)
    sla = args.sla if args.sla is not None else config.provision_seconds + 0.5
    report = check_recovery(result.tracer.spans, sla_seconds=sla)
    print(format_table([result.summary.row()], title=f"{args.scheme} under faults"))
    for key, value in sorted(result.extras.items()):
        print(f"  {key}: {value}")
    print()
    print(report.describe())
    if args.out:
        write_chrome_trace(result.tracer, args.out)
        print(f"wrote {args.out} (open in https://ui.perfetto.dev)")
    return 0 if report.ok else 1


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.faults import FaultPlan, demo_plan

    resolved = _preset_config(args, audit=True)
    if resolved is None:
        return 2
    experiment, config = resolved
    plan = None
    if args.plan:
        plan = FaultPlan.from_json(args.plan)
    elif args.fault_demo:
        plan = demo_plan(config.duration)
    try:
        schemes = [
            canonical_name(name)
            for name in (args.schemes or available_schemes())
        ]
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    config = config.with_overrides(fault_plan=plan)
    results = run_comparison(schemes, config, jobs=_cli_jobs(args))
    rows = []
    violations = 0
    for name in schemes:
        report = results[name].audit
        rows.append(
            {
                "scheme": name,
                "ok": "yes" if report.ok else "NO",
                "violations": len(report.violations),
                "admitted": report.admitted,
                "completed": report.completed,
                "residual": report.residual,
                "sweeps": report.sweeps,
            }
        )
        violations += len(report.violations)
    plan_note = " under fault plan" if plan else ""
    print(format_table(rows, title=f"conservation audit ({experiment}{plan_note})"))
    for name in schemes:
        report = results[name].audit
        if not report.ok:
            print(f"\n{name}:")
            print(report.describe())
    if violations:
        print(f"\nAUDIT FAILED: {violations} violation(s)")
        return 1
    print("\naudit passed: zero violations across "
          f"{len(schemes)} scheme(s)")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    import dataclasses
    import json
    from pathlib import Path

    from repro.capacity import (
        DEFAULT_MARGIN,
        GRID_PRESETS,
        PLAN_PRESETS,
        CandidateGrid,
        plan,
        resolve_workload,
    )

    # Workload: a preset name, or a path to a WorkloadSpec JSON file.
    try:
        if args.workload.lower().strip() in PLAN_PRESETS:
            workload = resolve_workload(args.workload)
        elif Path(args.workload).is_file():
            workload = resolve_workload(
                json.loads(Path(args.workload).read_text())
            )
        else:
            print(
                f"unknown workload {args.workload!r}: not a preset "
                f"({', '.join(sorted(PLAN_PRESETS))}) or a JSON file",
                file=sys.stderr,
            )
            return 2
        if args.seed is not None:
            workload = dataclasses.replace(workload, seed=args.seed)

        # Grid: a JSON file, or inline dimension flags on the default.
        inline = {
            key: tuple(value)
            for key, value in (
                ("n_nodes", args.nodes),
                ("procurement", args.procurement),
                ("schemes", args.schemes),
            )
            if value
        }
        if args.grid is not None:
            if inline:
                print(
                    "--grid is exclusive with --nodes/--procurement/--schemes",
                    file=sys.stderr,
                )
                return 2
            if args.grid.lower().strip() in GRID_PRESETS:
                grid = GRID_PRESETS[args.grid.lower().strip()]
            elif Path(args.grid).is_file():
                grid = CandidateGrid.from_dict(
                    json.loads(Path(args.grid).read_text())
                )
            else:
                print(
                    f"unknown grid {args.grid!r}: not a preset "
                    f"({', '.join(sorted(GRID_PRESETS))}) or a JSON file",
                    file=sys.stderr,
                )
                return 2
        else:
            grid = CandidateGrid(**inline)

        report = plan(
            workload,
            grid=grid,
            target=args.target,
            margin=args.margin if args.margin is not None else DEFAULT_MARGIN,
            jobs=_cli_jobs(args),
            exhaustive=args.exhaustive,
            progress=lambda key, seconds: print(
                f"... {key} ({seconds:.1f}s)", flush=True
            ),
        )
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(report.describe())
    stats = report.cache_stats
    if stats.get("hits", 0) or stats.get("misses", 0):
        print(
            f"\nsimulation cache: {stats['hits']} hit(s), "
            f"{stats['misses']} miss(es), {stats['entries']} entrie(s) "
            f"(hit rate {stats['hit_rate'] * 100:.1f}%)"
        )
    for group, solution in report.extra.get("solver", {}).items():
        if solution is None:
            print(
                f"solver [{group}]: no fleet within the lattice clears "
                "the target conservatively"
            )
        else:
            print(
                f"solver [{group}]: proposes {solution['fleet_key']} at "
                f"${solution['est_hourly_cost']:.2f}/h "
                f"({solution['explored']} fleets explored)"
            )
    if args.json:
        Path(args.json).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n"
        )
        print(f"\nwrote {args.json}")
    return 0 if report.recommended is not None else 1


def _cmd_scenario(args: argparse.Namespace) -> int:
    import json

    from repro import scenarios

    try:
        result = scenarios.run_scenario(
            args.command,
            args.scenario,
            scheme=canonical_name(args.scheme),
            seed=args.seed,
            jobs=_cli_jobs(args),
        )
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json is not None:
        payload = json.dumps(result.to_dict(), indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"wrote {args.json}")
    else:
        print(result.describe())
    return 0


def _cmd_hyperscale(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.errors import HyperscaleError
    from repro.hyperscale import HyperscaleConfig, run_hyperscale

    overrides = {}
    if args.nodes is not None:
        overrides["n_nodes"] = args.nodes
    if args.rate is not None:
        overrides["rate"] = args.rate
    if args.duration is not None:
        overrides["duration"] = args.duration
    if args.epoch_ticks is not None:
        overrides["epoch_ticks"] = args.epoch_ticks
    if args.no_audit:
        overrides["audit"] = False
    overrides["seed"] = args.seed
    preset = HyperscaleConfig.smoke if args.preset == "smoke" else HyperscaleConfig.full
    try:
        config = preset(**overrides)
        jobs = resolve_jobs(args.jobs, default=1)
        started = time.perf_counter()
        report = run_hyperscale(config, jobs=jobs)
    except (ConfigurationError, HyperscaleError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    row = {
        "nodes": report.n_nodes,
        "ticks": report.node_ticks,
        "arrivals": report.total_arrivals,
        "served": report.total_served,
        "slo": round(report.slo_attainment, 4),
        "p50_s": round(report.latency_p50, 3),
        "p99_s": round(report.latency_p99, 3),
        "backlog": report.final_backlog,
    }
    print(format_table([row], title=f"hyperscale {args.preset} (jobs={jobs})"))
    print(f"  identity_digest: {report.identity_digest}")
    # Wall time goes to stdout only — the JSON stays deterministic so CI
    # can diff serial and sharded runs byte for byte.
    print(
        f"  wall: {elapsed:.1f}s "
        f"({report.total_arrivals / max(elapsed, 1e-9):,.0f} arrivals/s)"
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"  wrote {args.json}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    result = run_scheme(args.scheme, config)
    print(format_table([result.summary.row()], title=f"{args.scheme}"))
    for key, value in sorted(result.extras.items()):
        print(f"  {key}: {value}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    results = run_comparison(args.schemes, config, jobs=_cli_jobs(args))
    rows = [results[name].summary.row() for name in args.schemes]
    print(format_table(rows, title=f"{args.model} on {args.trace} trace"))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily: the serving stack pulls in asyncio wiring that no
    # other subcommand needs.
    import json as _json

    from repro.serving import replay, serve, serve_preset

    try:
        config = serve_preset(args.replay if args.replay else args.experiment)
        overrides: dict = {"speedup": args.speedup}
        if args.scheme:
            overrides["scheme"] = args.scheme
        if args.port is not None:
            overrides["port"] = args.port
        if args.host:
            overrides["host"] = args.host
        if args.executor:
            overrides["executor"] = args.executor
        config = config.with_overrides(**overrides)
        if args.seed is not None:
            config = config.with_overrides(
                experiment=config.experiment.with_overrides(seed=args.seed)
            )
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.replay:
        attempts = max(1, args.retries)
        for attempt in range(1, attempts + 1):
            report = replay(config=config)
            if report.agrees or attempt == attempts:
                break
            # Live runs share the host with everything else; one noisy
            # attempt is not a verdict, so burn a retry before failing.
            print(f"attempt {attempt}/{attempts} disagreed; retrying")
        if args.json:
            with open(args.json, "w") as handle:
                _json.dump(report.to_dict(), handle, indent=2)
            print(f"wrote {args.json}")
        print("\n".join(report.summary_lines()))
        return 0 if report.agrees else 1
    print(
        f"serving {args.experiment!r} (scheme={config.scheme}) on "
        f"http://{config.host}:{config.port} — GET /healthz, GET /metrics, "
        "POST /v1/requests; Ctrl-C to stop"
    )
    serve(config=config)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="PROTEAN reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the 22 workload profiles").set_defaults(
        func=_cmd_models
    )
    sub.add_parser(
        "list-figures", help="list reproducible paper figures/tables"
    ).set_defaults(func=_cmd_list_figures)

    figure = sub.add_parser("figure", help="regenerate one paper figure")
    figure.add_argument("figure_id", help="e.g. fig05, tab04")
    figure.add_argument(
        "--full", action="store_true", help="paper-breadth (slow) mode"
    )
    _add_jobs_arg(figure)
    figure.set_defaults(func=_cmd_figure)

    everything = sub.add_parser(
        "reproduce-all", help="regenerate every paper table and figure"
    )
    everything.add_argument("--full", action="store_true")
    everything.add_argument("--output", default="results")
    everything.add_argument(
        "--only", nargs="*", default=None, help="restrict to these figure ids"
    )
    _add_jobs_arg(everything)
    everything.set_defaults(func=_cmd_reproduce_all)

    from repro.scenarios import scenario_families

    for command, family in scenario_families().items():
        scenario = sub.add_parser(command, help=family.help)
        scenario.add_argument("scenario", choices=list(family.scenarios))
        scenario.add_argument(
            "--scheme", default="protean", choices=sorted(scheme_names())
        )
        scenario.add_argument("--seed", type=int, default=0)
        scenario.add_argument(
            "--json",
            nargs="?",
            const="-",
            default=None,
            metavar="PATH",
            help="emit JSON (to PATH, or stdout when no path given)",
        )
        _add_jobs_arg(scenario)
        scenario.set_defaults(func=_cmd_scenario)

    hyper = sub.add_parser(
        "hyperscale",
        help="run the vectorised hyperscale engine (1000-node/100k-rps "
        "scale); report is bit-identical for any --jobs value",
    )
    hyper.add_argument(
        "preset",
        nargs="?",
        default="smoke",
        choices=["smoke", "full"],
        help="smoke: 32 nodes / 10 min (CI); full: 1000 nodes / 24 h",
    )
    hyper.add_argument("--nodes", type=int, default=None)
    hyper.add_argument("--rate", type=float, default=None, help="cluster rps")
    hyper.add_argument(
        "--duration", type=float, default=None, help="simulated seconds"
    )
    hyper.add_argument(
        "--epoch-ticks",
        type=int,
        default=None,
        help="ticks per epoch (the shard barrier interval)",
    )
    hyper.add_argument("--seed", type=int, default=0)
    hyper.add_argument(
        "--no-audit",
        action="store_true",
        help="skip the exact integer conservation checks",
    )
    hyper.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the deterministic report JSON here (no wall time; "
        "serial and sharded runs produce identical files)",
    )
    _add_jobs_arg(hyper)
    hyper.set_defaults(func=_cmd_hyperscale)

    run = sub.add_parser("run", help="run one scheme on one workload")
    run.add_argument(
        "--scheme", default="protean", choices=sorted(scheme_names())
    )
    _add_experiment_args(run)
    run.set_defaults(func=_cmd_run)

    compare = sub.add_parser("compare", help="run several schemes")
    compare.add_argument(
        "--schemes", nargs="+", default=list(COMPARISON_SCHEMES)
    )
    _add_jobs_arg(compare)
    _add_experiment_args(compare)
    compare.set_defaults(func=_cmd_compare)

    trace = sub.add_parser(
        "trace", help="run a traced experiment and export a Perfetto trace"
    )
    trace.add_argument(
        "experiment",
        help=f"preset: {', '.join(sorted(_TRACE_PRESETS))} (fig05 == fig5)",
    )
    trace.add_argument("--out", default="trace.json", help="Chrome trace path")
    trace.add_argument(
        "--jsonl", default=None, help="also write a JSONL span log here"
    )
    trace.add_argument(
        "--scheme", default="protean", choices=sorted(scheme_names())
    )
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--full", action="store_true", help="paper-breadth (slow) mode"
    )
    trace.add_argument("--duration", type=float, default=None)
    trace.add_argument("--warmup", type=float, default=None)
    trace.add_argument("--nodes", type=int, default=None)
    trace.add_argument(
        "--rollup",
        action="store_true",
        help="print a flamegraph-style per-track/name self-time rollup",
    )
    trace.set_defaults(func=_cmd_trace)

    faults = sub.add_parser(
        "faults",
        help="run an experiment under an injected fault plan and check "
        "that every capacity loss recovers within the provisioning SLA",
    )
    faults.add_argument(
        "experiment",
        help=f"preset: {', '.join(sorted(_TRACE_PRESETS))} (fig05 == fig5)",
    )
    faults.add_argument(
        "--plan",
        default=None,
        help="fault plan JSON path (default: built-in demo plan)",
    )
    faults.add_argument(
        "--scheme", default="protean", choices=sorted(scheme_names())
    )
    faults.add_argument("--seed", type=int, default=0)
    faults.add_argument(
        "--full", action="store_true", help="paper-breadth (slow) mode"
    )
    faults.add_argument("--duration", type=float, default=None)
    faults.add_argument("--warmup", type=float, default=None)
    faults.add_argument("--nodes", type=int, default=None)
    faults.add_argument(
        "--sla",
        type=float,
        default=None,
        help="recovery SLA seconds (default: provision_seconds + 0.5)",
    )
    faults.add_argument(
        "--out", default=None, help="also export a Chrome trace here"
    )
    faults.set_defaults(func=_cmd_faults)

    audit = sub.add_parser(
        "audit",
        help="run the conservation audit (request/memory/geometry/clock/"
        "spot invariants) across schemes; non-zero exit on any violation",
    )
    audit.add_argument(
        "experiment",
        nargs="?",
        default="default",
        help=f"preset: {', '.join(sorted(_TRACE_PRESETS))} (fig05 == fig5)",
    )
    audit.add_argument(
        "--schemes",
        nargs="+",
        default=None,
        help="schemes to audit (default: every registered scheme)",
    )
    audit.add_argument(
        "--plan",
        default=None,
        help="audit under this fault plan JSON",
    )
    audit.add_argument(
        "--fault-demo",
        action="store_true",
        help="audit under the built-in demo fault plan",
    )
    audit.add_argument("--seed", type=int, default=0)
    audit.add_argument(
        "--full", action="store_true", help="paper-breadth (slow) mode"
    )
    audit.add_argument("--duration", type=float, default=None)
    audit.add_argument("--warmup", type=float, default=None)
    audit.add_argument("--nodes", type=int, default=None)
    _add_jobs_arg(audit)
    audit.set_defaults(func=_cmd_audit)

    plan = sub.add_parser(
        "plan",
        help="what-if capacity planner: cheapest cluster configuration "
        "meeting an SLO attainment target (analytic pre-screen, then "
        "simulation of the survivors); non-zero exit when nothing "
        "qualifies",
    )
    plan.add_argument(
        "workload",
        help="workload preset (wiki, twitter, constant, smoke) or a "
        "WorkloadSpec JSON file",
    )
    plan.add_argument(
        "--target",
        type=float,
        default=0.99,
        help="strict-SLO attainment goal in (0, 1] (default 0.99)",
    )
    plan.add_argument(
        "--margin",
        type=float,
        default=None,
        help="admissibility margin of the analytic pre-screen "
        "(default 0.2; larger = prune less, safer)",
    )
    plan.add_argument(
        "--grid",
        default=None,
        help="grid preset name (e.g. hetero-smoke) or CandidateGrid "
        "JSON file to search",
    )
    plan.add_argument(
        "--nodes",
        nargs="+",
        type=int,
        default=None,
        help="cluster sizes to search (default 2 4 6 8 12)",
    )
    plan.add_argument(
        "--procurement",
        nargs="+",
        default=None,
        choices=["on_demand_only", "hybrid", "spot_only"],
        help="procurement modes to search (default: all three)",
    )
    plan.add_argument(
        "--schemes",
        nargs="+",
        default=None,
        help="schemes to search (default: protean)",
    )
    plan.add_argument(
        "--seed", type=int, default=None, help="override the workload seed"
    )
    plan.add_argument(
        "--exhaustive",
        action="store_true",
        help="simulate pruned candidates too (audits the pre-screen)",
    )
    plan.add_argument(
        "--json", default=None, help="also write the versioned report here"
    )
    _add_jobs_arg(plan)
    plan.set_defaults(func=_cmd_plan)

    serve = sub.add_parser(
        "serve",
        help="live serving mode: the platform on a wall clock behind an "
        "HTTP gateway, or --replay for a sim-vs-live cross-check",
    )
    serve.add_argument(
        "experiment",
        nargs="?",
        default="smoke",
        help="serve preset name (see repro.serving.SERVE_PRESETS)",
    )
    serve.add_argument(
        "--replay",
        metavar="TRACE",
        help="replay this preset's trace instead of serving HTTP, and "
        "emit the sim-vs-live agreement report (exit 1 on disagreement)",
    )
    serve.add_argument(
        "--speedup",
        type=float,
        default=1.0,
        help="trace seconds per wall second (replay accelerator)",
    )
    serve.add_argument("--port", type=int, default=None, help="gateway port")
    serve.add_argument("--host", default=None, help="gateway bind address")
    serve.add_argument("--scheme", default=None, help="scheme registry name")
    serve.add_argument(
        "--executor", default=None, help="executor registry name"
    )
    serve.add_argument(
        "--seed", type=int, default=None, help="override the preset's seed"
    )
    serve.add_argument(
        "--json", default=None, help="write the replay report JSON here"
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=1,
        help="total replay attempts before a disagreement is final "
        "(smoke-test guard against wall-clock scheduling noise)",
    )
    serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
