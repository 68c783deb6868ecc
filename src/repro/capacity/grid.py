"""Declarative candidate grids of cluster configurations.

A :class:`CandidateGrid` names the supply-side dimensions the planner
searches: fleets (homogeneous sizes, or mixed ``{gpu_class: count}``
combinations when ``gpu_classes`` names several classes), procurement
modes, schemes (resolved through the scheme registry), and optional
extra :class:`ExperimentConfig` knobs (reconfigurator/autoscaler settings
such as ``rotation_period`` or ``prewarm_containers``).
:meth:`CandidateGrid.candidates` crosses the dimensions with a
:class:`~repro.capacity.spec.WorkloadSpec` into concrete
:class:`Candidate` entries.

Candidate configs are built *lazily*: a heterogeneous grid can hold tens
of thousands of candidates, and the vectorised screen never needs a full
``ExperimentConfig`` per candidate — only the survivors that reach
simulation pay for config construction (and for mixed fleets, their
per-class :meth:`Candidate.subruns` decomposition).

Unknown dimension or knob names raise
:class:`~repro.errors.ConfigurationError`, consistent with the
``ExperimentConfig.from_dict`` normalisation.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Mapping

from repro.capacity.fleet import (
    Fleet,
    fleet_key,
    fleet_nodes,
    gpu_class,
    split_streams,
    stream_stats,
)
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.schemes import canonical_name
from repro.capacity.spec import WorkloadSpec
from repro.wire import parse_payload

#: Default cluster sizes searched when the caller does not narrow them.
DEFAULT_NODE_COUNTS = (2, 4, 6, 8, 12)

#: Procurement modes understood by the runner.
PROCUREMENT_MODES = ("on_demand_only", "hybrid", "spot_only")

#: The default (homogeneous, paper-testbed) GPU class.
DEFAULT_GPU_CLASSES = ("a100",)

#: ExperimentConfig fields the grid/spec own; everything else that is a
#: config field may be swept as a knob.
_RESERVED_FIELDS = frozenset(
    {
        "n_nodes",
        "procurement",
        "strict_model",
        "trace",
        "rate",
        "offered_load",
        "duration",
        "warmup",
        "drain",
        "scale",
        "slo_multiplier",
        "strict_fraction",
        "rotation_period",
        "spot_availability",
        "seed",
        "fault_plan",
        "audit",
        "audit_interval",
        "audit_fail_fast",
        "tracing",
        "telemetry_interval",
        "batched_arrivals",
        # The hardware axis belongs to the fleet dimension, not the knob
        # sweep: a per-knob gpu_device would bypass the per-class pricing
        # and stream-split machinery.
        "gpu_device",
    }
)


def sweepable_knobs() -> tuple[str, ...]:
    """Config fields a grid may sweep (sorted)."""
    return tuple(
        sorted(
            spec.name
            for spec in fields(ExperimentConfig)
            if spec.name not in _RESERVED_FIELDS
        )
    )


@dataclass(frozen=True)
class SubRun:
    """One per-class slice of a mixed-fleet candidate's simulation.

    A mixed fleet is validated as independent homogeneous sub-runs — one
    per GPU class — each carrying its share of the strict and best-effort
    streams (see :func:`repro.capacity.fleet.split_streams`). The
    planner merges their evidence back into one per-candidate verdict.
    """

    gpu_class: str
    count: int
    #: Fraction of the strict request stream routed to this class.
    strict_share: float
    #: Fraction of the best-effort request stream routed to this class.
    be_share: float
    config: ExperimentConfig


@dataclass(frozen=True)
class Candidate:
    """One concrete cluster configuration under evaluation."""

    key: str
    scheme: str
    procurement: str
    knobs: tuple[tuple[str, object], ...]
    fleet: Fleet
    workload: WorkloadSpec

    @property
    def n_nodes(self) -> int:
        """Total GPU count across the fleet's classes."""
        return fleet_nodes(self.fleet)

    @property
    def homogeneous(self) -> bool:
        """Whether the fleet is a single GPU class."""
        return len(self.fleet) == 1

    @cached_property
    def config(self) -> ExperimentConfig:
        """The full config of a homogeneous candidate (built lazily).

        Mixed fleets have no single config — they decompose into
        per-class :meth:`subruns` instead.
        """
        if not self.homogeneous:
            raise ConfigurationError(
                f"candidate {self.key} is a mixed fleet and has no single "
                "config; simulate its subruns() instead"
            )
        (class_name, count), = self.fleet
        overrides = dict(self.knobs)
        if class_name != "a100":
            overrides["gpu_device"] = class_name
        return self.workload.to_config(
            n_nodes=count,
            procurement=self.procurement,
            **overrides,
        )

    def describe(self) -> dict:
        """JSON-safe identity of the candidate (no full config)."""
        return {
            "key": self.key,
            "scheme": self.scheme,
            "n_nodes": self.n_nodes,
            "procurement": self.procurement,
            "knobs": dict(self.knobs),
            "fleet": dict(self.fleet),
        }

    @cached_property
    def _subruns(self) -> tuple[SubRun, ...]:
        if self.homogeneous:
            (class_name, count), = self.fleet
            return (
                SubRun(
                    gpu_class=class_name,
                    count=count,
                    strict_share=1.0,
                    be_share=1.0,
                    config=self.config,
                ),
            )
        base = self.workload.to_config(
            n_nodes=1, procurement=self.procurement, **dict(self.knobs)
        )
        stats = stream_stats(base)
        strict_shares, be_shares = split_streams(
            self.fleet,
            strict_latency=stats.strict_latency,
            slo=stats.slo,
            strict_work_rate=stats.strict_work_rate,
        )
        rate = self.workload.resolved_rate()
        strict_rate = rate * self.workload.strict_fraction
        be_rate = rate - strict_rate
        subruns = []
        for index, (class_name, count) in enumerate(self.fleet):
            class_strict = strict_shares[index] * strict_rate
            class_rate = class_strict + be_shares[index] * be_rate
            strict_fraction = (
                class_strict / class_rate if class_rate > 0.0 else 0.0
            )
            config = dataclasses.replace(
                base,
                n_nodes=count,
                rate=class_rate,
                strict_fraction=strict_fraction,
                gpu_device=class_name,
            )
            subruns.append(
                SubRun(
                    gpu_class=class_name,
                    count=count,
                    strict_share=strict_shares[index],
                    be_share=be_shares[index],
                    config=config,
                )
            )
        return tuple(subruns)

    def subruns(self) -> tuple[SubRun, ...]:
        """Per-class simulation slices (one entry for homogeneous fleets).

        A homogeneous candidate's single subrun carries ``self.config``
        unchanged, so its run key, span log, and cache digest are
        identical to the pre-heterogeneity planner's.
        """
        return self._subruns


@dataclass(frozen=True)
class CandidateGrid:
    """The supply-side search space of a planning run."""

    n_nodes: tuple[int, ...] = DEFAULT_NODE_COUNTS
    procurement: tuple[str, ...] = PROCUREMENT_MODES
    schemes: tuple[str, ...] = ("protean",)
    #: Extra config dimensions: ``(("prewarm_containers", (1, 3)), ...)``.
    #: A mapping of name → values is accepted and normalised.
    knobs: tuple[tuple[str, tuple], ...] = ()
    #: GPU classes in the fleet lattice. The default single ``a100``
    #: keeps the legacy homogeneous grid (and its ``n{count}`` keys).
    gpu_classes: tuple[str, ...] = DEFAULT_GPU_CLASSES
    #: Per-class node counts crossed into fleets when several classes are
    #: named (0 allowed — a class may be absent from a fleet). Defaults
    #: to ``(0, *n_nodes)``.
    class_counts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_nodes", tuple(self.n_nodes))
        object.__setattr__(self, "procurement", tuple(self.procurement))
        if not self.n_nodes:
            raise ConfigurationError("candidate grid needs at least one n_nodes")
        for n in self.n_nodes:
            if not isinstance(n, int) or n < 1:
                raise ConfigurationError(
                    f"n_nodes entries must be positive integers, got {n!r}"
                )
        if len(set(self.n_nodes)) != len(self.n_nodes):
            raise ConfigurationError("duplicate n_nodes entries in grid")
        if not self.procurement:
            raise ConfigurationError(
                "candidate grid needs at least one procurement mode"
            )
        for mode in self.procurement:
            if mode not in PROCUREMENT_MODES:
                raise ConfigurationError(
                    f"unknown procurement mode {mode!r}; "
                    f"known: {', '.join(PROCUREMENT_MODES)}"
                )
        if not self.schemes:
            raise ConfigurationError("candidate grid needs at least one scheme")
        # Resolve through the registry now: unknown schemes fail fast with
        # the registry's ConfigurationError, and aliases canonicalise so
        # grid keys are stable.
        object.__setattr__(
            self,
            "schemes",
            tuple(canonical_name(name) for name in self.schemes),
        )
        if len(set(self.schemes)) != len(self.schemes):
            raise ConfigurationError("duplicate schemes in grid")
        if "oracle" in self.schemes:
            raise ConfigurationError(
                "the oracle scheme is not plannable: it needs a per-run "
                "geometry plan and models no deployable policy"
            )
        knobs = self.knobs
        if isinstance(knobs, Mapping):
            knobs = tuple(sorted(knobs.items()))
        normalised = []
        allowed = set(sweepable_knobs())
        for name, values in knobs:
            if name not in allowed:
                raise ConfigurationError(
                    f"unknown planner knob {name!r}; sweepable: "
                    f"{', '.join(sweepable_knobs())}"
                )
            values = tuple(values)
            if not values:
                raise ConfigurationError(f"knob {name!r} has no values")
            normalised.append((name, values))
        object.__setattr__(self, "knobs", tuple(normalised))

        if not self.gpu_classes:
            raise ConfigurationError("candidate grid needs at least one GPU class")
        # Canonicalise (and therefore sort) class names so fleet tuples
        # and candidate keys are deterministic.
        classes = tuple(
            sorted(gpu_class(name).name for name in self.gpu_classes)
        )
        if len(set(classes)) != len(classes):
            raise ConfigurationError("duplicate GPU classes in grid")
        object.__setattr__(self, "gpu_classes", classes)
        counts = tuple(self.class_counts)
        for count in counts:
            if not isinstance(count, int) or count < 0:
                raise ConfigurationError(
                    f"class_counts entries must be non-negative integers, "
                    f"got {count!r}"
                )
        counts = tuple(sorted(set(counts)))
        if self.heterogeneous and not counts:
            counts = tuple(sorted({0, *self.n_nodes}))
        if not self.heterogeneous and counts:
            raise ConfigurationError(
                "class_counts applies only to multi-class grids; "
                "use n_nodes for a single GPU class"
            )
        object.__setattr__(self, "class_counts", counts)

    @property
    def heterogeneous(self) -> bool:
        """Whether the grid searches mixed fleets."""
        return len(self.gpu_classes) > 1

    def fleets(self) -> tuple[Fleet, ...]:
        """The fleet axis, in deterministic enumeration order."""
        if not self.heterogeneous:
            (class_name,) = self.gpu_classes
            return tuple(((class_name, n),) for n in self.n_nodes)
        entries = []
        for combo in itertools.product(
            self.class_counts, repeat=len(self.gpu_classes)
        ):
            if sum(combo) == 0:
                continue
            entries.append(
                tuple(
                    (name, count)
                    for name, count in zip(self.gpu_classes, combo)
                    if count > 0
                )
            )
        return tuple(entries)

    def __len__(self) -> int:
        if self.heterogeneous:
            total = len(self.class_counts) ** len(self.gpu_classes)
            if 0 in self.class_counts:
                total -= 1  # the empty fleet is not a candidate
        else:
            total = len(self.n_nodes)
        total *= len(self.procurement) * len(self.schemes)
        for _name, values in self.knobs:
            total *= len(values)
        return total

    def candidates(self, workload: WorkloadSpec) -> tuple[Candidate, ...]:
        """Cross the grid with ``workload`` into concrete candidates.

        Deterministic order: scheme → procurement → fleet → knob
        combinations, matching declaration order — candidate keys double
        as stable run keys for the parallel work-list. Homogeneous a100
        grids keep the legacy ``scheme/procurement/n4`` key format;
        fleet grids use ``scheme/procurement/a100:2+t4:4``.
        """
        knob_names = [name for name, _values in self.knobs]
        knob_spaces = [values for _name, values in self.knobs]
        legacy_keys = self.gpu_classes == DEFAULT_GPU_CLASSES
        entries = []
        for scheme in self.schemes:
            for procurement in self.procurement:
                for fleet in self.fleets():
                    if legacy_keys:
                        stem = f"{scheme}/{procurement}/n{fleet_nodes(fleet)}"
                    else:
                        stem = f"{scheme}/{procurement}/{fleet_key(fleet)}"
                    for combo in itertools.product(*knob_spaces):
                        knobs = tuple(zip(knob_names, combo))
                        key = stem + "".join(
                            f"/{k}={v}" for k, v in knobs
                        )
                        entries.append(
                            Candidate(
                                key=key,
                                scheme=scheme,
                                procurement=procurement,
                                knobs=knobs,
                                fleet=fleet,
                                workload=workload,
                            )
                        )
        return tuple(entries)

    # ------------------------------------------------------------------
    # Serialisation (grid files for the CLI)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe representation; round-trips via :meth:`from_dict`."""
        payload = {
            "n_nodes": list(self.n_nodes),
            "procurement": list(self.procurement),
            "schemes": list(self.schemes),
            "knobs": {name: list(values) for name, values in self.knobs},
        }
        if self.gpu_classes != DEFAULT_GPU_CLASSES:
            payload["gpu_classes"] = list(self.gpu_classes)
            payload["class_counts"] = list(self.class_counts)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "CandidateGrid":
        """Parse a :meth:`to_dict` payload, rejecting unknown keys."""
        data = parse_payload(cls, payload, "grid")
        for field_name in ("n_nodes", "procurement", "schemes",
                           "gpu_classes", "class_counts"):
            if field_name in data:
                data[field_name] = tuple(data[field_name])
        if "knobs" in data:
            data["knobs"] = {
                name: tuple(values) for name, values in data["knobs"].items()
            }
        return cls(**data)


#: Named grids for ``python -m repro plan --grid <preset>``.
GRID_PRESETS: dict[str, CandidateGrid] = {
    # Tiny mixed a100+t4 lattice for the CI smoke run: small enough to
    # simulate exhaustively, rich enough that the cheapest feasible
    # fleet is mixed (one a100 carries the strict stream, t4s soak up
    # best-effort work at a fraction of the price).
    "hetero-smoke": CandidateGrid(
        procurement=("on_demand_only",),
        schemes=("protean",),
        gpu_classes=("a100", "t4"),
        class_counts=(0, 1, 2),
    ),
    # The benchmark lattice: three classes × seven counts × three
    # procurement modes = 1026 candidates, ~68× the original planner's
    # default 15-candidate space. Screened in milliseconds by the
    # vectorised bounds; only the frontier is ever simulated.
    "hetero-wide": CandidateGrid(
        schemes=("protean",),
        gpu_classes=("a100", "h100", "t4"),
        class_counts=(0, 2, 4, 6, 8, 12, 16),
    ),
}
