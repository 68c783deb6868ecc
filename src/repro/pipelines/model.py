"""The pipeline model: multi-stage DAG workflows over the 22 profiles.

A :class:`StageSpec` names one inference stage (one model profile) and
the stages whose outputs it consumes; a :class:`PipelineSpec` is the
validated DAG — linear chains (detector → cropper → classifier) and
fan-out/fan-in joins (one root feeding an ensemble that a sink merges) —
plus the workflow-level policies: the deadline-splitting policy and the
inter-stage handoff latency. The spec is the one pipeline payload that
rides inside :class:`~repro.experiments.config.ExperimentConfig` and
round-trips through its versioned JSON wire format.

All misconfiguration — a zero-stage DAG, an unknown model profile, an
unknown or duplicate parent, a cycle — is normalised to
:class:`~repro.errors.ConfigurationError` at construction, so a bad
pipeline never reaches the simulator.

:func:`compile_pipeline` resolves the spec against the profile registry
once per run into a :class:`CompiledPipeline`: scaled profiles, a
topological order, children maps, per-stage *downstream path latency*
(the longest profiled latency path from a stage through its descendants,
inclusive) and the critical-path latency — the quantities the deadline
splitter (:mod:`repro.pipelines.deadlines`) budgets end-to-end slack
with.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, UnknownModelError
from repro.wire import parse_payload
from repro.workloads.profile import ModelProfile
from repro.workloads.registry import get_model
from repro.workloads.scaling import scale_model

#: Version stamp of the pipeline wire format (:meth:`PipelineSpec.to_dict`).
PIPELINE_SCHEMA_VERSION = 1

#: Deadline-splitting policies (see repro.pipelines.deadlines):
#: ``"naive"`` gives every stage its independent per-stage SLO
#: (PROTEAN-as-is); ``"pipeline-aware"`` budgets the workflow's remaining
#: end-to-end slack across the stages still ahead, proportional to their
#: profiled latency, re-budgeted at every stage release.
DEADLINE_POLICIES = ("naive", "pipeline-aware")

#: Default inter-stage handoff latency (seconds): serialising one stage's
#: output and enqueueing the next stage's request.
DEFAULT_HANDOFF_LATENCY = 0.002


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class StageSpec:
    """One stage of a pipeline: a model profile plus its parent stages."""

    #: Stage name, unique within the pipeline.
    name: str
    #: Workload profile served by this stage (registry name).
    model: str
    #: Names of the stages whose completion releases this one. Empty =
    #: a root stage (released on workflow arrival).
    parents: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _require(
            bool(self.name) and isinstance(self.name, str),
            "stage name must be a non-empty string",
        )
        _require(
            bool(self.model) and isinstance(self.model, str),
            f"stage {self.name!r}: model must be a non-empty string",
        )
        object.__setattr__(self, "parents", tuple(self.parents))
        _require(
            all(isinstance(p, str) and p for p in self.parents),
            f"stage {self.name!r}: parents must be non-empty strings",
        )
        _require(
            len(set(self.parents)) == len(self.parents),
            f"stage {self.name!r}: duplicate parent",
        )
        _require(
            self.name not in self.parents,
            f"stage {self.name!r} lists itself as a parent",
        )

    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {
            "name": self.name,
            "model": self.model,
            "parents": list(self.parents),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StageSpec":
        """Parse a :meth:`to_dict` payload, rejecting unknown keys."""
        data = parse_payload(cls, payload, "stage")
        if data.get("parents") is not None:
            data["parents"] = tuple(data["parents"])
        return cls(**data)


@dataclass(frozen=True)
class PipelineSpec:
    """A validated multi-stage workflow DAG plus its runtime policies."""

    #: Pipeline name (appears on spans, reports, and scenario output).
    name: str
    #: The stages; validated into a DAG at construction.
    stages: tuple[StageSpec, ...]
    #: Deadline-splitting policy (see :data:`DEADLINE_POLICIES`).
    deadline_policy: str = "pipeline-aware"
    #: Seconds between a stage completing and its children being admitted.
    handoff_latency: float = DEFAULT_HANDOFF_LATENCY

    def __post_init__(self) -> None:
        _require(
            bool(self.name) and isinstance(self.name, str),
            "pipeline name must be a non-empty string",
        )
        object.__setattr__(self, "stages", tuple(self.stages))
        _require(
            len(self.stages) > 0,
            f"pipeline {self.name!r} has no stages (a zero-stage DAG "
            "serves nothing)",
        )
        names = [stage.name for stage in self.stages]
        _require(
            len(set(names)) == len(names),
            f"pipeline {self.name!r}: duplicate stage name(s): "
            f"{sorted({n for n in names if names.count(n) > 1})}",
        )
        known = set(names)
        for stage in self.stages:
            for parent in stage.parents:
                _require(
                    parent in known,
                    f"pipeline {self.name!r}: stage {stage.name!r} names "
                    f"unknown parent {parent!r}",
                )
        for stage in self.stages:
            try:
                get_model(stage.model)
            except UnknownModelError as exc:
                raise ConfigurationError(
                    f"pipeline {self.name!r}: stage {stage.name!r}: {exc}"
                ) from exc
        self._topological()  # raises on a cycle
        _require(
            self.deadline_policy in DEADLINE_POLICIES,
            f"pipeline {self.name!r}: unknown deadline_policy "
            f"{self.deadline_policy!r}; known: {list(DEADLINE_POLICIES)}",
        )
        _require(
            isinstance(self.handoff_latency, (int, float))
            and self.handoff_latency >= 0,
            f"pipeline {self.name!r}: handoff_latency must be >= 0",
        )

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def stage(self, name: str) -> StageSpec:
        """The stage named ``name``."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise ConfigurationError(
            f"pipeline {self.name!r} has no stage {name!r}"
        )

    def children(self) -> dict[str, tuple[str, ...]]:
        """Stage name → names of the stages it feeds."""
        mapping: dict[str, list[str]] = {s.name: [] for s in self.stages}
        for stage in self.stages:
            for parent in stage.parents:
                mapping[parent].append(stage.name)
        return {name: tuple(kids) for name, kids in mapping.items()}

    def roots(self) -> tuple[str, ...]:
        """Stages with no parents (released on workflow arrival)."""
        return tuple(s.name for s in self.stages if not s.parents)

    def sinks(self) -> tuple[str, ...]:
        """Stages no other stage consumes (the workflow's outputs)."""
        children = self.children()
        return tuple(s.name for s in self.stages if not children[s.name])

    def _topological(self) -> tuple[str, ...]:
        """Kahn's algorithm; raises ConfigurationError on a cycle."""
        indegree = {s.name: len(s.parents) for s in self.stages}
        children = self.children()
        ready = [name for name, degree in indegree.items() if degree == 0]
        order: list[str] = []
        while ready:
            name = ready.pop()
            order.append(name)
            for child in children[name]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
        if len(order) != len(self.stages):
            cyclic = sorted(n for n, d in indegree.items() if d > 0)
            raise ConfigurationError(
                f"pipeline {self.name!r} contains a cycle through "
                f"stage(s) {cyclic}"
            )
        return tuple(order)

    def topological(self) -> tuple[str, ...]:
        """Stage names in a parents-first order."""
        return self._topological()

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe, versioned representation. Round-trips exactly."""
        return {
            "version": PIPELINE_SCHEMA_VERSION,
            "name": self.name,
            "stages": [stage.to_dict() for stage in self.stages],
            "deadline_policy": self.deadline_policy,
            "handoff_latency": self.handoff_latency,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineSpec":
        """Parse a :meth:`to_dict` payload.

        The ``version`` key is optional (defaults to the current schema);
        payloads from a *newer* schema are refused rather than silently
        misread, and unknown keys are rejected.
        """
        data = parse_payload(
            cls, payload, "pipeline", version=PIPELINE_SCHEMA_VERSION
        )
        stages = data.get("stages")
        _require(
            isinstance(stages, (list, tuple)),
            "pipeline payload needs a 'stages' list",
        )
        data["stages"] = tuple(StageSpec.from_dict(s) for s in stages)
        return cls(**data)


@dataclass(frozen=True)
class CompiledPipeline:
    """A :class:`PipelineSpec` resolved against the profile registry.

    Built once per run by :func:`compile_pipeline`; every latency here is
    the *scaled* profile's full-batch solo 7g latency — the same unit the
    single-stage SLO target (``multiplier × solo_latency_7g``) uses.
    """

    spec: PipelineSpec
    #: Stage name → scaled :class:`ModelProfile`.
    profiles: dict[str, ModelProfile]
    #: Stage name → profiled stage latency (scaled solo 7g seconds).
    latency: dict[str, float]
    #: Stage name → its children's names.
    children: dict[str, tuple[str, ...]]
    #: Stage name → its parents' names.
    parents: dict[str, tuple[str, ...]]
    #: Parents-first stage order.
    order: tuple[str, ...]
    #: Root and sink stage names.
    roots: tuple[str, ...]
    sinks: tuple[str, ...]
    #: Stage name → longest profiled-latency path from the stage through
    #: its descendants, *inclusive of the stage itself*.
    downstream: dict[str, float]
    #: Longest root-to-sink profiled-latency path — the unit the
    #: end-to-end deadline is a multiple of.
    critical_path: float


def compile_pipeline(spec: PipelineSpec, scale: float = 1.0) -> CompiledPipeline:
    """Resolve ``spec`` against the registry at batch-size ``scale``."""
    profiles = {
        stage.name: scale_model(get_model(stage.model), scale)
        for stage in spec.stages
    }
    latency = {
        name: profile.solo_latency_7g for name, profile in profiles.items()
    }
    children = spec.children()
    parents = {stage.name: stage.parents for stage in spec.stages}
    order = spec.topological()
    downstream: dict[str, float] = {}
    for name in reversed(order):
        tail = max(
            (downstream[child] for child in children[name]), default=0.0
        )
        downstream[name] = latency[name] + tail
    roots = spec.roots()
    critical_path = max(downstream[root] for root in roots)
    return CompiledPipeline(
        spec=spec,
        profiles=profiles,
        latency=latency,
        children=children,
        parents=parents,
        order=order,
        roots=roots,
        sinks=spec.sinks(),
        downstream=downstream,
        critical_path=critical_path,
    )
