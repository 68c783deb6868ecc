"""Declarative fault plans: what to break, when, and for how long.

A :class:`FaultPlan` is a seeded-deterministic schedule of simulated
faults threaded through ``ExperimentConfig`` and executed by the
:class:`~repro.faults.injector.FaultInjector`. Four fault kinds cover the
failure modes that matter for the paper's spot-VM claims (Section 4.5):

- ``node_crash`` — a VM vanishes with *no* notice (host failure). Unlike
  a spot eviction there is no drain window: running work is stranded and
  resubmitted, and procurement must build a replacement from scratch.
- ``slow_slice`` — every slice of one node's GPU runs ``multiplier``×
  slower for a time window (thermal throttling, ECC retirement).
- ``container_start_failure`` — cold starts in a time window fail with
  some probability and pay a retry delay before eventually booting.
- ``network_delay`` — gateway admission jitter: each request arriving in
  the window is held for a (seeded-random) delay before entering the
  batcher.

Plans are plain data: JSON round-trippable, hashable, and free of any
reference to live simulation objects, so the same plan can be replayed
against any scheme/seed combination.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from repro.errors import FaultPlanError
from repro.wire import parse_payload


class FaultKind(str, Enum):
    """The supported simulated fault types."""

    NODE_CRASH = "node_crash"
    SLOW_SLICE = "slow_slice"
    CONTAINER_START_FAILURE = "container_start_failure"
    NETWORK_DELAY = "network_delay"


#: Fault kinds that occupy a time window (require ``duration > 0``).
_WINDOWED = (
    FaultKind.SLOW_SLICE,
    FaultKind.CONTAINER_START_FAILURE,
    FaultKind.NETWORK_DELAY,
)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``target`` names a worker node (e.g. ``"node3"``) for node-scoped
    kinds; empty means the injector picks a random active node from its
    seeded stream. Fields irrelevant to a kind are ignored by it.
    """

    kind: FaultKind
    #: Injection time (simulated seconds from run start).
    at: float
    #: Window length for windowed kinds (slow_slice, start failures,
    #: network delay); ignored by node_crash.
    duration: float = 0.0
    #: Node name for node-scoped kinds ("" = injector picks one).
    target: str = ""
    #: slow_slice: latency multiplier applied to the target GPU (> 1).
    multiplier: float = 2.0
    #: network_delay: fixed admission delay component (seconds).
    delay_seconds: float = 0.0
    #: network_delay: uniform jitter added on top of ``delay_seconds``.
    jitter_seconds: float = 0.0
    #: container_start_failure: probability each boot attempt fails.
    failure_probability: float = 1.0
    #: container_start_failure: delay per failed attempt before the
    #: retry (0 = one extra full cold start per failure).
    retry_seconds: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, FaultKind):
            object.__setattr__(self, "kind", FaultKind(self.kind))
        if self.at < 0:
            raise FaultPlanError(f"fault time must be non-negative, got {self.at}")
        if self.kind in _WINDOWED and self.duration <= 0:
            raise FaultPlanError(
                f"{self.kind.value} needs a positive duration, got {self.duration}"
            )
        if self.kind is FaultKind.SLOW_SLICE and self.multiplier <= 1.0:
            raise FaultPlanError(
                f"slow_slice multiplier must exceed 1, got {self.multiplier}"
            )
        if self.kind is FaultKind.CONTAINER_START_FAILURE and not (
            0.0 < self.failure_probability <= 1.0
        ):
            raise FaultPlanError(
                "failure_probability must lie in (0, 1], got "
                f"{self.failure_probability}"
            )
        if self.kind is FaultKind.NETWORK_DELAY and (
            self.delay_seconds < 0
            or self.jitter_seconds < 0
            or self.delay_seconds + self.jitter_seconds <= 0
        ):
            raise FaultPlanError(
                "network_delay needs non-negative delay/jitter with a "
                "positive sum"
            )
        if self.retry_seconds < 0:
            raise FaultPlanError(
                f"retry_seconds must be non-negative, got {self.retry_seconds}"
            )

    @property
    def until(self) -> float:
        """Window end time (== ``at`` for instantaneous faults)."""
        return self.at + self.duration

    def to_dict(self) -> dict:
        """JSON-ready representation (defaults elided)."""
        payload: dict = {"kind": self.kind.value, "at": self.at}
        defaults = {
            "duration": 0.0,
            "target": "",
            "multiplier": 2.0,
            "delay_seconds": 0.0,
            "jitter_seconds": 0.0,
            "failure_probability": 1.0,
            "retry_seconds": 0.0,
        }
        for name, default in defaults.items():
            value = getattr(self, name)
            if value != default:
                payload[name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSpec":
        """Parse one fault entry, rejecting unknown keys early."""
        parse_payload(cls, payload, "fault", error=FaultPlanError)
        if "kind" not in payload or "at" not in payload:
            raise FaultPlanError(f"fault entry needs 'kind' and 'at': {payload}")
        try:
            kind = FaultKind(payload["kind"])
        except ValueError as exc:
            raise FaultPlanError(
                f"unknown fault kind {payload['kind']!r}; known: "
                f"{', '.join(k.value for k in FaultKind)}"
            ) from exc
        return cls(**{**payload, "kind": kind})


@dataclass(frozen=True)
class FaultPlan:
    """An ordered schedule of :class:`FaultSpec` entries."""

    faults: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not isinstance(self.faults, tuple):
            object.__setattr__(self, "faults", tuple(self.faults))

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def ordered(self) -> tuple[FaultSpec, ...]:
        """Faults sorted by injection time (stable for ties)."""
        return tuple(sorted(self.faults, key=lambda s: s.at))

    def to_dict(self) -> dict:
        return {"faults": [spec.to_dict() for spec in self.faults]}

    def to_json(self, path: str | Path) -> None:
        """Write the plan as JSON."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def from_dict(cls, payload: dict | list) -> "FaultPlan":
        """Parse ``{"faults": [...]}`` or a bare list of fault entries."""
        if isinstance(payload, dict):
            entries = parse_payload(
                cls, payload, "fault plan", error=FaultPlanError
            ).get("faults")
            if entries is None:
                raise FaultPlanError("fault plan object needs a 'faults' list")
        else:
            entries = payload
        if not isinstance(entries, list):
            raise FaultPlanError(f"'faults' must be a list, got {type(entries)}")
        return cls(tuple(FaultSpec.from_dict(entry) for entry in entries))

    @classmethod
    def from_json(cls, path: str | Path) -> "FaultPlan":
        """Load a plan from a JSON file."""
        try:
            payload = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"invalid fault plan JSON in {path}: {exc}") from exc
        return cls.from_dict(payload)


#: The no-faults plan (distinct from ``None`` only in type; a run with
#: EMPTY_PLAN is bit-identical to a run with faults disabled).
EMPTY_PLAN = FaultPlan()


def demo_plan(duration: float) -> FaultPlan:
    """A plan touching every fault kind, scaled to a run of ``duration``.

    Used by ``python -m repro faults`` when no ``--plan`` file is given:
    one crash early, a slow-slice window mid-run, a cold-start failure
    window, and admission jitter near the end.
    """
    t = duration / 10.0
    return FaultPlan(
        (
            FaultSpec(FaultKind.NODE_CRASH, at=2 * t),
            FaultSpec(FaultKind.SLOW_SLICE, at=3 * t, duration=2 * t, multiplier=2.5),
            FaultSpec(
                FaultKind.CONTAINER_START_FAILURE,
                at=5 * t,
                duration=2 * t,
                failure_probability=0.5,
                retry_seconds=2.0,
            ),
            FaultSpec(
                FaultKind.NETWORK_DELAY,
                at=7 * t,
                duration=2 * t,
                delay_seconds=0.02,
                jitter_seconds=0.04,
            ),
        )
    )
