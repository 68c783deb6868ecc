"""Configuration of one hyperscale run.

The hyperscale engine models each node as an integer single-server queue
sampled on a fixed tick: Poisson arrivals (rate shaped by a diurnal
profile), constant integer service capacity per tick, Lindley backlog
recursion, and a waiting-time SLO measured in ticks. That is deliberately
far coarser than the event-driven platform — the point is cluster-scale
queueing behaviour (backlog waves, diurnal SLO erosion, capacity
headroom) at 1000 nodes × 24 h in seconds of wall time, not per-batch
GPU placement (which stays the event core's job).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from repro.errors import ConfigurationError
from repro.wire import parse_payload

#: Version stamp of the :meth:`HyperscaleConfig.to_dict` wire format.
HYPERSCALE_SCHEMA_VERSION = 1


@dataclass(frozen=True, slots=True)
class HyperscaleConfig:
    """Full description of one hyperscale run. Defaults are the ROADMAP's
    north-star scale: 1000 nodes, 100k rps, one simulated day."""

    #: Cluster width. Nodes are independent queues (shard-independent
    #: workload) — exactly the shape the shard barrier keeps bit-identical.
    n_nodes: int = 1000
    #: Aggregate offered request rate (rps) across the cluster at the
    #: diurnal profile's mean.
    rate: float = 100_000.0
    #: Simulated horizon in seconds.
    duration: float = 86_400.0
    #: Queue-sampling resolution in seconds.
    tick: float = 1.0
    #: Ticks per epoch — the vectorisation block and the shard barrier
    #: interval. 3600 ticks × 1 s = hourly barriers on the full preset.
    epoch_ticks: int = 3600
    #: Per-node service capacity as a multiple of the node's mean offered
    #: load (requests/tick). The paper's evaluation runs near saturation;
    #: 1.25 leaves the diurnal peak (1 + amplitude) slightly supercritical.
    capacity_factor: float = 1.25
    #: Waiting-time SLO in ticks: an arrival meets its SLO when the
    #: backlog ahead of it drains within this many ticks.
    slo_ticks: float = 4.0
    #: Diurnal load shape ``1 + amplitude·sin(2π·t/period)``.
    diurnal_amplitude: float = 0.3
    diurnal_period: float = 86_400.0
    #: Root of the counter-based hash RNG (pure function of
    #: ``(seed, node, tick)`` — see :mod:`repro.hyperscale.hashrng`).
    seed: int = 0
    #: Verify conservation invariants on every epoch block (integer
    #: arithmetic makes them exact; see the auditing notes in
    #: ``docs/hyperscale.md``).
    audit: bool = True
    #: Nodes per vectorisation block. Per-node results are independent of
    #: this (asserted by the block-independence regression test); it only
    #: bounds scratch-array size.
    block_nodes: int = 256
    #: Centroid budget of every per-node latency sketch.
    max_centroids: int = 256

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigurationError("n_nodes must be >= 1")
        if self.rate <= 0:
            raise ConfigurationError("rate must be positive")
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if self.tick <= 0:
            raise ConfigurationError("tick must be positive")
        if self.epoch_ticks < 1:
            raise ConfigurationError("epoch_ticks must be >= 1")
        if self.capacity_factor <= 0:
            raise ConfigurationError("capacity_factor must be positive")
        if self.slo_ticks < 0:
            raise ConfigurationError("slo_ticks must be non-negative")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ConfigurationError("diurnal_amplitude must lie in [0, 1)")
        if self.diurnal_period <= 0:
            raise ConfigurationError("diurnal_period must be positive")
        if self.block_nodes < 1:
            raise ConfigurationError("block_nodes must be >= 1")
        if self.max_centroids < 2:
            raise ConfigurationError("max_centroids must be >= 2")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def n_ticks(self) -> int:
        """Total simulated ticks (ceil — the horizon is fully covered)."""
        return int(math.ceil(self.duration / self.tick))

    @property
    def n_epochs(self) -> int:
        """Epoch count (the final epoch may be short)."""
        return int(math.ceil(self.n_ticks / self.epoch_ticks))

    @property
    def mean_arrivals_per_node_tick(self) -> float:
        """Mean offered load per node per tick (the Poisson base rate)."""
        return self.rate / self.n_nodes * self.tick

    @property
    def capacity_per_tick(self) -> int:
        """Integer per-node service capacity per tick (at least 1)."""
        return max(
            1,
            int(round(self.mean_arrivals_per_node_tick * self.capacity_factor)),
        )

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def full(cls, **overrides) -> "HyperscaleConfig":
        """The north-star scale: 1000 nodes / 100k rps / 24 h."""
        return cls(**overrides)

    @classmethod
    def smoke(cls, **overrides) -> "HyperscaleConfig":
        """A seconds-scale run for CI and the serial-vs-sharded diff."""
        defaults = dict(
            n_nodes=32,
            rate=1_600.0,
            duration=600.0,
            epoch_ticks=120,
            diurnal_period=600.0,
            block_nodes=8,
        )
        defaults.update(overrides)
        return cls(**defaults)

    def with_overrides(self, **overrides) -> "HyperscaleConfig":
        """A copy with fields replaced (CLI flag plumbing)."""
        return replace(self, **overrides)

    def to_dict(self) -> dict:
        """JSON-safe, versioned representation (report provenance)."""
        payload: dict = {"version": HYPERSCALE_SCHEMA_VERSION}
        for spec in fields(self):
            payload[spec.name] = getattr(self, spec.name)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "HyperscaleConfig":
        """Parse a :meth:`to_dict` payload, rejecting unknown keys."""
        return cls(
            **parse_payload(
                cls, payload, "hyperscale config",
                version=HYPERSCALE_SCHEMA_VERSION,
            )
        )
