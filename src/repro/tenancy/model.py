"""The tenant model: who shares the cluster, and on what terms.

A :class:`Tenant` describes one customer of the serving platform: its SLO
class (deadline tightness relative to the run's base multiplier), priority
tier, concurrency quota, fair-share weight, traffic share, isolation mode
(shared vs. exclusive), and billing rate. A :class:`TenantSet` is the
validated collection the platform serves, and a :class:`TenancySpec`
bundles the set with the runtime policies (admission enforcement, fairness
policy, traffic surges) — the one tenancy payload that rides inside
:class:`~repro.experiments.config.ExperimentConfig` and round-trips
through its versioned JSON wire format.

Design follows the production GPU-queue shape (SNIPPETS.md №2): per-tenant
concurrency limits, priority ordering, and *soft* exclusivity — exclusive
tenants are scheduled alone on a slice, enforced by the scheduler rather
than by hardware.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from repro.errors import ConfigurationError
from repro.wire import parse_payload

#: Version stamp of the tenancy wire format (:meth:`TenancySpec.to_dict`).
TENANCY_SCHEMA_VERSION = 1

#: The implicit tenant every request belongs to when no tenancy is
#: configured. The default path must stay bit-identical to a pre-tenancy
#: build, so this id is also the sentinel that suppresses tenant span
#: attributes and per-tenant accounting.
DEFAULT_TENANT_ID = "default"

#: SLO classes and the factor they apply to the run's base
#: ``slo_multiplier``: premium tenants are promised tighter deadlines,
#: relaxed tenants looser ones.
SLO_CLASSES: dict[str, float] = {
    "premium": 0.75,
    "standard": 1.0,
    "relaxed": 1.5,
}

#: Fairness policies the scheduler understands (see repro.tenancy.fairness).
FAIRNESS_POLICIES = ("fifo", "wfq")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class Tenant:
    """One customer sharing the serving platform."""

    #: Stable identifier; appears on requests, records, spans, and audits.
    tenant_id: str
    #: Deadline tightness class (see :data:`SLO_CLASSES`).
    slo_class: str = "standard"
    #: Priority tier; lower is served first (0 = highest).
    priority: int = 1
    #: Max concurrently admitted (in-flight) requests; ``None`` = unlimited.
    quota: int | None = None
    #: Weighted-fair-queueing weight (share of service under contention).
    weight: float = 1.0
    #: Relative share of the composed arrival stream (see TenantWorkload).
    traffic_share: float = 1.0
    #: Soft exclusivity: never co-located on a slice with other tenants.
    exclusive: bool = False
    #: Revenue per served request (unit-free; feeds revenue-weighted cost).
    billing_rate: float = 1.0

    def __post_init__(self) -> None:
        _require(
            bool(self.tenant_id) and isinstance(self.tenant_id, str),
            "tenant_id must be a non-empty string",
        )
        _require(
            self.slo_class in SLO_CLASSES,
            f"unknown slo_class {self.slo_class!r} for tenant "
            f"{self.tenant_id!r}; known: {sorted(SLO_CLASSES)}",
        )
        _require(
            isinstance(self.priority, int) and self.priority >= 0,
            f"tenant {self.tenant_id!r}: priority must be a non-negative int",
        )
        if self.quota is not None:
            _require(
                isinstance(self.quota, int) and self.quota > 0,
                f"tenant {self.tenant_id!r}: quota must be a positive int "
                f"or None, got {self.quota!r}",
            )
        _require(
            isinstance(self.weight, (int, float))
            and math.isfinite(self.weight)
            and self.weight > 0,
            f"tenant {self.tenant_id!r}: weight must be positive and finite",
        )
        _require(
            isinstance(self.traffic_share, (int, float))
            and math.isfinite(self.traffic_share)
            and self.traffic_share >= 0,
            f"tenant {self.tenant_id!r}: traffic_share must be >= 0",
        )
        _require(
            isinstance(self.billing_rate, (int, float))
            and math.isfinite(self.billing_rate)
            and self.billing_rate >= 0,
            f"tenant {self.tenant_id!r}: billing_rate must be >= 0",
        )

    @property
    def slo_factor(self) -> float:
        """Deadline multiplier factor implied by the SLO class."""
        return SLO_CLASSES[self.slo_class]

    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "Tenant":
        """Parse a :meth:`to_dict` payload, rejecting unknown keys."""
        return cls(**parse_payload(cls, payload, "tenant"))


@dataclass(frozen=True)
class TenantSet:
    """The validated collection of tenants one platform serves."""

    tenants: tuple[Tenant, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.tenants, tuple):
            object.__setattr__(self, "tenants", tuple(self.tenants))
        _require(len(self.tenants) > 0, "a TenantSet needs at least one tenant")
        ids = [t.tenant_id for t in self.tenants]
        _require(
            len(set(ids)) == len(ids),
            f"duplicate tenant id(s): "
            f"{sorted({i for i in ids if ids.count(i) > 1})}",
        )
        _require(
            any(t.traffic_share > 0 for t in self.tenants),
            "tenant traffic shares must not all be zero",
        )

    def __iter__(self):
        return iter(self.tenants)

    def __len__(self) -> int:
        return len(self.tenants)

    @property
    def ids(self) -> tuple[str, ...]:
        """Tenant ids in declaration order."""
        return tuple(t.tenant_id for t in self.tenants)

    def get(self, tenant_id: str) -> Tenant:
        """The tenant registered under ``tenant_id``.

        Unknown ids surface as :class:`~repro.errors.ConfigurationError`
        (which is also a ``ValueError``/``KeyError``-free single path for
        trace misconfiguration — satellite of the tenancy issue).
        """
        for tenant in self.tenants:
            if tenant.tenant_id == tenant_id:
                return tenant
        raise ConfigurationError(
            f"unknown tenant id {tenant_id!r}; registered: {list(self.ids)}"
        )

    def __contains__(self, tenant_id: str) -> bool:
        return any(t.tenant_id == tenant_id for t in self.tenants)

    def normalised_shares(self) -> dict[str, float]:
        """Traffic shares scaled to sum to 1.0."""
        total = sum(t.traffic_share for t in self.tenants)
        return {t.tenant_id: t.traffic_share / total for t in self.tenants}

    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {"tenants": [t.to_dict() for t in self.tenants]}

    @classmethod
    def from_dict(cls, payload: dict) -> "TenantSet":
        """Parse a :meth:`to_dict` payload, rejecting unknown keys."""
        data = parse_payload(cls, payload, "tenant-set")
        if "tenants" not in data:
            raise ConfigurationError(
                "tenant-set payload must be a dict with a 'tenants' list"
            )
        return cls(
            tenants=tuple(Tenant.from_dict(t) for t in data["tenants"])
        )


@dataclass(frozen=True)
class TenantSurge:
    """A window during which one tenant's traffic share is multiplied.

    Models flash crowds and noisy neighbours declaratively: during
    ``[start, end)`` the tenant's ``traffic_share`` is scaled by
    ``multiplier`` when the workload multiplexer assigns tenants.
    """

    tenant_id: str
    start: float
    end: float
    multiplier: float

    def __post_init__(self) -> None:
        _require(bool(self.tenant_id), "surge tenant_id must be non-empty")
        _require(
            self.start >= 0 and self.end > self.start,
            f"surge window [{self.start}, {self.end}) is empty or negative",
        )
        _require(
            math.isfinite(self.multiplier) and self.multiplier >= 0,
            "surge multiplier must be >= 0 and finite",
        )

    def active_at(self, time: float) -> bool:
        """Whether the surge applies at simulated ``time``."""
        return self.start <= time < self.end

    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {
            "tenant_id": self.tenant_id,
            "start": self.start,
            "end": self.end,
            "multiplier": self.multiplier,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TenantSurge":
        """Parse a :meth:`to_dict` payload, rejecting unknown keys."""
        return cls(**parse_payload(cls, payload, "surge"))


@dataclass(frozen=True)
class TenancySpec:
    """Everything tenancy-related one experiment run needs.

    This is the payload carried by ``ExperimentConfig.tenants``; ``None``
    there means tenancy is inactive and the platform behaves (bit for bit)
    like a pre-tenancy build.
    """

    tenant_set: TenantSet
    #: Queue ordering under contention: "fifo" (no fairness) or "wfq"
    #: (start-time-fair queueing over tenant weights + priority tiers).
    policy: str = "wfq"
    #: Enforce per-tenant concurrency quotas at the gateway (429-style
    #: rejections). Registration checks apply regardless.
    admission: bool = True
    #: Declarative traffic surges (flash crowds, noisy neighbours).
    surges: tuple[TenantSurge, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.tenant_set, TenantSet):
            raise ConfigurationError(
                "tenant_set must be a TenantSet, got "
                f"{type(self.tenant_set).__name__}"
            )
        if not isinstance(self.surges, tuple):
            object.__setattr__(self, "surges", tuple(self.surges))
        _require(
            self.policy in FAIRNESS_POLICIES,
            f"unknown fairness policy {self.policy!r}; "
            f"known: {list(FAIRNESS_POLICIES)}",
        )
        for surge in self.surges:
            if not isinstance(surge, TenantSurge):
                raise ConfigurationError(
                    f"surges must be TenantSurge instances, got "
                    f"{type(surge).__name__}"
                )
            # Unknown surge targets fail at construction, not mid-run.
            self.tenant_set.get(surge.tenant_id)

    def to_dict(self) -> dict:
        """JSON-safe, versioned representation."""
        return {
            "version": TENANCY_SCHEMA_VERSION,
            "tenant_set": self.tenant_set.to_dict(),
            "policy": self.policy,
            "admission": self.admission,
            "surges": [s.to_dict() for s in self.surges],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TenancySpec":
        """Parse a :meth:`to_dict` payload, refusing newer schemas."""
        data = parse_payload(
            cls, payload, "tenancy", version=TENANCY_SCHEMA_VERSION
        )
        if "tenant_set" not in data:
            raise ConfigurationError("tenancy payload needs a 'tenant_set'")
        return cls(
            tenant_set=TenantSet.from_dict(data["tenant_set"]),
            policy=data.get("policy", "wfq"),
            admission=data.get("admission", True),
            surges=tuple(
                TenantSurge.from_dict(s) for s in data.get("surges", ())
            ),
        )
