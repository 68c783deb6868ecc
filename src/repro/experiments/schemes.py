"""Scheme registry: resolve evaluated schemes by name.

The registry is the single place where string scheme names (CLI flags,
figure definitions, parallel ``RunRequest``\\ s, tests) map to
:class:`~repro.serverless.scheme.Scheme` factories. Names follow the
paper's Section 5 (plus the Section 2.2 motivation schemes); each
canonical name may carry aliases (e.g. ``"infless"`` → ``"infless_llama"``).

External code can extend the registry::

    from repro.experiments import register_scheme

    register_scheme("my_scheme", MyScheme, aliases=("mine",))
    result = run_scheme("my_scheme", config)

The Oracle needs a geometry plan derived from the concrete request
stream, so :func:`get_scheme` takes it as an argument — the runner builds
it (see :func:`repro.experiments.runner.build_oracle_plan`).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.baselines.gpulet import GpuletScheme
from repro.baselines.infless_llama import InflessLlamaScheme
from repro.baselines.molecule import MoleculeBetaScheme
from repro.baselines.motivation import (
    MigOnlyScheme,
    MpsMigScheme,
    SmartMpsMigScheme,
)
from repro.baselines.naive_slicing import NaiveSlicingScheme
from repro.baselines.oracle import GeometryPlan, OracleScheme
from repro.core.protean import ProteanScheme
from repro.errors import ConfigurationError
from repro.serverless.scheme import Scheme

#: Canonical name → factory (None marks the plan-requiring oracle).
_REGISTRY: dict[str, Optional[Callable[[], Scheme]]] = {}
#: Alias → canonical name.
_ALIASES: dict[str, str] = {}


def register_scheme(
    name: str,
    factory: Optional[Callable[[], Scheme]],
    *,
    aliases: tuple[str, ...] = (),
    replace: bool = False,
) -> None:
    """Register a scheme factory under ``name`` (plus optional aliases).

    ``factory`` is a zero-argument callable returning a fresh
    :class:`Scheme` (a class works). Names are case-insensitive. Clashing
    with an existing name or alias raises :class:`ConfigurationError`
    unless ``replace=True``.
    """
    key = name.lower().strip()
    keys = [key] + [alias.lower().strip() for alias in aliases]
    if not replace:
        for candidate in keys:
            if candidate in _REGISTRY or candidate in _ALIASES:
                raise ConfigurationError(
                    f"scheme name {candidate!r} is already registered"
                )
    _REGISTRY[key] = factory
    for alias in keys[1:]:
        _ALIASES[alias] = key


def available_schemes() -> tuple[str, ...]:
    """Canonical registered scheme names, sorted."""
    return tuple(sorted(_REGISTRY))


def scheme_names() -> tuple[str, ...]:
    """All accepted scheme names (canonical plus aliases), sorted."""
    return tuple(sorted(set(_REGISTRY) | set(_ALIASES)))


def canonical_name(name: str) -> str:
    """Resolve ``name`` (canonical or alias) to its canonical form.

    Raises :class:`ConfigurationError` for unknown names, listing the
    valid choices.
    """
    key = name.lower().strip()
    if key in _REGISTRY:
        return key
    resolved = _ALIASES.get(key)
    if resolved is not None:
        return resolved
    raise ConfigurationError(
        f"unknown scheme {name!r}; available: "
        f"{', '.join(available_schemes())} "
        f"(aliases: {', '.join(sorted(_ALIASES))})"
    )


def get_scheme(name: str, *, oracle_plan: GeometryPlan | None = None) -> Scheme:
    """Instantiate a fresh scheme by (canonical or alias) name.

    ``oracle_plan`` is required (and only used) for ``"oracle"``.
    """
    key = canonical_name(name)
    if key == "oracle":
        if oracle_plan is None:
            raise ConfigurationError(
                "the oracle scheme needs a geometry plan; use "
                "run_scheme which builds it from the request stream"
            )
        return OracleScheme(oracle_plan)
    factory = _REGISTRY[key]
    assert factory is not None  # only oracle registers without a factory
    return factory()


#: Canonical scheme order used by comparison figures.
COMPARISON_SCHEMES = ("molecule", "naive_slicing", "infless_llama", "protean")


register_scheme("protean", ProteanScheme)
# Paper future work (Table 5): η-balanced BE placement when no strict
# traffic is present — improves the 100%-BE tail.
register_scheme(
    "protean_be_balanced", lambda: ProteanScheme(balance_best_effort=True)
)
# "mps_only" / "no_mps_or_mig" are the Section 2.2 motivation setups,
# which coincide with the INFless/Llama and Molecule(beta) behaviours.
register_scheme(
    "infless_llama", InflessLlamaScheme, aliases=("infless", "llama", "mps_only")
)
register_scheme(
    "molecule", MoleculeBetaScheme, aliases=("molecule_beta", "no_mps_or_mig")
)
register_scheme("naive_slicing", NaiveSlicingScheme, aliases=("naive",))
register_scheme("gpulet", GpuletScheme)
# Remaining Section 2.2 motivation schemes:
register_scheme("mig_only", MigOnlyScheme)
register_scheme("mps_mig", MpsMigScheme)
register_scheme("smart_mps_mig", SmartMpsMigScheme)
# The oracle has no zero-arg factory: it needs the run's geometry plan.
register_scheme("oracle", None)
