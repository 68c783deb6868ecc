"""The one parsing step every wire format shares.

Each JSON-safe payload type (``ExperimentConfig``, the tenancy, fault and
pipeline specs, the hyperscale/serve/replay/plan types) parses its
``to_dict`` output through :func:`parse_payload`: the payload must be a
dict, an optional ``version`` key must match the reader's schema (payloads
from a newer schema are refused rather than silently misread), and keys
that are not fields of the dataclass are rejected by name. Nested and
tuple-valued fields stay with their owner.
"""

from __future__ import annotations

from dataclasses import fields

from repro.errors import ConfigurationError


def parse_payload(
    cls: type,
    payload: object,
    kind: str,
    *,
    version: int | None = None,
    derived: tuple[str, ...] = (),
    error: type[Exception] = ConfigurationError,
) -> dict:
    """Check ``payload`` against dataclass ``cls``; return a mutable copy.

    ``kind`` names the payload in error messages. ``version`` is the
    schema this build reads (``None`` for unversioned types); the key is
    optional and stripped from the result. ``derived`` keys are written by
    ``to_dict`` for readers' convenience and dropped on the way back in.
    """
    if not isinstance(payload, dict):
        raise error(
            f"{kind} payload must be a dict, got {type(payload).__name__}"
        )
    data = dict(payload)
    if version is not None:
        found = data.pop("version", version)
        if found != version:
            raise error(
                f"unsupported {kind} schema version {found!r}; "
                f"this build reads version {version}"
            )
    for key in derived:
        data.pop(key, None)
    unknown = set(data) - {spec.name for spec in fields(cls)}
    if unknown:
        raise error(f"unknown {kind} field(s): {', '.join(sorted(unknown))}")
    return data
