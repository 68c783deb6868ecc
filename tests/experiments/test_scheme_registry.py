"""Tests for the scheme registry (the name → factory resolution layer)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    COMPARISON_SCHEMES,
    available_schemes,
    canonical_name,
    get_scheme,
    register_scheme,
    scheme_names,
)
from repro.experiments import schemes as registry_module
from repro.experiments.figures.common import SCHEMES
from repro.serverless.scheme import Scheme

#: Every scheme name the figure suite evaluates (Sections 2.2, 5, 6).
FIGURE_SUITE_SCHEMES = (
    "protean",
    "protean_be_balanced",
    "infless_llama",
    "molecule",
    "naive_slicing",
    "gpulet",
    "mig_only",
    "mps_mig",
    "smart_mps_mig",
)


@pytest.fixture
def clean_registry():
    """Snapshot/restore the registry so tests can register freely."""
    saved_registry = dict(registry_module._REGISTRY)
    saved_aliases = dict(registry_module._ALIASES)
    yield
    registry_module._REGISTRY.clear()
    registry_module._REGISTRY.update(saved_registry)
    registry_module._ALIASES.clear()
    registry_module._ALIASES.update(saved_aliases)


def test_every_figure_suite_scheme_resolves():
    for name in FIGURE_SUITE_SCHEMES:
        scheme = get_scheme(name)
        assert isinstance(scheme, Scheme)
        # Factories hand out fresh instances — no shared mutable state.
        assert get_scheme(name) is not scheme


def test_available_schemes_covers_suite_and_is_sorted():
    names = available_schemes()
    assert names == tuple(sorted(names))
    assert set(FIGURE_SUITE_SCHEMES) <= set(names)
    assert "oracle" in names
    assert set(COMPARISON_SCHEMES) <= set(names)
    assert set(SCHEMES) <= set(names)


def test_scheme_names_includes_aliases():
    names = scheme_names()
    assert set(available_schemes()) <= set(names)
    assert "infless" in names and "naive" in names


@pytest.mark.parametrize(
    "alias, canonical",
    [
        ("infless", "infless_llama"),
        ("llama", "infless_llama"),
        ("mps_only", "infless_llama"),
        ("molecule_beta", "molecule"),
        ("no_mps_or_mig", "molecule"),
        ("naive", "naive_slicing"),
    ],
)
def test_alias_resolution(alias, canonical):
    assert canonical_name(alias) == canonical
    assert type(get_scheme(alias)) is type(get_scheme(canonical))


def test_names_are_case_insensitive():
    assert canonical_name("PROTEAN") == "protean"
    assert canonical_name("  Naive ") == "naive_slicing"


def test_unknown_name_error_lists_choices():
    with pytest.raises(ConfigurationError) as excinfo:
        get_scheme("no_such_scheme")
    message = str(excinfo.value)
    assert "no_such_scheme" in message
    for name in ("protean", "molecule", "oracle"):
        assert name in message


def test_unknown_name_is_also_a_value_error():
    with pytest.raises(ValueError):
        canonical_name("nope")


def test_oracle_requires_a_plan():
    with pytest.raises(ConfigurationError):
        get_scheme("oracle")


class MyScheme(Scheme):
    name = "my_scheme"

    def create_scheduler(self, platform, node, pool):
        raise NotImplementedError("registry test stub")


def test_register_custom_scheme(clean_registry):
    register_scheme("my_scheme", MyScheme, aliases=("mine",))
    assert "my_scheme" in available_schemes()
    assert canonical_name("mine") == "my_scheme"
    assert isinstance(get_scheme("my_scheme"), MyScheme)


def test_duplicate_registration_rejected(clean_registry):
    with pytest.raises(ConfigurationError):
        register_scheme("protean", MyScheme)
    with pytest.raises(ConfigurationError):
        register_scheme("fresh_name", MyScheme, aliases=("naive",))


def test_replace_overrides_existing(clean_registry):
    register_scheme("protean", MyScheme, replace=True)
    assert isinstance(get_scheme("protean"), MyScheme)
