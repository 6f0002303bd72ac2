"""Shared fixtures and a derandomized hypothesis profile."""

import pytest
from hypothesis import HealthCheck, settings

from semigroup_lab import load_config
from semigroup_lab.cli import _build_from_config

settings.register_profile(
    "repo",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repo")


def build_from_config(name):
    """Build a witness certificate exactly the way the CLI does."""
    return _build_from_config(load_config(name))


@pytest.fixture(scope="session")
def k5_certificate():
    # Shared across test modules; the build is deterministic, so reuse is safe.
    return build_from_config("blowup_k5")
