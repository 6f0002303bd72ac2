"""Shared fixtures, a derandomized hypothesis profile, and the scalar
reference carrier."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from semigroup_lab import load_config
from semigroup_lab.cli import _build_from_config
from semigroup_lab.spaces import clog1p, semigroup_defect

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


# The scalar carrier the lab stored its numbers with before the batched
# carrier became the only one, kept as a reference the carrier is checked
# against: a loop over numpy scalars for a diagonal drift, each defect by
# scalar_cexpm1, one defect matmul for a dense one, and the series clog1p
# for the log.

def scalar_cexpm1(z: complex) -> complex:
    """exp(z) - 1 by ``math``, the scalar form of ``spaces.cexpm1``: expm1
    plus the versine identity ``cos(y) - 1 = -2 sin(y/2)^2``."""
    x, y = z.real, z.imag
    re = math.expm1(x) * math.cos(y) - 2.0 * math.sin(y / 2.0) ** 2
    im = math.exp(x) * math.sin(y)
    return complex(re, im)


def scalar_drift(a, f, x, t, n):
    """n f((exp((t/n) A) - I) x), each float promoted to complex128 by numpy."""
    h = t / float(n)
    if a.kind == "dense":
        return float(n) * complex(np.dot(f.coords, semigroup_defect(a, h) @ x.coords))
    total = 0.0 + 0.0j
    with np.errstate(over="ignore", invalid="ignore"):
        for fm, xm, am in zip(f.coords, x.coords, a.entries):
            if fm == 0.0 or xm == 0.0:
                continue
            total += fm * xm * scalar_cexpm1(complex(h * am))
        return complex(float(n) * total)


def scalar_log_value(a, f, x, n):
    """n log(1 + offset) of the unit-time n-step product, by the scalar carrier."""
    offset = scalar_drift(a, f, x, 1.0, n) / float(n)
    if offset == -1.0:
        return complex(-math.inf, 0.0)
    return float(n) * clog1p(offset)
