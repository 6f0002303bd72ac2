"""Shared fixtures, a derandomized hypothesis profile, and the scalar
reference carrier."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from semigroup_lab import load_config
from semigroup_lab.cli import _build_from_config
from semigroup_lab.spaces import semigroup_defect

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
# scalar_cexpm1, one defect matmul for a dense one, and scalar_clog1p for
# the log.

def scalar_cexpm1(z: complex) -> complex:
    """exp(z) - 1 by ``math``, the scalar form of ``spaces.cexpm1``: expm1
    plus the versine identity ``cos(y) - 1 = -2 sin(y/2)^2``."""
    x, y = z.real, z.imag
    re = math.expm1(x) * math.cos(y) - 2.0 * math.sin(y / 2.0) ** 2
    im = math.exp(x) * math.sin(y)
    return complex(re, im)


def scalar_clog1p(z: complex) -> complex:
    """log(1 + z) on the principal branch by its alternating series, the
    scalar form of ``spaces.clog1p``.

    Falls back to the direct logarithm once |z| is large enough that the
    series stops paying for itself.  Against mpmath the error is at most
    1e-14 relative for |z| <= 1/2; beyond that it is absolute, up to
    1e-15 * max(1, |log(1 + z)|), since the direct logarithm cancels where
    |1 + z| is close to 1.
    """
    if abs(z) > 0.5:
        return cmath.log(1.0 + z)
    term = complex(z)
    total = complex(z)
    for k in range(2, 64):
        term *= -z
        total += term / k
        if abs(term) <= 1e-18 * max(abs(total), 1e-300):
            break
    return total


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
    return float(n) * scalar_clog1p(offset)
