"""Bounded projections: rank-one pairs and explicit idempotent matrices."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePair, DimensionMismatch
from .spaces import (
    CVec, Functional, dual_norm, norm, pairing, spectral_norm, spectral_norm_bound
)

# A matrix is accepted as a projection when |M^2 - M| stays within this
# slack, scaled by 1 + |M|^2 so ill-conditioned but genuine projections
# are not rejected for honest rounding.
IDEMPOTENCY_SLACK = 1e-10

DEGENERATE_PAIRING = 1e-12

# Draws random_oblique_projection makes before it gives up on its norm cap.
_MAX_TRIES = 200


def _induced_norm(matrix: np.ndarray, p: float) -> float:
    if p == 1.0:
        return float(np.max(np.sum(np.abs(matrix), axis=0)))
    if p == math.inf:
        return float(np.max(np.sum(np.abs(matrix), axis=1)))
    return spectral_norm(matrix)


@dataclass(frozen=True, eq=False)
class RankOneProjection:
    """P z = f(z) x for a pair normalized to f(x) = 1.  A pair of two sizes
    raises DimensionMismatch from the pairing that checks the gauge."""

    functional: Functional
    vector: CVec

    def __post_init__(self) -> None:
        if self.functional.p != self.vector.p:
            raise ValueError("rank-one pair must share a norm tag")
        gauge = pairing(self.functional, self.vector)
        if abs(gauge - 1.0) > 1e-9:
            raise ValueError(
                f"rank-one pair is not normalized: pairing = {gauge:.6g}"
            )

    @property
    def dim(self) -> int:
        return self.vector.dim

    @property
    def p(self) -> float:
        """The norm tag the pair shares, as ``DenseProjection.p``."""
        return self.functional.p


@dataclass(frozen=True, eq=False)
class DenseProjection:
    """An explicit idempotent matrix, checked on construction, which also
    forms its induced norm ``size``."""

    matrix: np.ndarray
    p: float = 2.0
    size: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("projection matrix must be square")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        size = _induced_norm(mat, self.p)
        object.__setattr__(self, "size", size)
        # past |M| ~ 1e154 the square and the limit overflow to inf, silently
        with np.errstate(over="ignore", invalid="ignore"):
            defect = mat @ mat - mat
        limit = IDEMPOTENCY_SLACK * (1.0 + size * size)
        # at p = 2 a finite bound within the limit settles the check with no
        # SVD (see spectral_norm_bound); anything else takes the induced
        # norm, and a drift that is not finite (NaN included) is refused
        bound = math.nan if self.p in (1.0, math.inf) else spectral_norm_bound(defect)
        if not math.isfinite(bound) or bound > limit:
            drift = _induced_norm(defect, self.p)
            if not (math.isfinite(drift) and drift <= limit):
                raise ValueError(
                    f"matrix is not idempotent: |M^2 - M| = {drift:.3g} with |M| = {size:.3g}"
                )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


Projection = RankOneProjection | DenseProjection


def make_rank_one(f: Functional, x: CVec) -> RankOneProjection:
    """Normalize (f, x) into the projection z -> f(z) x / f(x).

    Raises DegeneratePair when f(x) is numerically negligible, since no
    bounded projection onto span(x) along ker(f) exists in that case, and
    DimensionMismatch from ``pairing`` when f and x differ in size.
    """
    gauge = pairing(f, x)
    if abs(gauge) < DEGENERATE_PAIRING:
        raise DegeneratePair(
            f"pairing {abs(gauge):.3g} below {DEGENERATE_PAIRING:g}; "
            "the pair spans no bounded projection"
        )
    return RankOneProjection(functional=f, vector=CVec(x.coords / gauge, x.p))


def project(proj: Projection, z: CVec) -> CVec:
    if proj.dim != z.dim:
        raise DimensionMismatch("project: dimensions differ")
    if isinstance(proj, RankOneProjection):
        return CVec(pairing(proj.functional, z) * proj.vector.coords, z.p)
    return CVec(proj.matrix @ z.coords, z.p)


def projection_matrix(proj: Projection) -> np.ndarray:
    if isinstance(proj, RankOneProjection):
        return np.outer(proj.vector.coords, proj.functional.coords)
    return np.asarray(proj.matrix)


def projection_norm(proj: Projection) -> float:
    """The induced operator norm of the projection.

    Exact for rank-one pairs (the norm factorizes as |f| * |x|) and an
    induced matrix norm for dense projections, formed on construction.
    """
    if isinstance(proj, RankOneProjection):
        return dual_norm(proj.functional) * norm(proj.vector)
    return proj.size


def random_oblique_projection(
    dim: int,
    rank: int,
    rng: np.random.Generator,
    norm_cap: float = 5.0,
) -> DenseProjection:
    """Draw a non-orthogonal projection of the given rank with |P| <= cap.

    The similarity frame is a unitary plus a modest random shear, which
    keeps the conditioning tame; draws violating the cap are rejected.
    """
    if not 0 < rank < dim:
        raise ValueError("rank must be strictly between 0 and dim")
    for _ in range(_MAX_TRIES):
        gauss = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        frame, _ = np.linalg.qr(gauss)
        shear = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        basis = frame + 0.35 * shear / math.sqrt(dim)
        try:
            inverse = np.linalg.inv(basis)
        except np.linalg.LinAlgError:
            continue
        candidate = DenseProjection(basis[:, :rank] @ inverse[:rank, :])
        if candidate.size <= norm_cap:
            return candidate
    raise RuntimeError(f"no projection under norm cap {norm_cap} in {_MAX_TRIES} draws")
