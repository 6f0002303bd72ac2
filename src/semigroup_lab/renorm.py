"""Renorming audits: split norms, classical weighted norms, growth exponents.

Two renorming routes are audited.  The split norm measures a vector
through a bounded projection, ``|P z| + |z - P z|``; it is equivalent to
the base norm within [1, 2|P| + 1] and the projection is a contraction
for it.  The classical weighted norm ``sup_t exp(-w t) |exp(tA) z|``
makes a semigroup with spectral bound below w quasi-contractive.  The
lambda table extracted from a witness certificate gives per-stage lower
bounds on any quasi-contractivity exponent a renorming could achieve,
which is the quantitative obstruction the certificates exist to show.

Both audits take every draw at once, one column each; ``split_norm`` and
``classical_renorm_value`` are the per-vector references they are tested against.
The classical audit forms exp(tA) for the whole grid as one stack and
evaluates only the grid times that can raise a sup: a time whose weighted
bound exp(-w t) |exp(tA)| is below 1 cannot beat the t = 0 norm, so it is
skipped, and the sups are those of the full grid bit for bit (see
``_weighted_sups``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SpectralBoundViolated
from .projections import (
    Projection, RankOneProjection, make_rank_one, project, projection_matrix, projection_norm
)
from .spaces import (
    CVec, Generator, _check_p, dual_norm, norm, semigroup_apply, semigroup_matrices
)
from .witness import WitnessCertificate

DEFAULT_GRID_POINTS = 257
DEFAULT_VECTOR_SAMPLES = 1000
DEFAULT_TIME_SAMPLES = 8
DEFAULT_SLACK = 1e-10
DEFAULT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class RenormReport:
    """Outcome of a renorming audit, self-describing enough to re-run.

    ``violations`` holds one row per offending sample (empty on a pass);
    ``summary`` carries the named scalar outcomes of the audit kind.
    ``source`` optionally embeds the inputs (generator description or
    certificate payload) so a report file can be re-run and re-checked
    with nothing but the file itself.
    """

    kind: str
    seed: int
    vector_samples: int
    time_samples: int
    parameters: dict
    summary: dict
    lambdas: tuple[float, ...]
    violations: tuple[tuple, ...]
    passed: bool
    source: dict = field(default_factory=dict)


def split_norm(proj: Projection, z: CVec) -> float:
    """|P z| + |z - P z|: the norm adapted to the projection's splitting."""
    image = project(proj, z)
    return norm(image) + norm(CVec(z.coords - image.coords, z.p))


def _draw(seed: int, count: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))


def _norms(cols: np.ndarray, p: float) -> np.ndarray:
    return np.linalg.norm(cols, ord=p, axis=0)


def _split_norms(proj: Projection, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(P z, split_norm(z))`` for every column z, from one ``P @ cols``."""
    image = projection_matrix(proj) @ cols
    return image, _norms(image, proj.p) + _norms(cols - image, proj.p)


def equivalence_audit(
    proj: Projection,
    seed: int = 0,
    samples: int = DEFAULT_VECTOR_SAMPLES,
    slack: float = DEFAULT_SLACK,
) -> tuple[float, float, list[tuple]]:
    """Sample the ratio split_norm/norm and check it stays in [1, 2|P|+1].

    Returns (min_ratio, max_ratio, violations); a violation row is
    (sample index, ratio, low bound, high bound).
    """
    high = 2.0 * projection_norm(proj) + 1.0
    cols = _draw(seed, samples, proj.dim).T
    ratios = _split_norms(proj, cols)[1] / _norms(cols, proj.p)
    bad = np.flatnonzero((ratios < 1.0 - slack) | (ratios > high + slack))
    violations = [(int(i), float(ratios[i]), 1.0, high) for i in bad]
    return float(np.min(ratios, initial=math.inf)), float(np.max(ratios, initial=0.0)), violations


def projection_contractivity_check(
    proj: Projection,
    seed: int = 0,
    samples: int = DEFAULT_VECTOR_SAMPLES,
    slack: float = DEFAULT_SLACK,
) -> tuple[float, list[tuple]]:
    """Check split_norm(P z) <= split_norm(z) on random samples.

    Returns (max ratio, violations); equality is attained on the range
    of P, so the max should sit at 1 up to rounding.
    """
    image, denom = _split_norms(proj, _draw(seed, samples, proj.dim).T)
    ratios = _split_norms(proj, image)[1] / denom
    bad = np.flatnonzero(ratios > 1.0 + slack)
    violations = [(int(i), float(ratios[i]), 1.0) for i in bad]
    return float(np.max(ratios, initial=0.0)), violations


def witness_projection(cert: WitnessCertificate) -> RankOneProjection:
    """The rank-one projection onto the certificate's witness vector."""
    return make_rank_one(cert.functional_obj(), CVec(cert.witness, cert.p))


def lambda_lower_bounds(cert: WitnessCertificate) -> tuple[float, ...]:
    """Per-stage lower bounds on any quasi-contractivity exponent.

    Stage k's product moves the witness y to a vector of norm at least
    |value_k(y)| / |f|; against |y| that forces a growth exponent of at
    least log(|value_k(y)| / (|f| |y|)) at time 1, however the space is
    renormed (equivalent norms shift the bound by an additive constant
    independent of k, which the gap between stages swallows).
    """
    scale = math.log(dual_norm(cert.functional_obj()) * norm(CVec(cert.witness, cert.p)))
    return tuple(lv.real - scale for lv in cert.witness_log_values)


def spectral_bound(a: Generator) -> float:
    """max Re of the generator's spectrum."""
    if a.kind == "diagonal":
        return float(np.max(a.entries.real))
    return float(np.max(np.linalg.eigvals(a.matrix).real))


def renorm_time_grid(
    a: Generator, omega: float, points: int = DEFAULT_GRID_POINTS
) -> np.ndarray:
    """A geometric time grid {0} u [T*1e-6, T] for the weighted-norm sup.

    The horizon T = 50 / (omega - spectral bound) is far enough out that
    the weighted orbit has decayed below any tolerance in use.  Raises
    SpectralBoundViolated when omega does not dominate the bound.
    """
    return _time_grid(spectral_bound(a), omega, points)


def _time_grid(bound: float, omega: float, points: int) -> np.ndarray:
    """``renorm_time_grid`` for a generator whose spectral bound is ``bound``."""
    if not omega > bound:  # a NaN weight dominates nothing
        raise SpectralBoundViolated(
            f"weight {omega:.6g} does not exceed the spectral bound {bound:.6g}"
        )
    if points < 2:
        raise ValueError("grid needs at least two points")
    horizon = 50.0 / (omega - bound)
    tail = np.geomspace(horizon * 1e-6, horizon, points - 1)
    return np.concatenate(([0.0], tail))


def classical_renorm_value(
    a: Generator,
    omega: float,
    z: CVec,
    grid: np.ndarray | None = None,
) -> tuple[float, float]:
    """sup over the grid of exp(-omega t) |exp(tA) z|, with its argmax.

    For a dissipative generator (|exp(tA)| <= 1 in the space's norm) the
    sup sits at t = 0 and the weighted norm coincides with the base norm.
    This reference evaluates every grid time, so it confirms rather than
    assumes that; the audit evaluates only the times whose weighted bound
    exp(-omega t) |exp(tA)| is not below 1, which gives the same sups.
    """
    if grid is None:
        grid = renorm_time_grid(a, omega)
    best, best_t = -math.inf, 0.0
    for t in grid:
        value = math.exp(-omega * float(t)) * norm(semigroup_apply(a, float(t), z))
        if value > best:
            best, best_t = value, float(t)
    return best, best_t


def _weighted_sups(grid, propagators, omega: float, cols: np.ndarray, p: float) -> np.ndarray:
    """``classical_renorm_value`` of every column, given the (G, d, d) stack
    of exp(tA) over a grid whose first time is 0 (as ``renorm_time_grid``'s is).

    A grid time is evaluated only where it could raise a sup.  With
    w = exp(-omega t) and M the larger of the greatest column and row sums
    of |exp(tA)|, ``w |exp(tA) z| <= w M |z|`` in each of l^1, l^2 and
    l^inf (for l^2 by Riesz-Thorin, |B|_2 <= sqrt(|B|_1 |B|_inf)).
    Componentwise ``|fl(P z)| <= (1 + gamma_d) |P| |z|``, and the computed
    norms, M and the product with w add a few more rounding units, about
    (4d + 10) * 2^-53 in all, which the factor 1 + 1e-8 covers for d up
    to 10^6.  So once t = 0 has been evaluated, a time with
    ``w M (1 + 1e-8) < 1`` would give every column a value below the norm
    it had at t = 0, and ``np.maximum`` would leave the sups as they are;
    the time is skipped, and the sups are those of the full loop bit for bit.

    That rounding argument needs the running sups inside a window:
    ``hi * max(M, 1) < 1e140`` keeps the squares of a 2-norm from
    overflowing, and ``lo >= 1e-140 * max(w, 1)`` makes the absolute error
    of underflowing products and squares (at most about sqrt(d) 1e-161,
    times w) negligible against every sup.  A NaN or inf anywhere, in a
    propagator or in a sup, fails these comparisons, so such times are
    evaluated as before.
    """
    weights = np.array([math.exp(-omega * float(t)) for t in grid])
    magnitudes = np.abs(propagators)
    bounds = np.maximum(magnitudes.sum(axis=1).max(axis=1), magnitudes.sum(axis=2).max(axis=1))
    idle = weights * bounds * (1.0 + 1e-8) < 1.0
    floors = 1e-140 * np.maximum(weights, 1.0)
    ceilings = 1e140 / np.maximum(bounds, 1.0)
    sups = np.full(cols.shape[1], -math.inf)
    lo = hi = math.nan  # nothing is skipped before the first time is evaluated
    for k, prop in enumerate(propagators):
        if idle[k] and floors[k] <= lo and hi < ceilings[k]:
            continue
        # binding the product keeps the previous one alive until the next is
        # allocated, so its memory is reused rather than handed back to the
        # system and faulted in again: 3x faster at d = 6, 9000 columns
        moved = prop @ cols
        sups = np.maximum(sups, float(weights[k]) * _norms(moved, p))
        lo, hi = sups.min(), sups.max()
    return sups


def _classical_audit(
    a: Generator,
    omega: float,
    p: float,
    seed: int,
    vector_samples: int,
    time_samples: int,
    grid_points: int,
    tol: float,
) -> RenormReport:
    _check_p(p)  # the skip in _weighted_sups is proven for these norms only
    bound = spectral_bound(a)
    grid = _time_grid(bound, omega, grid_points)
    draws = _draw(seed, vector_samples, a.dim)
    shift_idx = np.unique(
        np.round(np.linspace(0, grid.size - 1, time_samples)).astype(int)
    )
    shifts = grid[shift_idx]
    propagators = semigroup_matrices(a, grid)
    # one column per draw: the draws, then the draws moved by each shift
    cols = np.concatenate([draws.T] + [propagators[k] @ draws.T for k in shift_idx], axis=1)
    sups = _weighted_sups(grid, propagators, omega, cols, p)
    base = sups[:vector_samples]
    lhs = sups[vector_samples:].reshape(shifts.size, vector_samples)
    rhs = np.array([[math.exp(omega * float(s))] for s in shifts]) * base
    excess = lhs - rhs
    worst_excess = float(np.max(excess, initial=-math.inf))
    violations = [
        (int(i), float(shifts[k]), float(lhs[k, i]), float(rhs[k, i]))
        for i, k in np.argwhere(excess.T > tol)
    ]
    passed = not violations
    return RenormReport(
        kind="classical",
        seed=seed,
        vector_samples=vector_samples,
        time_samples=int(shifts.size),
        parameters={
            "omega": omega,
            "p": p,
            "dim": a.dim,
            "grid_points": grid_points,
            "time_samples_requested": time_samples,
            "tol": tol,
            "spectral_bound": bound,
        },
        summary={"worst_excess": worst_excess, "horizon": float(grid[-1])},
        lambdas=(),
        violations=tuple(violations),
        passed=passed,
    )


def _split_audit(
    cert: WitnessCertificate,
    seed: int,
    vector_samples: int,
    slack: float,
) -> RenormReport:
    proj = witness_projection(cert)
    lo, hi, eq_violations = equivalence_audit(
        proj, seed=seed, samples=vector_samples, slack=slack
    )
    worst, ctr_violations = projection_contractivity_check(
        proj, seed=seed + 1, samples=vector_samples, slack=slack
    )
    lambdas = lambda_lower_bounds(cert)
    increasing = all(b > a for a, b in zip(lambdas, lambdas[1:]))
    high = 2.0 * projection_norm(proj) + 1.0
    violations = [("equivalence", *row) for row in eq_violations]
    violations += [("contractivity", *row) for row in ctr_violations]
    if not increasing:
        violations.append(("lambda_order",) + lambdas)
    passed = not violations
    return RenormReport(
        kind="split",
        seed=seed,
        vector_samples=vector_samples,
        time_samples=0,
        parameters={
            "p": cert.p,
            "dim": cert.dim,
            "eps": cert.eps,
            "slack": slack,
            "projection_norm": projection_norm(proj),
        },
        summary={
            "min_ratio": lo,
            "max_ratio": hi,
            "ratio_bound": high,
            "contractivity_max": worst,
            "lambda_gap": lambdas[-1] - lambdas[0] if len(lambdas) > 1 else 0.0,
        },
        lambdas=lambdas,
        violations=tuple(violations),
        passed=passed,
    )


def quasi_contractivity_audit(
    kind: str,
    cert: WitnessCertificate | None = None,
    a: Generator | None = None,
    omega: float | None = None,
    p: float = 2.0,
    seed: int = 0,
    vector_samples: int = DEFAULT_VECTOR_SAMPLES,
    time_samples: int = DEFAULT_TIME_SAMPLES,
    grid_points: int = DEFAULT_GRID_POINTS,
    slack: float = DEFAULT_SLACK,
    tol: float = DEFAULT_TOL,
) -> RenormReport:
    """Audit a renorming route and report violations, if any.

    kind "split" takes a witness certificate: it checks the split-norm
    sandwich and projection contractivity, and tabulates the lambda
    lower bounds that cap what any renorming could achieve.  kind
    "classical" takes a generator and weight: it checks the weighted
    norm's quasi-contractivity sample by sample on the time grid.
    """
    if kind == "split":
        if cert is None:
            raise ValueError("split audit needs a certificate")
        return _split_audit(cert, seed, vector_samples, slack)
    if kind == "classical":
        if a is None or omega is None:
            raise ValueError("classical audit needs a generator and a weight")
        return _classical_audit(
            a, omega, p, seed, vector_samples, time_samples, grid_points, tol
        )
    raise ValueError(f"unknown audit kind {kind!r}")
