"""Product-formula experiments: step pairings, scalar carriers, matrix products.

The scalar route tracks the pairing of a single product step and raises
it to the n-th power in log space, so step values that differ from 1 by
only 1e-40 still produce fully resolved powers.  The matrix route powers
the one-step matrix exp((t/n) A) P by repeated squaring.  The two share
no code beyond the orbit defect; comparisons between them are the
point of the module.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import SemigroupOverflow
from .projections import Projection, projection_matrix
from .spaces import (
    CVec,
    Functional,
    Generator,
    _complex,
    _expm,
    apply_generator,
    cexpm1,
    cexpm1_array,
    clog1p,
    clog1p_array,
    pairing,
    semigroup_defect,
    semigroup_defects,
)

# Materialize product values only while the log-magnitude is safely
# inside the double range; beyond that the log-domain fields carry on.
MATERIALIZE_LOG_BOUND = 700.0

_NORMALIZED_SLACK = 1e-9

# One ulp of 1.0: the unit of a batched error's rounding spread.
_ROUNDING = 2.0**-52


@dataclass(frozen=True)
class TrotterRecord:
    """One row of a product-formula run at a fixed step count.

    ``value`` is exp(log_value), or None when the product magnitude
    cannot be represented; ``log_value`` is always present, and ``path``
    is always "log".  ``branch_ambiguous`` marks rows whose step offset
    |c - 1| exceeds 1/2: there the recorded log is a branch choice rather
    than a continuation, though for integer n its exponential is not.
    """

    steps: int
    step_value: complex
    derivative: complex
    log_value: complex
    value: complex | None
    err_vs_limit: float
    path: str
    branch_ambiguous: bool


def limit_gap_error(limit_log: complex, log_value: complex) -> float:
    """|exp(log_value) - exp(limit_log)| evaluated without leaving log space.

    Uses the factorization exp(Re limit) * |exp(gap) - 1|, which stays
    finite and meaningful when either exponential alone would overflow;
    an overflowing comparison comes back as inf rather than an exception.
    """
    gap = log_value - limit_log
    if not math.isfinite(gap.real) and gap.real > 0.0:
        return math.inf
    if gap.real > 690.0:
        return math.inf
    try:
        scale = math.exp(limit_log.real)
    except OverflowError:
        return math.inf
    return scale * abs(cexpm1(gap))


def step_pairing(a: Generator, f: Functional, x: CVec, t: float, n: int) -> complex:
    """The pairing of one product step: f(exp((t/n) A) x)."""
    return pairing(f, x) + step_derivative(a, f, x, t, n) / float(n)


def _drifts(
    a: Generator,
    f: Functional,
    x: CVec,
    t: float,
    steps: Iterable[int],
    defects: Sequence[np.ndarray] = (),
) -> Iterator[tuple[int, complex]]:
    """(n, n * f((exp((t/n) A) - I) x)) for each step count n of ``steps``,
    taken lazily, so every drift before an undividable count is yielded.

    A diagonal generator's nonzero terms (f_m x_m, a_m) are formed once, as
    Python numbers: CPython's complex product is numpy's formula, so each
    drift has the bits of a loop over numpy scalars.  A float enters each
    product as complex(h, 0.0), the operand numpy promotes it to.  A dense
    generator's defect at t/n is ``defects[k]`` for the k-th count when the
    caller holds it, and is formed here otherwise.  A count below 1 raises
    ValueError.
    """
    if a.kind == "diagonal":
        terms = [
            (fm * xm, am)
            for fm, xm, am in zip(f.coords.tolist(), x.coords.tolist(), a.entries.tolist())
            if not (fm == 0.0 or xm == 0.0)
        ]
    for k, n in enumerate(steps):
        if n < 1:
            raise ValueError("step count must be positive")
        h = t / float(n)
        if a.kind == "diagonal":
            h = complex(h, 0.0)
            total = 0.0 + 0.0j
            for w, am in terms:
                total += w * cexpm1(h * am)
            yield n, complex(float(n), 0.0) * total
        else:
            defect = defects[k] if k < len(defects) else semigroup_defect(a, h)
            yield n, float(n) * complex(np.dot(f.coords, defect @ x.coords))


def step_derivative(
    a: Generator, f: Functional, x: CVec, t: float, n: int, *, defect: np.ndarray | None = None
) -> complex:
    """n * f((exp((t/n) A) - I) x), the discrete drift of the step pairing.

    Computed through the orbit defect so nothing is lost to cancellation
    even when t/n is far below the resolution of 1 + t/n.  A caller that
    already holds a dense generator's defect at t/n passes it as ``defect``.
    """
    return next(_drifts(a, f, x, t, (n,), () if defect is None else (defect,)))[1]


def _log_power(offset: complex, n: int) -> complex:
    """n log(1 + offset), the log of the n-th power of the step value: the one
    log-domain power carrier.  A step value of exactly 0 gives -inf."""
    if offset == -1.0:
        return complex(-math.inf, 0.0)
    return float(n) * clog1p(offset)


def product_log_value(a: Generator, f: Functional, x: CVec, n: int) -> complex:
    """log of the unit-time n-step scalar product value, via the drift carrier."""
    return _log_power(step_derivative(a, f, x, 1.0, n) / float(n), n)


@dataclass(frozen=True)
class StepBatch:
    """The unit-time scalar carrier over a batch: row i is step count
    ``steps[i]``, column j is ``vectors[j]``.

    ``log_values`` holds n log(1 + offset), ``errors`` the limit gap of
    each against one limit log, and ``spreads`` a first-order rounding
    scale of each error.  The scalar carrier (``product_log_value`` with
    ``limit_gap_error``) sums and rounds in another order; the two differ
    by a modest multiple of the spread.
    """

    log_values: np.ndarray
    errors: np.ndarray
    spreads: np.ndarray


def _pullbacks(a: Generator, f: Functional, steps) -> tuple[np.ndarray, np.ndarray]:
    """Per step count n, the functional g with g(v) = f((exp(A/n) - I) v)
    and a bound on the moduli its rounding scales with (one row each)."""
    if a.kind == "diagonal":
        h = np.array([1.0 / float(n) for n in steps])
        z = h[:, None] * a.entries
        defect = cexpm1_array(z)
        # the versine half of Re cexpm1 is at most |defect| + |expm1(Re z)|
        weight = np.abs(f.coords) * (np.abs(defect) + 2.0 * np.abs(np.expm1(z.real)))
        return f.coords * defect, weight
    adjoints = semigroup_defects(a, [1.0 / float(n) for n in steps]).transpose(0, 2, 1)
    return adjoints @ f.coords, np.abs(adjoints) @ np.abs(f.coords)


def batched_log_values(
    a: Generator, f: Functional, vectors: np.ndarray, steps, limit_log: complex
) -> StepBatch:
    """The scalar carrier for many vectors and step counts at once.

    For each step count n the functional is pulled back through one
    defect exp(A/n) - I (one ``cexpm1_array`` call for a diagonal
    generator, one ``semigroup_defects`` stack for a dense one), and one
    matmul gives every vector's step offset.  The log power goes through
    ``clog1p_array`` and the limit gap through ``cexpm1_array``, the same
    formulas as the scalar carrier.
    """
    n = np.array([float(k) for k in steps])[:, None]
    pull, weight = _pullbacks(a, f, steps)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        offsets = pull @ vectors.T
        logs = clog1p_array(offsets)
        log_values = _complex(n * logs.real, n * logs.imag)
        gap = log_values - limit_log
        scale = float(np.exp(limit_log.real))
        errors = scale * np.abs(cexpm1_array(gap))
        errors[gap.real > 690.0] = math.inf
        if scale == math.inf:
            errors[:] = math.inf
        moduli = n * (weight @ np.abs(vectors).T) / np.abs(1.0 + offsets)
        spreads = _ROUNDING * (
            errors + (scale + errors) * (moduli + np.abs(log_values) + abs(limit_log))
        )
    return StepBatch(log_values, errors, spreads)


def require_unit_pairing(f: Functional, x: CVec) -> None:
    """Raise ValueError unless f(x) = 1, the gauge the scalar reduction closes in."""
    gauge = pairing(f, x)
    if abs(gauge - 1.0) > _NORMALIZED_SLACK:
        raise ValueError(f"scalar route needs f(x) = 1, got {gauge:.6g}")


def scalar_trotter_values(
    a: Generator,
    f: Functional,
    x: CVec,
    t: float,
    steps: Iterable[int],
    defects: Sequence[np.ndarray] = (),
) -> Iterator[TrotterRecord]:
    """The full scalar record for the n-step product pairing, for each step
    count n of ``steps`` in turn.

    Requires the pairing f(x) = 1 (the scalar reduction only closes in
    that gauge); it and the limit exp(t f(A x)) are formed once.  The error
    against the limit is evaluated in log space so it stays meaningful when
    the value itself overflows.  Step counts are taken lazily: a count too
    large to divide t by raises OverflowError after the records before it.
    ``defects`` is passed on to the drift, as in ``step_derivative``.
    """
    require_unit_pairing(f, x)
    limit_log = t * pairing(f, apply_generator(a, x))
    for n, deriv in _drifts(a, f, x, t, steps, defects):
        offset = deriv / float(n)
        log_value = _log_power(offset, n)
        value = None
        if abs(log_value.real) < MATERIALIZE_LOG_BOUND:
            value = cmath.exp(log_value)
        yield TrotterRecord(
            steps=n,
            step_value=1.0 + offset,
            derivative=deriv,
            log_value=log_value,
            value=value,
            err_vs_limit=limit_gap_error(limit_log, log_value),
            path="log",
            branch_ambiguous=abs(offset) > 0.5,
        )


def scalar_trotter_value(
    a: Generator, f: Functional, x: CVec, t: float, n: int, *, defect: np.ndarray | None = None
) -> TrotterRecord:
    """The scalar record of one step count: see ``scalar_trotter_values``."""
    return next(scalar_trotter_values(a, f, x, t, (n,), () if defect is None else (defect,)))


def dense_trotter_apply(
    a: Generator, proj: Projection, x: CVec, t: float, n: int, *, defect: np.ndarray | None = None
) -> CVec:
    """The alternating product (exp((t/n) A) P)^n x.

    Forms the one-step matrix S = exp((t/n) A) P once and raises it to
    the n-th power by repeated squaring, so the cost grows like log n.
    Rank-one projections get no closed form: the scalar identity
    f(z) c^(n-1) is what comparisons against this route are meant to
    test.

    Accuracy floor: powering carries the rounding of S into S^n, so the
    rounding error grows like n * 2^-52 relative to the product.  On a
    random dense d = 8 draw (generator norm 2, rank-4 oblique P, t = 1)
    the gap to the limit oracle falls with the Trotter error to 1.6e-7
    at n = 2^30, rises again to 1.8e-4 at n = 2^40, is meaningless at
    n = 2^60 and overflows by n = 2^80.  Overflow of the powered matrix
    or of the result raises SemigroupOverflow.  A caller that already
    holds a dense generator's defect at t/n passes it as ``defect``.
    """
    if n < 1:
        raise ValueError("step count must be positive")
    h = t / float(n)
    p_mat = projection_matrix(proj)
    if a.kind == "diagonal":
        step = np.exp(h * a.entries)[:, None] * p_mat
    else:
        if defect is None:
            defect = semigroup_defect(a, h)
        step = p_mat + defect @ p_mat
    # overflow is caught by the finiteness checks, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        power = np.linalg.matrix_power(step, n)
        coords = power @ x.coords
    if not (np.all(np.isfinite(power)) and np.all(np.isfinite(coords))):
        raise SemigroupOverflow(f"alternating product overflowed within {n} steps")
    return CVec(coords, x.p)


def _generator_matrix(a: Generator) -> np.ndarray:
    if a.kind == "diagonal":
        return np.diag(a.entries)
    return np.asarray(a.matrix)


def bounded_limit_oracle(a: Generator, proj: Projection, t: float) -> np.ndarray:
    """The strong limit of the alternating products for bounded A.

    Returns the matrix exp(t P A P) P from ``spaces._expm``.  The product
    routes' defect calls it on another matrix; the 50-digit mpmath tests
    of both are what keep this comparison from being circular.
    """
    p_mat = projection_matrix(proj)
    compressed = p_mat @ _generator_matrix(a) @ p_mat
    return _expm(t * compressed) @ p_mat

