"""Product-formula experiments: step pairings, the log-domain carrier, matrix products.

The scalar route raises the step value 1 + f((exp((t/n) A) - I) x) to the
n-th power in log space, so step values that differ from 1 by only 1e-40
still produce fully resolved powers.  One function, ``batched_log_values``,
forms that log power for a batch of vectors and step counts; every other
scalar helper here is a view of it.  The matrix route powers the one-step
matrix exp((t/n) A) P by repeated squaring.  The two share no code beyond
the orbit defect; comparisons between them are the point of the module.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import SemigroupOverflow
from .projections import Projection, projection_matrix
from .spaces import (
    CVec,
    Functional,
    Generator,
    _complex,
    apply_generator,
    cexpm1,
    cexpm1_array,
    clog1p_array,
    matrix_expm1,
    pairing,
    semigroup_defect,
    semigroup_defects,
)

# Materialize product values only while the log-magnitude is safely
# inside the double range; beyond that the log-domain fields carry on.
MATERIALIZE_LOG_BOUND = 700.0

_NORMALIZED_SLACK = 1e-9


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
    finite and meaningful when either exponential alone would overflow.
    Past a gap of 690, where exp(gap) would overflow, exp(log_value)
    dominates and the factorization exp(Re log_value) * |1 - exp(-gap)|
    takes over.  Where the exponential factor alone overflows, it goes in
    as two halves, so a small gap still gives its finite value; an
    overflowing comparison comes back as inf rather than an exception.
    """
    gap = log_value - limit_log
    base, gap = (log_value.real, -gap) if gap.real > 690.0 else (limit_log.real, gap)
    move = abs(cexpm1(gap))
    try:
        return math.exp(base) * move
    except OverflowError:
        pass
    try:
        half = math.exp(base / 2.0)
    except OverflowError:
        return math.inf
    return half * move * half


def step_pairing(a: Generator, f: Functional, x: CVec, t: float, n: int) -> complex:
    """The pairing of one product step: f(exp((t/n) A) x) = f(x) + offset."""
    return pairing(f, x) + _one_row(a, f, x, t, n).offsets.item()


@dataclass(frozen=True)
class StepBatch:
    """The log-domain carrier over a batch: row i is step count ``steps[i]``,
    column j is ``vectors[j]``.

    ``offsets`` holds the step offsets f((exp((t/n) A) - I) v),
    ``log_values`` n log(1 + offset), and ``errors`` the gap
    |exp(log_value) - exp(limit_log)| of each against one limit log, or
    None when no limit was given.
    """

    offsets: np.ndarray
    log_values: np.ndarray
    errors: np.ndarray | None


def _offsets(
    a: Generator, f: Functional, vectors: np.ndarray, times: np.ndarray, defects
) -> np.ndarray:
    """f((exp(hA) - I) v) for each time h (rows) and vector v (columns).

    ``defects`` holds exp(hA) - I at the times when the caller has them;
    without them the carrier forms them here, with one ``semigroup_defects``
    call for either kind.  A diagonal term is grouped
    (f_m v_m)(exp(h a_m) - 1), over the coordinates some f_m v_m weights; a
    defect there that overflows raises SemigroupOverflow.  A dense generator
    pulls f back through its defects.  Each row has the same bits in a batch
    of any size.
    """
    if defects is None:
        defects = semigroup_defects(a, times)
    if a.kind == "diagonal":
        weights = vectors * f.coords
        defect = np.where(weights.any(axis=0), defects, 0.0)
        over = np.flatnonzero(np.isinf(defect).any(axis=1))
        if over.size:
            raise SemigroupOverflow(f"diagonal orbit at t = {times[over[0]]:.3g} overflows")
        return _by_rows(defect, weights)
    return _by_rows(defects.transpose(0, 2, 1) @ f.coords, vectors)


def _by_rows(table: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``table @ vectors.T``.  BLAS takes a lone row by another kernel than a
    taller table, so it goes in twice: a row has the same bits in any table."""
    if len(table) == 1:
        return (np.concatenate((table, table)) @ vectors.T)[:1]
    return table @ vectors.T


def batched_log_values(
    a: Generator,
    f: Functional,
    vectors: np.ndarray,
    steps: Sequence[int],
    limit_log: complex | None = None,
    *,
    t: float = 1.0,
    defects: np.ndarray | None = None,
) -> StepBatch:
    """The one log-domain carrier: for every step count n of ``steps`` and
    every row v of ``vectors``, the step offset f((exp((t/n) A) - I) v), the
    log power n log(1 + offset), and, given ``limit_log``, the gap to
    exp(limit_log).

    Every product value the lab stores or checks comes from here.  The log
    goes through ``clog1p_array`` (a step value of exactly 0 gives -inf)
    and the gap through ``cexpm1_array``, so nothing is lost to
    cancellation when the offset is far below the resolution of 1 + offset.
    The defects exp((t/n) A) - I at the counts are ``defects`` when the
    caller holds them (see ``_offsets``).  A count below 1 raises
    ValueError, and one too large to divide t by raises OverflowError.
    """
    if any(k < 1 for k in steps):
        raise ValueError("step count must be positive")
    n = np.array([float(k) for k in steps])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        offsets = _offsets(a, f, vectors, t / n, defects)
        logs = clog1p_array(offsets)
        log_values = _complex(n[:, None] * logs.real, n[:, None] * logs.imag)
        if limit_log is None:
            return StepBatch(offsets, log_values, None)
        # limit_gap_error's formula, elementwise; where exp(Re limit) overflows,
        # limit_gap_error itself
        gap = log_values - limit_log
        scale = float(np.exp(limit_log.real))
        if scale == math.inf:
            errors = np.vectorize(limit_gap_error, otypes=[float])(limit_log, log_values)
        else:
            errors = scale * np.abs(cexpm1_array(gap))
        far = gap.real > 690.0
        if far.any():
            errors[far] = np.exp(log_values.real[far]) * np.abs(cexpm1_array(-gap[far]))
    return StepBatch(offsets, log_values, errors)


def _one_row(a: Generator, f: Functional, x: CVec, t: float, n: int) -> StepBatch:
    """The carrier at one vector and one step count."""
    return batched_log_values(a, f, x.coords[None, :], (n,), t=t)


def step_derivative(a: Generator, f: Functional, x: CVec, t: float, n: int) -> complex:
    """n * f((exp((t/n) A) - I) x), the discrete drift of the step pairing.

    Computed through the orbit defect so nothing is lost to cancellation
    even when t/n is far below the resolution of 1 + t/n.
    """
    return _drift(n, _one_row(a, f, x, t, n).offsets.item())


def _drift(n: int, offset: complex) -> complex:
    """n * offset, part by part (no 0 * inf term turns a part into NaN)."""
    return complex(float(n) * offset.real, float(n) * offset.imag)


def product_log_value(a: Generator, f: Functional, x: CVec, n: int) -> complex:
    """log of the unit-time n-step scalar product value: the carrier's one row."""
    return _one_row(a, f, x, 1.0, n).log_values.item()


def require_unit_pairing(f: Functional, x: CVec) -> None:
    """Raise ValueError unless f(x) = 1, the gauge the scalar reduction closes in.
    Written so that a NaN pairing fails it."""
    gauge = pairing(f, x)
    if not abs(gauge - 1.0) <= _NORMALIZED_SLACK:
        raise ValueError(f"scalar route needs f(x) = 1, got {gauge:.6g}")


def scalar_trotter_values(
    a: Generator,
    f: Functional,
    x: CVec,
    t: float,
    steps: Sequence[int],
    defects: np.ndarray | None = None,
) -> list[TrotterRecord]:
    """The full scalar record for the n-step product pairing, for each step
    count n of ``steps``, from one carrier call.

    Requires the pairing f(x) = 1 (the scalar reduction only closes in
    that gauge).  The error against the limit exp(t f(A x)) is evaluated in
    log space so it stays meaningful when the value itself overflows.
    ``defects`` is passed on to the carrier.
    """
    require_unit_pairing(f, x)
    limit_log = t * pairing(f, apply_generator(a, x))
    batch = batched_log_values(a, f, x.coords[None, :], steps, limit_log, t=t, defects=defects)
    rows = zip(
        steps,
        batch.offsets[:, 0].tolist(),
        batch.log_values[:, 0].tolist(),
        batch.errors[:, 0].tolist(),
    )
    return [
        TrotterRecord(
            steps=n,
            step_value=1.0 + offset,
            derivative=_drift(n, offset),
            log_value=log_value,
            value=cmath.exp(log_value) if abs(log_value.real) < MATERIALIZE_LOG_BOUND else None,
            err_vs_limit=err,
            path="log",
            branch_ambiguous=abs(offset) > 0.5,
        )
        for n, offset, log_value, err in rows
    ]


def scalar_trotter_value(a: Generator, f: Functional, x: CVec, t: float, n: int) -> TrotterRecord:
    """The scalar record of one step count: see ``scalar_trotter_values``."""
    return scalar_trotter_values(a, f, x, t, (n,))[0]


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
    holds the defect at t/n passes it as ``defect``; a diagonal step is
    exp((t/n) a) itself and leaves it unread.
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


def bounded_limit_oracles(a: Generator, proj: Projection, times) -> np.ndarray:
    """The strong limits of the alternating products for bounded A, at every
    t of ``times``: the (G, d, d) stack of exp(t P A P) P.

    Each is P + (exp(t P A P) - I) P, from one ``matrix_expm1`` call over
    the stack, and has the bits of its own single-time call.  The product
    routes' defects come from the same kernel on another matrix; the
    50-digit mpmath tests of both are what keep this comparison from being
    circular.  An exponential that overflows gives inf or NaN entries, and
    no warning: the caller checks the entries it reads.
    """
    p_mat = projection_matrix(proj)
    compressed = p_mat @ _generator_matrix(a) @ p_mat
    scaled = np.multiply.outer(np.asarray(times, dtype=np.float64), compressed)
    with np.errstate(over="ignore", invalid="ignore"):
        return p_mat + matrix_expm1(scaled) @ p_mat


def bounded_limit_oracle(a: Generator, proj: Projection, t: float) -> np.ndarray:
    """The strong limit exp(t P A P) P at one time: see ``bounded_limit_oracles``."""
    return bounded_limit_oracles(a, proj, (t,))[0]
