"""Product-formula experiments: step pairings, the log-domain carrier, matrix products.

The scalar route raises the step value 1 + f((exp((t/n) A) - I) x) to the
n-th power in log space, so step values that differ from 1 by only 1e-40
still produce fully resolved powers.  One function, ``batched_log_values``,
forms that log power for a batch of vectors and step counts; every other
scalar helper here is a view of it.  The matrix route powers the one-step
matrices exp((t/n) A) P of a whole job by one stacked squaring ladder,
``dense_trotter_products``.  The two share no code beyond the orbit defect;
comparisons between them are the point of the module.
"""

from __future__ import annotations

import cmath
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

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
    clog1p_array,
    dense_exponents,
    dots,
    matrix_expm1,
    pairing,
    semigroup_defects,
)

# Materialize product values only while the log-magnitude is safely
# inside the double range; beyond that the log-domain fields carry on.
MATERIALIZE_LOG_BOUND = 700.0

_NORMALIZED_SLACK = 1e-9


class TrotterRecord(NamedTuple):
    """One row of a product-formula run at a fixed step count.

    ``value`` is exp(log_value), or None when the product magnitude
    cannot be represented; ``log_value`` is always present, and ``path``
    is always "log".  ``branch_ambiguous`` marks rows whose step offset
    |c - 1| exceeds 1/2: there the recorded log is a branch choice rather
    than a continuation, though for integer n its exponential is not.
    A named tuple, so a ladder's rows are built and unpacked cheaply.
    """

    steps: int
    step_value: complex
    derivative: complex
    log_value: complex
    value: complex | None
    err_vs_limit: float
    path: str
    branch_ambiguous: bool


def limit_gaps(limit_logs, log_values) -> np.ndarray:
    """|exp(log_value) - exp(limit_log)| elementwise, without leaving log space.

    The two arguments broadcast.  Each gap is exp(Re limit) * |exp(gap) - 1|,
    which stays finite and meaningful when either exponential alone would
    overflow.  Past a gap of 690, where exp(gap) would overflow,
    exp(log_value) dominates and exp(Re log_value) * |1 - exp(-gap)| takes
    over.  Where the exponential factor alone overflows, it goes in as two
    halves on those cells only, so a small gap still gives its finite value;
    an overflowing comparison comes back as inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.subtract(log_values, limit_logs)
        base = np.real(limit_logs)
        far = gap.real > 690.0
        if np.count_nonzero(far):
            base, gap = np.where(far, np.real(log_values), base), np.where(far, -gap, gap)
        move = np.abs(cexpm1(gap))
        scale = np.exp(base)
        errors = scale * move
        over = np.isinf(scale)
        if np.count_nonzero(over):
            base, move, over = np.broadcast_arrays(base, move, over)
            errors = np.array(errors)
            half = np.exp(base[over] / 2.0)
            errors[over] = half * move[over] * half
    return errors


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
    pulls f back through its defects.  Every (time, vector) cell comes from
    one ``dots`` pair, so it has the same bits in a batch of any shape.
    """
    if defects is None:
        defects = semigroup_defects(a, times)
    if a.kind == "diagonal":
        # numpy multiplies a lone complex pair by another rounding than a
        # run of them, so at d = 1 the weights go pair by pair through dots
        weights = vectors * f.coords if f.dim > 1 else dots(vectors[..., None], f.coords[:, None])
        defect = np.where(weights.any(axis=0), defects, 0.0)
        over = np.flatnonzero(np.isinf(defect).any(axis=1))
        if over.size:
            raise SemigroupOverflow(f"diagonal orbit at t = {times[over[0]]:.3g} overflows")
        return dots(defect[:, None, :], weights[None, :, :])
    return dots((defects.transpose(0, 2, 1) @ f.coords)[:, None, :], vectors[None, :, :])


def batched_log_values(
    a: Generator,
    f: Functional,
    vectors: np.ndarray,
    steps: Sequence[int] | np.ndarray,
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
    and the gap through ``limit_gaps``, so nothing is lost to
    cancellation when the offset is far below the resolution of 1 + offset.
    The defects exp((t/n) A) - I at the counts are ``defects`` when the
    caller holds them (see ``_offsets``).  The counts, ints or floats, are
    read as one float64 array: a count below 1 or NaN raises ValueError, and
    an int too large to divide t by raises OverflowError.
    """
    n = np.asarray(steps, dtype=np.float64)
    if not (n >= 1.0).all():
        raise ValueError("step count must be positive")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        offsets = _offsets(a, f, vectors, t / n, defects)
        logs = clog1p_array(offsets)
        log_values = _complex(n[:, None] * logs.real, n[:, None] * logs.imag)
    if limit_log is None:
        return StepBatch(offsets, log_values, None)
    return StepBatch(offsets, log_values, limit_gaps(limit_log, log_values))


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
    # positional, in field order: a keyword call costs twice as much per row
    return [
        TrotterRecord(
            n,
            1.0 + offset,
            _drift(n, offset),
            log_value,
            cmath.exp(log_value) if abs(log_value.real) < MATERIALIZE_LOG_BOUND else None,
            err,
            "log",
            abs(offset) > 0.5,
        )
        for n, offset, log_value, err in rows
    ]


def scalar_trotter_value(a: Generator, f: Functional, x: CVec, t: float, n: int) -> TrotterRecord:
    """The scalar record of one step count: see ``scalar_trotter_values``."""
    return scalar_trotter_values(a, f, x, t, (n,))[0]


def dense_trotter_products(
    a: Generator,
    proj: Projection,
    x: CVec,
    times,
    counts: Sequence[int],
    *,
    defects: np.ndarray | None = None,
) -> np.ndarray:
    """The alternating products (exp((t_k/n_k) A) P)^(n_k) x, one row of the
    (G, d) result for each count n_k of ``counts``; ``times`` gives every
    row's t, or one t for all.

    The G one-step matrices S_k = exp(h_k A) P, h_k = t_k / n_k, are formed
    as one stack: exp(h_k a)[:, None] P for a diagonal generator, which
    leaves ``defects`` unread, and P + D_k P for a dense one, with the
    defects D_k = exp(h_k A) - I from ``defects`` when the caller holds them
    and from one ``semigroup_defects`` call otherwise.  ``_matrix_powers``
    raises them to their counts together, so the cost grows like log n, and
    row k has the bits of ``np.linalg.matrix_power(S_k, n_k) @ x``.  Rank-one projections get no
    closed form: the scalar identity f(z) c^(n-1) is what comparisons
    against this route are meant to test.

    A row whose power or product overflows comes back NaN, with no warning:
    the caller decides what an overflow stops.  A count below 1 raises
    ValueError, and one too large to divide a time by OverflowError.
    """
    counts = list(counts)
    if not all(n >= 1 for n in counts):
        raise ValueError("step count must be positive")
    steps = np.asarray(times, dtype=np.float64) / np.array([float(n) for n in counts])
    p_mat = projection_matrix(proj)
    # overflow is caught by the finiteness checks, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if a.kind == "diagonal":
            # row by row, in the shape one count forms it: numpy picks its
            # complex multiply loop by shape, and a 1 x 1 step alone and in a
            # stack of one get different bits
            one_step = np.array([np.exp(h * a.entries)[:, None] * p_mat for h in steps])
            one_step = one_step.reshape(len(steps), *p_mat.shape)
        else:
            if defects is None:
                defects = semigroup_defects(a, steps)
            one_step = p_mat + defects @ p_mat
        powers = _matrix_powers(one_step, counts)
        products = powers @ x.coords
    products[~np.isfinite(powers).all(axis=(1, 2))] = np.nan
    return products


def _matrix_powers(stack: np.ndarray, counts: list[int]) -> np.ndarray:
    """``np.linalg.matrix_power(stack[k], counts[k])`` for every k, with its
    bits, from one squaring ladder over the stack.

    The rows go in order of their highest bit, so the rows that still need
    a square z <- z z are a leading block, squared by one stacked product
    per bit.  A row takes its factor at each of its set bits, least
    significant first, as ``matrix_power`` does: the first factor as it is,
    each later one as ``result @ z``; at n = 3, where ``matrix_power``
    forms (S S) S, as ``z @ result``.  Each product acts slice by slice, so
    a row's bits do not depend on the stack.  A row whose squares overflow
    stays in the ladder to its highest bit and ends with a power that is not
    finite.
    """
    rows = sorted(range(len(counts)), key=lambda k: counts[k].bit_length(), reverse=True)
    takes: dict[int, list[int]] = {}  # bit -> the rows with that bit set
    for k, n in enumerate(counts):
        while n:
            low = n & -n
            takes.setdefault(low.bit_length() - 1, []).append(k)
            n ^= low
    at = {k: p for p, k in enumerate(rows)}  # each row's slice of z
    z = stack[rows]
    result: dict[int, np.ndarray] = {}
    powers = np.empty_like(stack)
    # rows[0] has the highest bit, so the live block never empties
    for bit in range(counts[rows[0]].bit_length() if rows else 0):
        if bit:
            while counts[rows[-1]].bit_length() <= bit:  # rows past their highest bit
                rows.pop()
            z = z @ z if len(rows) == len(z) else z[: len(rows)] @ z[: len(rows)]
        for k in takes.get(bit, ()):
            factor, prior = z[at[k]], result.get(k)
            if prior is None:
                result[k] = factor
            elif counts[k] == 3:
                result[k] = factor @ prior
            else:
                result[k] = prior @ factor
            if bit + 1 == counts[k].bit_length():
                powers[k] = result[k]
    return powers


def dense_trotter_apply(a: Generator, proj: Projection, x: CVec, t: float, n: int) -> CVec:
    """The alternating product (exp((t/n) A) P)^n x: one row of
    ``dense_trotter_products``, with the bits of
    ``np.linalg.matrix_power(exp((t/n) A) P, n) @ x``.

    Accuracy floor: powering carries the rounding of the one-step matrix
    into its n-th power, so the rounding error grows like n * 2^-52
    relative to the product.  On a random dense d = 8 draw (generator norm
    2, rank-4 oblique P, t = 1) the gap to the limit oracle falls with the
    Trotter error to 1.6e-7 at n = 2^30, rises again to 1.8e-4 at n = 2^40,
    is meaningless at n = 2^60 and overflows by n = 2^80.  An overflow
    raises SemigroupOverflow.
    """
    coords = dense_trotter_products(a, proj, x, t, (n,))[0]
    if not np.isfinite(coords).all():
        raise SemigroupOverflow(f"alternating product overflowed within {n} steps")
    return CVec(coords, x.p)


def _generator_matrix(a: Generator) -> np.ndarray:
    if a.kind == "diagonal":
        return np.diag(a.entries)
    return np.asarray(a.matrix)


def _oracle_exponents(a: Generator, p_mat: np.ndarray, times) -> np.ndarray:
    """The (G, d, d) stack of t P A P over ``times``."""
    compressed = p_mat @ _generator_matrix(a) @ p_mat
    return np.multiply.outer(np.asarray(times, dtype=np.float64), compressed)


def bounded_limit_oracle(a: Generator, proj: Projection, t: float) -> np.ndarray:
    """The strong limit exp(t P A P) P of the alternating products for
    bounded A, at one time: the oracle of ``step_defects_and_oracles``."""
    return step_defects_and_oracles(a, proj, (), (t,))[1][0]


def step_defects_and_oracles(
    a: Generator, proj: Projection, steps, times
) -> tuple[np.ndarray, np.ndarray, SemigroupOverflow | None]:
    """The step defects exp(hA) - I at the steps h of ``steps`` and the
    oracles exp(t P A P) P at the times t of ``times``, for one product job.

    Each oracle is P + (exp(t P A P) - I) P.  For a dense generator the
    defects and oracles come from one ``matrix_expm1`` call over one stack,
    and each has the bits of ``semigroup_defects`` or ``bounded_limit_oracle``
    at its own step or time.  The overflow check of ``dense_exponents`` runs
    first: the defects then cover the steps before the first that fails it,
    and the third value is that failure (None when every step passes).  A
    diagonal generator takes its table from ``semigroup_defects`` and its
    oracles from their own call.  The product routes' defects and the
    oracles come from the same kernel on different matrices; the 50-digit
    mpmath tests of both keep their comparison from being circular.  An
    oracle exponential that overflows gives inf or NaN entries, and no
    warning: the caller checks the entries it reads.
    """
    p_mat = projection_matrix(proj)
    exponents = _oracle_exponents(a, p_mat, times)
    if a.kind == "diagonal":
        defects, overflow = semigroup_defects(a, steps), None
        expm1s = matrix_expm1(exponents)
    else:
        scaled, overflow = dense_exponents(a, steps)
        stacked = matrix_expm1(np.concatenate((scaled, exponents)))
        defects, expm1s = stacked[: len(scaled)], stacked[len(scaled) :]
    with np.errstate(over="ignore", invalid="ignore"):
        return defects, p_mat + expm1s @ p_mat, overflow
