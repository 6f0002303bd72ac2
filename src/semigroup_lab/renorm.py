"""Renorming audits: split norms, classical weighted norms, growth exponents.

Two renorming routes are audited.  The split norm measures a vector
through a bounded projection, ``|P z| + |z - P z|``; it is equivalent to
the base norm within [1, 2|P| + 1] and the projection is a contraction
for it.  The classical weighted norm ``sup_t exp(-w t) |exp(tA) z|``
makes a semigroup with spectral bound below w quasi-contractive; the audit
takes its sup over the lattice t_k = k h of a uniform grid.  The lambda
table extracted from a witness certificate gives per-stage lower bounds on
the growth exponent of the split norm, which is the quantitative
obstruction the certificates exist to show: the semigroup may be
contractive in the base norm while that exponent grows with the stage.

Both audits treat one draw as one column; ``split_norm`` and
``classical_renorm_value`` are the per-vector references they are tested
against.  Both measure their columns in blocks of ``_SPLIT_BLOCK`` through
reused buffers, so their temporaries stay near 100 kB each whatever the
sample count, and every value is that of the whole batch bit for bit.  The
split audit's normals are drawn on a helper thread (``SplitNormals``) while
the caller builds, reads or verifies the certificate and the audit measures
the blocks already drawn; its ratios are summarized block by block (see
``_split_ratio_blocks``).  The classical audit evaluates only the grid times
that can raise a sup: a time whose weighted bound exp(-w t) |exp(tA)| is
below 1 cannot beat the t = 0 norm, so it is skipped, and the sups are those
of the full grid bit for bit.  The logarithmic norm mu of A bounds |exp(tA)|
by exp(t mu) before any exponential is formed, so exp(tA) is formed, in one
stack, only at the shift times and at the times that bound leaves open;
``_weighted_sups`` decides the evaluated times once per audit, and forms, in
one more stack, only those that the range of the columns' magnitudes forces.
A weight or factor exp(+-w t) past the floating range raises
SemigroupOverflow.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePair, SemigroupOverflow, SpectralBoundViolated
from .projections import DEGENERATE_PAIRING, Projection, RankOneProjection, project
from .spaces import (
    CVec, Functional, Generator, _check_p, _conjugate_exponent, norm, semigroup_apply,
    semigroup_matrices, semigroup_norm_bounds,
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


def _norms_into(x: np.ndarray, p: float, scratch: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, ord=p, axis=0)`` of a C-order (d, n) array,
    written into ``out``, for p in {1, 2, inf}, through a complex ``scratch``
    buffer of at least ``x.size`` entries.  No BLAS call: each column's sum
    runs over the rows in their order (numpy's pairwise sum when n = 1)."""
    work = scratch[: x.size].reshape(x.shape)
    if p == 2.0:
        np.multiply(np.conjugate(x, out=work), x, out=work)
        return np.sqrt(np.add.reduce(work.real, axis=0, out=out), out=out)
    if p == 1.0:
        return np.add.reduce(np.abs(x, out=work.real), axis=0, out=out)
    return np.maximum.reduce(np.abs(x, out=work.real), axis=0, out=out, initial=0.0)


def _pairings(f: np.ndarray, cols: np.ndarray, work=None, out=None) -> np.ndarray:
    """f(z) for every column z of a C-order (d, n) array, summed over the rows
    as ``_norms_into`` sums, with no BLAS call; through ``work`` and into
    ``out`` when they are given."""
    return np.add.reduce(np.multiply(f[:, None], cols, out=work), axis=0, out=out)


def _vector_norm(coords: np.ndarray, p: float) -> float:
    """|coords|_p by ``_norms_into``, as a batch of one column.  A sum that
    overflows although every entry is finite goes again scaled by the largest
    modulus, as ``spaces.norm``'s does."""
    with np.errstate(over="ignore"):
        value = _norms_into(coords[:, None], p, np.empty(coords.size, complex), np.empty(1)).item()
    scale = float(np.max(np.abs(coords), initial=0.0))
    if math.isfinite(value) or not math.isfinite(scale):
        return value
    return scale * _vector_norm(coords / scale, p)


def _size(f: Functional, y: CVec) -> float:
    """|f|_q |y|_p, q the conjugate exponent of p: the norm of z -> f(z) y."""
    return _vector_norm(f.coords, _conjugate_exponent(f.p)) * _vector_norm(y.coords, y.p)


# Columns per block of both audits.  At d = 7 a block of complex entries is
# 115 kB, under glibc's default 128 kB mmap threshold, so its buffers come
# from the heap instead of fresh mappings faulted in on every call.
_SPLIT_BLOCK = 1024

# Rows of a stream's real half that ``SplitNormals`` draws between checks for
# a stop.  An audit of up to 65,536 samples draws its real half in one call;
# a larger one that is abandoned stops within a piece.
_REAL_PIECE = 64 * _SPLIT_BLOCK


def _blocks(count: int):
    """(start, stop) of each block of ``count`` columns, ``_SPLIT_BLOCK`` at a
    time.  A lone last column would round differently from a block's, since
    BLAS takes it by its matrix-vector product and numpy sums a one-column
    reduction pairwise, so it joins the block before it."""
    start = 0
    while start < count:
        stop = count if count - start <= _SPLIT_BLOCK + 1 else start + _SPLIT_BLOCK
        yield start, stop
        start = stop


def _draws(seed: int, samples: int, dim: int):
    """The (real, imaginary) row blocks of
    ``default_rng(seed).standard_normal((2, samples, dim))``, one per block of
    ``_blocks(samples)``: the real half comes from one call, the imaginary
    half from one call per block.  A generator's stream does not depend on
    how it is cut, so the blocks hold the whole draw's bits, and a draw that
    fails raises what the whole draw raises."""
    rng = np.random.default_rng(seed)
    try:
        real = rng.standard_normal((samples, dim))
    except (ValueError, MemoryError):
        np.empty((2, samples, dim))  # the whole draw's error names its shape
        raise
    for start, stop in _blocks(samples):
        yield real[start:stop], rng.standard_normal((stop - start, dim))


class SplitNormals:
    """The split audit's two normal streams, ``_draws(seed, samples, dim)``
    and ``_draws(seed + 1, samples, dim)``, drawn on a helper thread while the
    caller does other work: building or decoding the certificate, verifying
    it, and measuring the blocks already drawn.

    The helper fills buffers allocated here, by the calling thread, in the
    order the audit reads them: a stream's real half, then its imaginary
    half one block at a time, at most one block ahead of the audit.  Each
    stream has its own generator, which only the helper uses.  Leaving the
    ``with`` block stops the helper and joins it, whether or not the audit
    took the streams.  Streams this cannot allocate or seed (a negative seed
    or count, or a draw too large for memory) are not drawn ahead: ``key``
    is then None, and the audit draws its streams itself and raises what its
    own draw raises, where it would have raised it.
    """

    def __init__(self, seed: int, samples: int, dim: int):
        self.key = None
        self._thread = None
        try:
            rngs = (np.random.default_rng(seed), np.random.default_rng(seed + 1))
            # One allocation for both real halves, the size of the whole draw
            # it replaces: glibc raises its mmap threshold to the largest
            # mapping freed, and its trim threshold to twice that, so two
            # halves would leave later jobs' buffers to fresh mappings.
            reals = np.empty((2, samples, dim))
            rows = min(samples, _SPLIT_BLOCK + 1)
            imags = (np.empty((rows, dim)), np.empty((rows, dim)))
        except (TypeError, ValueError, MemoryError):
            return
        self._reals, self._imags = reals, imags
        self._ready, self._free = threading.Semaphore(0), threading.Semaphore(len(imags))
        self._stop = False
        self._error: Exception | None = None
        thread = threading.Thread(target=self._fill, args=(rngs,), daemon=True)
        try:
            thread.start()
        except RuntimeError:  # no thread to be had: the audit draws its own
            return
        self.key, self._thread = (seed, samples, dim), thread

    def _fill(self, rngs) -> None:
        try:
            filled = 0
            for rng, real in zip(rngs, self._reals):
                for start in range(0, len(real), _REAL_PIECE):
                    if self._stop:
                        return
                    rng.standard_normal(out=real[start : start + _REAL_PIECE])
                for start, stop in _blocks(len(real)):
                    self._free.acquire()
                    if self._stop:
                        return
                    rng.standard_normal(out=self._imags[filled % 2][: stop - start])
                    filled += 1
                    self._ready.release()
        except Exception as exc:  # the audit raises it when it reads the stream
            self._error = exc
            self._ready.release()

    def _stream(self, index: int):
        real = self._reals[index]
        blocks = list(_blocks(len(real)))
        # the helper fills the imaginary buffers in turn, over both streams
        for k, (start, stop) in enumerate(blocks, start=index * len(blocks)):
            self._ready.acquire()
            if self._error is not None:
                raise self._error
            try:
                yield real[start:stop], self._imags[k % 2][: stop - start]
            finally:  # the block is read once the next is asked for
                self._free.release()

    def streams(self, seed: int, samples: int, dim: int):
        """The block iterators of the audit's two streams: those drawn ahead
        when they are the ones asked for and not yet handed out, else
        ``_draws`` of each, drawn by the caller."""
        if self.key != (seed, samples, dim):
            return _draws(seed, samples, dim), _draws(seed + 1, samples, dim)
        self.key = None
        return self._stream(0), self._stream(1)

    def __enter__(self) -> SplitNormals:
        return self

    def __exit__(self, *exc_info) -> None:
        if self._thread is not None:
            self._stop = True
            self._free.release()
            self._thread.join()
            self._thread = None


def _split_ratio_blocks(proj: RankOneProjection, draws, of_image: bool):
    """Yield (start, ratios) for each (real, imaginary) block of ``draws``:
    split_norm(z) / |z| of every draw z of the block, or
    split_norm(P z) / split_norm(z) when ``of_image``.  ``ratios`` is
    overwritten by the next block.

    For P z = f(z) y the split norms have a closed form:
    split_norm(z) = |f(z)| |y| + |z - f(z) y|, and, as P P z = f(z) f(y) y,
    split_norm(P z) = |f(z)| |y| (|f(y)| + |f(y) - 1|).  Each block is copied
    into one reused buffer as a C-order (d, n) array of its columns; f(z)
    (``_pairings``) and every norm (``_norms_into``) sum over its rows, so no
    BLAS kernel picks an order and a column's ratio has the same bits in every
    block.  f(z), the differences and the norms go to reused buffers too: at
    d = 7, three complex buffers of 115 kB and two rows of 8 kB, whatever
    the sample count.
    """
    f, y, p, dim = proj.functional.coords, proj.vector.coords, proj.p, proj.dim
    y_norm = _vector_norm(y, p)
    f_y = _pairings(f, y[:, None])[0]
    image = abs(f_y) + abs(f_y - 1.0)  # split_norm(P z) / (|f(z)| |y|)
    cols, diff, work = (np.empty(dim * (_SPLIT_BLOCK + 1), dtype=complex) for _ in range(3))
    heads, wholes = (np.empty(_SPLIT_BLOCK + 1) for _ in range(2))
    start = 0
    for real, imag in draws:
        n = len(real)
        z, rest = cols[: n * dim].reshape(dim, n), diff[: n * dim].reshape(dim, n)
        z.real, z.imag = real.T, imag.T
        f_z = _pairings(f, z, rest, work[:n])  # work is free until the first norm
        np.subtract(z, np.multiply(y[:, None], f_z, out=rest), out=rest)
        head = np.multiply(np.abs(f_z, out=heads[:n]), y_norm, out=heads[:n])
        whole = np.add(head, _norms_into(rest, p, work, wholes[:n]), out=wholes[:n])
        top = np.multiply(head, image, out=head) if of_image else whole
        bottom = whole if of_image else _norms_into(z, p, work, head)
        yield start, np.divide(top, bottom, out=head)
        start += n


def _ratio_summary(ratio_blocks, bad) -> tuple[float, float, list[tuple[int, float]]]:
    """(min, max, offending (index, ratio) rows) over every block, with the
    values ``np.min(ratios, initial=inf)``, ``np.max(ratios, initial=0.0)``
    and ``flatnonzero(bad(ratios))`` give on the blocks' concatenation: a
    min or max of block extremes is the extreme of the whole, NaN included."""
    lows, highs, rows = [], [], []
    for start, ratios in ratio_blocks:
        lows.append(np.min(ratios))
        highs.append(np.max(ratios))
        rows += [(start + int(i), float(ratios[i])) for i in np.flatnonzero(bad(ratios))]
    return float(np.min(lows, initial=math.inf)), float(np.max(highs, initial=0.0)), rows


def _equivalence(proj: RankOneProjection, draws, slack: float) -> tuple[float, float, list[tuple]]:
    high = 2.0 * _size(proj.functional, proj.vector) + 1.0
    lo, hi, rows = _ratio_summary(
        _split_ratio_blocks(proj, draws, of_image=False),
        lambda r: (r < 1.0 - slack) | (r > high + slack),
    )
    return lo, hi, [(i, ratio, 1.0, high) for i, ratio in rows]


def _contractivity(proj: RankOneProjection, draws, slack: float) -> tuple[float, list[tuple]]:
    _, worst, rows = _ratio_summary(
        _split_ratio_blocks(proj, draws, of_image=True), lambda r: r > 1.0 + slack
    )
    return worst, [(i, ratio, 1.0) for i, ratio in rows]


def witness_projection(cert: WitnessCertificate) -> RankOneProjection:
    """The rank-one projection onto the certificate's witness vector x:
    P z = f(z) x / f(x), with f(x) summed as the split audit sums f(z)."""
    f, x = cert.functional_obj(), cert.witness
    gauge = _pairings(f.coords, x[:, None])[0]
    if abs(gauge) < DEGENERATE_PAIRING:
        raise DegeneratePair(f"pairing {abs(gauge):.3g} below {DEGENERATE_PAIRING:g}; "
                             "the pair spans no bounded projection")
    return RankOneProjection(f, CVec(x / gauge, cert.p))


def lambda_lower_bounds(cert: WitnessCertificate) -> tuple[float, ...]:
    """Per-stage lower bounds on the growth exponent of the split norm.

    Stage k's product moves the witness y to a vector of norm at least
    |value_k(y)| / |f|; against |y| that forces a growth exponent of at
    least log(|value_k(y)| / (|f| |y|)) at time 1 in any norm that
    dominates |.|, keeps |y| and makes P a contraction, such as the split
    norm |z|_s = |P z| + |z - P z| of the witness projection.  With
    c = f((T(h) P)^n y), |c| <= |f| |(T(h) P)^n y|_s <= |f| e^(w_s) |y|
    when |T(1)|_s <= e^(w_s), since |P|_s <= 1 and |y|_s = |y|; so
    lambda_k <= w_s.  They bound no other renorming: a norm in which the
    semigroup is contractive may keep P unbounded.  |f|_q |y|_p comes from
    the split audit's column norms.
    """
    scale = math.log(_size(cert.functional_obj(), CVec(cert.witness, cert.p)))
    return tuple(lv.real - scale for lv in cert.witness_log_values)


def spectral_bound(a: Generator) -> float:
    """max Re of the generator's spectrum."""
    if a.kind == "diagonal":
        return float(np.max(a.entries.real))
    return float(np.max(np.linalg.eigvals(a.matrix).real))


def renorm_time_grid(
    a: Generator, omega: float, points: int = DEFAULT_GRID_POINTS
) -> np.ndarray:
    """The uniform time grid t_k = k h, h = T / (points - 1), for the
    weighted-norm sup.

    The horizon T = 50 / (omega - spectral bound) is far enough out that
    the weighted orbit has decayed below any tolerance in use.  The audited
    norm is the lattice norm sup_k exp(-omega t_k) |exp(t_k A) z|, an
    equivalent norm for which a shift by a grid time s = j h is exact: the
    shifted lattice t_k + s lies in the grid up to the horizon.  Raises
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
    return np.linspace(0.0, 50.0 / (omega - bound), points)


def classical_renorm_value(
    a: Generator,
    omega: float,
    z: CVec,
    grid: np.ndarray | None = None,
) -> tuple[float, float]:
    """sup over the grid of exp(-omega t) |exp(tA) z|, with its argmax.

    For a dissipative generator (|exp(tA)| <= 1 in the space's norm) the
    sup sits at t = 0 and the weighted norm coincides with the base norm.
    This reference forms exp(tA) and evaluates it at every grid time, so it
    confirms rather than assumes that.  The audit gives the same sups while
    it evaluates only the times whose weighted bound exp(-omega t) |exp(tA)|
    is not below 1, and forms exp(tA) only at its shift times and where the
    bound exp(t mu) from the logarithmic norm mu of A leaves that open.
    """
    if grid is None:
        grid = renorm_time_grid(a, omega)
    best, best_t = -math.inf, 0.0
    for t in grid:
        value = math.exp(-omega * float(t)) * norm(semigroup_apply(a, float(t), z))
        if value > best:
            best, best_t = value, float(t)
    return best, best_t


def _exps(rate: float, times, label: str) -> list[float]:
    """``math.exp(rate * t)`` for each t of ``times``; one past the floating
    range raises SemigroupOverflow naming its time."""
    out = []
    for t in times:
        try:
            out.append(math.exp(rate * float(t)))
        except OverflowError:
            raise SemigroupOverflow(f"{label} at t = {float(t):.3g} overflows") from None
    return out


def _weighted_sups(
    a: Generator, grid: np.ndarray, omega: float, draws: np.ndarray, shift_idx, p: float
) -> tuple[np.ndarray, np.ndarray]:
    """``classical_renorm_value`` over ``grid`` (whose first time is 0, as
    ``renorm_time_grid``'s is) of each of the audit's columns: the rows of
    ``draws``, then the draws moved by exp(sA) at each grid time s of
    ``shift_idx``; with the column of factors exp(omega s) of the audit's
    right side.  A weight exp(-omega t) or a factor past the floating range
    raises SemigroupOverflow naming its time.

    A grid time is evaluated only where it could raise a sup.  With
    w = exp(-omega t) and B a bound on the larger of |exp(tA)|_1 and
    |exp(tA)|_inf, ``w |exp(tA) z| <= w B |z|`` in each of l^1, l^2 and
    l^inf (for l^2 by Riesz-Thorin, |B|_2 <= sqrt(|B|_1 |B|_inf)).  B is
    first ``spaces.semigroup_norm_bounds``, exp(t mu) (1 + eps) +
    max(1, exp(t mu)) eta_t from the logarithmic norm mu of A, with
    eps = 2^-40 and eta_t bounds on the rounding of the computed propagator:
    0 for a diagonal generator, whose complex ``exp`` and t a_m rounding eps
    covers, and for a dense one the error of ``matrix_expm1``'s Taylor step
    carried through its squarings.  exp(tA) is formed, in one
    ``semigroup_matrices`` call, at the shift times and at every time that
    bound leaves open, and there B becomes M, the larger of the greatest
    column and row sums of |exp(tA)|.  The overflow check of that bound runs
    over the whole grid, so an orbit that overflows anywhere on it raises
    the SemigroupOverflow the whole grid's stack raises, and a slice of the
    stack has the bits of the whole grid's.
    Componentwise ``|fl(P z)| <= (1 + gamma_d) |P| |z|``, and the computed
    norms, M and the product with w add a few more rounding units, about
    (4d + 10) * 2^-53 in all, which the factor 1 + 1e-8 covers for d up
    to 10^6.  Every sup is at least its column's t = 0 norm, so a time with
    ``w B (1 + 1e-8) < 1`` would give every column a value below its sup,
    and ``np.maximum`` would leave the sups as they are; the time is
    skipped, and the sups are those of the full loop bit for bit.

    That rounding argument needs the columns' magnitudes inside a window.
    t = 0 is evaluated over every column first, and lo and hi are the least
    and greatest of those norms.  ``hi * max(B, 1) < 1e140`` bounds
    B |z| <= B hi, so the squares of a 2-norm cannot overflow, and
    ``lo >= 1e-140 * max(w, 1)`` makes the absolute error of underflowing
    products and squares (at most about sqrt(d) 1e-161, times w) negligible
    against every sup, each of which is at least lo.  A NaN or inf anywhere,
    in a bound or in a norm, fails these comparisons, so such times are
    evaluated.  The evaluated times are decided once, over all columns, and
    any of them the first call did not form are formed in one more call; a
    time one column's window forces is evaluated for every column, which
    costs time but leaves every sup the argument covers as it is.

    The columns are taken ``_SPLIT_BLOCK`` at a time, with the lone-column
    merge of ``_blocks``, and every evaluated time of every block writes
    into the same two buffers and one row, so no time maps and faults in
    fresh memory.
    """
    bounds = semigroup_norm_bounds(a, grid)
    weights = np.array(_exps(-omega, grid, "weight exp(-omega t)"))
    factors = np.array([[f] for f in _exps(omega, grid[shift_idx], "shift factor exp(omega t)")])
    formed = np.union1d(shift_idx, np.flatnonzero(~(weights * bounds * (1.0 + 1e-8) < 1.0)))
    stack = semigroup_matrices(a, grid[formed])
    props = dict(zip(formed.tolist(), stack))  # exp(tA) by grid index
    mags = np.abs(stack)
    bounds[formed] = np.maximum(mags.sum(axis=1).max(axis=1), mags.sum(axis=2).max(axis=1))
    cols = np.concatenate([draws.T] + [props[k] @ draws.T for k in shift_idx], axis=1)
    dim, count = cols.shape
    sups = np.full(count, -math.inf)
    size = min(count, _SPLIT_BLOCK + 1)
    moved, work = (np.empty(dim * size, dtype=complex) for _ in range(2))
    row = np.empty(size)

    def evaluate(times) -> None:
        """Raise the sups to the weighted norms at the grid times ``times``, block by block."""
        for start, stop in _blocks(count):
            n, block, best = stop - start, cols[:, start:stop], sups[start:stop]
            out, norms = moved[: dim * n].reshape(dim, n), row[:n]
            for k in times:
                np.matmul(props[k], block, out=out)
                np.multiply(_norms_into(out, p, work, norms), weights[k], out=norms)
                np.maximum(best, norms, out=best)

    evaluate([0])
    lo, hi = sups.min(), sups.max()  # an empty batch is refused here
    idle = weights * bounds * (1.0 + 1e-8) < 1.0
    floors = 1e-140 * np.maximum(weights, 1.0)
    ceilings = 1e140 / np.maximum(bounds, 1.0)
    evaluated = np.flatnonzero(~(idle & (floors <= lo) & (hi < ceilings))[1:]) + 1
    later = [k for k in evaluated.tolist() if k not in props]
    if later:  # only where the window forces a time the bound settled
        props.update(zip(later, semigroup_matrices(a, grid[later])))
    evaluate(evaluated)
    return sups, factors


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
    if time_samples < 1:
        raise ValueError("classical audit needs at least one time sample")
    _check_p(p)  # the skip in _weighted_sups is proven for these norms only
    bound = spectral_bound(a)
    grid = _time_grid(bound, omega, grid_points)
    draws = _draw(seed, vector_samples, a.dim)
    shift_idx = np.unique(np.round(np.linspace(0, grid.size - 1, time_samples)).astype(int))
    shifts = grid[shift_idx]
    sups, factors = _weighted_sups(a, grid, omega, draws, shift_idx, p)
    base = sups[:vector_samples]
    lhs = sups[vector_samples:].reshape(shifts.size, vector_samples)
    rhs = factors * base
    excess = lhs - rhs
    worst_excess = float(np.max(excess, initial=-math.inf))
    violations = [
        (int(i), float(shifts[k]), float(lhs[k, i]), float(rhs[k, i]))
        for i, k in np.argwhere(excess.T > tol)
    ]
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
        passed=not violations,
    )


def _split_audit(
    cert: WitnessCertificate,
    seed: int,
    vector_samples: int,
    slack: float,
    normals: SplitNormals | None = None,
) -> RenormReport:
    """The split audit: the split-norm sandwich (``_equivalence``) over the
    stream of ``seed`` and projection contractivity (``_contractivity``) over
    that of ``seed + 1``, both streams drawn by ``normals`` (one is started
    here when none is given)."""
    if normals is None:
        with SplitNormals(seed, vector_samples, cert.dim) as own:
            return _split_audit(cert, seed, vector_samples, slack, own)
    proj = witness_projection(cert)
    first, second = normals.streams(seed, vector_samples, proj.dim)
    lo, hi, eq_violations = _equivalence(proj, first, slack)
    worst, ctr_violations = _contractivity(proj, second, slack)
    lambdas = lambda_lower_bounds(cert)
    size = _size(proj.functional, proj.vector)
    violations = [("equivalence", *row) for row in eq_violations]
    violations += [("contractivity", *row) for row in ctr_violations]
    if not all(b > a for a, b in zip(lambdas, lambdas[1:])):
        violations.append(("lambda_order",) + lambdas)
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
            "projection_norm": size,
        },
        summary={
            "min_ratio": lo,
            "max_ratio": hi,
            "ratio_bound": 2.0 * size + 1.0,
            "contractivity_max": worst,
            "lambda_gap": lambdas[-1] - lambdas[0] if len(lambdas) > 1 else 0.0,
        },
        lambdas=lambdas,
        violations=tuple(violations),
        passed=not violations,
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
    normals: SplitNormals | None = None,
) -> RenormReport:
    """Audit a renorming route and report violations, if any.

    kind "split" takes a witness certificate: it checks the split-norm
    sandwich and projection contractivity, and tabulates the lambda
    lower bounds on the split norm's growth exponent.  Its normals
    come from ``normals`` when that draws them (a caller starts one before
    it has the certificate), else from a helper started here.  kind
    "classical" takes a generator and weight: it checks the weighted
    norm's quasi-contractivity sample by sample on the time grid.
    """
    if kind == "split":
        if cert is None:
            raise ValueError("split audit needs a certificate")
        return _split_audit(cert, seed, vector_samples, slack, normals)
    if kind == "classical":
        if a is None or omega is None:
            raise ValueError("classical audit needs a generator and a weight")
        return _classical_audit(
            a, omega, p, seed, vector_samples, time_samples, grid_points, tol
        )
    raise ValueError(f"unknown audit kind {kind!r}")
