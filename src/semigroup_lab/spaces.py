"""Finite sections of sequence spaces, coordinate generators, and orbits.

Vectors live in a truncated complex sequence space with an l^p norm
(p in {1, 2, inf}); functionals carry the same tag and are measured in
the conjugate exponent.  The pairing is bilinear, not sesquilinear:
``pairing(f, v) = sum_m f_m v_m``.

Generators come in two flavours.  Diagonal ones are built from a growth
law and act coordinatewise; dense ones are explicit matrices.  Orbits
``exp(t A) v`` go through one propagator, ``semigroup_matrices``, which
stacks ``exp(t A)`` over a list of times.  A dense one is
``I + (exp(t A) - I)``.  ``semigroup_defects`` forms every time's defect
exp(t A) - I for either kind with one call: ``cexpm1`` of the scaled
entries for a diagonal generator, and for a dense one the lab's one matrix
exponential, ``matrix_expm1``, which returns exp(X) - I directly, so
small-time drifts are not lost to cancellation.  ``dense_exponents`` gives
the stack of t A that call takes, after its overflow check, so that a caller
can put other matrices into the same call.  The single-time
``semigroup_defect`` is that table at one time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, SemigroupOverflow

# exp() overflows just above 709.78; leave a little headroom.
EXP_OVERFLOW = 709.0

# Slices per block of ``matrix_expm1``: bounds the (4, chunk, d, d)
# transients of a long stack.
_DEFECT_CHUNK = 64

# ``matrix_expm1``'s Taylor degree m and the largest 1-norm theta it takes
# unscaled: at theta the remainder sum_{k > m} theta^k / k! is 2^-53 theta,
# a forward bound relative to the leading term.
_TAYLOR_DEGREE = 18
_TAYLOR_THETA = 1.1518049568703574
# Paterson-Stockmeyer blocks B_j = sum_i c_(4j+i) Y^i (i = 0 .. 3) of the
# Taylor coefficients c_k = 1/k! of exp(y) - 1 (c_0 = 0, and 0 past m),
# shaped to broadcast over the (4, G, d, d) stack of I, Y, Y^2, Y^3.
_PS_COEFFS = np.array(
    [[0.0 if k == 0 or k > _TAYLOR_DEGREE else 1.0 / math.factorial(k) for k in range(j, j + 4)]
     for j in range(0, _TAYLOR_DEGREE + 1, 4)]
)[:, :, None, None, None]

# The least integer that rounds past the largest double.
_FLOAT_LIMIT = 2**1024 - 2**970

_LAW_KINDS = ("poly", "imag_poly", "geom", "factorial", "imag_double_exp", "table")
_P_VALUES = (1.0, 2.0, math.inf)


def _coerce_coords(coords) -> np.ndarray:
    arr = np.asarray(coords, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("coordinates must form a nonempty 1-d array")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _check_p(p: float) -> float:
    p = float(p)
    if p not in _P_VALUES:
        raise ValueError(f"p must be one of 1, 2, inf (got {p!r})")
    return p


@dataclass(frozen=True, eq=False)
class CVec:
    """A point of the truncated sequence space, tagged with its norm index."""

    coords: np.ndarray
    p: float = 2.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", _coerce_coords(self.coords))
        object.__setattr__(self, "p", _check_p(self.p))

    @property
    def dim(self) -> int:
        return self.coords.size


@dataclass(frozen=True, eq=False)
class Functional:
    """A coordinate functional on the space tagged ``p``.

    The tag names the predual space; the size of the functional is the
    l^q norm of its coefficients for the conjugate exponent q.
    """

    coords: np.ndarray
    p: float = 2.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", _coerce_coords(self.coords))
        object.__setattr__(self, "p", _check_p(self.p))

    @property
    def dim(self) -> int:
        return self.coords.size


@dataclass(frozen=True)
class GrowthLaw:
    """A named family of diagonal generator entries.

    kind           entry at coordinate m (1-based)
    -------------  --------------------------------
    poly           -m**param
    imag_poly      1j * m**param
    geom           1j * param**m
    factorial      1j * m!
    imag_double_exp 1j * param**(2**m)
    table          values[m-1] verbatim

    Entry moduli must be nondecreasing in m; ``law_entries`` enforces
    this for every kind, including explicit tables.  A table law's
    ``param`` must be 0, its default.
    """

    kind: str
    param: float = 0.0
    values: tuple[complex, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.kind not in _LAW_KINDS:
            raise ValueError(f"unknown growth law kind {self.kind!r}")
        if self.kind == "table" and not self.values:
            raise ValueError("table law needs explicit values")
        if not math.isfinite(self.param):
            raise ValueError(f"growth law param must be finite, got {self.param!r}")
        if self.kind == "table" and self.param != 0.0:
            # nothing reads it, so a file could carry any value unchecked
            raise ValueError(f"table law takes no param (got {self.param!r})")
        object.__setattr__(self, "values", tuple(complex(v) for v in self.values))


@np.errstate(over="ignore", invalid="ignore")
def law_entries(law: GrowthLaw, dim: int) -> np.ndarray:
    """Materialize the first ``dim`` entries of a growth law.  An entry past
    the floating range raises SemigroupOverflow naming the first such m
    (``dim`` for imag_double_exp, whose exponents are checked first)."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    m = np.arange(1, dim + 1, dtype=np.float64)
    if law.kind == "poly":
        entries = -(m**law.param) + 0j
    elif law.kind == "imag_poly":
        entries = 1j * m**law.param
    elif law.kind == "geom":
        entries = 1j * law.param**m
    elif law.kind == "factorial":
        # each m! rounded once from the exact integer, up to the first
        # that rounds past the floating range
        exact = map(math.factorial, range(1, dim + 1))
        rounded = np.fromiter(itertools.takewhile(_FLOAT_LIMIT.__gt__, exact), np.float64)
        entries = 1j * np.concatenate([rounded, np.full(dim - rounded.size, np.inf)])
    elif law.kind == "imag_double_exp":
        exponents = 2.0 ** np.arange(1, dim + 1)
        logs = exponents * math.log(law.param)
        if np.max(logs) > EXP_OVERFLOW:
            raise SemigroupOverflow(
                f"imag_double_exp entry {dim} exceeds the floating range"
            )
        entries = 1j * np.exp(logs)
    elif law.kind == "table":
        if len(law.values) != dim:
            raise DimensionMismatch(
                f"table law holds {len(law.values)} entries, requested {dim}"
            )
        entries = np.asarray(law.values, dtype=np.complex128)
    else:  # pragma: no cover - guarded in GrowthLaw
        raise ValueError(f"unknown growth law kind {law.kind!r}")
    finite = np.isfinite(entries)
    if not finite.all():
        first = int(np.argmin(finite)) + 1
        raise SemigroupOverflow(f"{law.kind} entry {first} exceeds the floating range")
    moduli = np.abs(entries)
    if np.any(np.diff(moduli) < 0.0):
        raise ValueError("growth law moduli must be nondecreasing")
    return np.asarray(entries, dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class Generator:
    """A diagonal or dense generator on the truncated space.

    Diagonal generators keep the law they came from (when they came from
    one, through ``diagonal_generator``) so configs can be reproduced from
    the record alone; ``serialize.generator_to_dict`` checks the pair.
    """

    kind: str
    entries: np.ndarray | None = None
    matrix: np.ndarray | None = None
    law: GrowthLaw | None = None

    def __post_init__(self) -> None:
        if self.kind == "diagonal":
            if self.entries is None:
                raise ValueError("diagonal generator needs entries")
            object.__setattr__(self, "entries", _coerce_coords(self.entries))
        elif self.kind == "dense":
            if self.matrix is None:
                raise ValueError("dense generator needs a matrix")
            mat = np.asarray(self.matrix, dtype=np.complex128)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError("dense generator matrix must be square")
            mat = mat.copy()
            mat.setflags(write=False)
            object.__setattr__(self, "matrix", mat)
        else:
            raise ValueError(f"unknown generator kind {self.kind!r}")

    @property
    def dim(self) -> int:
        if self.kind == "diagonal":
            return self.entries.size
        return self.matrix.shape[0]


def diagonal_generator(law: GrowthLaw, dim: int) -> Generator:
    return Generator(kind="diagonal", entries=law_entries(law, dim), law=law)


def diagonal_generator_from_entries(entries) -> Generator:
    """A diagonal generator with explicit entries and no named law."""
    return Generator(kind="diagonal", entries=np.asarray(entries, dtype=np.complex128))


def dense_generator(matrix) -> Generator:
    return Generator(kind="dense", matrix=matrix)


def _conjugate_exponent(p: float) -> float:
    if p == 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


def _lp_norm(coords: np.ndarray, p: float) -> float:
    """``np.linalg.norm(coords, p)``.  Its sums of squares or moduli overflow
    once an entry nears 1e154, so a result that is not finite although every
    entry is goes again, scaled by the largest modulus; a finite result is
    returned as it is."""
    with np.errstate(over="ignore"):
        value = float(np.linalg.norm(coords, ord=p))
        if math.isfinite(value) or not np.isfinite(coords).all():
            return value
        scale = float(np.max(np.abs(coords)))
    if scale == math.inf:  # one modulus alone is out of range
        return scale
    return scale * float(np.linalg.norm(coords / scale, ord=p))


def norm(v: CVec) -> float:
    """The l^p norm of a vector under its own tag."""
    return _lp_norm(v.coords, v.p)


def dual_norm(f: Functional) -> float:
    """The size of a functional: the l^q norm for the conjugate exponent."""
    return _lp_norm(f.coords, _conjugate_exponent(f.p))


def row_norms(rows: np.ndarray, p: float) -> np.ndarray:
    """The l^p norm of every row of a (G, d) array, each with the bits of
    :func:`norm` on that row, overflow rescaling included."""
    with np.errstate(over="ignore"):
        if p == 2.0:  # np.linalg.norm's own sum for one vector: two dots
            out = np.sqrt(dots(rows.real, rows.real) + dots(rows.imag, rows.imag))
        else:
            out = np.linalg.norm(rows, ord=p, axis=1)
    for k in np.flatnonzero(~np.isfinite(out)):
        out[k] = _lp_norm(rows[k], p)
    return out


def spectral_norm(m: np.ndarray) -> float:
    """``np.linalg.norm(m, 2)`` with its bits, without its generic axis
    handling: LAPACK returns the singular values in descending order, so the
    first is the maximum that ``np.linalg.norm`` takes.  A NaN entry raises
    the same ``LinAlgError``, an inf entry gives the same NaN, and an empty
    matrix gives 0."""
    values = np.linalg.svd(m, compute_uv=False)
    return float(values[0]) if values.size else 0.0


def spectral_norm_bound(m: np.ndarray) -> float:
    """An upper bound on ``spectral_norm(m)`` that takes no SVD: NaN or inf
    when m has such an entry or its squares overflow, so that it then
    passes no ``<=`` test against a finite limit.

    |B|_2 <= |B|_F (Golub & Van Loan, *Matrix Computations*, 2.3), and
    |m|_F is formed here as the root of one BLAS sum of the squared moduli
    of the n entries (``np.vdot``, which, unlike ``np.linalg.norm``, warns
    of no overflow).  Each product and sum rounds by a relative 2^-53, and a
    product below 2^-1022 loses at most 2^-1075 absolute, so the true |m|_F
    is at most the computed one times 1 + (n + 4) 2^-53, plus
    sqrt(n) 2^-537.  LAPACK's largest singular value lies within a relative
    p(d) 2^-53 of the true one, p(d) of order d.  The factor 1 + 1e-9
    covers those relative errors and the rounding of the bound itself for
    n up to 10^6 (d up to 10^3), and the term 2^-500 the underflow for n up
    to 2^74.  So wherever ``spectral_norm_bound(m) * c <= limit`` holds for
    a c >= 0, ``spectral_norm(m) * c <= limit`` holds too (rounding is
    monotone), and a check may accept on the bound and take the SVD only
    when the bound does not settle it."""
    return math.sqrt(np.vdot(m, m).real) * (1.0 + 1e-9) + 2.0**-500


def _check_dims(a: int, b: int, what: str) -> None:
    if a != b:
        raise DimensionMismatch(f"{what}: dimensions {a} and {b} differ")


def pairing(f: Functional, v: CVec) -> complex:
    """The bilinear pairing sum_m f_m v_m (no conjugation)."""
    _check_dims(f.dim, v.dim, "pairing")
    return complex(np.dot(f.coords, v.coords))


def pairings(f: Functional, rows: np.ndarray) -> np.ndarray:
    """The pairing of f with every row of a (G, d) array, each with the bits
    of :func:`pairing`."""
    _check_dims(f.dim, rows.shape[-1], "pairings")
    return dots(rows, f.coords)


def dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_m u_m v_m over the last axis, broadcast over the others, as a
    stack of 1 x d by d x 1 products: numpy takes each pair by the kernel of
    ``np.dot`` on one pair of vectors, so a pair's bits do not depend on the
    shape of the stack.  ``dots(rows, f)`` pairs every row with f,
    ``dots(u, v)`` row k of u with row k of v, and
    ``dots(table[:, None, :], vectors[None, :, :])`` every row of the table
    with every vector."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def apply_generator(a: Generator, v: CVec) -> CVec:
    _check_dims(a.dim, v.dim, "apply_generator")
    if a.kind == "diagonal":
        return CVec(a.entries * v.coords, v.p)
    return CVec(a.matrix @ v.coords, v.p)


def cexpm1(z):
    """exp(z) - 1 for complex z, or elementwise on an array, without
    cancellation near zero.

    The real part uses expm1 plus the versine identity
    ``cos(y) - 1 = -2 sin(y/2)^2`` so both pieces stay accurate for
    small arguments.  A scalar gives a scalar.  An overflowing exponential
    gives inf or NaN parts; its callers, ``semigroup_defects`` and
    ``trotter.limit_gaps``, silence numpy's overflow warnings around it.
    """
    x, y = z.real, z.imag
    out = _complex(np.expm1(x) * np.cos(y) - 2.0 * np.sin(y / 2.0) ** 2, np.exp(x) * np.sin(y))
    return out[()]


def clog1p(z):
    """log(1 + z) on the principal branch for complex z, or elementwise on
    an array, accurate for small |z|.

    ``np.log1p`` is not: on complex input it returns a real part of 0 once
    |z| is near 1e-19.  Here, for |z| <= 1/2, the real part is
    0.5 log1p(2x + x^2 + y^2), half the log of |1 + z|^2, and the imaginary
    part atan2(y, 1 + x); against mpmath the error is at most 1e-14
    relative.  Beyond 1/2 the direct logarithm takes over, since
    2x + x^2 + y^2 cancels where 1 + z is near 0; there the error is
    absolute, up to 1e-15 * max(1, |log(1 + z)|), since the direct
    logarithm cancels where |1 + z| is close to 1.  A scalar gives a
    scalar, and z = -1 gives -inf.
    """
    z = np.asarray(z)
    x, y = z.real, z.imag
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = _complex(0.5 * np.log1p(x * (2.0 + x) + y * y), np.arctan2(y, 1.0 + x))
        far = np.abs(z) > 0.5
        out[far] = np.log(1.0 + z[far])
    return out[()]


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + i im with no complex multiply, so an infinite part cannot turn
    the other into NaN."""
    out = np.empty(np.broadcast(re, im).shape, dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def matrix_expm1(stack: np.ndarray) -> np.ndarray:
    """exp(X) - I for every slice X of a (G, d, d) stack: the lab's one
    matrix exponential.

    Scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 2005) with
    a Taylor polynomial in place of Pade, so no linear solve (Bader, Blanes
    & Casas, Mathematics 7, 2019).  Each slice takes its own scaling 2^-s,
    the least s >= 0 with |X / 2^s|_1 < theta.  Then
    D = Y p(Y), with Y = X / 2^s and p the degree m - 1 Taylor polynomial
    of (e^y - 1) / y, is evaluated over the whole stack by
    Paterson-Stockmeyer, and s doublings D <- D D + 2 D undo the scaling.
    No identity is added and none cancels, so a small defect keeps its
    relative accuracy.  Every operation acts slice by slice, so a slice
    gets the same bits in any stack as on its own.  A slice whose
    exponential overflows comes back inf or NaN, with no warning.  A stack
    goes in blocks of ``_DEFECT_CHUNK`` slices, which bounds the transients.
    """
    stack = np.asarray(stack, dtype=np.complex128)
    if len(stack) <= _DEFECT_CHUNK:
        return _expm1_block(stack)
    defects = np.empty_like(stack)
    for k in range(0, len(stack), _DEFECT_CHUNK):
        defects[k : k + _DEFECT_CHUNK] = _expm1_block(stack[k : k + _DEFECT_CHUNK])
    return defects


def _expm1_block(stack: np.ndarray) -> np.ndarray:
    """:func:`matrix_expm1` of one block of slices."""
    powers = np.empty((4, *stack.shape), dtype=np.complex128)
    powers[0] = np.eye(stack.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        # frexp: |X|_1 / theta < 2^e, and e = 0 for inf or NaN
        shifts = np.maximum(np.frexp(np.abs(stack).sum(axis=1).max(axis=1) / _TAYLOR_THETA)[1], 0)
        most = int(shifts.max(initial=0))
        np.multiply(stack, np.ldexp(1.0, -shifts)[:, None, None], out=powers[1])
        _, y, y2, y3 = powers
        np.matmul(y, y, out=y2)
        np.matmul(y2, y, out=y3)
        top = y2 @ y2
        # summed term by term, not by a reduction, whose order can depend on
        # the shape; the zero c_0 adds +0 to B_0, which leaves every nonzero
        # entry as it is
        terms = _PS_COEFFS * powers
        blocks = terms[:, 0] + terms[:, 1]
        blocks += terms[:, 2]
        blocks += terms[:, 3]
        defect = blocks[-1]
        for block in blocks[-2::-1]:
            defect = block + top @ defect
        for k in range(most):
            live = shifts > k
            if live.all():
                defect = defect @ defect + 2.0 * defect
            else:
                part = defect[live]
                defect[live] = part @ part + 2.0 * part
    return defect


def _scaled_entries(a: Generator, times) -> np.ndarray:
    """``t * entries``, one row per time; raises at the first t whose
    diagonal orbit overflows."""
    times = np.asarray(times, dtype=np.float64)
    scaled = np.multiply.outer(times, a.entries)
    over = np.flatnonzero(np.max(scaled.real, axis=1) > EXP_OVERFLOW)
    if over.size:
        raise SemigroupOverflow(f"diagonal orbit at t = {times[over[0]]:.3g} overflows")
    return scaled


def semigroup_defects(a: Generator, times) -> np.ndarray:
    """``exp(t A) - I`` for every t in ``times``: the (G, d) table of
    exp(t a_m) - 1 for a diagonal generator, the (G, d, d) stack for a dense one.

    A diagonal table is ``cexpm1`` of the scaled entries; a row that
    overflows comes back inf, and the caller decides whether it matters.  A
    dense stack of t A goes to one ``matrix_expm1`` call; each defect has the
    bits of its own single-time call, and an empty list of times gives a
    (0, d, d) stack.  Before any exponential, a dense overflow names the
    first t with |t| |A|_2 > 690 (see ``dense_exponents``).
    """
    times = np.asarray(times, dtype=np.float64)
    if a.kind == "diagonal":
        with np.errstate(over="ignore", invalid="ignore"):
            return cexpm1(np.multiply.outer(times, a.entries))
    scaled, overflow = dense_exponents(a, times)
    if overflow is not None:
        raise overflow
    return matrix_expm1(scaled)


def dense_exponents(a: Generator, times) -> tuple[np.ndarray, SemigroupOverflow | None]:
    """The (G, d, d) stack of t A for the leading times of ``times`` whose
    orbits pass the overflow check |t| |A|_2 <= 690, and the
    SemigroupOverflow that names the first time to fail it (None when every
    time passes).

    When the largest |t| times ``spectral_norm_bound(A)`` is at most 690,
    every time passes the exact check (see that bound), and no SVD is
    taken.  Otherwise, NaN times and non-finite entries included, the check
    runs on one ``spectral_norm`` of A."""
    times = np.asarray(times, dtype=np.float64)
    if float(np.abs(times).max(initial=0.0)) * spectral_norm_bound(a.matrix) <= 690.0:
        return np.multiply.outer(times, a.matrix), None
    with np.errstate(over="ignore"):
        scales = np.abs(times) * spectral_norm(a.matrix)
    over = np.flatnonzero(scales > 690.0)
    if not over.size:
        return np.multiply.outer(times, a.matrix), None
    first = over[0]
    overflow = SemigroupOverflow(f"dense orbit with |tA| = {scales[first]:.3g} overflows")
    return np.multiply.outer(times[:first], a.matrix), overflow


def log_norm(a: Generator) -> float:
    """An upper bound mu on the logarithmic norm of A in l^1, l^2 and l^inf,
    so that |exp(tA)| <= exp(t mu) in each for t >= 0 (Dahlquist 1958,
    Lozinskii 1958; Soderlind, BIT 46, 2006); NaN when an entry of A is not
    finite.

    For a diagonal generator mu = max Re a_m, where |exp(tA)| = exp(t mu).
    For a dense one it is max(mu_1, mu_inf), with
    mu_1 = max_j (Re a_jj + sum_{i != j} |a_ij|) from the columns and mu_inf
    the same from the rows, which bounds mu_2 as well
    (|B|_2 <= sqrt(|B|_1 |B|_inf)).  The computed value is raised by
    (d + 2) 2^-52 times the largest column or row sum of |A|, which covers
    the rounding of the sums."""
    if a.kind == "diagonal":
        finite = np.isfinite(a.entries).all()
        return float(np.max(a.entries.real)) if finite else math.nan
    if not np.isfinite(a.matrix).all():
        return math.nan
    mags = np.abs(a.matrix)
    off = np.diagonal(a.matrix).real - np.diagonal(mags)
    cols, rows = mags.sum(axis=0), mags.sum(axis=1)
    mu = float(np.maximum(cols + off, rows + off).max())
    return mu + (a.dim + 2) * 2.0**-52 * float(np.maximum(cols, rows).max())


# The relative error bound of one entry of a complex d x d matrix product is
# 2 gamma_(d+2) (Higham, *Accuracy and Stability of Numerical Algorithms*,
# 2nd ed. 2002, 3.6); _PRODUCT_ROUNDING times (d + 2) is twice that.
_PRODUCT_ROUNDING = 2.0**-51
# The most the error of a squaring may reach before the bound on it below
# stops holding.
_SQUARING_SLACK = 2.0**-10


def semigroup_norm_bounds(a: Generator, times) -> np.ndarray:
    """For each t >= 0 of ``times``, a bound B_t on |P|_1 and |P|_inf of
    P = exp(tA) as ``semigroup_matrices`` computes it, rounding included:

        B_t = exp(t mu) (1 + eps) + max(1, exp(t mu)) eta_t + 2^-900,

    with mu = ``log_norm(a)`` and eps = 2^-40.  A time whose bound does not
    hold gets inf, and a generator with an entry that is not finite NaN.
    Before any bound, the SemigroupOverflow that ``semigroup_matrices(a,
    times)`` raises is raised; no exponential is formed.

    Diagonal: each entry is exp(fl(t a_m)), and fl(t Re a_m) <= fl(t mu),
    since rounding is monotone; the complex exponential is good to a few
    ulps, and eps covers them and the rounding of exp(t mu), so eta_t = 0.

    Dense: P = fl(I + D), with D = ``matrix_expm1(fl(tA))``.  With
    u = 2^-53, nu_1 and nu_inf the largest column and row sums of |A|,
    nu = max(nu_1, nu_inf) and mu' = mu + 2u nu, fl(tA) has logarithmic
    norm at most t mu'.  Its scaling 2^s has |Y|_1 < theta for
    Y = fl(tA) / 2^s and 2^s <= max(1, 2 t nu_1 / theta), so in both norms
    |Y| <= r = max(min(t nu_1, theta), t nu_inf / max(1, t nu_1 / theta)).
    The Taylor step then errs from exp(Y) - I by at most
    E_0 = r^19 / 19! / (1 - r / 20) + 16 c (e^r - 1), truncation and
    rounding, with c = (d + 2) 2^-51 the rounding of one matrix product
    (doubled: a chain of at most 9 products and 8 sums).  A doubling
    D <- fl(fl(D D) + 2 D) gives I + D' = (I + D)^2 + F with
    |F| <= 2c (|I + D| + 1)^2, so by induction
    |I + D_j| <= a_j + max(1, a_j) E_j, a_j = exp(t mu' 2^(j - s)), where
    E_(j+1) <= (2 + delta) E_j + 2c (2 + delta)^2 while E_j <= delta = 2^-10.
    Hence eta_t = (2 + delta)^s (E_0 + 2c (2 + delta)^2), and where that
    exceeds delta (or r >= 20) the bound is inf.  The column and row sums
    are taken rounded up, or down where they divide; eps covers the
    rounding of I + D and of this formula, and the term 2^-900 every
    underflow, for d up to 10^3.
    """
    times = np.asarray(times, dtype=np.float64)
    if a.kind == "diagonal":
        _scaled_entries(a, times)  # raises for an orbit that overflows
        with np.errstate(over="ignore", invalid="ignore"):
            return np.exp(times * log_norm(a)) * (1.0 + 2.0**-40) + 2.0**-900
    overflow = dense_exponents(a, times)[1]
    if overflow is not None:
        raise overflow
    mags = np.abs(a.matrix)
    col, row = float(mags.sum(axis=0).max()), float(mags.sum(axis=1).max())
    # nu_1 from above and from below, nu_inf from above
    high, low = 1.0 + 2.0**-40, 1.0 - 2.0**-40
    c = (a.dim + 2) * _PRODUCT_ROUNDING
    delta = _SQUARING_SLACK
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        growth = np.exp(times * (log_norm(a) + 2.0**-52 * max(col, row) * high))
        # 2^s lies between these two
        least = np.maximum(1.0, times * (col * low / _TAYLOR_THETA))
        most = np.maximum(1.0, times * (2.0 * col * high / _TAYLOR_THETA))
        r = np.maximum(np.minimum(times * col, _TAYLOR_THETA), times * row / least) * high
        tail = np.where(r < 20.0, r**19 / math.factorial(19) / (1.0 - r / 20.0), math.inf)
        taylor = tail + 16.0 * c * np.expm1(r)
        doublings = np.log2(most)
        eta = (2.0 + delta) ** doublings * (taylor + 2.0 * c * (2.0 + delta) ** 2)
        eta = np.where(eta <= delta, eta, math.inf)
        return (growth + np.maximum(growth, 1.0) * eta) * (1.0 + 2.0**-40) + 2.0**-900


def semigroup_defect(a: Generator, t: float):
    """The drift ``exp(t A) - I`` of the orbit map at time t: ``semigroup_defects``
    at the one time, a vector of diagonal drifts or a full matrix.  A diagonal
    orbit that overflows raises here."""
    if a.kind == "diagonal":
        _scaled_entries(a, (t,))  # raises for an orbit that overflows
    return semigroup_defects(a, (t,))[0]


def semigroup_matrices(a: Generator, times) -> np.ndarray:
    """``exp(t A)`` for every t in ``times``, stacked into a (G, d, d) array.

    A diagonal generator takes one exponential of the (G, d) table of
    scaled entries, a dense one I plus its ``semigroup_defects``; an
    overflow names the first time that overflows for either kind.
    """
    if a.kind == "diagonal":
        out = np.zeros((len(times), a.dim, a.dim), dtype=np.complex128)
        diag = np.arange(a.dim)
        out[:, diag, diag] = np.exp(_scaled_entries(a, times))
        return out
    return np.eye(a.dim, dtype=np.complex128) + semigroup_defects(a, times)


def semigroup_matrix(a: Generator, t: float) -> np.ndarray:
    """``exp(t A)`` as a d x d matrix, for either generator kind."""
    return semigroup_matrices(a, (t,))[0]


def semigroup_apply(a: Generator, t: float, v: CVec) -> CVec:
    """Evaluate ``exp(t A) v``."""
    _check_dims(a.dim, v.dim, "semigroup_apply")
    return CVec(semigroup_matrix(a, t) @ v.coords, v.p)
