"""Finite sections of sequence spaces, coordinate generators, and orbits.

Vectors live in a truncated complex sequence space with an l^p norm
(p in {1, 2, inf}); functionals carry the same tag and are measured in
the conjugate exponent.  The pairing is bilinear, not sesquilinear:
``pairing(f, v) = sum_m f_m v_m``.

Generators come in two flavours.  Diagonal ones are built from a growth
law and act coordinatewise; dense ones are explicit matrices.  Orbits
``exp(t A) v`` go through one propagator, ``semigroup_matrices``, which
stacks ``exp(t A)`` over a list of times.  A dense one is
``I + (exp(t A) - I)``, and ``semigroup_defects`` forms every time's
defect with one call of the lab's one matrix exponential,
``matrix_expm1``, which returns exp(X) - I directly, so small-time drifts
are not lost to cancellation.  The single-time ``semigroup_defect`` is
that stack at one time.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, SemigroupOverflow

# exp() overflows just above 709.78; leave a little headroom.
EXP_OVERFLOW = 709.0

# Times per ``matrix_expm1`` call in ``semigroup_defects``: bounds the
# (chunk, d, d) transients of a long list of times.
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
        if self.kind == "table" and self.param != 0.0:
            # nothing reads it, so a file could carry any value unchecked
            raise ValueError(f"table law takes no param (got {self.param!r})")
        object.__setattr__(self, "values", tuple(complex(v) for v in self.values))


def law_entries(law: GrowthLaw, dim: int) -> np.ndarray:
    """Materialize the first ``dim`` entries of a growth law."""
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
        entries = 1j * np.array([math.factorial(k) for k in range(1, dim + 1)], dtype=np.float64)
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
    moduli = np.abs(entries)
    if np.any(np.diff(moduli) < 0.0):
        raise ValueError("growth law moduli must be nondecreasing")
    return np.asarray(entries, dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class Generator:
    """A diagonal or dense generator on the truncated space.

    Diagonal generators keep the law they came from (when they came from
    one) so configs can be reproduced from the record alone.
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
            if self.law is not None:
                expected = law_entries(self.law, self.entries.size)
                if not np.array_equal(expected, self.entries):
                    raise ValueError("diagonal entries disagree with the declared law")
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


def norm(v: CVec) -> float:
    """The l^p norm of a vector under its own tag."""
    return float(np.linalg.norm(v.coords, ord=v.p))


def dual_norm(f: Functional) -> float:
    """The size of a functional: the l^q norm for the conjugate exponent."""
    return float(np.linalg.norm(f.coords, ord=_conjugate_exponent(f.p)))


def _check_dims(a: int, b: int, what: str) -> None:
    if a != b:
        raise DimensionMismatch(f"{what}: dimensions {a} and {b} differ")


def pairing(f: Functional, v: CVec) -> complex:
    """The bilinear pairing sum_m f_m v_m (no conjugation)."""
    _check_dims(f.dim, v.dim, "pairing")
    return complex(np.dot(f.coords, v.coords))


def apply_generator(a: Generator, v: CVec) -> CVec:
    _check_dims(a.dim, v.dim, "apply_generator")
    if a.kind == "diagonal":
        return CVec(a.entries * v.coords, v.p)
    return CVec(a.matrix @ v.coords, v.p)


def cexpm1(z: complex) -> complex:
    """exp(z) - 1 for complex z without cancellation near zero.

    The real part uses expm1 plus the versine identity
    ``cos(y) - 1 = -2 sin(y/2)^2`` so both pieces stay accurate for
    small arguments.
    """
    x, y = z.real, z.imag
    re = math.expm1(x) * math.cos(y) - 2.0 * math.sin(y / 2.0) ** 2
    im = math.exp(x) * math.sin(y)
    return complex(re, im)


def clog1p(z: complex) -> complex:
    """log(1 + z) on the principal branch, accurate for small |z|.

    Falls back to the direct logarithm once |z| is large enough that the
    alternating series stops paying for itself.  Against mpmath the error
    is at most 1e-14 relative for |z| <= 1/2; beyond that it is absolute,
    up to 1e-15 * max(1, |log(1 + z)|), since the direct logarithm
    cancels where |1 + z| is close to 1.
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


def cexpm1_array(z: np.ndarray) -> np.ndarray:
    """:func:`cexpm1` elementwise on an array, by the same formula."""
    x, y = z.real, z.imag
    with np.errstate(over="ignore", invalid="ignore"):
        return _complex(np.expm1(x) * np.cos(y) - 2.0 * np.sin(y / 2.0) ** 2, np.exp(x) * np.sin(y))


def clog1p_array(z: np.ndarray) -> np.ndarray:
    """log(1 + z) elementwise, accurate for small |z|: :func:`clog1p` on an
    array, with the same split at |z| = 1/2.

    ``np.log1p`` is not: on complex input it returns a real part of 0 once
    |z| is near 1e-19.  Here, for |z| <= 1/2, the real part is
    0.5 log1p(2x + x^2 + y^2), half the log of |1 + z|^2, and the imaginary
    part atan2(y, 1 + x); against mpmath the error is at most 1e-14
    relative.  Beyond 1/2 the direct logarithm takes over, since
    2x + x^2 + y^2 cancels where 1 + z is near 0; there the error is
    absolute, as :func:`clog1p` states.  A step value of exactly 0 (z = -1)
    gives -inf.
    """
    x, y = z.real, z.imag
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = _complex(0.5 * np.log1p(x * (2.0 + x) + y * y), np.arctan2(y, 1.0 + x))
        far = np.abs(z) > 0.5
        out[far] = np.log(1.0 + z[far])
    return out


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
    exponential overflows comes back inf or NaN, with no warning.
    """
    stack = np.asarray(stack, dtype=np.complex128)
    # frexp: |X|_1 / theta < 2^e, and e = 0 for inf or NaN
    shifts = np.maximum(np.frexp(np.abs(stack).sum(axis=1).max(axis=1) / _TAYLOR_THETA)[1], 0)
    most = int(shifts.max(initial=0))
    powers = np.empty((4, *stack.shape), dtype=np.complex128)
    powers[0] = np.eye(stack.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
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
    """``exp(t A) - I`` for every t in ``times``, stacked into a (G, d, d)
    array, for a dense generator.

    The stack of t A goes to ``matrix_expm1``, ``_DEFECT_CHUNK`` times at a
    time; each defect has the bits of its own single-time call, and an empty
    list of times gives a (0, d, d) stack.  Before any exponential, an
    overflow names the first t with |t| |A|_2 > 690, from one 2-norm of A.
    """
    if a.kind != "dense":
        raise ValueError("semigroup_defects needs a dense generator")
    times = np.asarray(times, dtype=np.float64)
    scales = np.abs(times) * np.linalg.norm(a.matrix, 2)
    over = np.flatnonzero(scales > 690.0)
    if over.size:
        raise SemigroupOverflow(f"dense orbit with |tA| = {scales[over[0]]:.3g} overflows")
    scaled = np.multiply.outer(times, a.matrix)
    defects = np.empty_like(scaled)
    for k in range(0, len(times), _DEFECT_CHUNK):
        defects[k : k + _DEFECT_CHUNK] = matrix_expm1(scaled[k : k + _DEFECT_CHUNK])
    return defects


def semigroup_defect(a: Generator, t: float):
    """The drift ``exp(t A) - I`` of the orbit map at time t.

    Returns a vector of diagonal drifts for a diagonal generator and a
    full matrix (``semigroup_defects`` at the one time) for a dense one.
    """
    if a.kind == "diagonal":
        return cexpm1_array(_scaled_entries(a, (t,))[0])
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
