"""Norms, pairings, growth laws, and the semigroup carriers."""

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from semigroup_lab import (
    CVec,
    Functional,
    Generator,
    GrowthLaw,
    SemigroupOverflow,
    apply_generator,
    dense_generator,
    diagonal_generator,
    diagonal_generator_from_entries,
    dual_norm,
    law_entries,
    norm,
    pairing,
    semigroup_apply,
    semigroup_defect,
)
from semigroup_lab.errors import DimensionMismatch
from semigroup_lab.spaces import (
    _DEFECT_CHUNK,
    _TAYLOR_THETA,
    cexpm1,
    clog1p,
    dense_exponents,
    log_norm,
    matrix_expm1,
    pairings,
    row_norms,
    semigroup_defects,
    semigroup_matrices,
    semigroup_matrix,
    semigroup_norm_bounds,
    spectral_norm,
    spectral_norm_bound,
)

from conftest import scalar_cexpm1, scalar_clog1p

EXACT_TOL = 1e-12
SEMIGROUP_TOL = 1e-9
CARRIER_TOL = 1e-13
DEFECT_REF_TOL = 1e-13
DEFECT_SCALES = [1e-12, 2.0**-16, 1e-3, 0.5, 4.0, 30.0]


def test_norm_known_values():
    assert norm(CVec([1.0, 0.0, 0.0], 2.0)) == 1.0
    assert abs(norm(CVec([3.0, 4.0], 2.0)) - 5.0) <= EXACT_TOL
    assert norm(CVec([1.0, 1.0, 1.0], 1.0)) == 3.0
    assert norm(CVec([1.0, -2.0, 3.0], math.inf)) == 3.0


def test_dual_norm_uses_conjugate_exponent():
    assert abs(dual_norm(Functional([3.0, 4.0], 2.0)) - 5.0) <= EXACT_TOL
    # p = 1 vectors pair against sup-norm functionals and vice versa
    assert dual_norm(Functional([3.0, 4.0], 1.0)) == 4.0
    assert dual_norm(Functional([3.0, 4.0], math.inf)) == 7.0


def mpmath_norm(coords, p):
    """The l^p norm at 50 digits."""
    with mpmath.workdps(50):
        moduli = [abs(mpmath.mpc(complex(z))) for z in coords]
        if p == math.inf:
            return float(max(moduli))
        if p == 1.0:
            return float(mpmath.fsum(moduli))
        return float(mpmath.sqrt(mpmath.fsum(m * m for m in moduli)))


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize(
    "coords",
    [
        [1e160, 1e160j],
        [1e200 + 3e199j, -2e199, 5.0],
        [1e308, 1e308],
        [1.5e308, -1.5e308j, 1e-300],
        [1e-170, 1e300 - 1e300j],
    ],
    ids=["1e160", "mixed_1e200", "1e308_pair", "1.5e308", "wide_range"],
)
def test_norms_past_the_sum_of_squares_range_match_mpmath(coords, p):
    # np.linalg.norm sums squares (or moduli) and overflows here although
    # the norm itself is a double; no overflow warning may leak out
    exact = mpmath_norm(coords, p)
    q = {1.0: math.inf, 2.0: 2.0, math.inf: 1.0}[p]
    for got in (norm(CVec(coords, p)), dual_norm(Functional(coords, q)),
                row_norms(np.array([coords, coords], dtype=complex), p)[1]):
        if exact == math.inf:
            assert got == math.inf
        else:
            assert got == pytest.approx(exact, rel=4e-16)


def test_norm_of_a_vector_with_an_infinite_modulus_is_infinite():
    # every entry finite, but |1.5e308 (1 + i)| is not
    assert norm(CVec([1.5e308 + 1.5e308j, 1.0], 2.0)) == math.inf
    assert norm(CVec([math.inf, 1.0], 1.0)) == math.inf
    assert math.isnan(norm(CVec([math.nan, 1e300], 2.0)))


@given(
    re=arrays(np.float64, (5,), elements=st.floats(-1e160, 1e160)),
    im=arrays(np.float64, (5,), elements=st.floats(-1e160, 1e160)),
    p=st.sampled_from([1.0, 2.0, math.inf]),
)
def test_finite_norms_keep_their_bits(re, im, p):
    coords = re + 1j * im
    with np.errstate(over="ignore"):
        plain = float(np.linalg.norm(coords, ord=p))
    if math.isfinite(plain):
        assert norm(CVec(coords, p)) == plain
        assert row_norms(np.array([coords, coords[::-1]]), p)[0] == plain


@given(
    rows=arrays(np.complex128, (4, 6), elements=st.complex_numbers(max_magnitude=1e6)),
    fc=arrays(np.complex128, (6,), elements=st.complex_numbers(max_magnitude=1e6)),
)
def test_batched_pairings_and_norms_have_the_one_vector_bits(rows, fc):
    f = Functional(fc, 2.0)
    assert pairings(f, rows).tolist() == [pairing(f, CVec(row, 2.0)) for row in rows]
    for p in (1.0, 2.0, math.inf):
        assert row_norms(rows, p).tolist() == [norm(CVec(row, p)) for row in rows]


# pairings and row_norms reach the one-vector kernels through dots, pair by
# pair, so no block shape moves a bit.
@given(
    dim=st.integers(1, 32),
    count=st.integers(1, 70),
    p=st.sampled_from([1.0, 2.0, math.inf]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pairings_and_row_norms_keep_the_one_vector_bits_at_any_shape(dim, count, p, seed):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    f = Functional(rng.standard_normal(dim) + 1j * rng.standard_normal(dim), p)
    one_by_one = [pairing(f, CVec(row, p)) for row in rows]
    assert pairings(f, rows).tobytes() == np.array(one_by_one).tobytes()
    one_by_one = [norm(CVec(row, p)) for row in rows]
    assert row_norms(rows, p).tobytes() == np.array(one_by_one).tobytes()


def test_pairing_is_bilinear_not_sesquilinear():
    f = Functional([1j, 0.0], 2.0)
    v = CVec([1j, 0.0], 2.0)
    # i * i, not conj(i) * i
    assert pairing(f, v) == pytest.approx(-1.0, abs=EXACT_TOL)


def test_pairing_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        pairing(Functional([1.0], 2.0), CVec([1.0, 2.0], 2.0))


@given(
    re=arrays(np.float64, (6,), elements=st.floats(-10, 10)),
    im=arrays(np.float64, (6,), elements=st.floats(-10, 10)),
    fre=arrays(np.float64, (6,), elements=st.floats(-10, 10)),
    fim=arrays(np.float64, (6,), elements=st.floats(-10, 10)),
    p=st.sampled_from([1.0, 2.0, math.inf]),
)
def test_pairing_bounded_by_norm_product(re, im, fre, fim, p):
    v = CVec(re + 1j * im, p)
    f = Functional(fre + 1j * fim, p)
    bound = dual_norm(f) * norm(v)
    assert abs(pairing(f, v)) <= bound * (1.0 + 1e-12) + 1e-12


def test_law_entry_tables():
    np.testing.assert_allclose(
        law_entries(GrowthLaw("poly", 2.0), 3), [-1.0, -4.0, -9.0], atol=0
    )
    np.testing.assert_allclose(
        law_entries(GrowthLaw("imag_poly", 1.0), 3), [1j, 2j, 3j], atol=0
    )
    np.testing.assert_allclose(
        law_entries(GrowthLaw("geom", 2.0), 3), [2j, 4j, 8j], atol=0
    )
    np.testing.assert_allclose(
        law_entries(GrowthLaw("factorial"), 4), [1j, 2j, 6j, 24j], atol=0
    )
    np.testing.assert_allclose(
        law_entries(GrowthLaw("imag_double_exp", 2.0), 3), [4j, 16j, 256j], atol=0
    )
    np.testing.assert_allclose(
        law_entries(GrowthLaw("table", values=(0.0, 1j, 5j)), 3),
        [0.0, 1j, 5j],
        atol=0,
    )


def test_factorial_law_rounds_each_exact_factorial_once():
    # a running float product rounds differently from 19! on
    entries = law_entries(GrowthLaw("factorial"), 170)
    assert entries.imag.tolist() == [float(math.factorial(m)) for m in range(1, 171)]
    with pytest.raises(SemigroupOverflow, match="^factorial entry 171 exceeds the floating range$"):
        law_entries(GrowthLaw("factorial"), 171)


def test_law_rejects_decreasing_moduli():
    with pytest.raises(ValueError):
        law_entries(GrowthLaw("table", values=(0.0, 2j, 1j)), 3)


# Each law check that no reader reaches first, with its message pinned.  The
# double exponential's exponents are checked before any entry is formed, so
# its message names the dimension, not the first entry past the range (9).
@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: GrowthLaw("cubic"), ValueError, "unknown growth law kind 'cubic'"),
        (lambda: GrowthLaw("table"), ValueError, "table law needs explicit values"),
        (lambda: law_entries(GrowthLaw("poly", 1.0), 0), ValueError, "dimension must be positive"),
        (
            lambda: law_entries(GrowthLaw("imag_double_exp", 10.0), 12),
            SemigroupOverflow,
            "imag_double_exp entry 12 exceeds the floating range",
        ),
    ],
    ids=["unknown_kind", "empty_table", "zero_dimension", "double_exp_overflow"],
)
def test_law_checks_name_what_is_wrong(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


def test_diagonal_generator_checks_law_match():
    law = GrowthLaw("imag_poly", 1.0)
    a = diagonal_generator(law, 4)
    np.testing.assert_allclose(a.entries, [1j, 2j, 3j, 4j], atol=0)
    v = CVec([1.0, 1.0, 0.0, 0.0], 2.0)
    out = apply_generator(a, v)
    np.testing.assert_allclose(out.coords, [1j, 2j, 0.0, 0.0], atol=0)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Generator("diagonal"), "diagonal generator needs entries"),
        (lambda: Generator("dense"), "dense generator needs a matrix"),
        (lambda: Generator("dense", matrix=np.eye(3)[:2]), "dense generator matrix must be square"),
        (lambda: Generator("dense", matrix=[1.0, 2.0]), "dense generator matrix must be square"),
        (lambda: Generator("diagonal", entries=[]), "coordinates must form a nonempty 1-d array"),
        (lambda: CVec([[1.0, 2.0]], 2.0), "coordinates must form a nonempty 1-d array"),
    ],
    ids=["no_entries", "no_matrix", "not_square", "not_2d", "empty_entries", "coords_2d"],
)
def test_generator_and_coordinate_checks_name_their_field(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_semigroup_identity_at_time_zero():
    a = diagonal_generator_from_entries([0.0, 2.0, -1.0 + 3j])
    v = CVec([1.0, 2.0, 3.0], 2.0)
    out = semigroup_apply(a, 0.0, v)
    np.testing.assert_allclose(out.coords, v.coords, atol=0)


def test_semigroup_composition_diagonal():
    rng = np.random.default_rng(11)
    entries = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    a = diagonal_generator_from_entries(entries)
    v = CVec(rng.standard_normal(5) + 1j * rng.standard_normal(5), 2.0)
    s, t = 0.3, 0.9
    lhs = semigroup_apply(a, s + t, v)
    rhs = semigroup_apply(a, s, semigroup_apply(a, t, v))
    assert norm(CVec(lhs.coords - rhs.coords, 2.0)) <= EXACT_TOL * norm(lhs)


def test_semigroup_composition_dense():
    rng = np.random.default_rng(12)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = dense_generator(m)
    v = CVec(rng.standard_normal(4) + 1j * rng.standard_normal(4), 2.0)
    s, t = 0.4, 0.7
    lhs = semigroup_apply(a, s + t, v)
    rhs = semigroup_apply(a, s, semigroup_apply(a, t, v))
    assert norm(CVec(lhs.coords - rhs.coords, 2.0)) <= SEMIGROUP_TOL * norm(lhs)


def test_dense_route_agrees_with_diagonal():
    entries = np.array([0.0, 1.5j, -0.5 + 2j])
    diag = diagonal_generator_from_entries(entries)
    dense = dense_generator(np.diag(entries))
    v = CVec([1.0, 1.0, 1.0], 2.0)
    for t in (0.05, 0.8):
        lhs = semigroup_apply(diag, t, v)
        rhs = semigroup_apply(dense, t, v)
        assert norm(CVec(lhs.coords - rhs.coords, 2.0)) <= 1e-10


def test_generator_is_first_order_derivative():
    """(exp(hA)x - x)/h approaches Ax at first order in h."""
    rng = np.random.default_rng(13)
    m = rng.standard_normal((3, 3))
    a = dense_generator(m)
    x = CVec(rng.standard_normal(3), 2.0)
    ax = apply_generator(a, x)

    def residual(h):
        moved = semigroup_apply(a, h, x)
        return norm(CVec((moved.coords - x.coords) / h - ax.coords, 2.0))

    r1, r2 = residual(1e-3), residual(5e-4)
    assert 1.8 <= r1 / r2 <= 2.2


def test_semigroup_defect_diagonal_vs_direct():
    entries = np.array([0.0, -1.0, 2j])
    a = diagonal_generator_from_entries(entries)
    d = semigroup_defect(a, 0.25)
    expected = np.array([cmath.exp(0.25 * e) - 1.0 for e in entries])
    np.testing.assert_allclose(d, expected, atol=CARRIER_TOL)


def test_dense_defect_small_norm():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    a = dense_generator(m)
    d = semigroup_defect(a, 0.5)
    # exp(0.5 * m) - I for this nilpotent m is exactly 0.5 * m
    np.testing.assert_allclose(d, 0.5 * m, atol=CARRIER_TOL)


@pytest.mark.parametrize("scale", DEFECT_SCALES)
@pytest.mark.parametrize("dim", [2, 4, 8])
def test_dense_defect_matches_mpmath(dim, scale):
    """exp(M) - I against a 50-digit mpmath reference; the 1e-12 case
    shows that small defects keep their relative accuracy."""
    rng = np.random.default_rng([dim, DEFECT_SCALES.index(scale)])
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = raw * (scale / np.linalg.norm(raw, 2))
    with mpmath.workdps(50):
        exact = mpmath.expm(mpmath.matrix(m.tolist())) - mpmath.eye(dim)
        ref = np.array(exact.tolist(), dtype=np.complex128)
    defect = semigroup_defect(dense_generator(m), 1.0)
    assert np.linalg.norm(defect - ref, 2) <= DEFECT_REF_TOL * np.linalg.norm(ref, 2)


def test_dense_defect_overflow_guard():
    m = np.diag([800.0, 0.0])
    a = dense_generator(m)
    with pytest.raises(SemigroupOverflow):
        semigroup_defect(a, 1.0)


# Worst deviation of matrix_expm1 from 50-digit mpmath over the matrices of
# the tests below, in the 2-norm relative to |exp(X) - I| and in units of
# u = 2^-52 times max(1, |X|_1): 0.91 u (scipy's expm on Van Loan blocks,
# which it replaced, reached 6.0 u on the threshold matrices).
KERNEL_ROUNDING = 2 * 2.0**-52


def assert_near_mpmath(got, m, ref):
    """|got - ref| <= KERNEL_ROUNDING * max(1, |m|_1) * |ref| in the 2-norm."""
    bound = KERNEL_ROUNDING * max(1.0, np.abs(m).sum(axis=0).max())
    assert np.linalg.norm(got - ref, 2) <= bound * np.linalg.norm(ref, 2)


def mpmath_defect(m, digits=50):
    """exp(M) - I at ``digits`` digits, from mpmath's expm."""
    with mpmath.workdps(digits):
        exact = mpmath.expm(mpmath.matrix(m.tolist())) - mpmath.eye(m.shape[0])
        return np.array(exact.tolist(), dtype=np.complex128)


def mpmath_defects(matrix, times):
    """exp(tM) - I at 50 digits for every t, as V diag(expm1(t lambda)) V^-1
    from one mpmath eigendecomposition M = V diag(lambda) V^-1 (the
    generators here have distinct eigenvalues), so each time costs two
    small mpmath products instead of an mpmath expm."""
    out = []
    with mpmath.workdps(50):
        eigenvalues, v = mpmath.eig(mpmath.matrix(matrix.tolist()))
        v_inv = v**-1
        for t in times:
            drift = mpmath.diag([mpmath.expm1(mpmath.mpf(float(t)) * lam) for lam in eigenvalues])
            out.append(np.array((v * drift * v_inv).tolist(), dtype=np.complex128))
    return out


def per_time_propagator(a, t):
    """exp(tA) formed for one time on its own: the entries' exponentials for
    a diagonal generator, I plus the kernel on tA alone for a dense one."""
    if a.kind == "diagonal":
        return np.diag(np.exp(t * a.entries))
    return np.eye(a.dim, dtype=np.complex128) + matrix_expm1((t * a.matrix)[None])[0]


@pytest.mark.parametrize("count", [1, 33, 2 * _DEFECT_CHUNK + 5])
def test_semigroup_defects_match_per_time_calls(count):
    # one stacked call (chunked past _DEFECT_CHUNK) gives each time the bits
    # of its own single-time call, for general and upper triangular
    # generators; mpmath checks every fourth time
    rng = np.random.default_rng([29, count])
    times = np.geomspace(1e-9, 3.0, count) if count > 1 else np.array([0.7])
    for dim in (1, 3, 8):
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for a in (dense_generator(raw), dense_generator(np.triu(raw))):
            defects = semigroup_defects(a, times)
            props = semigroup_matrices(a, times)
            assert defects.shape == props.shape == (count, dim, dim)
            for t, defect, prop in zip(times, defects, props):
                single = semigroup_defect(a, float(t))
                assert defect.tobytes() == single.tobytes()
                assert defect.tobytes() == matrix_expm1((float(t) * a.matrix)[None])[0].tobytes()
                assert prop.tobytes() == (np.eye(dim, dtype=np.complex128) + single).tobytes()
            sampled = times[::4]
            for t, defect, ref in zip(sampled, defects[::4], mpmath_defects(a.matrix, sampled)):
                assert_near_mpmath(defect, float(t) * a.matrix, ref)


THRESHOLD_SIDES = (1.0 - 2.0**-30, 1.0 + 2.0**-30)


@pytest.mark.parametrize("side", THRESHOLD_SIDES, ids=["below", "above"])
@pytest.mark.parametrize("kind", ["triangular", "general"])
@pytest.mark.parametrize("k", range(11))
def test_matrix_expm1_matches_mpmath_at_each_scaling_threshold(k, kind, side):
    # |X|_1 just below and just above theta 2^k, where the scaling moves
    # from 2^-k to 2^-(k+1); both kinds are non-normal, the triangular one
    # with an imaginary spectrum
    rng = np.random.default_rng([k, kind == "general", side > 1.0])
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    if kind == "triangular":
        raw = np.triu(raw, 1) + 1j * np.diag(raw.real.diagonal())
    m = raw * (_TAYLOR_THETA * 2.0**k * side / np.abs(raw).sum(axis=0).max())
    assert_near_mpmath(matrix_expm1(m[None])[0], m, mpmath_defect(m, digits=60))


@pytest.mark.parametrize("kind", ["triangular", "general", "growing"])
def test_dense_defect_near_the_overflow_guard_matches_mpmath(kind):
    # |tA|_2 a hair below 690 passes the guard and keeps the kernel's
    # accuracy; a hair above raises
    rng = np.random.default_rng([41, len(kind)])
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    if kind == "triangular":
        raw = np.triu(raw, 1) + 1j * np.diag(raw.real.diagonal())
    elif kind == "growing":
        # exp(tA) near 1e280: a large real eigenvalue and a non-normal part
        raw = np.triu(raw, 1) + np.diag([3.0, 1.0, -2.0])
    a = dense_generator(raw)
    t = 689.9 / np.linalg.norm(raw, 2)
    defect = semigroup_defect(a, t)
    assert_near_mpmath(defect, t * raw, mpmath_defect(t * raw, digits=60))
    with pytest.raises(SemigroupOverflow):
        semigroup_defect(a, t * (690.1 / 689.9))


def test_semigroup_defects_overflow_names_the_first_time():
    a = dense_generator(np.array([[10.0, 1.0], [0.0, -1.0]]))
    times = np.concatenate((np.linspace(0.0, 60.0, 2 * _DEFECT_CHUNK), [75.0, 68.0, 90.0]))
    first = np.linalg.norm(75.0 * a.matrix, 2)
    assert first > 690.0 > np.linalg.norm(68.0 * a.matrix, 2)
    with pytest.raises(SemigroupOverflow) as stacked:
        semigroup_defects(a, times)
    assert str(stacked.value) == f"dense orbit with |tA| = {first:.3g} overflows"
    # a diagonal table keeps its overflowing rows, t = 75 and 90, as inf; the
    # one-time view raises
    diagonal = diagonal_generator_from_entries([0.0, 10.0])
    table = semigroup_defects(diagonal, times)
    assert np.flatnonzero(np.isinf(table).any(axis=1)).tolist() == [len(times) - 3, len(times) - 1]
    with pytest.raises(SemigroupOverflow, match="diagonal orbit at t = 75 overflows"):
        semigroup_defect(diagonal, 75.0)
    assert semigroup_defects(a, []).shape == (0, 2, 2)
    assert matrix_expm1(np.empty((0, 2, 2))).shape == (0, 2, 2)


def test_matrix_expm1_of_a_stack_whose_norm_overflows_warns_of_nothing():
    # the 1-norm that picks the slice's scaling overflows before the kernel does
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        defect = matrix_expm1(np.full((1, 2, 2), 1e308 + 0j))
    assert not np.isfinite(defect).any()


@given(
    dim=st.integers(1, 16),
    scale=st.sampled_from([1e-300, 1e-154, 1.0, 1e154, 1e300]),
    real=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_spectral_norm_has_the_bits_of_the_svd_norm(dim, scale, real, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim))
    if not real:
        m = m + 1j * rng.standard_normal((dim, dim))
    m *= scale
    exact = np.linalg.norm(m, 2)
    assert type(spectral_norm(m)) is float
    assert spectral_norm(m) == exact
    # the bound settles no check it should not: inf or NaN once the squares
    # overflow
    assert not spectral_norm_bound(m) < exact


def test_spectral_norm_fails_as_the_svd_norm_on_non_finite_entries():
    m = np.eye(3, dtype=np.complex128)
    m[1, 2] = math.nan
    with pytest.raises(np.linalg.LinAlgError) as ours:
        spectral_norm(m)
    with pytest.raises(np.linalg.LinAlgError) as theirs:
        np.linalg.norm(m, 2)
    assert str(ours.value) == str(theirs.value)
    assert math.isnan(spectral_norm_bound(m))
    m[1, 2] = math.inf
    assert math.isnan(spectral_norm(m)) and math.isnan(np.linalg.norm(m, 2))
    assert not spectral_norm_bound(m) <= 1e300
    empty = np.zeros((0, 0))
    assert spectral_norm(empty) == np.linalg.norm(empty, 2) == 0.0


def exact_dense_exponents(a, times):
    """``dense_exponents`` with its overflow check always on one SVD of A,
    and no Frobenius bound: the stack and the overflow message."""
    times = np.asarray(times, dtype=np.float64)
    scales = np.abs(times) * np.linalg.norm(a.matrix, 2)
    over = np.flatnonzero(scales > 690.0)
    if not over.size:
        return np.multiply.outer(times, a.matrix), None
    first = over[0]
    message = f"dense orbit with |tA| = {scales[first]:.3g} overflows"
    return np.multiply.outer(times[:first], a.matrix), message


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    with np.errstate(all="ignore"):
        try:
            return fn(*args)
        except np.linalg.LinAlgError as exc:
            return type(exc), str(exc)


def assert_dense_exponents_exact(a, times):
    got, want = outcome(dense_exponents, a, times), outcome(exact_dense_exponents, a, times)
    if want[0] is np.linalg.LinAlgError:
        assert got == want
        return
    assert got[0].shape == want[0].shape
    assert got[0].tobytes() == want[0].tobytes()
    assert (None if got[1] is None else str(got[1])) == want[1]


def nudged(t: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        t = math.nextafter(t, math.inf if ulps > 0 else 0.0)
    return t


# times a few ulps either side of the exact check's edge 690 / |A|_2 and of
# the bound's own edge 690 / spectral_norm_bound(A), where it first hands
# the check to the SVD
@given(
    dim=st.integers(1, 8),
    scale=st.sampled_from([1e-300, 1e-154, 1e-3, 1.0, 1e3, 1e154, 1e300]),
    edge=st.sampled_from(["exact", "bound"]),
    ulps=st.integers(-4, 4),
    sign=st.sampled_from([1.0, -1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_exponents_decide_as_the_exact_check(dim, scale, edge, ulps, sign, seed):
    rng = np.random.default_rng(seed)
    a = dense_generator(scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))))
    size = np.linalg.norm(a.matrix, 2) if edge == "exact" else spectral_norm_bound(a.matrix)
    t = nudged(690.0 / size, ulps)
    assert_dense_exponents_exact(a, [0.5 * t, sign * t, 0.25 * t])
    assert_dense_exponents_exact(a, [sign * t])


@pytest.mark.parametrize(
    "times",
    [[], [0.0], [-3.0, 1.0], [1.0, math.nan, 2.0], [math.nan], [1.0, math.inf], [-math.inf],
     [1e300, 1.0], [-1e-300]],
)
@pytest.mark.parametrize("entry", [1.0, 1e-200, 1e200, math.inf, -math.inf, math.nan])
def test_dense_exponents_edge_inputs_take_the_exact_route(times, entry):
    assert_dense_exponents_exact(dense_generator(np.array([[0.5, entry], [0.25j, -1.0]])), times)


def test_diagonal_semigroup_defects_match_the_carrier_and_the_one_time_view():
    # every row has the bits of the carrier's own diagonal formula,
    # cexpm1 of the scaled entries, and of semigroup_defect at its time
    rng = np.random.default_rng(67)
    times = np.concatenate(([0.0, 1.0], np.ldexp(1.0, -np.arange(1, 1024, 7)), [3.0]))
    for dim in (1, 4, 9):
        raw = rng.standard_normal(dim) * 3.0 - 1.5 + 1j * rng.standard_normal(dim) * 30.0
        a = diagonal_generator_from_entries(raw[np.argsort(np.abs(raw))])
        table = semigroup_defects(a, times)
        assert table.shape == (times.size, dim)
        carrier = cexpm1(np.multiply.outer(times, a.entries))
        assert table.tobytes() == carrier.tobytes()
        for t, row in zip(times, table):
            assert row.tobytes() == semigroup_defect(a, float(t)).tobytes()


# Times as multiples of the guard's edge 690 / |A|_2: negative, zero and
# mixed lists, each at least 1e-9 (far more than the few ulps by which
# |t| |A|_2 and |tA|_2 may differ) away from the edge, and an empty list.
GUARD_TIMES = [
    [0.0, -0.5, 1.0 - 1e-9, -(1.0 - 1e-9)],
    [-(1.0 + 1e-9), 0.5, 2.0],
    [0.0, 0.25, -3.0, 1.0 + 1e-9, -(1.0 - 1e-9)],
    [0.0, 1.5],
    [],
]


@pytest.mark.parametrize("factors", GUARD_TIMES)
def test_semigroup_defects_guard_matches_the_per_slice_norm(factors):
    # the guard scales one 2-norm of A by |t|; it raises for exactly the
    # times whose own |tA|_2 exceeds 690 and names the first of them
    raw = np.array([[4.0, 9.0, 0.5j], [0.0, -1.0, 2.0], [0.0, 0.0, 1j]])
    a = dense_generator(raw)
    times = [k * 690.0 / np.linalg.norm(raw, 2) for k in factors]
    over = [n for n in (np.linalg.norm(t * raw, 2) for t in times) if n > 690.0]
    for t in times:
        if np.linalg.norm(t * raw, 2) > 690.0:
            with pytest.raises(SemigroupOverflow):
                semigroup_defects(a, [t])
        else:
            assert semigroup_defects(a, [t]).tobytes() == semigroup_defect(a, t).tobytes()
    if over:
        with pytest.raises(SemigroupOverflow) as stacked:
            semigroup_defects(a, times)
        assert str(stacked.value) == f"dense orbit with |tA| = {over[0]:.3g} overflows"
    else:
        assert semigroup_defects(a, times).shape == (len(times), 3, 3)


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_semigroup_matrices_match_per_time_propagators(kind):
    # each time of the stack has the bits of exp(tA) formed on its own; a
    # dense generator's defects also lie within the kernel's rounding of
    # 50-digit mpmath
    rng = np.random.default_rng(61)
    horizon, points = (40.0, 64) if kind == "diagonal" else (2.0, 8)
    times = np.concatenate(([0.0], np.geomspace(1e-5, horizon, points)))
    for _ in range(200 if kind == "diagonal" else 4):
        dim = int(rng.integers(1, 9))
        raw = rng.standard_normal(dim) * 3.0 - 1.5 + 1j * rng.standard_normal(dim) * 30.0
        if kind == "diagonal":
            a = diagonal_generator_from_entries(raw[np.argsort(np.abs(raw))])
        else:
            a = dense_generator(np.diag(raw) + rng.standard_normal((dim, dim)))
        stack = semigroup_matrices(a, times)
        assert stack.shape == (times.size, dim, dim)
        for t, prop in zip(times, stack):
            assert prop.tobytes() == per_time_propagator(a, float(t)).tobytes()
            assert prop.tobytes() == semigroup_matrix(a, float(t)).tobytes()
        if kind == "dense":
            defects = semigroup_defects(a, times)
            for t, defect, ref in zip(times, defects, mpmath_defects(a.matrix, times)):
                assert_near_mpmath(defect, float(t) * a.matrix, ref)


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_semigroup_matrices_overflow_names_the_first_time(kind):
    if kind == "diagonal":
        a = diagonal_generator_from_entries([-1.0, 10.0 + 1j])
        times, first = [0.0, 50.0, 70.9, 80.0, 100.0], 80.0
        message = "diagonal orbit at t = 80 overflows"
    else:
        a = dense_generator(np.diag([10.0, -1.0]))
        times, first = [0.0, 50.0, 69.0, 70.0, 100.0], 70.0
        message = "dense orbit with |tA| = 700 overflows"
    with pytest.raises(SemigroupOverflow) as stacked:
        semigroup_matrices(a, times)
    with pytest.raises(SemigroupOverflow) as single:
        semigroup_matrix(a, first)
    assert str(stacked.value) == str(single.value) == message
    semigroup_matrices(a, [t for t in times if t < first])


# the shipped formula and the math reference the tests check it against
EXPM1_FORMS = pytest.mark.parametrize("expm1", [cexpm1, scalar_cexpm1], ids=["cexpm1", "scalar_cexpm1"])


@EXPM1_FORMS
def test_cexpm1_matches_library_midrange(expm1):
    rng = np.random.default_rng(14)
    for _ in range(200):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        ref = cmath.exp(z) - 1.0
        assert abs(expm1(z) - ref) <= 1e-14 * max(1.0, abs(cmath.exp(z)))


@EXPM1_FORMS
def test_cexpm1_tiny_arguments_keep_relative_accuracy(expm1):
    z = 1e-9 + 1e-9j
    # independent truncated series z + z^2/2 + z^3/6, rounded in the test
    ref = 1e-09 + 1.000000001e-09j
    assert abs(expm1(z) - ref) <= 1e-12 * abs(ref)
    # pure real agrees with the library real expm1 to the last bit
    assert expm1(complex(-1e-12, 0.0)).real == math.expm1(-1e-12)
    assert expm1(0.0).real == 0.0


LOG1P_FORMS = pytest.mark.parametrize("log1p", [clog1p, scalar_clog1p], ids=["clog1p", "scalar_clog1p"])


@LOG1P_FORMS
def test_clog1p_inverts_cexpm1(log1p):
    for z in (1e-10 + 2e-10j, 0.3 - 0.2j, -0.4 + 0.1j, 2.0 + 1.0j):
        w = cexpm1(z)
        back = log1p(w)
        assert abs(back - z) <= 1e-13 * max(1.0, abs(z))


def clog1p_reference(z: complex) -> complex:
    """log(1 + z) in mpmath, with |log10 |z|| extra digits so 1 + z keeps z."""
    digits = 50 + max(0, math.ceil(-math.log10(abs(z))))
    with mpmath.workdps(digits):
        return complex(mpmath.log(1 + mpmath.mpc(z.real, z.imag)))


@LOG1P_FORMS
def test_clog1p_matches_mpmath(log1p):
    rng = np.random.default_rng(41)
    moduli = 10.0 ** rng.uniform(-300.0, 5.0, 2000)
    points = list(moduli * np.exp(1j * rng.uniform(-math.pi, math.pi, moduli.size)))
    # the circle |1 + z| = 1, where the direct logarithm cancels
    points += list(np.exp(1j * np.linspace(-3.1, 3.1, 200)) - 1.0)
    for z in map(complex, points):
        ref = clog1p_reference(z)
        err = abs(log1p(z) - ref)
        if abs(z) <= 0.5:
            assert err <= 1e-14 * abs(ref), z
        else:
            assert err <= 1e-15 * max(1.0, abs(ref)), z


def test_clog1p_on_an_array_matches_mpmath():
    # the batched carrier's log, on the moduli the step offsets take
    rng = np.random.default_rng(43)
    moduli = 10.0 ** rng.uniform(-40.0, math.log10(0.5), 2000)
    points = moduli * np.exp(1j * rng.uniform(-math.pi, math.pi, moduli.size))
    # offsets of rotations, e^(i theta) - 1, where |1 + z| = 1 exactly
    points = np.concatenate([points, np.exp(1j * 10.0 ** np.linspace(-20.0, -0.4, 200)) - 1.0])
    # past |z| = 1/2, as branch-ambiguous rows take them: moduli up to 1e5,
    # the rest of the circle |1 + z| = 1, and 1 + z near 0 (a step value
    # close to 0), where 2x + x^2 + y^2 cancels
    far = 10.0 ** rng.uniform(math.log10(0.5), 5.0, 1000)
    far = far * np.exp(1j * rng.uniform(-math.pi, math.pi, far.size))
    circle = np.exp(1j * np.linspace(0.6, 3.1, 200)) - 1.0
    near_minus_one = 10.0 ** rng.uniform(-300.0, -1.0, 500) * np.exp(
        1j * rng.uniform(-math.pi, math.pi, 500)
    ) - 1.0
    points = np.concatenate([points, far, circle, near_minus_one])
    logs = clog1p(points)
    for z, got in zip(map(complex, points), logs):
        ref = clog1p_reference(z)
        if abs(z) <= 0.5:
            assert abs(got - ref) <= 1e-14 * abs(ref), z
        else:
            # the bound clog1p states there
            assert abs(got - ref) <= 1e-15 * max(1.0, abs(ref)), z
    # np.log1p returns a real part of 0 at this point
    assert clog1p(np.array([1e-19 + 1e-19j]))[0].real == pytest.approx(1e-19, rel=1e-14)


def test_clog1p_on_an_array_edges():
    z = np.array([-1.0 + 0.0j, 1e200 + 1e200j, -2.0 + 0.0j, 0.0j])
    got = clog1p(z)
    assert got[0] == complex(-math.inf, 0.0)
    assert got[1] == pytest.approx(cmath.log(1e200 + 1e200j), rel=1e-15)
    assert got[2] == pytest.approx(scalar_clog1p(-2.0 + 0.0j), rel=1e-15)
    assert got[3] == 0.0


def test_clog1p_of_a_scalar_has_the_bits_of_its_array_cell():
    rng = np.random.default_rng(45)
    moduli = 10.0 ** rng.uniform(-300.0, 5.0, 500)
    points = moduli * np.exp(1j * rng.uniform(-math.pi, math.pi, moduli.size))
    # either side of the switch to the direct logarithm, and its edges
    edges = [0.5, -0.5, 0.5j, np.nextafter(0.5, 1.0), -1.0, 0.0, 1e200 + 1e200j]
    points = np.concatenate([points, np.array(edges, dtype=np.complex128)])
    scalars = [clog1p(complex(z)) for z in points]
    assert all(np.ndim(w) == 0 for w in scalars)
    assert np.array(scalars).tobytes() == clog1p(points).tobytes()


def test_cexpm1_on_an_array_agrees_with_the_math_reference():
    rng = np.random.default_rng(44)
    moduli = 10.0 ** rng.uniform(-40.0, 1.0, 2000)
    z = moduli * np.exp(1j * rng.uniform(-math.pi, math.pi, moduli.size))
    for w, got in zip(map(complex, z), cexpm1(z)):
        ref = scalar_cexpm1(w)
        assert abs(got - ref) <= CARRIER_TOL * max(abs(ref), abs(w)), w


def test_vector_coords_are_read_only():
    v = CVec([1.0, 2.0], 2.0)
    with pytest.raises(ValueError):
        v.coords[0] = 5.0


def test_log_norm_of_each_kind():
    assert log_norm(diagonal_generator_from_entries([-1.0 + 3j, 2.0 - 1j, -5.0])) == 2.0
    # mu_1 = max(-1 + 0.5, -3 + 2) = -0.5, mu_inf = max(-1 + 2, -3 + 0.5) = 1
    mu = log_norm(dense_generator([[-1.0, 2.0], [0.5j, -3.0]]))
    assert 1.0 <= mu <= 1.0 + 1e-14
    assert math.isnan(log_norm(diagonal_generator_from_entries([-1.0, complex(0.0, math.inf)])))
    assert math.isnan(log_norm(dense_generator([[math.nan, 0.0], [0.0, 1.0]])))


def norm_bound_generators():
    """Diagonal and dense generators of every shape the bound treats
    differently: dissipative, growing, non-normal, and with rows or columns
    far heavier than the others, at scales from 1e-3 to 1e2."""
    rng = np.random.default_rng(72)
    for k in range(120):
        dim = int(rng.integers(1, 9))
        scale = 10.0 ** rng.uniform(-3, 2)
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        shape = k % 5
        if shape == 0:
            entries = rng.standard_normal(dim) * 2.0 - 1.0 + 1j * rng.standard_normal(dim) * 30.0
            yield diagonal_generator_from_entries(entries * scale)
            continue
        if shape == 2:  # strictly upper triangular part only: non-normal
            raw = np.triu(raw, 1) * 3.0
        elif shape == 3:  # one heavy row
            raw[0] *= 8.0
        elif shape == 4:  # one heavy column
            raw[:, 0] *= 8.0
        shift = rng.uniform(-3.0, 1.0) * np.abs(raw).sum(axis=1).max()
        yield dense_generator((raw + shift * np.eye(dim)) * scale)


def test_norm_bounds_hold_for_the_computed_propagators():
    # B_t bounds |P|_1 and |P|_inf of exp(tA) as computed, so it is at least
    # their column and row sums, up to the rounding of those sums
    settled = 0
    for a in norm_bound_generators():
        size = np.abs(a.entries).max() if a.kind == "diagonal" else spectral_norm(a.matrix)
        times = np.concatenate(([0.0], np.geomspace(1e-6, 600.0 / max(size, 1e-3), 40)))
        bounds = semigroup_norm_bounds(a, times)
        mags = np.abs(semigroup_matrices(a, times))
        sums = np.maximum(mags.sum(axis=1).max(axis=1), mags.sum(axis=2).max(axis=1))
        assert (bounds >= sums * (1.0 - 1e-13)).all()
        assert bounds[0] >= 1.0
        settled += int(np.sum(bounds < 1.01 * sums))
    # the bound is tight at most times: it settles what the sums settle
    assert settled > 0.5 * 120 * 41


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_norm_bounds_raise_the_overflow_of_the_whole_stack(kind):
    if kind == "diagonal":
        a = diagonal_generator_from_entries([-1.0, 10.0 + 1j])
        times, message = [0.0, 50.0, 70.9, 80.0, 100.0], "diagonal orbit at t = 80 overflows"
    else:
        a = dense_generator(np.diag([10.0, -1.0]))
        times, message = [0.0, 50.0, 69.0, 70.0, 100.0], "dense orbit with |tA| = 700 overflows"
    with pytest.raises(SemigroupOverflow, match=message.replace("|", r"\|")):
        semigroup_norm_bounds(a, times)

