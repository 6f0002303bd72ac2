"""Norms, pairings, growth laws, and the semigroup carriers."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from semigroup_lab import (
    CVec,
    Functional,
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
    cexpm1_array,
    clog1p,
    clog1p_array,
    matrix_expm1,
    semigroup_defects,
    semigroup_matrices,
    semigroup_matrix,
)

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


def test_law_rejects_decreasing_moduli():
    with pytest.raises(ValueError):
        law_entries(GrowthLaw("table", values=(0.0, 2j, 1j)), 3)


def test_diagonal_generator_checks_law_match():
    law = GrowthLaw("imag_poly", 1.0)
    a = diagonal_generator(law, 4)
    np.testing.assert_allclose(a.entries, [1j, 2j, 3j, 4j], atol=0)
    v = CVec([1.0, 1.0, 0.0, 0.0], 2.0)
    out = apply_generator(a, v)
    np.testing.assert_allclose(out.coords, [1j, 2j, 0.0, 0.0], atol=0)


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
    with pytest.raises(ValueError, match="dense generator"):
        semigroup_defects(diagonal_generator_from_entries([0.0, 1.0]), times)
    assert semigroup_defects(a, []).shape == (0, 2, 2)
    assert matrix_expm1(np.empty((0, 2, 2))).shape == (0, 2, 2)


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


def test_cexpm1_matches_library_midrange():
    rng = np.random.default_rng(14)
    for _ in range(200):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        ref = cmath.exp(z) - 1.0
        assert abs(cexpm1(z) - ref) <= 1e-14 * max(1.0, abs(cmath.exp(z)))


def test_cexpm1_tiny_arguments_keep_relative_accuracy():
    z = 1e-9 + 1e-9j
    # independent truncated series z + z^2/2 + z^3/6, rounded in the test
    ref = 1e-09 + 1.000000001e-09j
    assert abs(cexpm1(z) - ref) <= 1e-12 * abs(ref)
    # pure real agrees with the library real expm1 to the last bit
    assert cexpm1(complex(-1e-12, 0.0)).real == math.expm1(-1e-12)
    assert cexpm1(0.0).real == 0.0


def test_clog1p_inverts_cexpm1():
    for z in (1e-10 + 2e-10j, 0.3 - 0.2j, -0.4 + 0.1j, 2.0 + 1.0j):
        w = cexpm1(z)
        back = clog1p(w)
        assert abs(back - z) <= 1e-13 * max(1.0, abs(z))


def clog1p_reference(z: complex) -> complex:
    """log(1 + z) in mpmath, with |log10 |z|| extra digits so 1 + z keeps z."""
    digits = 50 + max(0, math.ceil(-math.log10(abs(z))))
    with mpmath.workdps(digits):
        return complex(mpmath.log(1 + mpmath.mpc(z.real, z.imag)))


def test_clog1p_matches_mpmath():
    rng = np.random.default_rng(41)
    moduli = 10.0 ** rng.uniform(-300.0, 5.0, 2000)
    points = list(moduli * np.exp(1j * rng.uniform(-math.pi, math.pi, moduli.size)))
    # the circle |1 + z| = 1, where the direct logarithm cancels
    points += list(np.exp(1j * np.linspace(-3.1, 3.1, 200)) - 1.0)
    for z in map(complex, points):
        ref = clog1p_reference(z)
        err = abs(clog1p(z) - ref)
        if abs(z) <= 0.5:
            assert err <= 1e-14 * abs(ref), z
        else:
            assert err <= 1e-15 * max(1.0, abs(ref)), z


def test_clog1p_array_matches_mpmath():
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
    logs = clog1p_array(points)
    for z, got in zip(map(complex, points), logs):
        ref = clog1p_reference(z)
        if abs(z) <= 0.5:
            assert abs(got - ref) <= 1e-14 * abs(ref), z
        else:
            # the bound clog1p states there
            assert abs(got - ref) <= 1e-15 * max(1.0, abs(ref)), z
    # np.log1p returns a real part of 0 at this point
    assert clog1p_array(np.array([1e-19 + 1e-19j]))[0].real == pytest.approx(1e-19, rel=1e-14)


def test_clog1p_array_edges():
    z = np.array([-1.0 + 0.0j, 1e200 + 1e200j, -2.0 + 0.0j, 0.0j])
    got = clog1p_array(z)
    assert got[0] == complex(-math.inf, 0.0)
    assert got[1] == pytest.approx(cmath.log(1e200 + 1e200j), rel=1e-15)
    assert got[2] == pytest.approx(clog1p(-2.0 + 0.0j), rel=1e-15)
    assert got[3] == 0.0


def test_cexpm1_array_agrees_with_scalar_carrier():
    rng = np.random.default_rng(44)
    moduli = 10.0 ** rng.uniform(-40.0, 1.0, 2000)
    z = moduli * np.exp(1j * rng.uniform(-math.pi, math.pi, moduli.size))
    for w, got in zip(map(complex, z), cexpm1_array(z)):
        ref = cexpm1(w)
        assert abs(got - ref) <= CARRIER_TOL * max(abs(ref), abs(w)), w


def test_vector_coords_are_read_only():
    v = CVec([1.0, 2.0], 2.0)
    with pytest.raises(ValueError):
        v.coords[0] = 5.0
