"""Scalar product records against closed forms, and matrix products against
a library-exponential oracle."""

import cmath
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semigroup_lab import (
    CVec,
    Functional,
    RankOneProjection,
    SemigroupOverflow,
    bounded_limit_oracle,
    dense_generator,
    dense_trotter_apply,
    diagonal_generator_from_entries,
    make_rank_one,
    pairing,
    random_oblique_projection,
    scalar_trotter_value,
    semigroup_defect,
    step_derivative,
    step_pairing,
)
from semigroup_lab.config import load_config
from semigroup_lab.projections import projection_matrix
from semigroup_lab.spaces import semigroup_defects
from semigroup_lab.trotter import (
    batched_log_values,
    dense_trotter_products,
    limit_gaps,
    product_log_value,
    step_defects_and_oracles,
)

from conftest import scalar_cexpm1, scalar_drift

DERIV_TOL = 1e-12
PATH_AGREE_TOL = 1e-9
LITERAL_TOL = 1e-12

# Two-coordinate model: generator diag(0, 2), functional (1/2, 1/2),
# start (1, 1).  The step scalar is (1 + exp(2/n))/2 and the limit is e.
# The constants below were computed from that closed form with the math
# module alone.
DERIV_AT_10 = 1.1070137908008482
DERIV_AT_20 = 1.0517091807564771
STEP_AT_10 = 1.1107013790800848


def two_point():
    a = diagonal_generator_from_entries([0.0, 2.0])
    f = Functional([0.5, 0.5], 2.0)
    x = CVec([1.0, 1.0], 2.0)
    return a, f, x


def test_step_scalar_closed_form():
    a, f, x = two_point()
    assert step_pairing(a, f, x, 1.0, 10) == pytest.approx(STEP_AT_10, abs=DERIV_TOL)
    for n in (3, 7, 64, 1000):
        expected = (1.0 + math.exp(2.0 / n)) / 2.0
        assert step_pairing(a, f, x, 1.0, n) == pytest.approx(expected, abs=DERIV_TOL)


def test_step_derivative_frozen_values():
    a, f, x = two_point()
    assert step_derivative(a, f, x, 1.0, 10) == pytest.approx(
        DERIV_AT_10, abs=DERIV_TOL
    )
    assert step_derivative(a, f, x, 1.0, 20) == pytest.approx(
        DERIV_AT_20, abs=DERIV_TOL
    )


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_scalar_route_returns_python_complex(kind):
    a, f, x = two_point()
    if kind == "dense":
        a = dense_generator(np.diag(a.entries))
    assert type(step_derivative(a, f, x, 1.0, 10)) is complex
    rec = scalar_trotter_value(a, f, x, 1.0, 10)
    for name in ("step_value", "derivative", "log_value", "value"):
        assert type(getattr(rec, name)) is complex, name
    assert type(rec.err_vs_limit) is float
    assert type(rec.branch_ambiguous) is bool


def test_derivative_gap_halves():
    a, f, x = two_point()
    limit = pairing(f, CVec([0.0, 2.0], 2.0)) * 0.5 + 0.5  # f(Ax) = 1
    assert limit == 1.0
    gap_64 = abs(step_derivative(a, f, x, 1.0, 64) - 1.0)
    gap_128 = abs(step_derivative(a, f, x, 1.0, 128) - 1.0)
    assert 1.7 <= gap_64 / gap_128 <= 2.3


def test_scalar_record_log_path():
    a, f, x = two_point()
    rec = scalar_trotter_value(a, f, x, 1.0, 1024)
    assert rec.path == "log"
    assert not rec.branch_ambiguous
    assert rec.value is not None
    assert abs(rec.value - cmath.exp(rec.log_value)) <= 1e-12 * abs(rec.value)
    assert abs(rec.value - math.e) <= 2e-3


def test_scalar_record_pow_path_flags_branch():
    a = diagonal_generator_from_entries([0.0, 40.0])
    f = Functional([0.5, 0.5], 2.0)
    x = CVec([1.0, 1.0], 2.0)
    rec = scalar_trotter_value(a, f, x, 1.0, 1)
    assert rec.path == "log"
    assert rec.branch_ambiguous
    expected = (1.0 + math.exp(40.0)) / 2.0
    assert rec.value == pytest.approx(expected, rel=1e-12)


def test_log_route_agrees_with_direct_powering():
    a, f, x = two_point()
    for n in (8, 32, 512):
        rec = scalar_trotter_value(a, f, x, 1.0, n)
        direct = complex(rec.step_value) ** n
        assert abs(cmath.exp(rec.log_value) - direct) <= PATH_AGREE_TOL * abs(direct)


def mp_product_value(a, f, x, t, n):
    """f(exp((t/n) A) x)^n at 50 digits, the exponential from mpmath."""
    with mpmath.workdps(50):
        h = mpmath.mpf(t) / n
        if a.kind == "diagonal":
            step = mpmath.diag([mpmath.exp(h * mpmath.mpc(complex(e))) for e in a.entries])
        else:
            matrix = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in a.matrix])
            step = mpmath.expm(h * matrix)
        moved = step * mpmath.matrix([mpmath.mpc(complex(v)) for v in x.coords])
        c = mpmath.fsum(mpmath.mpc(complex(fm)) * moved[m] for m, fm in enumerate(f.coords))
        return complex(c**n)


def config_case(name):
    cfg = load_config(name)
    f = cfg.functional()
    return cfg.generator(), f, cfg.vector(f)


@pytest.mark.parametrize(
    "case, n",
    [("two_point", 1), ("two_point", 2), ("bounded_oracle", 1), ("bounded_oracle", 2),
     ("bounded_oracle", 4), ("diag_0_40", 1)],
)
def test_branch_ambiguous_rows_match_mpmath(case, n):
    # the rows with |c - 1| > 1/2: their value is exp(log_value) like every row
    if case == "diag_0_40":
        a = diagonal_generator_from_entries([0.0, 40.0])
        f, x = Functional([0.5, 0.5], 2.0), CVec([1.0, 1.0], 2.0)
    else:
        a, f, x = config_case(case)
    rec = scalar_trotter_value(a, f, x, 1.0, n)
    assert rec.branch_ambiguous is True
    ref = mp_product_value(a, f, x, 1.0, n)
    assert abs(rec.value - ref) <= 1e-15 * (1.0 + abs(rec.log_value)) * abs(ref)


def test_scalar_route_requires_unit_pairing():
    a, f, _ = two_point()
    with pytest.raises(ValueError):
        scalar_trotter_value(a, f, CVec([2.0, 2.0], 2.0), 1.0, 4)


def test_limit_gaps_identities():
    assert limit_gaps(1.0 + 0.0j, 1.0 + 0.0j) == 0.0
    got = limit_gaps(0.0j, complex(math.log(1.1), 0.0))
    assert got == pytest.approx(0.1, abs=1e-12)
    # far beyond the double range the gap is reported as infinite
    assert limit_gaps(800.0 + 0.0j, 0.0j) == math.inf
    assert limit_gaps(0.0j, 800.0 + 0.0j) == math.inf


# (limit_log, log_value) pairs on both sides of the gap of 690 past which
# exp(gap) would overflow: both exponentials representable, the value
# beyond the double range, and the limit far below the value.
GAP_CASES = [
    (-100.0 + 0.0j, 595.0 + 0.0j),
    (-300.0 + 0.0j, 500.0 + 1.0j),
    (-1000.0 + 0.5j, 709.0 - 2.0j),
    (5.0 - 1.0j, 695.5 + 3.0j),
    (-10.0 + 0.0j, 679.0 + 0.25j),
    (2.0 + 1.0j, 1.0 + 3.0j),
    (400.0 + 0.0j, 300.0 + 0.0j),
    (0.0j, 710.0 + 0.0j),
    (-50.0 + 0.0j, 745.0 + 0.0j),
    # both exponentials beyond the double range, their difference within it
    (800.0 + 0.0j, 800.0 + 1e-300j),
    (1000.0 + 2e-300j, 1000.0 - 3e-300j),
    (1500.0 + 0.0j, 1500.0 + 1e-300j),
]


@pytest.mark.parametrize("limit_log, log_value", GAP_CASES)
def test_limit_gaps_match_mpmath(limit_log, log_value):
    # |exp(log_value) - exp(limit_log)| is finite whenever exp(log_value) is,
    # however far below it the limit lies, and so is the carrier's error at
    # its own log value
    def exact_gap(value):
        with mpmath.workdps(50):
            return abs(mpmath.exp(mpmath.mpc(value)) - mpmath.exp(mpmath.mpc(limit_log)))

    exact = exact_gap(log_value)
    got = float(limit_gaps(limit_log, log_value))
    if exact > sys.float_info.max:
        assert got == math.inf
    else:
        assert abs(got - exact) <= 4e-15 * exact
    if log_value.real > 709.0:
        return
    # one coordinate with entry log_value: the carrier's log value at n = 1
    batch = batched_log_values(
        diagonal_generator_from_entries([log_value]),
        Functional([1.0], 2.0),
        np.ones((1, 1), dtype=np.complex128),
        [1],
        limit_log,
    )
    exact = exact_gap(batch.log_values.item())
    assert abs(batch.errors.item() - exact) <= 4e-15 * exact


def test_limit_gaps_broadcast_with_the_bits_of_single_calls():
    # a column of limits against a row of log values per limit: every cell,
    # on either side of the gap of 690 and past the double range, has the
    # bits of its own 0-d call
    limits = np.array([limit for limit, _ in GAP_CASES])
    moves = np.array([0.0, 1e-3 + 2.0j, -30.0, 20.0 - 1.0j, -700.0])
    log_values = np.array([value for _, value in GAP_CASES])[:, None] + moves
    got = limit_gaps(limits[:, None], log_values)
    assert got.shape == log_values.shape
    single = [
        [float(limit_gaps(limit, value)) for value in row.tolist()]
        for limit, row in zip(limits.tolist(), log_values)
    ]
    assert got.tobytes() == np.array(single).tobytes()
    assert np.isinf(got).any() and np.isfinite(got).any()


@pytest.mark.parametrize("level", [800.0, 1000.0])
def test_batched_gap_past_the_double_range_matches_mpmath(level):
    # the carrier's log value of an entry `level`, against a limit that
    # differs from it in the imaginary part alone: exp(Re limit) overflows,
    # the gap does not, and the carrier's error stays finite and exact
    a, f = diagonal_generator_from_entries([level]), Functional([1.0], 2.0)
    ones = np.ones((1, 1), dtype=np.complex128)
    for n in (2**12, 2**20):
        stored = batched_log_values(a, f, ones, [n]).log_values.item()
        limit_log = complex(stored.real, stored.imag - 1e-300)
        got = batched_log_values(a, f, ones, [n], limit_log).errors.item()
        with mpmath.workdps(50):
            exact = abs(mpmath.exp(mpmath.mpc(stored)) - mpmath.exp(mpmath.mpc(limit_log)))
        assert abs(got - exact) <= 4e-15 * exact


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_carrier_rows_do_not_depend_on_the_batch(kind):
    # a step count's row has the same bits alone as among other counts,
    # for one vector and for several
    rng = np.random.default_rng(23)
    raw = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    if kind == "diagonal":
        entries = raw[0] * 3.0
        a = diagonal_generator_from_entries(entries[np.argsort(np.abs(entries))])
    else:
        a = dense_generator(raw)
    f = Functional(rng.standard_normal(5) + 1j * rng.standard_normal(5), 2.0)
    steps = [2**j for j in range(1, 12)]
    for vectors in (raw[1:2], raw[1:]):
        batch = batched_log_values(a, f, vectors, steps, 0.5 + 0.25j)
        for k, n in enumerate(steps):
            row = batched_log_values(a, f, vectors, [n], 0.5 + 0.25j)
            for name in ("offsets", "log_values", "errors"):
                assert getattr(row, name).tobytes() == getattr(batch, name)[k : k + 1].tobytes()


# Every (count, vector) cell of a carrier batch comes from one pair of
# spaces.dots, so it has the bits of the call on that count and that vector
# alone, whatever the batch's shape.  The defect table's rows are checked
# against their own calls elsewhere; here every call reads the same table.
@given(
    kind=st.sampled_from(["diagonal", "dense"]),
    dim=st.integers(1, 32),
    counts=st.integers(1, 70),
    width=st.integers(1, 70),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="diagonal", dim=1, counts=1, width=3, seed=0)
@example(kind="dense", dim=1, counts=3, width=2, seed=0)
@settings(max_examples=6)
def test_carrier_cells_have_the_bits_of_one_count_one_vector_calls(kind, dim, counts, width, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if kind == "diagonal":
        a = diagonal_generator_from_entries(raw[0] * 3.0)
    else:
        a = dense_generator(raw / math.sqrt(dim))
    f = Functional(rng.standard_normal(dim) + 1j * rng.standard_normal(dim), 2.0)
    vectors = rng.standard_normal((width, dim)) + 1j * rng.standard_normal((width, dim))
    steps = np.ldexp(1.0, rng.integers(0, 60, counts))
    table = semigroup_defects(a, 1.0 / steps)
    batch = batched_log_values(a, f, vectors, steps, 0.5 + 0.25j, defects=table)
    for k in range(counts):
        for v in range(width):
            cell = batched_log_values(
                a, f, vectors[v : v + 1], steps[k : k + 1], 0.5 + 0.25j, defects=table[k : k + 1]
            )
            for name in ("offsets", "log_values", "errors"):
                assert getattr(cell, name).tobytes() == getattr(batch, name)[k, v].tobytes()


def literal_product(a, proj, x, t, n):
    """Reference for the powered route: (exp((t/n) A) P)^n x evaluated
    left to right, one projection and one orbit step per factor."""
    h = t / n
    if a.kind == "diagonal":
        step = np.exp(h * a.entries)

        def orbit(v):
            return step * v

    else:
        defect = semigroup_defect(a, h)

        def orbit(v):
            return v + defect @ v

    if isinstance(proj, RankOneProjection):

        def apply_proj(v):
            return (proj.functional.coords @ v) * proj.vector.coords

    else:

        def apply_proj(v):
            return proj.matrix @ v

    v = x.coords.copy()
    for _ in range(n):
        v = orbit(apply_proj(v))
    return v


@pytest.mark.parametrize("n", [1, 2, 3, 64, 1000])
@pytest.mark.parametrize("projection", ["rank_one", "oblique"])
@pytest.mark.parametrize("generator", ["diagonal", "dense"])
def test_dense_product_is_literal_alternation(generator, projection, n):
    rng = np.random.default_rng(31)
    d, t = 4, 0.7
    if generator == "diagonal":
        a = diagonal_generator_from_entries(
            rng.standard_normal(d) + 1j * rng.standard_normal(d)
        )
    else:
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a = dense_generator(m * (1.5 / np.linalg.norm(m, 2)))
    f = Functional(rng.standard_normal(d), 2.0)
    x = CVec(rng.standard_normal(d), 2.0)
    if projection == "rank_one":
        proj = make_rank_one(f, x)
    else:
        proj = random_oblique_projection(d, 2, rng)
    got = dense_trotter_apply(a, proj, x, t, n)
    v = literal_product(a, proj, x, t, n)
    assert np.linalg.norm(got.coords - v) <= LITERAL_TOL * np.linalg.norm(v)


def test_bounded_product_approaches_oracle():
    rng = np.random.default_rng(32)
    d = 4
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m *= 1.5 / np.linalg.norm(m, 2)
    a = dense_generator(m)
    proj = random_oblique_projection(d, 2, rng)
    x = CVec(rng.standard_normal(d) + 1j * rng.standard_normal(d), 2.0)
    ref = bounded_limit_oracle(a, proj, 1.0) @ x.coords
    errs = []
    for n in (2**8, 2**12):
        got = dense_trotter_apply(a, proj, x, 1.0, n)
        errs.append(np.linalg.norm(got.coords - ref) / np.linalg.norm(x.coords))
    assert errs[1] <= 1e-2
    assert errs[1] < errs[0]


ORACLE_REF_TOL = 1e-12


def mpmath_oracle(a, proj, t):
    """exp(t P A P) P at 50 digits, the exponential from mpmath."""
    with mpmath.workdps(50):
        p = mpmath.matrix(proj.matrix.tolist())
        exact = mpmath.expm(mpmath.mpf(t) * (p * mpmath.matrix(a.matrix.tolist()) * p)) * p
        return np.array(exact.tolist(), dtype=np.complex128)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("norm_cap", [2.0, 5.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bounded_limit_oracle_matches_mpmath(seed, norm_cap, t):
    # drawn like a sweep trial with the default sizes: dimension 2..8, a
    # dense generator of norm 2, an oblique projection of random rank
    rng = np.random.default_rng([seed, int(norm_cap)])
    d = int(rng.integers(2, 9))
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a = dense_generator(raw * (2.0 / np.linalg.norm(raw, 2)))
    proj = random_oblique_projection(d, int(rng.integers(1, d)), rng, norm_cap=norm_cap)
    ref = mpmath_oracle(a, proj, t)
    got = bounded_limit_oracle(a, proj, t)
    assert np.linalg.norm(got - ref, 2) <= ORACLE_REF_TOL * np.linalg.norm(ref, 2)


def test_dense_product_overflow_detection():
    a = diagonal_generator_from_entries([800.0])
    proj = make_rank_one(Functional([1.0], 2.0), CVec([1.0], 2.0))
    with pytest.raises(SemigroupOverflow):
        dense_trotter_apply(a, proj, CVec([1.0], 2.0), 1.0, 2)
    with pytest.raises(SemigroupOverflow):
        dense_trotter_apply(dense_generator([[800.0]]), proj, CVec([1.0], 2.0), 1.0, 2)


def test_limit_check_errors_shrink_along_schedule():
    a, f, x = two_point()
    records = [scalar_trotter_value(a, f, x, 1.0, 2**j) for j in range(4, 11)]
    errs = [rec.err_vs_limit for rec in records]
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    assert errs[-1] <= 3e-3


def test_product_log_value_at_2_122_matches_mpmath(k5_certificate):
    """The K = 5 stage-5 log value n log(1 + f((exp(A/n) - I) x)) at
    n = 2^122, against the same expression at 200 digits."""
    cert = k5_certificate
    stage = cert.stages[5]
    assert stage.steps == 2**122
    a = cert.generator()
    f = cert.functional_obj()
    x = CVec(stage.vector, cert.p)
    lv = product_log_value(a, f, x, stage.steps)
    with mpmath.workdps(200):
        n = mpmath.mpf(stage.steps)
        offset = mpmath.fsum(
            mpmath.mpc(fm) * mpmath.mpc(xm) * mpmath.expm1(mpmath.mpc(am) / n)
            for fm, xm, am in zip(f.coords, x.coords, a.entries)
        )
        ref = complex(n * mpmath.log(1 + offset))
    assert abs(lv - ref) <= 1e-14 * abs(ref)


# zeros of both signs, moderate, tiny and huge weights: a huge one times
# exp(700) overflows, so infinite and NaN drifts are compared too
WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e3, 1e3),
    st.floats(-1e-300, 1e-300),
    st.floats(-1e300, 1e300),
)
# |h a| from 1e-300 to 700, along an axis or at a drawn angle
SCALED_ENTRIES = st.tuples(
    st.floats(-300.0, math.log10(700.0)),
    st.one_of(
        st.sampled_from([1.0, 1j, -1.0, -1j]),
        st.floats(-math.pi, math.pi).map(lambda phi: cmath.rect(1.0, phi)),
    ),
)
TOP = math.log10(700.0)

# The carrier and the numpy-scalar loop group each term alike, (f_m x_m)
# (exp(h a_m) - 1), but sum in different orders and take sin, cos and expm1
# from different libraries.  Each term of a drift rounds by at most a few
# units of roundoff u = 2^-52 of |f_m x_m| (|d_m| + 2 |expm1(Re h a_m)|),
# d_m = exp(h a_m) - 1 (the versine and expm1 halves of Re d_m may cancel),
# and a sum of k terms adds k u of the sum of moduli; the check allows
# (k + 2) DRIFT_ROUNDING of n times that sum.
DRIFT_ROUNDING = 4 * 2.0**-52
# Past a modulus of 2^1040 a single term overflows in any summation order.
FAR_OVERFLOW_LOG2 = 1040.0


def drift_scale(a, f, x, t, n):
    """n sum |f_m x_m| (|d_m| + 2 |expm1(Re h a_m)|), and the largest term
    modulus |f_m x_m| |d_m| in log2 (so a term past the float range still
    compares)."""
    h = t / float(n)
    total, top = 0.0, -math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for fm, xm, am in zip(f.coords, x.coords, a.entries):
            weight, z = abs(complex(fm) * complex(xm)), complex(h * am)
            if weight == 0.0:
                continue
            defect = abs(scalar_cexpm1(z))
            total += weight * (defect + 2.0 * abs(math.expm1(z.real)))
            top = max(top, math.log2(weight) + math.log2(defect) if defect else -math.inf)
    return float(n) * total, top


@example(terms=[(1e300, 0.0, 1.0, 0.0, (TOP, 1.0))], t=1.0, j=0)
@example(terms=[(1e300, 0.0, 1.0, 0.0, (TOP, 1.0)), (-1e300, 0.0, 1.0, 0.0, (TOP, 1.0))], t=1.0, j=0)
@example(terms=[(0.0, 1e300, -1.0, 0.0, (TOP, 1.0)), (-0.0, 1.0, 1.0, 1.0, (1.0, 1j))], t=1.0, j=3)
@given(
    terms=st.lists(st.tuples(WEIGHTS, WEIGHTS, WEIGHTS, WEIGHTS, SCALED_ENTRIES), min_size=1, max_size=8),
    t=st.floats(0.125, 8.0),
    j=st.integers(0, 122),
)
def test_diagonal_drift_matches_numpy_scalar_loop_within_rounding(terms, t, j):
    steps = [2**j, 2 ** (j + 1), 3 * 2**j + 1]
    h = t / float(steps[0])
    entries = [10.0**log_mag / h * direction for *_, (log_mag, direction) in terms]
    a = diagonal_generator_from_entries(entries)
    f = Functional([complex(re, im) for re, im, *_ in terms], 2.0)
    x = CVec([complex(re, im) for _, _, re, im, _ in terms], 2.0)
    offsets = batched_log_values(a, f, x.coords[None, :], steps, t=t).offsets[:, 0]
    drifts = [complex(float(n) * z.real, float(n) * z.imag) for n, z in zip(steps, offsets.tolist())]
    # the one-row view, a matmul of another shape
    drifts.append(step_derivative(a, f, x, t, steps[0]))
    for n, drift in zip(steps + steps[:1], drifts):
        ref = scalar_drift(a, f, x, t, n)
        scale, top = drift_scale(a, f, x, t, n)
        if top > FAR_OVERFLOW_LOG2:
            assert not cmath.isfinite(drift) and not cmath.isfinite(ref)
        elif scale <= 2.0**1000:
            bound = (len(terms) + 2) * DRIFT_ROUNDING * scale
            assert abs(drift - ref) <= bound, (n, drift, ref, bound)
        # in between, whether a partial sum overflows depends on the order


def test_scalar_route_refuses_a_nan_pairing():
    # NaN - 1 compares false against any slack, so the check is written to
    # fail on it
    a, f, _ = two_point()
    with pytest.raises(ValueError, match="f\\(x\\) = 1"):
        scalar_trotter_value(a, f, CVec([math.nan, 1.0], 2.0), 1.0, 4)


# The carrier reads every kind of step count through one float64 array, so
# a float array of counts 2^j has the bits of the same counts as Python ints.
@given(
    kind=st.sampled_from(["diagonal", "dense"]),
    exponents=st.lists(st.integers(0, 1023), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="dense", exponents=[1023, 0, 52, 53], seed=0)
@example(kind="diagonal", exponents=[1023, 0, 52, 53], seed=0)
def test_float_counts_give_the_bits_of_int_counts(kind, exponents, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    if kind == "diagonal":
        entries = raw[0] * 3.0
        a = diagonal_generator_from_entries(entries[np.argsort(np.abs(entries))])
    else:
        a = dense_generator(raw)
    f = Functional(rng.standard_normal(4) + 1j * rng.standard_normal(4), 2.0)
    ints = batched_log_values(a, f, raw[1:], [2**j for j in exponents], 0.5 + 0.25j)
    floats = batched_log_values(a, f, raw[1:], np.ldexp(1.0, exponents), 0.5 + 0.25j)
    for name in ("offsets", "log_values", "errors"):
        assert getattr(floats, name).tobytes() == getattr(ints, name).tobytes()


@pytest.mark.parametrize(
    "steps",
    [[0], [4, -2], [1, 0.5], np.array([2.0, math.nan]), np.array([math.nan])],
    ids=["zero", "negative", "half", "nan_after_count", "nan"],
)
def test_carrier_refuses_a_count_below_one_or_nan(steps):
    a, f, x = two_point()
    with pytest.raises(ValueError, match="step count must be positive"):
        batched_log_values(a, f, x.coords[None, :], steps)


@pytest.mark.parametrize("steps", [[2**1024], [1, 2**1100]], ids=["2^1024", "after_count"])
def test_carrier_refuses_a_count_past_the_float_range(steps):
    a, f, x = two_point()
    with pytest.raises(OverflowError, match="int too large to convert to float"):
        batched_log_values(a, f, x.coords[None, :], steps)


def test_trotter_record_is_an_immutable_value():
    a, f, x = two_point()
    record = scalar_trotter_value(a, f, x, 1.0, 16)
    assert record == scalar_trotter_value(a, f, x, 1.0, 16)
    assert record._fields == (
        "steps", "step_value", "derivative", "log_value", "value", "err_vs_limit", "path",
        "branch_ambiguous",
    )
    assert (record.steps, record.path) == (16, "log")
    with pytest.raises(AttributeError):
        record.steps = 32


# The stacked squaring ladder against np.linalg.matrix_power, one count at a
# time: each row's one-step matrix is formed on its own, as a single-count
# product formed it, and powered by numpy.

def one_step_matrix(a, proj, t, n):
    """exp((t/n) A) P for one count, formed on its own."""
    h = t / float(n)
    p_mat = projection_matrix(proj)
    with np.errstate(over="ignore", invalid="ignore"):
        if a.kind == "diagonal":
            return np.exp(h * a.entries)[:, None] * p_mat
        return p_mat + semigroup_defect(a, h) @ p_mat


def matrix_power_product(a, proj, x, t, n):
    """np.linalg.matrix_power(exp((t/n) A) P, n) @ x, or None when the power
    or the product is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        power = np.linalg.matrix_power(one_step_matrix(a, proj, t, n), n)
        product = power @ x.coords
    return product if np.isfinite(power).all() and np.isfinite(product).all() else None


def ladder_case(kind, projection, dim, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if kind == "diagonal":
        a = diagonal_generator_from_entries(raw[0] * (2.0 / np.abs(raw[0]).max()))
    else:
        a = dense_generator(raw * (rng.uniform(0.5, 4.0) / np.linalg.norm(raw, 2)))
    f = Functional(rng.standard_normal(dim) + 1j * rng.standard_normal(dim), 2.0)
    x = CVec(rng.standard_normal(dim) + 1j * rng.standard_normal(dim), 2.0)
    if projection == "dense" and dim > 1:
        proj = random_oblique_projection(dim, int(rng.integers(1, dim)), rng)
    else:
        proj = make_rank_one(f, x)
    return a, proj, x


@given(
    kind=st.sampled_from(["diagonal", "dense"]),
    projection=st.sampled_from(["rank_one", "dense"]),
    dim=st.integers(1, 16),
    exponents=st.lists(st.integers(0, 20), min_size=1, max_size=6),
    others=st.lists(st.integers(1, 2**20), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="dense", projection="dense", dim=16, exponents=[20, 0, 1, 20], others=[3, 2], seed=0)
@example(kind="diagonal", projection="rank_one", dim=1, exponents=[0, 20], others=[3], seed=1)
@example(kind="diagonal", projection="rank_one", dim=1, exponents=[1], others=[], seed=1)
@example(kind="dense", projection="rank_one", dim=1, exponents=[7], others=[], seed=3)
def test_ladder_rows_have_the_bits_of_matrix_power(kind, projection, dim, exponents, others, seed):
    # every count the CLI forms is 2^j; other counts, 3 among them (numpy
    # multiplies its three factors in another order), go in the same call
    a, proj, x = ladder_case(kind, projection, dim, seed)
    counts = [2**j for j in exponents] + others
    rng = np.random.default_rng(seed)
    times = rng.uniform(0.1, 2.0, len(counts))
    got = dense_trotter_products(a, proj, x, times, counts)
    assert got.shape == (len(counts), dim)
    for t, n, row in zip(times, counts, got):
        ref = matrix_power_product(a, proj, x, float(t), n)
        if ref is None:
            assert np.isnan(row).all()
        else:
            assert row.tobytes() == ref.tobytes()
            assert dense_trotter_apply(a, proj, x, float(t), n).coords.tobytes() == ref.tobytes()
    if kind == "dense":
        defects = semigroup_defects(a, times / np.array([float(n) for n in counts]))
        given_defects = dense_trotter_products(a, proj, x, times, counts, defects=defects)
        assert given_defects.tobytes() == got.tobytes()


def test_ladder_rows_that_overflow_come_back_nan_and_leave_the_rest():
    # the limit is about exp(0.75 t): at t = 1000 the row overflows at its
    # last square, and at t = 1e5 its squares overflow from 2^14 on and stay
    # in the ladder to bit 20; the rows at t = 1 keep their bits, also when
    # the overflowing row is the ladder's longest and the other ends first
    a = diagonal_generator_from_entries([2.0, -0.5])
    f = Functional([0.5, 0.5], 2.0)
    x = CVec([1.0, 1.0], 2.0)
    proj = make_rank_one(f, x)
    times = [1.0, 1000.0, 1.0, 1e5]
    counts = [2**10, 2**10, 2**20, 2**20]
    with np.errstate(all="raise"):
        got = dense_trotter_products(a, proj, x, times, counts)
        longest = dense_trotter_products(a, proj, x, [1e5, 1.0], [2**20, 2**16])
    assert np.isnan(got[1]).all() and np.isnan(got[3]).all()
    for k in (0, 2):
        assert got[k].tobytes() == matrix_power_product(a, proj, x, 1.0, counts[k]).tobytes()
    assert np.isnan(longest[0]).all()
    assert longest[1].tobytes() == matrix_power_product(a, proj, x, 1.0, 2**16).tobytes()
    for t, n in zip(times[1::2], counts[1::2]):
        assert matrix_power_product(a, proj, x, t, n) is None
        with pytest.raises(SemigroupOverflow, match=f"overflowed within {n} steps"):
            dense_trotter_apply(a, proj, x, t, n)


def test_ladder_refuses_a_count_below_one_or_past_the_float_range():
    a, f, x = two_point()
    proj = make_rank_one(f, x)
    with pytest.raises(ValueError, match="step count must be positive"):
        dense_trotter_products(a, proj, x, 1.0, [4, 0])
    with pytest.raises(OverflowError, match="int too large to convert to float"):
        dense_trotter_products(a, proj, x, 1.0, [4, 2**1024])
    assert dense_trotter_products(a, proj, x, 1.0, []).shape == (0, 2)


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
@pytest.mark.parametrize("projection", ["rank_one", "dense"])
@pytest.mark.parametrize("dim", [1, 3, 8, 16])
def test_merged_defects_and_oracles_have_the_bits_of_their_own_calls(kind, projection, dim):
    a, proj, _ = ladder_case(kind, projection, dim, dim)
    times = [0.5, 1.0, 2.0]
    steps = [t / 2.0**j for t in times for j in (0, 14, 40)]
    defects, oracles, overflow = step_defects_and_oracles(a, proj, steps, times)
    assert overflow is None
    assert len(defects) == len(steps) and len(oracles) == len(times)
    for h, defect in zip(steps, defects):
        assert defect.tobytes() == semigroup_defects(a, [h])[0].tobytes()
    for t, oracle in zip(times, oracles):
        assert oracle.tobytes() == bounded_limit_oracle(a, proj, t).tobytes()


def test_merged_defects_stop_before_the_first_step_that_overflows():
    a = dense_generator([[2.0, 1.0], [0.0, -1.0]])
    proj = make_rank_one(Functional([1.0, 0.0], 2.0), CVec([1.0, 0.5], 2.0))
    steps = [1.0, 100.0, 400.0, 2.0]
    with pytest.raises(SemigroupOverflow) as guard:
        semigroup_defects(a, steps)
    defects, oracles, overflow = step_defects_and_oracles(a, proj, steps, [1.0, 2.0])
    assert str(overflow) == str(guard.value)
    assert defects.tobytes() == semigroup_defects(a, steps[:2]).tobytes()
    for t, oracle in zip([1.0, 2.0], oracles):
        assert oracle.tobytes() == bounded_limit_oracle(a, proj, t).tobytes()
