"""Oblique projections: construction, idempotency, norms."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semigroup_lab import (
    CVec,
    DenseProjection,
    Functional,
    make_rank_one,
    norm,
    project,
    projection_norm,
    random_oblique_projection,
)
from semigroup_lab.errors import DegeneratePair, DimensionMismatch
from semigroup_lab.projections import IDEMPOTENCY_SLACK, RankOneProjection

IDEMPOTENT_TOL = 1e-12
MONTE_CARLO_REL = 0.02


def test_rank_one_normalizes_range_vector():
    f = Functional([1.0, 0.0], 2.0)
    proj = make_rank_one(f, CVec([2.0, 0.0], 2.0))
    np.testing.assert_allclose(proj.vector.coords, [1.0, 0.0], atol=0)
    out = project(proj, CVec([5.0, 7.0], 2.0))
    np.testing.assert_allclose(out.coords, [5.0, 0.0], atol=0)


def test_rank_one_rejects_degenerate_pair():
    with pytest.raises(DegeneratePair):
        make_rank_one(Functional([1.0, 0.0], 2.0), CVec([0.0, 1.0], 2.0))


def test_a_rank_one_pair_of_two_sizes_is_refused_by_its_pairing():
    f, x = Functional([1.0, 0.0], 2.0), CVec([1.0, 0.0, 0.0], 2.0)
    for build in (make_rank_one, RankOneProjection):
        with pytest.raises(DimensionMismatch, match="^pairing: dimensions 2 and 3 differ$"):
            build(f, x)


def test_a_rank_one_pair_must_share_its_tag_and_be_normalized():
    f = Functional([1.0, 0.0], 2.0)
    with pytest.raises(ValueError, match="^rank-one pair must share a norm tag$"):
        RankOneProjection(f, CVec([1.0, 0.0], 1.0))
    with pytest.raises(ValueError, match=r"^rank-one pair is not normalized: pairing = 2\+0j$"):
        RankOneProjection(f, CVec([2.0, 0.0], 2.0))


@pytest.mark.parametrize("matrix", [np.ones((2, 3)), np.ones(2)], ids=["oblong", "vector"])
def test_a_projection_matrix_must_be_square(matrix):
    with pytest.raises(ValueError, match="^projection matrix must be square$"):
        DenseProjection(matrix)


def test_a_dense_projection_refuses_a_vector_of_another_size():
    with pytest.raises(DimensionMismatch, match="^project: dimensions differ$"):
        project(DenseProjection(np.eye(2)), CVec([1.0, 2.0, 3.0], 2.0))


@pytest.mark.parametrize("rank", [0, 3])
def test_an_oblique_projection_needs_a_rank_strictly_inside(rank):
    with pytest.raises(ValueError, match="^rank must be strictly between 0 and dim$"):
        random_oblique_projection(3, rank, np.random.default_rng(0))


def test_rank_one_idempotent_and_complementary():
    rng = np.random.default_rng(21)
    f = Functional(rng.standard_normal(5) + 1j * rng.standard_normal(5), 2.0)
    x = CVec(rng.standard_normal(5) + 1j * rng.standard_normal(5), 2.0)
    proj = make_rank_one(f, x)
    for _ in range(50):
        z = CVec(rng.standard_normal(5) + 1j * rng.standard_normal(5), 2.0)
        once = project(proj, z)
        twice = project(proj, once)
        rest = CVec(z.coords - once.coords, 2.0)
        assert norm(CVec(twice.coords - once.coords, 2.0)) <= IDEMPOTENT_TOL * (
            1.0 + norm(once)
        )
        np.testing.assert_allclose(once.coords + rest.coords, z.coords, atol=1e-12)
        # complement lands in the kernel of the projection
        killed = project(proj, rest)
        assert norm(killed) <= IDEMPOTENT_TOL * (1.0 + norm(z))


def test_rank_one_fixes_its_range():
    f = Functional([1.0, 1.0], 2.0)
    proj = make_rank_one(f, CVec([1.0, 0.0], 2.0))
    out = project(proj, proj.vector)
    np.testing.assert_allclose(out.coords, proj.vector.coords, atol=1e-15)


def test_rank_one_norm_formula_vs_sampling():
    f = Functional([1.0, 1.0], 2.0)
    proj = make_rank_one(f, CVec([1.0, 0.0], 2.0))
    exact = projection_norm(proj)
    assert abs(exact - math.sqrt(2.0)) <= 1e-12
    rng = np.random.default_rng(22)
    best = 0.0
    for _ in range(40000):
        z = CVec(rng.standard_normal(2) + 1j * rng.standard_normal(2), 2.0)
        best = max(best, norm(project(proj, z)) / norm(z))
    assert best <= exact * (1.0 + 1e-12)
    assert best >= exact * (1.0 - MONTE_CARLO_REL)


def test_dense_projection_requires_idempotency():
    with pytest.raises(ValueError):
        DenseProjection(np.array([[1.0, 0.0], [0.0, 0.5]]))


def exact_induced_norm(matrix, p):
    if p == 1.0:
        return float(np.max(np.sum(np.abs(matrix), axis=0)))
    if p == math.inf:
        return float(np.max(np.sum(np.abs(matrix), axis=1)))
    return float(np.linalg.norm(matrix, 2))


def exact_idempotency_check(matrix, p):
    """DenseProjection's check with the induced norm of M^2 - M always
    formed, and no Frobenius bound: its message (None on a pass) and |M|."""
    size = exact_induced_norm(matrix, p)
    drift = exact_induced_norm(matrix @ matrix - matrix, p)
    if drift > IDEMPOTENCY_SLACK * (1.0 + size**2):
        return f"matrix is not idempotent: |M^2 - M| = {drift:.3g} with |M| = {size:.3g}", size
    return None, size


# [[I, X], [0, D]] with D = diag(0, .., 0, d1, d2) and the last two columns
# of X zero: its square has exact products, so M^2 - M is diag(d^2 - d) at
# those two places and |M| does not depend on them.  d1 puts the drift at
# the limit times ``side``; d2 = ``pair`` d1 makes the Frobenius norm of the
# defect exceed its 2-norm, so a pass near the limit needs the SVD.
@given(
    dim=st.integers(3, 8),
    side=st.sampled_from([1.0 - 1e-6, 1.0 - 1e-9, 1.0 + 1e-9, 1.0 + 1e-6]),
    pair=st.sampled_from([0.0, 0.5, 1.0]),
    p=st.sampled_from([1.0, 2.0, math.inf]),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_projection_decides_as_the_exact_check(dim, side, pair, p, seed):
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, dim - 1))
    m = np.zeros((dim, dim), dtype=np.complex128)
    m[:rank, :rank] = np.eye(rank)
    m[:rank, rank : dim - 2] = rng.standard_normal((rank, dim - 2 - rank)) + 1j * rng.standard_normal(
        (rank, dim - 2 - rank)
    )
    delta = side * IDEMPOTENCY_SLACK * (1.0 + exact_induced_norm(m, p) ** 2)
    m[dim - 2, dim - 2] = pair * delta
    m[dim - 1, dim - 1] = delta
    order = rng.permutation(dim)
    m = m[order][:, order]
    message, size = exact_idempotency_check(m, p)
    if abs(side - 1.0) > 1e-7:
        assert (message is None) == (side < 1.0)
    if message is None:
        assert DenseProjection(m, p).size == size
    else:
        with pytest.raises(ValueError) as refused:
            DenseProjection(m, p)
        assert str(refused.value) == message


def test_dense_projection_induced_norms():
    m = np.array([[1.0, 1.0], [0.0, 0.0]])
    assert abs(projection_norm(DenseProjection(m, p=1.0)) - 1.0) <= 1e-12
    assert abs(projection_norm(DenseProjection(m, p=2.0)) - math.sqrt(2.0)) <= 1e-12
    assert abs(projection_norm(DenseProjection(m, p=math.inf)) - 2.0) <= 1e-12


def test_random_oblique_respects_cap_and_rank():
    rng = np.random.default_rng(23)
    for _ in range(10):
        d = int(rng.integers(2, 9))
        r = int(rng.integers(1, d))
        proj = random_oblique_projection(d, r, rng)
        m = proj.matrix
        assert np.linalg.norm(m, 2) <= 5.0 + 1e-9
        assert round(np.trace(m).real) == r
        assert np.linalg.norm(m @ m - m, 2) <= 1e-9
