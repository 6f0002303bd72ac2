"""Renorming audits: the split norm, its sandwich bounds, and the
classical weighted norm."""

import ast
import contextlib
import inspect
import math
import sys
import textwrap
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from semigroup_lab import (
    CVec,
    Functional,
    classical_renorm_value,
    diagonal_generator_from_entries,
    dual_norm,
    lambda_lower_bounds,
    make_rank_one,
    norm,
    project,
    quasi_contractivity_audit,
    renorm_time_grid,
    report_from_dict,
    report_to_dict,
    dumps_canonical,
    spectral_bound,
    split_norm,
    witness_projection,
)
from semigroup_lab.errors import DegeneratePair, SpectralBoundViolated
from semigroup_lab.projections import RankOneProjection
from semigroup_lab.renorm import (
    DEFAULT_SLACK,
    DEFAULT_VECTOR_SAMPLES,
    _SPLIT_BLOCK,
    SplitNormals,
    _contractivity,
    _draw,
    _draws,
    _equivalence,
    _split_audit,
    _split_ratio_blocks,
    _weighted_sups,
)
from semigroup_lab import renorm
from semigroup_lab.spaces import (
    dense_generator, semigroup_apply, semigroup_matrices, semigroup_norm_bounds
)

RATIO_SLACK = 1e-10
BATCH_REF_TOL = 1e-13
# the grid times of no shift: the audit's columns are the draws alone
NO_SHIFTS = np.array([], dtype=int)
# The split audit takes a rank-one projection only.  "skewed" moves the
# vector of a drawn pair along ker f (``skew``), so that |P| = |f| |y| is
# large and z - f(z) y cancels in every column.
SPLIT_KINDS = pytest.mark.parametrize("kind", ["rank_one", "skewed"])


# The split audit's two halves drawn serially, with no helper thread: the
# references the threaded audit is held to bit for bit.

def equivalence_audit(
    proj: RankOneProjection,
    seed: int = 0,
    samples: int = DEFAULT_VECTOR_SAMPLES,
    slack: float = DEFAULT_SLACK,
) -> tuple[float, float, list[tuple]]:
    """Sample the ratio split_norm/norm and check it stays in [1, 2|P|+1].

    Returns (min_ratio, max_ratio, violations); a violation row is
    (sample index, ratio, low bound, high bound).
    """
    return _equivalence(proj, _draws(seed, samples, proj.dim), slack)


def projection_contractivity_check(
    proj: RankOneProjection,
    seed: int = 0,
    samples: int = DEFAULT_VECTOR_SAMPLES,
    slack: float = DEFAULT_SLACK,
) -> tuple[float, list[tuple]]:
    """Check split_norm(P z) <= split_norm(z) on random samples.

    Returns (max ratio, violations); equality is attained on the range
    of P, so the max should sit at 1 up to rounding.
    """
    return _contractivity(proj, _draws(seed, samples, proj.dim), slack)


def _split_ratios(proj: RankOneProjection, seed: int, samples: int, of_image: bool) -> np.ndarray:
    """The ratios of ``_split_ratio_blocks`` over ``_draws(seed, samples, proj.dim)``, in one array."""
    ratios = np.empty(samples)
    for start, block in _split_ratio_blocks(proj, _draws(seed, samples, proj.dim), of_image):
        ratios[start : start + len(block)] = block
    return ratios


def coordinate_projection():
    f = Functional([1.0, 0.0], 2.0)
    return make_rank_one(f, CVec([1.0, 0.0], 2.0))


def test_split_norm_coordinate_example():
    proj = coordinate_projection()
    assert split_norm(proj, CVec([3.0, 4.0], 2.0)) == pytest.approx(7.0, abs=1e-12)
    # on the range the two pieces collapse to one
    assert split_norm(proj, CVec([2.0, 0.0], 2.0)) == pytest.approx(2.0, abs=1e-12)


def test_equivalence_band_holds():
    proj = coordinate_projection()
    lo, hi, violations = equivalence_audit(proj, seed=5, samples=500)
    assert not violations
    assert lo >= 1.0 - RATIO_SLACK
    assert hi <= 2.0 * 1.0 + 1.0 + RATIO_SLACK  # projection norm is 1 here


def test_equivalence_reports_band_violations():
    proj = coordinate_projection()
    # an impossible lower band makes every sample a violation row
    _, _, violations = equivalence_audit(proj, seed=5, samples=20, slack=-2.0)
    assert len(violations) == 20
    index, ratio, low, high = violations[0]
    assert index == 0
    assert ratio >= 1.0
    assert (low, high) == (1.0, 3.0)


def test_projection_contractivity():
    rng = np.random.default_rng(51)
    f = Functional(rng.standard_normal(4) + 1j * rng.standard_normal(4), 2.0)
    x = CVec(rng.standard_normal(4) + 1j * rng.standard_normal(4), 2.0)
    proj = make_rank_one(f, x)
    worst, violations = projection_contractivity_check(proj, seed=5, samples=500)
    assert not violations
    assert worst <= 1.0 + RATIO_SLACK
    # equality is attained on the range
    z = project(proj, CVec(rng.standard_normal(4), 2.0))
    assert split_norm(proj, project(proj, z)) == pytest.approx(
        split_norm(proj, z), rel=1e-12
    )


def test_lambda_bounds_recompute(k5_certificate):
    cert = k5_certificate
    lambdas = lambda_lower_bounds(cert)
    assert len(lambdas) == len(cert.stages)
    assert all(b > a for a, b in zip(lambdas, lambdas[1:]))
    scale = math.log(
        dual_norm(cert.functional_obj()) * norm(CVec(cert.witness, cert.p))
    )
    for lam, lv in zip(lambdas, cert.witness_log_values):
        assert lam == pytest.approx(lv.real - scale, abs=1e-12)


def test_witness_projection_matches_certificate(k5_certificate):
    proj = witness_projection(k5_certificate)
    y = CVec(k5_certificate.witness, k5_certificate.p)
    out = project(proj, y)
    np.testing.assert_allclose(out.coords, y.coords, rtol=1e-9)


def test_lambda_bounds_survive_a_functional_past_the_sum_of_squares_range(k5_certificate):
    # |f|_2 of f * 2^520 is a double, though its sum of squares is not
    big = replace(k5_certificate, functional=k5_certificate.functional * 2.0**520)
    shift = 520 * math.log(2.0)
    for lam, ref in zip(lambda_lower_bounds(big), lambda_lower_bounds(k5_certificate)):
        assert lam == pytest.approx(ref - shift, abs=1e-12)


def test_witness_projection_refuses_a_witness_the_functional_annihilates(k5_certificate):
    f = k5_certificate.functional
    x = np.zeros_like(f)
    x[0], x[1] = f[1], -f[0]  # f(x) = f_0 f_1 - f_1 f_0 = 0 exactly
    with pytest.raises(DegeneratePair, match="^pairing 0 below 1e-12; the pair spans no bounded projection$"):
        witness_projection(replace(k5_certificate, witness=x))


def test_the_split_audit_makes_no_blas_call(monkeypatch, k5_certificate):
    # BLAS picks its kernel, and with it the order of its sums, by CPU: a
    # call on this path would make a split report's bits depend on the machine
    def refused(*args, **kwargs):
        raise AssertionError("BLAS call on the split path")

    for module, name in [(np, "dot"), (np, "vdot"), (np, "matmul"), (np.linalg, "norm")]:
        monkeypatch.setattr(module, name, refused)
    assert _split_audit(k5_certificate, 9, 3000, DEFAULT_SLACK).passed
    split_path = (
        renorm._split_audit, renorm.witness_projection, renorm.lambda_lower_bounds,
        renorm._split_ratio_blocks, renorm._pairings, renorm._norms_into, renorm._vector_norm,
    )
    for function in split_path:  # an ``@`` product calls no module attribute
        tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
        assert not any(isinstance(node, ast.MatMult) for node in ast.walk(tree))


def test_spectral_bound_values():
    a = diagonal_generator_from_entries([-1.0, 3j])
    assert spectral_bound(a) == 0.0
    b = diagonal_generator_from_entries([-2.0, -0.5 + 4j])
    assert spectral_bound(b) == -0.5


def test_time_grid_shape():
    a = diagonal_generator_from_entries([-1.0, 3j])
    grid = renorm_time_grid(a, omega=0.5, points=33)
    assert grid[0] == 0.0
    assert grid.size == 33
    assert grid[-1] == pytest.approx(50.0 / 0.5, rel=1e-12)
    assert np.all(np.diff(grid) > 0.0)
    with pytest.raises(SpectralBoundViolated):
        renorm_time_grid(a, omega=0.0)


def test_classical_value_sits_at_zero_for_dissipative():
    a = diagonal_generator_from_entries([3j, -0.5 + 9j])
    z = CVec([1.0, 2.0], 2.0)
    value, argmax = classical_renorm_value(a, 0.5, z)
    assert argmax == 0.0
    assert value == pytest.approx(norm(z), rel=1e-12)


def test_classical_audit_passes():
    a = diagonal_generator_from_entries([3j, -0.25 + 9j, -0.5 + 27j])
    report = quasi_contractivity_audit(
        "classical", a=a, omega=0.5, seed=3, vector_samples=100, time_samples=4
    )
    assert report.kind == "classical"
    assert report.passed
    assert not report.violations
    assert report.summary["worst_excess"] <= 0.0
    assert report.parameters["omega"] == 0.5
    assert report.parameters["time_samples_requested"] == 4


def test_classical_audit_flags_insufficient_weight():
    a = diagonal_generator_from_entries([0.5 + 1j, 2j])
    with pytest.raises(SpectralBoundViolated):
        quasi_contractivity_audit("classical", a=a, omega=0.3, vector_samples=10)


def test_split_audit_reports_lambdas(k5_certificate):
    report = quasi_contractivity_audit(
        "split", cert=k5_certificate, seed=9, vector_samples=500
    )
    assert report.kind == "split"
    assert report.passed
    assert report.lambdas == lambda_lower_bounds(k5_certificate)
    assert report.summary["min_ratio"] >= 1.0 - RATIO_SLACK
    assert report.summary["lambda_gap"] == pytest.approx(
        report.lambdas[-1] - report.lambdas[0], abs=1e-12
    )


def test_report_roundtrip(k5_certificate):
    report = quasi_contractivity_audit(
        "split", cert=k5_certificate, seed=9, vector_samples=50
    )
    payload = report_to_dict(report)
    back = report_from_dict(payload)
    assert dumps_canonical(report_to_dict(back)) == dumps_canonical(payload)


def transient_dense():
    """-I plus a strong nilpotent shift: non-normal, so |exp(tA) z| first
    grows and the weighted sup sits at t > 0 for most draws."""
    return dense_generator(-np.eye(4) + 3.0 * np.eye(4, k=1))


def dissipative_diagonal():
    return diagonal_generator_from_entries([3j, -0.25 + 9j, -0.5 + 27j])


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf], ids=["p1", "p2", "pinf"])
@pytest.mark.parametrize(
    "make", [dissipative_diagonal, transient_dense], ids=["diagonal", "dense"]
)
def test_batched_sups_match_per_vector_reference(make, p):
    a = make()
    grid = renorm_time_grid(a, 0.5, 65)
    draws = _draw(21, 40, a.dim)
    sups, _ = _weighted_sups(a, grid, 0.5, draws, NO_SHIFTS, p)
    argmaxes = []
    for row, batched in zip(draws, sups):
        ref, argmax = classical_renorm_value(a, 0.5, CVec(row, p), grid)
        argmaxes.append(argmax)
        assert abs(batched - ref) <= BATCH_REF_TOL * ref
    if a.kind == "dense":
        assert max(argmaxes) > 0.0
    else:
        assert max(argmaxes) == 0.0


def late_crossing_dense():
    """A 3 x 3 Jordan block at -0.2: at weight 0.5 its bound
    exp(-0.5 t) |exp(tA)| stays above 1 until t is about 11, deep inside
    the grid, and falls below 1 after."""
    return dense_generator(-0.2 * np.eye(3) + 5.0 * np.eye(3, k=1))


def dissipative_dense():
    """-2 I plus a weak non-normal coupling: mu_1 = mu_inf = -1.7."""
    return dense_generator(-2.0 * np.eye(4) + 0.3 * np.eye(4, k=1) + 0.3j * np.eye(4, k=-1))


def row_heavy_dense():
    """-2 I plus a first row of 4s, audited at weight 26.5 above its
    logarithmic norm of 26: its rows sum to five times its columns, so the
    bound on the Taylor step in l^inf grows with the scaling, and late
    times are left open."""
    matrix = -2.0 * np.eye(8)
    matrix[0, 1:] = 4.0
    return dense_generator(matrix)


TRANSIENTS = pytest.mark.parametrize(
    "make", [transient_dense, late_crossing_dense], ids=["transient", "late_crossing"]
)


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf], ids=["p1", "p2", "pinf"])
@pytest.mark.parametrize("points", [65, 257])
@TRANSIENTS
def test_classical_audit_passes_where_the_weighted_sup_lies_past_zero(make, points, p):
    # |T(s) z|_w <= exp(w s) |z|_w holds exactly for the lattice norm
    # sup_k exp(-w t_k) |T(t_k) z|, t_k = k h, and shifts s = j h: the
    # shifted lattice lies inside the grid up to the horizon
    report = quasi_contractivity_audit(
        "classical", a=make(), omega=0.5, p=p, seed=3, vector_samples=200, grid_points=points
    )
    assert report.passed, report.violations[:3]


@pytest.mark.parametrize("points", [65, 257])
@TRANSIENTS
def test_a_perturbed_shift_propagator_fails_the_classical_audit(monkeypatch, make, points):
    # exp(s(A + 1e-6 E)) in place of exp(sA) at the shift times s > 0 only,
    # every second grid time, so that some lie before the weighted orbits'
    # peaks: T(t_k) T(s) z is then no longer T(t_k + s) z, and the audit
    # must see it
    a, shift_count = make(), (points + 1) // 2
    grid = renorm_time_grid(a, 0.5, points)
    shifts = set(grid[2:points:2].tolist())
    bent = dense_generator(a.matrix + 1e-6 * np.eye(a.dim, k=-1))

    def perturbed(gen, times):
        stack = semigroup_matrices(gen, times)
        for i, t in enumerate(times.tolist()):
            if t in shifts:
                stack[i] = semigroup_matrices(bent, [t])[0]
        return stack

    monkeypatch.setattr(renorm, "semigroup_matrices", perturbed)
    report = quasi_contractivity_audit(
        "classical", a=a, omega=0.5, seed=3, vector_samples=200,
        time_samples=shift_count, grid_points=points,
    )
    assert report.time_samples == shift_count
    assert not report.passed
    assert {row[1] for row in report.violations} <= shifts


def negative_weight_diagonal():
    """Entries with real part -2, audited at weight -1, where w > 1."""
    return diagonal_generator_from_entries([-2.0 + 1j, -2.0 + 3j, -2.0 + 9j])


def settled_times(a, grid, omega):
    """The grid times after t = 0 that the logarithmic-norm bound settles."""
    weights = np.array([math.exp(-omega * float(t)) for t in grid])
    return (weights * semigroup_norm_bounds(a, grid) * (1.0 + 1e-8) < 1.0)[1:]


def unpruned_sups(grid, propagators, omega, cols, p):
    """The weighted sups with every grid time evaluated."""
    sups = np.full(cols.shape[1], -math.inf)
    for t, prop in zip(grid, propagators):
        norms = np.linalg.norm(prop @ cols, ord=p, axis=0)
        sups = np.maximum(sups, math.exp(-omega * float(t)) * norms)
    return sups


def weighted_bounds(grid, propagators, omega):
    """exp(-omega t) times the larger of the greatest column and row sums
    of |exp(tA)|, per grid time."""
    mags = np.abs(propagators)
    sums = np.maximum(mags.sum(axis=1).max(axis=1), mags.sum(axis=2).max(axis=1))
    return np.exp(-omega * np.asarray(grid)) * sums


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf], ids=["p1", "p2", "pinf"])
@pytest.mark.parametrize(
    "make, omega, settled",
    [
        (dissipative_diagonal, 0.5, "all"),
        # mu = 2 and mu_1 = 4.8 lie above the weight: exp(tA) is formed at
        # every time, and the column and row sums decide as before
        (transient_dense, 0.5, "none"),
        (late_crossing_dense, 0.5, "none"),
        (dissipative_dense, 0.5, "all"),
        (negative_weight_diagonal, -1.0, "all"),
        (row_heavy_dense, 26.5, "some"),
    ],
    ids=["diagonal", "dense", "late_crossing", "dissipative_dense", "negative_weight", "row_heavy"],
)
def test_pruned_sups_equal_the_unpruned_loop_bit_for_bit(monkeypatch, make, omega, settled, p):
    a = make()
    grid = renorm_time_grid(a, omega)
    stack = semigroup_matrices(a, grid)
    draws = _draw(22, 300, a.dim)
    # the audit's columns: draws, and draws moved by a shift
    cols = np.concatenate([draws.T, stack[64] @ draws.T], axis=1)
    formed = formed_propagators(monkeypatch)
    sups, factors = _weighted_sups(a, grid, omega, draws, np.array([64]), p)
    assert formed[grid[64]].tobytes() == stack[64].tobytes()
    assert factors.tolist() == [[math.exp(omega * grid[64])]]
    assert sups.tobytes() == unpruned_sups(grid, stack, omega, cols, p).tobytes()
    # the column and row sums leave times to skip, so the comparison is not vacuous
    assert (weighted_bounds(grid, stack, omega)[1:] < 1.0).any()
    # and the logarithmic norm settles all of them, some or none
    done = settled_times(a, grid, omega)
    count = {"all": done.size, "none": 0}.get(settled)
    if count is None:
        assert 0 < done.sum() < done.size
    else:
        assert done.sum() == count


def test_late_crossing_bound_crosses_one_inside_the_grid():
    a = late_crossing_dense()
    grid = renorm_time_grid(a, 0.5)
    above = weighted_bounds(grid, semigroup_matrices(a, grid), 0.5) > 1.0
    crossing = int(np.argmin(above[1:])) + 1
    assert above[1:crossing].all() and not above[crossing:].any()
    assert 5.0 < grid[crossing] < grid[-1] / 2.0


def formed_times(monkeypatch):
    """The times of every ``semigroup_matrices`` call the audits make, one list per call."""
    calls = []

    def counted(a, times):
        calls.append(list(times))
        return semigroup_matrices(a, times)

    monkeypatch.setattr(renorm, "semigroup_matrices", counted)
    return calls


def formed_propagators(monkeypatch):
    """exp(tA) as the audits' ``semigroup_matrices`` calls form it, by time."""
    formed = {}

    def recorded(a, times):
        stack = semigroup_matrices(a, times)
        formed.update(zip(times.tolist(), stack))
        return stack

    monkeypatch.setattr(renorm, "semigroup_matrices", recorded)
    return formed


@pytest.mark.parametrize("make", [dissipative_diagonal, dissipative_dense], ids=["diagonal", "dense"])
def test_a_dissipative_audit_forms_exp_ta_at_its_shift_times_only(monkeypatch, make):
    a = make()
    calls = formed_times(monkeypatch)
    report = quasi_contractivity_audit(
        "classical", a=a, omega=0.5, seed=5, vector_samples=30, time_samples=8
    )
    grid = renorm_time_grid(a, 0.5)
    shifts = np.unique(np.round(np.linspace(0, grid.size - 1, 8)).astype(int))
    assert report.passed
    assert calls == [grid[shifts].tolist()]


def test_times_the_window_forces_are_formed_together(monkeypatch):
    # a NaN column leaves every sup NaN, so no time may be skipped, and the
    # times the bound settled are formed in one more call
    a = dissipative_diagonal()
    grid = renorm_time_grid(a, 0.5, 33)
    calls = formed_times(monkeypatch)
    cols = non_finite_columns(_draw(23, 8, a.dim).T.copy())
    with np.errstate(invalid="ignore"):
        sups, _ = _weighted_sups(a, grid, 0.5, cols.T, NO_SHIFTS, 2.0)
        assert sups.tobytes() == unpruned_sups(
            grid, semigroup_matrices(a, grid), 0.5, cols, 2.0
        ).tobytes()
    assert calls == [grid[:1].tolist(), grid[1:].tolist()]


def non_finite_columns(cols):
    cols[1, 0] = math.inf
    cols[0, 1] = math.nan
    cols[2, 2] = complex(-math.inf, 1.0)
    return cols


def subnormal_in_the_second_block(cols):
    """1,100 columns, in blocks of 1,024 and 76, one of the second block's
    near 1e-161: its range window forces every time in the first block too."""
    wide = _draw(25, 1100, len(cols)).T.copy()
    wide[:, 1050] *= 1e-161
    return wide


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf], ids=["p1", "p2", "pinf"])
@pytest.mark.parametrize(
    "make, omega, prepare",
    [
        (dissipative_diagonal, 0.5, non_finite_columns),
        (transient_dense, 0.5, non_finite_columns),
        # squares of entries near 1e-161 are subnormal and round by percents
        (dissipative_diagonal, 0.5, lambda cols: cols * 1e-161),
        # |exp(tA) z| passes 1e154 inside the grid, so the squares of a
        # 2-norm overflow and the unpruned sups are inf
        (lambda: diagonal_generator_from_entries([-0.5, 1.0]), 1.075, lambda cols: cols),
        (dissipative_diagonal, 0.5, subnormal_in_the_second_block),
    ],
    ids=[
        "non_finite_diagonal", "non_finite_dense", "subnormal_squares", "overflowing_norms",
        "subnormal_second_block",
    ],
)
def test_pruned_sups_keep_extreme_columns_unpruned(make, omega, prepare, p):
    a = make()
    grid = renorm_time_grid(a, omega)
    stack = semigroup_matrices(a, grid)
    cols = prepare(_draw(23, 8, a.dim).T.copy())
    with np.errstate(over="ignore", invalid="ignore"):
        sups, _ = _weighted_sups(a, grid, omega, cols.T, NO_SHIFTS, p)
        assert sups.tobytes() == unpruned_sups(grid, stack, omega, cols, p).tobytes()


def per_vector_violations(a, omega, p, seed, vectors, shifts, grid_points, tol):
    """The classical audit's violation rows, one draw and one shift at a time."""
    grid = renorm_time_grid(a, omega, grid_points)
    draws = _draw(seed, vectors, a.dim)
    idx = np.unique(np.round(np.linspace(0, grid.size - 1, shifts)).astype(int))
    rows = []
    for i, row in enumerate(draws):
        z = CVec(row, p)
        base, _ = classical_renorm_value(a, omega, z, grid)
        for s in grid[idx]:
            lhs, _ = classical_renorm_value(a, omega, semigroup_apply(a, float(s), z), grid)
            rhs = math.exp(omega * float(s)) * base
            if lhs - rhs > tol:
                rows.append((i, float(s), lhs, rhs))
    return rows


@pytest.mark.parametrize("p", [1.0, 2.0], ids=["p1", "p2"])
def test_classical_violation_rows_match_per_vector_loop(p):
    # a tolerance every draw breaks records one row per (draw, shift)
    a = transient_dense()
    report = quasi_contractivity_audit(
        "classical", a=a, omega=0.5, p=p, seed=4, vector_samples=6,
        time_samples=5, grid_points=33, tol=-math.inf,
    )
    expected = per_vector_violations(a, 0.5, p, 4, 6, 5, 33, -math.inf)
    assert not report.passed
    assert len(report.violations) == len(expected) == 6 * report.time_samples
    for got, want in zip(report.violations, expected):
        assert got[:2] == want[:2]
        assert all(type(x) is type(y) for x, y in zip(got, want))
        for x, y in zip(got[2:], want[2:]):
            assert abs(x - y) <= BATCH_REF_TOL * abs(y)


@SPLIT_KINDS
def test_batched_split_ratios_match_split_norm(kind):
    p = 1.0
    proj = split_projection(kind, 5, p, seed=52)
    if kind == "skewed":  # the skew made |P| = |f| |y| over ten times larger
        plain = split_projection("rank_one", 5, p, seed=52)
        size = [dual_norm(q.functional) * norm(q.vector) for q in (proj, plain)]
        assert size[0] > 10 * size[1]
    # slack -inf turns every sample into a violation row carrying its ratio,
    # whatever the ratio bound 1 + 2 |P|
    _, _, eq_rows = equivalence_audit(proj, seed=6, samples=30, slack=-math.inf)
    _, ctr_rows = projection_contractivity_check(proj, seed=7, samples=30, slack=-math.inf)
    assert [row[0] for row in eq_rows] == [row[0] for row in ctr_rows] == list(range(30))
    for row, z in zip(eq_rows, _draw(6, 30, 5)):
        z = CVec(z, p)
        assert abs(row[1] - split_norm(proj, z) / norm(z)) <= BATCH_REF_TOL * row[1]
    for row, z in zip(ctr_rows, _draw(7, 30, 5)):
        z = CVec(z, p)
        ref = split_norm(proj, project(proj, z)) / split_norm(proj, z)
        assert abs(row[1] - ref) <= BATCH_REF_TOL * ref


def whole_batch_ratios(proj, seed, samples, of_image):
    """The split audit's ratios in their closed form, with every draw in one
    C-order (d, samples) batch: the reference its block-streamed kernel must
    equal bit for bit.  For P z = f(z) y, split_norm(z) is
    |f(z)| |y| + |z - f(z) y| and split_norm(P z) is
    |f(z)| |y| (|f(y)| + |f(y) - 1|)."""
    def norms(cols):
        return np.linalg.norm(cols, ord=proj.p, axis=0)

    f, y = proj.functional.coords, proj.vector.coords[:, None]
    cols = np.ascontiguousarray(_draw(seed, samples, proj.dim).T)
    f_z = np.add.reduce(f[:, None] * cols, axis=0)
    f_y = np.add.reduce(f[:, None] * y, axis=0)[0]
    head = np.abs(f_z) * norms(y)[0]
    split = head + norms(cols - y * f_z)
    if not of_image:
        return split / norms(cols)
    return head * (abs(f_y) + abs(f_y - 1.0)) / split


def skew(f, x, t=30.0):
    """x + t k for k = (f_1, -f_0, 0, ...): f(k) = f_0 f_1 - f_1 f_0 is 0,
    so the pair keeps f(x) while |x| grows.  In one dimension ker f is 0 and
    x stays."""
    x = x.copy()
    if len(x) > 1:
        x[0] += t * f[1]
        x[1] -= t * f[0]
    return x


def split_projection(kind, dim, p, seed=53):
    rng = np.random.default_rng(seed)
    f, x = rng.standard_normal((2, dim)) + 1j * rng.standard_normal((2, dim))
    if kind == "skewed":
        x = skew(f, x)
    return make_rank_one(Functional(f, p), CVec(x, p))


SAMPLE_COUNTS = [0, 1, _SPLIT_BLOCK - 1, _SPLIT_BLOCK, _SPLIT_BLOCK + 1, 2 * _SPLIT_BLOCK + 1, 10**4]


@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
@pytest.mark.parametrize("p", [1.0, 2.0, math.inf], ids=["p1", "p2", "pinf"])
@SPLIT_KINDS
@pytest.mark.parametrize("dim", [7, 9])
def test_blocked_split_ratios_equal_the_whole_batch_bit_for_bit(dim, kind, p, samples):
    proj = split_projection(kind, dim, p)
    for of_image in (False, True):
        blocked = _split_ratios(proj, 31, samples, of_image)
        assert blocked.tobytes() == whole_batch_ratios(proj, 31, samples, of_image).tobytes()


@pytest.mark.parametrize("seed, samples, dim", [(0, 0, 3), (5, 1, 7), (11, 1025, 7), (23, 40, 2)])
def test_split_draw_is_the_stream_of_draw(seed, samples, dim):
    normals = np.random.default_rng(seed).standard_normal((2, samples, dim))
    block = np.empty((samples, dim), dtype=complex)
    block.real, block.imag = normals
    assert block.tobytes() == _draw(seed, samples, dim).tobytes()


def test_split_audit_memory_stays_under_two_megabytes(k5_certificate):
    # the whole-batch audit peaked at 4.8 MB here, on 10^4-column temporaries
    _split_audit(k5_certificate, 9, 100, DEFAULT_SLACK)
    tracemalloc.start()
    try:
        _split_audit(k5_certificate, 9, 10**4, DEFAULT_SLACK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000


def same_bits(got, want) -> bool:
    """Whether two audit results print alike, every float to its last bit (a
    plain ``assert ==`` would have pytest diff reprs of up to 2 MB)."""
    return repr(got) == repr(want)


def drawn_ahead(proj, seed, samples, slack):
    """The split audit's two passes over streams a running ``SplitNormals``
    draws on its helper thread."""
    with SplitNormals(seed, samples, proj.dim) as normals:
        assert normals.key == (seed, samples, proj.dim)
        first, second = normals.streams(seed, samples, proj.dim)
        return _equivalence(proj, first, slack), _contractivity(proj, second, slack)


@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
@pytest.mark.parametrize("p", [1.0, 2.0, math.inf], ids=["p1", "p2", "pinf"])
@SPLIT_KINDS
@pytest.mark.parametrize("dim", [1, 7, 9])
def test_streams_drawn_ahead_give_the_serial_audits_bit_for_bit(dim, kind, p, samples):
    proj = split_projection(kind, dim, p)
    # a negative slack makes every sample a violation row carrying its ratio
    for slack in (DEFAULT_SLACK, -10.0):
        eq, ctr = drawn_ahead(proj, 41, samples, slack)
        assert same_bits(eq, equivalence_audit(proj, seed=41, samples=samples, slack=slack))
        assert same_bits(
            ctr, projection_contractivity_check(proj, seed=42, samples=samples, slack=slack)
        )


@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
@pytest.mark.parametrize("p", [1.0, 2.0, math.inf], ids=["p1", "p2", "pinf"])
@pytest.mark.parametrize("dim", [1, 7, 9])
def test_split_audit_equals_the_serial_public_audits(k5_certificate, dim, p, samples):
    rng = np.random.default_rng(dim)
    f, x = rng.standard_normal((2, dim)) + 1j * rng.standard_normal((2, dim))
    cert = replace(k5_certificate, functional=f, witness=x, p=p)
    proj = witness_projection(cert)
    for slack in (DEFAULT_SLACK, -10.0):
        report = _split_audit(cert, 43, samples, slack)
        lo, hi, eq_rows = equivalence_audit(proj, seed=43, samples=samples, slack=slack)
        worst, ctr_rows = projection_contractivity_check(
            proj, seed=44, samples=samples, slack=slack
        )
        summary = report.summary
        assert same_bits((summary["min_ratio"], summary["max_ratio"]), (lo, hi))
        assert same_bits(summary["contractivity_max"], worst)
        expected = [("equivalence", *row) for row in eq_rows]
        expected += [("contractivity", *row) for row in ctr_rows]
        assert same_bits(report.violations, tuple(expected))


@pytest.mark.parametrize("samples", [0, 1, 1025, 2049])
def test_streams_drawn_in_pieces_are_the_whole_draw(samples):
    dim = 7
    with SplitNormals(61, samples, dim) as normals:
        ahead = normals.streams(61, samples, dim)
        for seed, stream in zip((61, 62), ahead):
            whole = np.random.default_rng(seed).standard_normal((2, samples, dim))
            for blocks in (stream, _draws(seed, samples, dim)):
                # the helper reuses its imaginary buffers, so copy each block
                pieces = [(real.copy(), imag.copy()) for real, imag in blocks]
                real = np.concatenate([r for r, _ in pieces] or [np.empty((0, dim))])
                imag = np.concatenate([i for _, i in pieces] or [np.empty((0, dim))])
                assert np.array_equal(real.view(np.uint64), whole[0].view(np.uint64))
                assert np.array_equal(imag.view(np.uint64), whole[1].view(np.uint64))


@pytest.mark.parametrize(
    "seed, samples, dim",
    [(-1, 10, 7), (1, -1, 7), (1, 10, None), (1, 10**17, 7), (1.5, 10, 7)],
    ids=["negative_seed", "negative_count", "no_dim", "too_large", "float_seed"],
)
def test_streams_that_cannot_be_drawn_ahead_are_left_to_the_audit(seed, samples, dim):
    before = threading.enumerate()
    with SplitNormals(seed, samples, dim) as normals:
        assert normals.key is None
        assert threading.enumerate() == before


def test_audit_draws_its_own_streams_when_handed_others(k5_certificate):
    expected = _split_audit(k5_certificate, 9, 3000, DEFAULT_SLACK)
    for seed, samples, dim in ((9, 3000, 8), (10, 3000, 7), (9, 2999, 7)):
        with SplitNormals(seed, samples, dim) as normals:
            report = _split_audit(k5_certificate, 9, 3000, DEFAULT_SLACK, normals)
            assert normals.key == (seed, samples, dim)  # left untaken
        assert report_to_dict(report) == report_to_dict(expected)
    with SplitNormals(9, 3000, 7) as normals:
        first = _split_audit(k5_certificate, 9, 3000, DEFAULT_SLACK, normals)
        # the streams drawn ahead are handed out once; a second audit draws its own
        second = _split_audit(k5_certificate, 9, 3000, DEFAULT_SLACK, normals)
    assert report_to_dict(first) == report_to_dict(second) == report_to_dict(expected)


def test_abandoned_streams_stop_and_join():
    before = threading.enumerate()
    with SplitNormals(3, 10**4, 7) as normals:
        first, _ = normals.streams(3, 10**4, 7)
        next(first)  # the audit stops after one block
    assert threading.enumerate() == before
    with pytest.raises(RuntimeError, match="audit failed"):
        with SplitNormals(3, 10**4, 7):
            raise RuntimeError("audit failed")
    assert threading.enumerate() == before


def test_streams_drawn_ahead_survive_fast_thread_switches():
    # four helpers and the consumer on two cores, switching every microsecond:
    # a block handed over before it is filled, or refilled before it is
    # read, breaks the equality with the whole draw
    samples, dim, seeds = 3 * _SPLIT_BLOCK + 5, 3, (71, 73, 75, 77)
    wholes = [np.random.default_rng(seed + k).standard_normal((2, samples, dim))
              for seed in seeds for k in (0, 1)]
    got = []

    def consume():
        with contextlib.ExitStack() as stack:
            helpers = [stack.enter_context(SplitNormals(seed, samples, dim)) for seed in seeds]
            streams = [s for seed, h in zip(seeds, helpers) for s in h.streams(seed, samples, dim)]
            pieces = [[] for _ in streams]
            for index in (0, 1):  # each helper's first stream, then its second
                for rows in zip(*streams[index::2]):
                    for k, (real, imag) in enumerate(rows):
                        pieces[2 * k + index].append((real.copy(), imag.copy()))
            got.extend(pieces)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=consume, daemon=True)
        worker.start()
        worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert len(got) == len(wholes)
    for pieces, whole in zip(got, wholes):
        assert np.array_equal(np.concatenate([r for r, _ in pieces]), whole[0])
        assert np.array_equal(np.concatenate([i for _, i in pieces]), whole[1])


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf], ids=["p1", "p2", "pinf"])
@pytest.mark.parametrize(
    "make", [dissipative_diagonal, transient_dense, late_crossing_dense],
    ids=["diagonal", "dense", "late_crossing"],
)
@pytest.mark.parametrize(
    "vectors, shifts", [(1100, [32]), (683, [16, 32])], ids=["three_blocks", "lone_column"]
)
def test_blocked_sups_equal_the_unpruned_loop_bit_for_bit(make, p, vectors, shifts):
    # 1100 draws and one shift make 2200 columns, in blocks of 1024, 1024
    # and 152; 683 draws and two shifts make 2049 = 2 * 1024 + 1, in blocks
    # of 1024 and 1025, the lone last column joining the block before it
    a = make()
    grid = renorm_time_grid(a, 0.5, 65)
    stack = semigroup_matrices(a, grid)
    draws = _draw(24, vectors, a.dim)
    cols = np.concatenate([draws.T] + [stack[k] @ draws.T for k in shifts], axis=1)
    assert cols.shape[1] in (2200, 2 * _SPLIT_BLOCK + 1)
    sups, _ = _weighted_sups(a, grid, 0.5, draws, np.array(shifts), p)
    assert sups.tobytes() == unpruned_sups(grid, stack, 0.5, cols, p).tobytes()


def test_empty_classical_batch_is_refused_as_before():
    a = dissipative_diagonal()
    grid = renorm_time_grid(a, 0.5, 9)
    with pytest.raises(ValueError, match="zero-size array to reduction operation minimum"):
        _weighted_sups(a, grid, 0.5, np.empty((0, a.dim), complex), NO_SHIFTS, 2.0)


def test_a_grid_needs_two_points():
    with pytest.raises(ValueError, match="grid needs at least two points"):
        renorm_time_grid(dissipative_diagonal(), 0.5, points=1)


def test_audits_refuse_missing_inputs_by_name():
    with pytest.raises(ValueError, match="split audit needs a certificate"):
        quasi_contractivity_audit("split")
    with pytest.raises(ValueError, match="classical audit needs a generator and a weight"):
        quasi_contractivity_audit("classical", a=dissipative_diagonal())
    with pytest.raises(ValueError, match="classical audit needs a generator and a weight"):
        quasi_contractivity_audit("classical", omega=0.5)


@pytest.mark.parametrize("time_samples", [0, -1])
def test_classical_audit_refuses_too_few_time_samples_by_name(time_samples, monkeypatch):
    # refused before the grid is formed or a vector drawn
    monkeypatch.setattr(renorm, "_draw", None)
    with pytest.raises(ValueError, match="classical audit needs at least one time sample"):
        quasi_contractivity_audit(
            "classical",
            a=diagonal_generator_from_entries([-1.0, 2j]),
            omega=0.5,
            vector_samples=5,
            time_samples=time_samples,
        )


def test_split_audit_records_lambdas_out_of_order(k5_certificate):
    cert = replace(
        k5_certificate, witness_log_values=tuple(reversed(k5_certificate.witness_log_values))
    )
    report = _split_audit(cert, 9, 50, DEFAULT_SLACK)
    lambdas = lambda_lower_bounds(cert)
    assert not report.passed
    assert report.violations == (("lambda_order",) + lambdas,)


DEFAULT_RNG = np.random.default_rng


class FailingGenerator:
    """A generator whose second draw fails, as a draw into a bad buffer would."""

    def __init__(self, seed):
        self._rng, self._calls = DEFAULT_RNG(seed), 0

    def standard_normal(self, *args, **kwargs):
        self._calls += 1
        if self._calls == 2:
            raise RuntimeError("draw failed")
        return self._rng.standard_normal(*args, **kwargs)


def test_a_draw_that_fails_on_the_helper_raises_in_the_audit(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", FailingGenerator)
    with SplitNormals(3, 10, 3) as normals:
        first, _ = normals.streams(3, 10, 3)
        # the helper drew the real half, then failed on the first imaginary block
        with pytest.raises(RuntimeError, match="draw failed"):
            next(first)
