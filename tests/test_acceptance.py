"""End-to-end acceptance: one test per headline claim, each printing a
single summary line on success.

The criteria cover the scalar reduction identity, the derivative and
exponential limits, bounded-generator convergence to the library oracle,
the shipped blow-up ladder, the bounded contrapositive, both renorming
audits, and byte-level reproducibility of the CLI artifacts.
"""

import cmath
import math
import time

import numpy as np
import pytest

from semigroup_lab import (
    CVec,
    Functional,
    apply_generator,
    bounded_limit_oracle,
    build_certificate,
    dense_generator,
    dense_trotter_apply,
    diagonal_generator_from_entries,
    dual_norm,
    lambda_lower_bounds,
    load_config,
    make_rank_one,
    norm,
    pairing,
    quasi_contractivity_audit,
    random_oblique_projection,
    scalar_trotter_value,
    step_derivative,
    step_pairing,
    verify_certificate,
)
from semigroup_lab.cli import EXIT_OK, EXIT_TRUNCATION, main
from semigroup_lab.errors import TruncationInsufficient, WitnessBuildError

from conftest import build_from_config

REDUCTION_REL = 1e-9
DERIV_BAND = (1.7, 2.3)
STEP_SCALAR_TOL = 1e-12
VALUE_GAP = 1e-3
POWERING_REL = 1e-9
BOUNDED_ERR = 1e-2
PAIRING_TOL = 1e-10
LADDER_BUDGET_SECONDS = 300.0
DIAGNOSIS_REL = 0.10
LAMBDA_GAP_MIN = 4.5
SANDWICH_SLACK = 1e-10
CLASSICAL_TOL = 1e-9


def _unit_pairing_draw(rng, dim):
    """A functional/vector pair with pairing exactly one and tame gauge."""
    while True:
        f = Functional(
            rng.standard_normal(dim) + 1j * rng.standard_normal(dim), 2.0
        )
        x_raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        raw = CVec(x_raw, 2.0)
        gauge = pairing(f, raw)
        if abs(gauge) >= 0.2 * dual_norm(f) * norm(raw):
            return f, CVec(x_raw / gauge, 2.0)


def test_c1_scalar_reduction_matches_matrix_products():
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 17))
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m *= rng.uniform(0.5, 4.0) / np.linalg.norm(m, 2)
        a = dense_generator(m)
        f, x = _unit_pairing_draw(rng, dim)
        proj = make_rank_one(f, x)
        for n in (16, 256, 4096):
            rec = scalar_trotter_value(a, f, x, 1.0, n)
            through_matrix = pairing(f, dense_trotter_apply(a, proj, x, 1.0, n))
            scalar = cmath.exp(rec.log_value)
            rel = abs(scalar - through_matrix) / abs(scalar)
            worst = max(worst, rel)
            assert rel <= REDUCTION_REL
    print(f"criterion 1 PASS: reduction identity, worst rel gap {worst:.3e}")


def test_c2_derivative_gap_halves_with_step_doubling():
    a = diagonal_generator_from_entries([0.0, 2.0])
    f = Functional([0.5, 0.5], 2.0)
    x = CVec([1.0, 1.0], 2.0)
    ratios = []
    for j in range(6, 16):
        gap = abs(step_derivative(a, f, x, 1.0, 2**j) - 1.0)
        gap_next = abs(step_derivative(a, f, x, 1.0, 2 ** (j + 1)) - 1.0)
        ratio = gap / gap_next
        ratios.append(ratio)
        assert DERIV_BAND[0] <= ratio <= DERIV_BAND[1]
        closed_form = (1.0 + math.exp(2.0 / 2**j)) / 2.0
        assert step_pairing(a, f, x, 1.0, 2**j) == pytest.approx(
            closed_form, abs=STEP_SCALAR_TOL
        )
    print(
        "criterion 2 PASS: derivative gap ratios in "
        f"[{min(ratios):.3f}, {max(ratios):.3f}]"
    )


def test_c3_two_point_value_converges_in_log_domain():
    a = diagonal_generator_from_entries([0.0, 2.0])
    f = Functional([0.5, 0.5], 2.0)
    x = CVec([1.0, 1.0], 2.0)
    rec = scalar_trotter_value(a, f, x, 1.0, 2**20)
    assert rec.path == "log"
    assert rec.err_vs_limit <= VALUE_GAP
    assert abs(cmath.exp(rec.log_value) - math.e) <= VALUE_GAP
    powered = complex(rec.step_value)
    for _ in range(20):
        powered *= powered
    assert abs(powered - cmath.exp(rec.log_value)) <= POWERING_REL * abs(powered)
    print(
        f"criterion 3 PASS: n=2^20 value gap {rec.err_vs_limit:.3e}, "
        f"powering agrees to {abs(powered - cmath.exp(rec.log_value)) / abs(powered):.3e}"
    )


def test_c4_random_bounded_products_reach_oracle():
    rng = np.random.default_rng(20260824)
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        rank = int(rng.integers(1, dim))
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m *= rng.uniform(0.6, 2.0) / np.linalg.norm(m, 2)
        a = dense_generator(m)
        proj = random_oblique_projection(dim, rank, rng)
        x_raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        x = CVec(x_raw / np.linalg.norm(x_raw), 2.0)
        for t in (0.5, 1.0, 2.0):
            got = dense_trotter_apply(a, proj, x, t, 2**16)
            ref = bounded_limit_oracle(a, proj, t) @ x.coords
            err = float(np.linalg.norm(got.coords - ref))
            worst = max(worst, err)
            assert err <= BOUNDED_ERR
    print(f"criterion 4 PASS: 20 random draws, worst oracle gap {worst:.3e}")


def test_c5_shipped_ladder_builds_and_verifies():
    started = time.perf_counter()
    cert = build_from_config("blowup_k5")
    elapsed = time.perf_counter() - started
    assert elapsed <= LADDER_BUDGET_SECONDS
    verify_certificate(cert)
    assert len(cert.stages) == 6
    f = cert.functional_obj()
    y = CVec(cert.witness, cert.p)
    assert pairing(f, y) == pytest.approx(1.0, abs=PAIRING_TOL)
    a = cert.generator()
    for stage in cert.stages:
        drift = pairing(f, apply_generator(a, CVec(stage.vector, cert.p)))
        assert drift.real >= stage.index
        assert norm(CVec(y.coords - stage.vector, cert.p)) <= stage.stability_radius
    floors = []
    for k, lv in enumerate(cert.witness_log_values):
        value = math.exp(lv.real)
        floors.append(value - (math.exp(k) - 2.0 * cert.eps))
        assert value >= math.exp(k) - 2.0 * cert.eps
    print(
        f"criterion 5 PASS: 5-stage ladder in {elapsed:.2f}s, "
        f"smallest floor margin {min(floors):.3e}"
    )


def test_c6_bounded_generator_ladder_stops_with_diagnosis():
    cfg = load_config("bounded_contrapositive")
    f = cfg.functional()
    params = cfg.witness_params()
    with pytest.raises(WitnessBuildError) as info:
        build_certificate(
            cfg.generator(),
            f,
            cfg.vector(f),
            eps=params.eps,
            stage_goal=params.stages,
            j_max=params.j_max,
            seed=cfg.seed,
        )
    cause = info.value.cause
    assert isinstance(cause, TruncationInsufficient)
    assert cause.stage < 10
    opnorm = float(np.linalg.norm(cfg.generator().matrix, 2))
    ceiling = dual_norm(f) * opnorm * cause.radius
    assert abs(cause.best_available - ceiling) <= DIAGNOSIS_REL * ceiling
    print(
        f"criterion 6 PASS: stalled at stage {cause.stage}, best gain "
        f"{cause.best_available:.3e} vs ceiling {ceiling:.3e}"
    )


def test_c7_lambda_bounds_grow_past_renorm_band(k5_certificate):
    cfg = load_config("split_renorm")
    params = cfg.renorm_params()
    report = quasi_contractivity_audit(
        "split",
        cert=k5_certificate,
        seed=cfg.seed,
        vector_samples=params.vector_samples,
        slack=SANDWICH_SLACK,
    )
    assert report.passed
    assert not report.violations
    lambdas = report.lambdas
    assert lambdas == lambda_lower_bounds(k5_certificate)
    assert all(b > a for a, b in zip(lambdas, lambdas[1:]))
    assert lambdas[5] - lambdas[0] >= LAMBDA_GAP_MIN
    print(
        f"criterion 7 PASS: {params.vector_samples} samples clean, "
        f"lambda gap {lambdas[5] - lambdas[0]:.3f}"
    )


def test_c8_classical_weighted_norm_quasi_contractive():
    cfg = load_config("classical_renorm")
    a = cfg.generator()
    params = cfg.renorm_params()
    assert float(np.max(a.entries.real)) == 0.0
    report = quasi_contractivity_audit(
        "classical",
        a=a,
        omega=params.omega,
        p=cfg.p,
        seed=cfg.seed,
        vector_samples=params.vector_samples,
        time_samples=params.time_samples,
        grid_points=params.grid_points,
        tol=CLASSICAL_TOL,
    )
    assert report.passed
    assert not report.violations
    assert report.summary["worst_excess"] <= CLASSICAL_TOL
    print(
        f"criterion 8 PASS: {params.vector_samples} vectors, worst excess "
        f"{report.summary['worst_excess']:.3e}"
    )


def test_c9_cli_runs_reproduce_and_verify_from_disk(tmp_path):
    artifacts = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["limit-check", "--config", "two_point", "--out", str(out)]) == EXIT_OK
        assert main(["sweep", "--config", "sweep_bounded", "--out", str(out)]) == EXIT_OK
    for name in ("two_point.limit.csv", "sweep_bounded.sweep.csv"):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second

    out = tmp_path / "a"
    assert main(["witness", "--config", "blowup_k5", "--out", str(out)]) == EXIT_OK
    artifacts.append(out / "blowup_k5.cert.json")
    rc = main(["witness", "--config", "bounded_contrapositive", "--out", str(out)])
    assert rc == EXIT_TRUNCATION
    artifacts.append(out / "bounded_contrapositive.cert.json")
    assert main(["renorm-audit", "--config", "classical_renorm", "--out", str(out)]) == EXIT_OK
    artifacts.append(out / "classical_renorm.report.json")
    assert main(["renorm-audit", "--config", "split_renorm", "--out", str(out)]) == EXIT_OK
    artifacts.append(out / "split_renorm.report.json")

    for path in artifacts:
        assert path.exists()
    assert main(["verify"] + [str(p) for p in artifacts]) == EXIT_OK
    print(
        "criterion 9 PASS: CSV reruns byte-identical, "
        f"{len(artifacts)} artifacts verified from disk"
    )
