"""Witness ladders: direction search, stability radii, certificates."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from semigroup_lab import (
    CVec,
    Functional,
    GrowthLaw,
    apply_generator,
    build_certificate,
    cert_from_dict,
    cert_to_dict,
    choose_step_count,
    design_blowup_law,
    diagonal_generator,
    diagonal_generator_from_entries,
    dense_generator,
    dual_norm,
    dumps_canonical,
    find_direction,
    law_entries,
    load_config,
    norm,
    pairing,
    rotate_nonneg,
    stability_radius,
    validate_stability,
    verify_certificate,
)
from semigroup_lab.errors import (
    InvalidCertificate,
    ScheduleExhausted,
    SemigroupOverflow,
    TruncationInsufficient,
    UnderflowRadius,
    WitnessBuildError,
    ZeroPairing,
)
from semigroup_lab import spaces, witness
from semigroup_lab.cli import _build_from_config
from semigroup_lab.serialize import encode
from semigroup_lab.trotter import batched_log_values, limit_gap_error
from semigroup_lab.witness import (
    _seed_with_meta,
    _schedule_defects,
    _step_lipschitzes,
    product_log_value,
)

from conftest import build_from_config, scalar_log_value

PAIRING_TOL = 1e-10
RECOMPUTE_TOL = 1e-9

# held fixed with test_trotter: smallest dyadic step count reaching 0.1
# for the two-coordinate model, found by scanning the closed form
STEPS_FOR_TENTH = 16


def two_point():
    a = diagonal_generator_from_entries([0.0, 2.0])
    f = Functional([0.5, 0.5], 2.0)
    x = CVec([1.0, 1.0], 2.0)
    return a, f, x


def test_find_direction_prefers_smallest_coordinate():
    a = diagonal_generator_from_entries([0.0, 1j, 2j, 4j])
    f = Functional([1.0, 1.0, 1.0, 1.0], 2.0)
    v = find_direction(a, f, target=1.5, radius=1.0)
    support = np.flatnonzero(v.coords)
    assert list(support) == [2]
    assert norm(v) == pytest.approx(1.0, abs=1e-12)
    assert abs(pairing(f, apply_generator(a, v))) >= 1.5


def test_find_direction_reports_truncation():
    a = diagonal_generator_from_entries([0.0, 1j, 2j, 4j])
    f = Functional([1.0, 1.0, 1.0, 1.0], 2.0)
    with pytest.raises(TruncationInsufficient) as info:
        find_direction(a, f, target=10.0, radius=1.0, stage=3)
    err = info.value
    assert err.needed_target == 10.0
    assert err.radius == 1.0
    assert err.best_available == pytest.approx(4.0, abs=1e-12)
    assert err.stage == 3


def test_find_direction_dense_attains_dual_norm():
    rng = np.random.default_rng(41)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = dense_generator(m)
    f = Functional(rng.standard_normal(4) + 1j * rng.standard_normal(4), 2.0)
    composed = dual_norm(Functional(m.T @ f.coords, 2.0))
    radius = 0.25
    v = find_direction(a, f, target=0.9 * radius * composed, radius=radius)
    gain = abs(pairing(f, apply_generator(a, v)))
    assert norm(v) == pytest.approx(radius, rel=1e-12)
    assert gain == pytest.approx(radius * composed, rel=1e-10)


def test_rotate_nonneg_aligns_generator_pairing():
    rng = np.random.default_rng(42)
    a = diagonal_generator_from_entries([1j, -2.0 + 1j, 3j])
    f = Functional(rng.standard_normal(3) + 1j * rng.standard_normal(3), 2.0)
    v = CVec(rng.standard_normal(3) + 1j * rng.standard_normal(3), 2.0)
    w = rotate_nonneg(a, f, v)
    drift = pairing(f, apply_generator(a, w))
    assert drift.real >= 0.0
    assert abs(drift.imag) <= 1e-12 * abs(drift)
    assert norm(w) == pytest.approx(norm(v), rel=1e-12)


def test_rotate_nonneg_rejects_zero_pairing():
    a = diagonal_generator_from_entries([0.0, 0.0])
    f = Functional([1.0, 1.0], 2.0)
    with pytest.raises(ZeroPairing):
        rotate_nonneg(a, f, CVec([1.0, 1.0], 2.0))


def test_seed_vector_gauges_pairing_to_one():
    cfg = load_config("blowup_k5")
    a, f = cfg.generator(), cfg.functional()
    x0, _ = _seed_with_meta(a, f, cfg.vector(f))
    assert pairing(f, x0) == pytest.approx(1.0, abs=1e-12)
    drift = pairing(f, apply_generator(a, x0))
    assert drift.real >= 0.0


def test_choose_step_count_frozen_example():
    a, f, x = two_point()
    n, err, log_value = choose_step_count(a, f, x, eps=0.1)
    assert n == STEPS_FOR_TENTH
    # |value - e| from the closed form, via the math module alone
    expected = abs(((1.0 + math.exp(2.0 / 16)) / 2.0) ** 16 - math.e)
    assert err == pytest.approx(expected, rel=1e-10)
    assert math.exp(log_value.real) == pytest.approx(
        ((1.0 + math.exp(2.0 / 16)) / 2.0) ** 16, rel=1e-12
    )


def test_choose_step_count_exhaustion():
    a, f, x = two_point()
    with pytest.raises(ScheduleExhausted) as info:
        choose_step_count(a, f, x, eps=1e-6, j_max=3)
    assert info.value.j_max == 3
    assert info.value.best_error > 1e-6


def test_stability_radius_certifies_its_bound():
    a, f, x = two_point()
    n, eps = 16, 0.01
    delta = stability_radius(a, f, n, product_log_value(a, f, x, n), eps, anchor_norm=norm(x))
    lip = _step_lipschitzes(a, f, [n]).item()
    step_abs = (1.0 + math.exp(2.0 / n)) / 2.0
    moved = n * (step_abs + lip * delta) ** (n - 1) * lip * delta
    assert moved <= eps
    assert delta <= 1.0 / (n * lip)
    assert delta <= norm(x) / 2.0


def test_stability_radius_with_zero_lipschitz_constant():
    # exp(A)^T e1 underflows to 0, so the product value cannot move: the
    # caps 1/(nL) and 1/(2L) drop out and only min(1, |x|/2) binds
    a = diagonal_generator_from_entries([-1000.0, -1000.0])
    f = Functional([1.0, 0.0], 2.0)
    x = CVec([1.0, 0.0], 2.0)
    assert _step_lipschitzes(a, f, [1]).item() == 0.0
    assert stability_radius(a, f, 1, product_log_value(a, f, x, 1), 0.1, 1.0) == 0.5


def test_stability_radius_underflow():
    a, f, x = two_point()
    n = 2**40
    with pytest.raises(UnderflowRadius):
        stability_radius(a, f, n, product_log_value(a, f, x, n), 1e-295, anchor_norm=norm(x))


def test_validate_stability_stays_within_budget():
    a, f, x = two_point()
    eps = 0.05
    n, _, log_value = choose_step_count(a, f, x, eps)
    delta = stability_radius(a, f, n, log_value, eps, anchor_norm=norm(x))
    worst = validate_stability(
        a, f, x, n, delta, np.random.default_rng(0), samples=50
    )
    assert worst <= 2.0 * eps


@pytest.mark.parametrize("scale", [1.0, 2.0**600, 2.0**-600], ids=["unit", "2^600", "2^-600"])
def test_validation_samples_stay_on_the_slice(monkeypatch, scale):
    # at 2^600 f . conj(f) overflows, at 2^-600 it underflows; the kernel
    # directions still keep f(h) = 1 at every sampled point h
    a, f, x = two_point()
    f = Functional(scale * f.coords, 2.0)
    x = CVec(x.coords / scale, 2.0)
    points = []
    carrier = witness.batched_log_values

    def recorded(a, f, shifted, *args, **kwargs):
        points.append(shifted)
        return carrier(a, f, shifted, *args, **kwargs)

    monkeypatch.setattr(witness, "batched_log_values", recorded)
    validate_stability(a, f, x, 16, 1e-3 / scale, np.random.default_rng(0), samples=50)
    gauges = spaces.pairings(f, np.concatenate(points))
    assert gauges.size == 50
    assert np.max(np.abs(gauges - 1.0)) < 1e-12


def test_product_log_value_matches_scalar_route():
    from semigroup_lab import scalar_trotter_value

    a, f, x = two_point()
    rec = scalar_trotter_value(a, f, x, 1.0, 256)
    assert product_log_value(a, f, x, 256) == rec.log_value


def test_build_certificate_stage_goal_zero():
    a = diagonal_generator_from_entries([0.05j, 10j, 10j, 10j])
    f = Functional([0.01, 0.005, 0.0025, 0.00125], 2.0)
    z = CVec([100.0, 0.0, 0.0, 0.0], 2.0)
    cert = build_certificate(a, f, z, eps=0.1, stage_goal=0)
    assert cert.stage_count == 0
    assert len(cert.stages) == 1
    assert cert.stages[0].index == 0
    verify_certificate(cert, strict_goal=0)


def test_build_certificate_rejects_bad_eps():
    a, f, x = two_point()
    with pytest.raises(ValueError):
        build_certificate(a, f, x, eps=0.7, stage_goal=1)


def test_seed_needs_reachable_nudge_target():
    # diag(0, 2) caps the seed search ball gain below the 4|f(Az)| target
    a, f, x = two_point()
    with pytest.raises(WitnessBuildError) as info:
        build_certificate(a, f, x, eps=0.1, stage_goal=0)
    assert isinstance(info.value.cause, TruncationInsufficient)
    assert info.value.partial is None


def test_k5_ladder_invariants(k5_certificate):
    cert = k5_certificate
    assert cert.stage_count == 5
    assert len(cert.stages) == 6
    y = CVec(cert.witness, cert.p)
    f = cert.functional_obj()
    assert pairing(f, y) == pytest.approx(1.0, abs=PAIRING_TOL)
    for stage in cert.stages:
        assert stage.generator_pairing.real >= stage.index
        assert stage.steps & (stage.steps - 1) == 0  # a power of two
        gap = norm(CVec(y.coords - stage.vector, cert.p))
        assert gap <= stage.stability_radius


def test_verify_detects_tampered_steps(k5_certificate):
    cert = k5_certificate
    stages = list(cert.stages)
    stages[2] = dataclasses.replace(stages[2], steps=stages[2].steps * 2)
    bad = dataclasses.replace(cert, stages=tuple(stages))
    with pytest.raises(InvalidCertificate) as info:
        verify_certificate(bad)
    assert info.value.failures
    assert any("stage 2" in line for line in info.value.failures)


@pytest.mark.parametrize(
    "stage, factor, valid",
    [(5, 200.0, False), (4, 50.0, False), (3, 20.0, False), (2, 20.0, False), (5, 2.0, True)],
)
def test_verify_detects_inflated_radius(k5_certificate, stage, factor, valid):
    # stages 3-5 run at n = 2^62, 2^90, 2^122, where |c| rounds to 1.0 and
    # only log|c| keeps the (n - 1) log|c| term of the radius bound
    stages = list(k5_certificate.stages)
    radius = stages[stage].stability_radius * factor
    stages[stage] = dataclasses.replace(stages[stage], stability_radius=radius)
    inflated = dataclasses.replace(k5_certificate, stages=tuple(stages))
    if valid:
        verify_certificate(inflated)
        return
    with pytest.raises(InvalidCertificate) as info:
        verify_certificate(inflated)
    assert info.value.failures == [f"stage {stage}: stability radius fails its certificate"]


def test_verify_detects_tampered_witness(k5_certificate):
    cert = k5_certificate
    bumped = cert.witness.copy()
    bumped[0] += 1e-3
    bad = dataclasses.replace(cert, witness=bumped)
    with pytest.raises(InvalidCertificate):
        verify_certificate(bad)


def test_bounded_build_fails_with_diagnosis():
    cfg = load_config("bounded_contrapositive")
    f = cfg.functional()
    with pytest.raises(WitnessBuildError) as info:
        build_certificate(
            cfg.generator(),
            f,
            cfg.vector(f),
            eps=0.1,
            stage_goal=10,
            j_max=cfg.witness_params().j_max,
            seed=cfg.seed,
        )
    failure = info.value
    assert isinstance(failure.cause, TruncationInsufficient)
    assert failure.cause.best_available > 0.0
    assert failure.cause.radius > 0.0
    assert failure.partial is not None
    assert failure.partial.stage_count < 10
    verify_certificate(failure.partial)


def test_designer_fills_rungs_and_replays():
    f = Functional([0.01, 0.005, 0.0025, 0.00125], 2.0)
    z = CVec([100.0, 0.0, 0.0, 0.0], 2.0)
    law = design_blowup_law(f, z, eps=0.1, stage_goal=2, seed=7)
    again = design_blowup_law(f, z, eps=0.1, stage_goal=2, seed=7)
    assert law.values == again.values
    entries = law_entries(law, 4)
    assert np.all(np.diff(np.abs(entries)) >= 0.0)
    a = diagonal_generator(law, 4)
    first = build_certificate(a, f, z, eps=0.1, stage_goal=2, j_max=160, seed=7)
    second = build_certificate(a, f, z, eps=0.1, stage_goal=2, j_max=160, seed=7)
    assert np.array_equal(first.witness, second.witness)
    verify_certificate(first, strict_goal=2)


def test_designer_requires_seed_on_first_coordinate():
    f = Functional([0.01, 0.005, 0.0025], 2.0)
    with pytest.raises(ValueError):
        design_blowup_law(f, CVec([0.0, 1.0, 0.0], 2.0), eps=0.1, stage_goal=1)


def test_certificate_roundtrip_is_exact(k5_certificate):
    cert = k5_certificate
    payload = cert_to_dict(cert)
    back = cert_from_dict(payload)
    assert dumps_canonical(cert_to_dict(back)) == dumps_canonical(payload)
    verify_certificate(back, strict_goal=5)


def truncate(payload, key, size):
    """Keep the first ``size`` coordinates of an encoded vector."""
    payload[key] = {"~a": payload[key]["~a"][:size]}


@pytest.mark.parametrize(
    "mutate, prefix",
    [
        (lambda payload: payload.pop("eps"), "eps: "),
        (lambda payload: payload.update(stages=[]), "stages: "),
        (
            lambda payload: payload["generator"]["law"].update(kind="no_such_law"),
            "generator.law: ",
        ),
        (
            lambda payload: truncate(payload["stages"][2], "vector", 3),
            "stages[2].vector: dimension 3, expected 7",
        ),
        (lambda payload: truncate(payload, "witness", 6), "witness: dimension 6, expected 7"),
        (
            lambda payload: payload.update(stages=dict(enumerate(payload["stages"]))),
            "stages: expected a list, got {0: ",
        ),
        (
            lambda payload: payload.update(witness_errors={}),
            "witness_errors: expected a list, got {}",
        ),
        (
            lambda payload: payload.update(witness_log_values="0x1p0"),
            "witness_log_values: expected a list, got '0x1p0'",
        ),
    ],
    ids=["missing_eps", "empty_stages", "unknown_law", "short_stage_vector", "short_witness",
         "stages_object", "witness_errors_object", "witness_log_values_string"],
)
def test_malformed_certificate_names_the_field(k5_certificate, mutate, prefix):
    payload = cert_to_dict(k5_certificate)
    mutate(payload)
    with pytest.raises(InvalidCertificate) as info:
        verify_certificate(cert_from_dict(payload))
    assert info.value.failures[-1].startswith(prefix)


def test_verify_zero_functional_lists_the_pairing_failure(k5_certificate):
    payload = cert_to_dict(k5_certificate)
    payload["functional"] = encode(np.zeros(7, dtype=np.complex128))
    with pytest.raises(InvalidCertificate) as info:
        verify_certificate(cert_from_dict(payload))
    assert info.value.failures[0] == "stage 0: pairing 0+0j strays from 1"


@pytest.mark.parametrize(
    "mutate, message",
    [
        (
            lambda payload: payload["stages"][0].update(steps=payload["stages"][0]["steps"] + 0.9),
            "stages[0].steps: expected an integer, got 1.9",
        ),
        (
            lambda payload: payload.update(j_max="160"),
            "j_max: expected an integer, got '160'",
        ),
        (
            lambda payload: payload["stages"][3].update(index=3.0),
            "stages[3].index: expected an integer, got 3.0",
        ),
        (
            lambda payload: payload.update(build_seed=True),
            "build_seed: expected an integer, got True",
        ),
        (
            lambda payload: payload["stages"][1].update(direction_index="2"),
            "stages[1].direction_index: expected an integer, got '2'",
        ),
    ],
    ids=["fractional_steps", "string_j_max", "float_index", "bool_build_seed", "string_direction"],
)
def test_certificate_integer_fields_are_integers(k5_certificate, mutate, message):
    payload = cert_to_dict(k5_certificate)
    mutate(payload)
    with pytest.raises(InvalidCertificate) as info:
        cert_from_dict(payload)
    assert info.value.failures == [message]


# The batched carrier and the scalar reference round in different orders.
# Over every dyadic step count of every stage of the shipped ladders at
# seeds 0-4 they differ by under 3 units of roundoff u = 2^-52 in the log
# value (relative to max(1, |log|)) and under 1 u in the limit error
# (relative to exp(Re f(Ax)) (1 + |log| + |f(Ax)|)); the checks allow 8 u.
CARRIER_ROUNDING = 8 * 2.0**-52


def assert_log_close(got, ref):
    assert abs(got - ref) <= CARRIER_ROUNDING * max(1.0, abs(ref)), (got, ref)


def assert_error_close(got, ref, log_value, limit_log):
    scale = math.exp(limit_log.real) * (1.0 + abs(log_value) + abs(limit_log))
    assert abs(got - ref) <= CARRIER_ROUNDING * scale, (got, ref)


def scalar_step_scan(a, f, x, eps, j_max):
    """The step-count scan as a plain loop over the scalar reference carrier."""
    limit_log = pairing(f, apply_generator(a, x))
    best = math.inf
    for j in range(j_max + 1):
        log_value = scalar_log_value(a, f, x, 2**j)
        err = limit_gap_error(limit_log, log_value)
        if err < eps:
            return 2**j, err, log_value
        best = min(best, err)
    raise ScheduleExhausted(j_max=j_max, best_error=best, target=eps)


def scalar_validation(a, f, x, n, delta, rng, samples):
    """Stability validation as a per-sample loop over the scalar reference carrier."""
    limit_log = pairing(f, apply_generator(a, x))
    anchor = np.conj(f.coords)
    anchor_gain = complex(np.dot(f.coords, anchor))
    worst = 0.0
    for _ in range(samples):
        raw = rng.standard_normal(x.dim) + 1j * rng.standard_normal(x.dim)
        kernel = raw - complex(np.dot(f.coords, raw)) / anchor_gain * anchor
        size = norm(CVec(kernel, x.p))
        if size == 0.0:
            continue
        shifted = CVec(x.coords + (delta / size) * kernel, x.p)
        worst = max(worst, limit_gap_error(limit_log, scalar_log_value(a, f, shifted, n)))
    return worst


def shipped_stages(name, seed):
    """The certificate (or partial one) the CLI builds from a shipped config."""
    cfg = load_config(name).with_overrides(seed=seed)
    try:
        return _build_from_config(cfg), cfg
    except WitnessBuildError as failure:
        return failure.partial, cfg


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", ["blowup_k5", "bounded_contrapositive"])
def test_batched_carrier_matches_scalar_loops(name, seed, monkeypatch):
    cert, cfg = shipped_stages(name, seed)
    a, f = cert.a, cert.functional_obj()
    samples = cfg.witness_params().validation_samples
    # a block that does not divide the sample count, to cross block edges
    monkeypatch.setattr("semigroup_lab.witness._SAMPLE_BLOCK", 7 if seed % 2 else 4096)
    for st in cert.stages:
        x = CVec(st.vector, cert.p)
        limit_log = pairing(f, apply_generator(a, x))
        chosen = choose_step_count(a, f, x, cert.eps, cert.j_max)
        steps, err, log_value = scalar_step_scan(a, f, x, cert.eps, cert.j_max)
        assert chosen[0] == steps
        assert_error_close(chosen[1], err, log_value, limit_log)
        assert_log_close(chosen[2], log_value)
        assert chosen == (st.steps, st.limit_error, st.log_value)
        batched, looped = np.random.default_rng(seed), np.random.default_rng(seed)
        worst = validate_stability(a, f, x, st.steps, st.stability_radius, batched, samples)
        ref = scalar_validation(a, f, x, st.steps, st.stability_radius, looped, samples)
        assert abs(worst - ref) <= 1e-12 * ref
        assert batched.bit_generator.state == looped.bit_generator.state
        assert batched.standard_normal() == looped.standard_normal()


def test_step_scan_exhaustion_matches_scalar_loop(k5_certificate):
    cert = k5_certificate
    a, f = cert.a, cert.functional_obj()
    for st in cert.stages[1:]:
        x = CVec(st.vector, cert.p)
        j_max = st.steps.bit_length() - 2
        with pytest.raises(ScheduleExhausted) as batched:
            choose_step_count(a, f, x, cert.eps, j_max)
        with pytest.raises(ScheduleExhausted) as looped:
            scalar_step_scan(a, f, x, cert.eps, j_max)
        limit_log = pairing(f, apply_generator(a, x))
        logs = [scalar_log_value(a, f, x, 2**j) for j in range(j_max + 1)]
        best_log = min(logs, key=lambda lv: limit_gap_error(limit_log, lv))
        assert_error_close(
            batched.value.best_error, looped.value.best_error, best_log, limit_log
        )
        assert batched.value.j_max == looped.value.j_max == j_max


def dense_scan_pair():
    """A dense generator with |A|_2 = 1 and a unit pair whose scan error
    falls like 2^-j, from 0.16 at j = 0 to 4e-14 at j = 42."""
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = dense_generator(raw / np.linalg.norm(raw, 2))
    f = Functional(rng.standard_normal(4), 2.0)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return a, f, CVec(x / pairing(f, CVec(x, 2.0)), 2.0)


def looped_step_scan(a, f, x, eps, j_max):
    """The step-count scan with one carrier call per step count, up to
    2^min(j_max, 1023), the last count a time can be divided by."""
    limit_log = pairing(f, apply_generator(a, x))
    best = math.inf
    last = min(j_max, 1023)
    for j in range(last + 1):
        batch = batched_log_values(a, f, x.coords[None, :], [2**j], limit_log)
        err, log_value = batch.errors.item(), batch.log_values.item()
        if err < eps:
            return 2**j, err, log_value
        best = min(best, err)
    raise ScheduleExhausted(j_max=last, best_error=best, target=eps)


@pytest.mark.parametrize("eps, j_max", [(1e-11, 40), (1e-13, 44)])
def test_dense_step_scan_matches_one_count_per_call(eps, j_max, monkeypatch):
    # a dense scan forms its whole schedule, j = 0..j_max, with one
    # exponential call, and its hit past 2^32 has the bits of the loop's
    a, f, x = dense_scan_pair()
    expected = looped_step_scan(a, f, x, eps, j_max)
    calls = []
    kernel = spaces.matrix_expm1
    monkeypatch.setattr(spaces, "matrix_expm1", lambda stack: calls.append(1) or kernel(stack))
    got = choose_step_count(a, f, x, eps, j_max)
    assert got[0] > 2**32
    assert got == expected
    assert len(calls) == 1


def test_dense_step_scan_exhaustion_matches_one_count_per_call():
    a, f, x = dense_scan_pair()
    with pytest.raises(ScheduleExhausted) as looped:
        looped_step_scan(a, f, x, 1e-17, 40)
    with pytest.raises(ScheduleExhausted) as batched:
        choose_step_count(a, f, x, 1e-17, 40)
    assert batched.value.best_error == looped.value.best_error


def replace_stage(cert, k, **changes):
    stages = list(cert.stages)
    stages[k] = dataclasses.replace(stages[k], **changes)
    return dataclasses.replace(cert, stages=tuple(stages))


def replace_entry(cert, field, k, value):
    values = list(getattr(cert, field))
    values[k] = value
    return dataclasses.replace(cert, **{field: tuple(values)})


@pytest.mark.parametrize(
    "steps, j_max", [(0, 160), (-8, 160), (2**1100, 1200)], ids=["zero", "negative", "huge"]
)
def test_verify_rejects_step_counts_the_carrier_cannot_take(k5_certificate, steps, j_max):
    # caught before the carrier runs, which would raise ValueError or
    # OverflowError on them
    bad = dataclasses.replace(replace_stage(k5_certificate, 1, steps=steps), j_max=j_max)
    with pytest.raises(InvalidCertificate) as info:
        verify_certificate(bad)
    assert info.value.failures == ["stage 1: step count outside [1, 2^1024)"]


def test_verify_forms_no_count_from_a_far_schedule_exponent(k5_certificate):
    # each step count is held to j_max through its bit length, not against
    # 2^j_max, a 1.25 MB integer at j_max = 10^7
    far = dataclasses.replace(k5_certificate, j_max=10**7)
    tracemalloc.start()
    try:
        verify_certificate(far)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(InvalidCertificate) as info:
        verify_certificate(dataclasses.replace(k5_certificate, j_max=121))
    assert info.value.failures == ["stage 5: step count exceeds the declared schedule"]


@pytest.mark.parametrize(
    "mutate, failure",
    [
        (
            lambda cert: replace_stage(cert, 2, stability_radius=math.nan),
            "stage 2: stability radius nan is under 1e-300",
        ),
        (
            lambda cert: replace_stage(cert, 2, log_value=complex(math.nan, 0.0)),
            "stage 2: stored log value does not recompute",
        ),
        (
            lambda cert: replace_entry(cert, "witness_log_values", 2, complex(math.nan, 0.0)),
            "stage 2 at witness: stored log value does not recompute",
        ),
        (
            lambda cert: replace_entry(cert, "witness_errors", 2, math.nan),
            "stage 2 at witness: stored deviation does not recompute",
        ),
        (
            lambda cert: replace_stage(cert, 2, limit_error=-1.0),
            "stage 2: stored limit error -1 does not recompute",
        ),
        (
            lambda cert: replace_stage(cert, 2, limit_error=1e308),
            "stage 2: stored limit error 1e+308 does not recompute",
        ),
        (
            lambda cert: dataclasses.replace(cert, witness_errors=()),
            "witness evaluations do not cover every stage",
        ),
        (lambda cert: dataclasses.replace(cert, eps=0.6), "eps 0.6 outside (0, 1/2)"),
        (lambda cert: dataclasses.replace(cert, eps=-1.0), "eps -1.0 outside (0, 1/2)"),
        (
            lambda cert: cert_from_dict({**cert_to_dict(cert), "p": 1.5}),
            "p: p must be one of 1, 2, inf (got 1.5)",
        ),
        # the blow-up floor log(e^k - 2 eps) of each: e^710 overflows, e^-2 < 2 eps
        (lambda cert: replace_stage(cert, 2, index=710), "stage 710: index out of order"),
        (lambda cert: replace_stage(cert, 0, index=-2), "stage -2: index out of order"),
        (
            lambda cert: replace_stage(cert, 2, index=10**400),
            f"stage {10**400}: index out of order",
        ),
    ],
    ids=["nan_radius", "nan_log_value", "nan_witness_log_value", "nan_witness_error",
         "negative_limit_error", "huge_limit_error", "empty_witness_errors", "eps_above_half",
         "eps_negative", "unnormed_p", "index_past_exp", "negative_index", "index_past_floats"],
)
def test_verify_rejects_stored_numbers_it_cannot_recompute(k5_certificate, mutate, failure):
    with pytest.raises(InvalidCertificate) as info:
        verify_certificate(mutate(k5_certificate))
    assert failure in info.value.failures


# The schedule table a build shares across its stages: exp(A/2^j) - I for
# j = 0 .. min(j_max, 1023) from one semigroup_defects call, each scan
# covering all of it in one carrier call.  Every (n, err, log_value) must
# have the bits of the carrier called on that count alone.

SCAN_STOPS = (ScheduleExhausted, SemigroupOverflow)


def outcome(scan, *args, **kwargs):
    """What a scan returns, or the exception it stops with."""
    try:
        return scan(*args, **kwargs)
    except SCAN_STOPS as exc:
        return exc


def shared_table_scans(a, f, xs, eps, j_max):
    """``choose_step_count`` on each vector in turn through one schedule
    table, as a build does; each outcome is also the scan's own without it."""
    table = _schedule_defects(a, j_max)
    got = [outcome(choose_step_count, a, f, x, eps, j_max, _table=table) for x in xs]
    for x, result in zip(xs, got):
        assert_same_outcome(outcome(choose_step_count, a, f, x, eps, j_max), result)
    return got, table


def assert_same_outcome(got, expected):
    assert type(got) is type(expected)
    if isinstance(expected, ScheduleExhausted):
        assert got.best_error == expected.best_error
        assert (got.j_max, got.target) == (expected.j_max, expected.target)
    elif isinstance(expected, Exception):
        assert str(got) == str(expected)
    else:
        assert got == expected


@pytest.mark.parametrize("block", [32, 5, 1])
@pytest.mark.parametrize("order", ["ladder", "reversed"])
def test_table_scan_matches_one_count_per_call_diagonal(k5_certificate, block, order):
    # the K = 5 ladder hits at j = 0, 18, 38, 62, 90 and 122, all read from
    # one table of j = 0..160, in ladder order and in reverse; that table has
    # the bits of one formed ``block`` rows per semigroup_defects call
    cert = k5_certificate
    a, f = cert.a, cert.functional_obj()
    times = np.ldexp(1.0, -np.arange(cert.j_max + 1))
    blocks = [spaces.semigroup_defects(a, times[k : k + block]) for k in range(0, len(times), block)]
    assert np.array_equal(np.concatenate(blocks), _schedule_defects(a, cert.j_max))
    xs = [CVec(st.vector, cert.p) for st in cert.stages]
    if order == "reversed":
        xs.reverse()
    got, table = shared_table_scans(a, f, xs, cert.eps, cert.j_max)
    for x, result in zip(xs, got):
        assert_same_outcome(result, outcome(looped_step_scan, a, f, x, cert.eps, cert.j_max))
    assert sorted(result[0].bit_length() - 1 for result in got) == [0, 18, 38, 62, 90, 122]
    assert table.shape == (cert.j_max + 1, a.dim)


@pytest.mark.parametrize("chunk", [32, 7])
def test_table_scan_matches_one_count_per_call_dense(monkeypatch, chunk):
    # hits at several depths on one table, then a scan that hits nowhere; the
    # table's 45 times go to the matrix exponential ``chunk`` at a time
    monkeypatch.setattr(spaces, "_DEFECT_CHUNK", chunk)
    a, f, x = dense_scan_pair()
    for eps in [1e-3, 1e-11, 1e-2, 1e-13, 1e-17]:
        got, table = shared_table_scans(a, f, [x], eps, 44)
        assert_same_outcome(got[0], outcome(looped_step_scan, a, f, x, eps, 44))
    assert isinstance(got[0], ScheduleExhausted)
    assert table.shape == (45, 4, 4)


def test_table_scan_exhaustion_keeps_the_best_error(k5_certificate):
    cert = k5_certificate
    a, f = cert.a, cert.functional_obj()
    xs = [CVec(st.vector, cert.p) for st in cert.stages]
    # j_max = 100 stops short of stage 5's 2^122 after four stages hit
    got, _ = shared_table_scans(a, f, xs, cert.eps, 100)
    assert isinstance(got[-1], ScheduleExhausted)
    for x, result in zip(xs, got):
        assert_same_outcome(result, outcome(looped_step_scan, a, f, x, cert.eps, 100))


def test_table_scan_passes_over_nan_rows():
    # an infinite imaginary entry makes every row's defect NaN
    a = diagonal_generator_from_entries([complex(0.0, math.inf), 1j])
    f, x = Functional([0.5, 0.5], 2.0), CVec([1.0, 1.0], 2.0)
    with np.errstate(invalid="ignore"):
        got, _ = shared_table_scans(a, f, [x], 0.1, 40)
        assert_same_outcome(got[0], outcome(looped_step_scan, a, f, x, 0.1, 40))
    assert got[0].best_error == math.inf


def test_table_scan_raises_where_the_carrier_does():
    # a diagonal orbit that overflows at t = 1, once weighted and once not:
    # the table holds the inf row either way, and only the weighted scan raises
    a = diagonal_generator_from_entries([1000.0, 0.5j])
    f = Functional([0.5, 0.5], 2.0)
    xs = [CVec([1.0, 1.0], 2.0), CVec([0.0, 2.0], 2.0)]
    got, table = shared_table_scans(a, f, xs, 0.1, 40)
    assert np.isinf(table[0, 0])
    assert isinstance(got[0], SemigroupOverflow)
    for x, result in zip(xs, got):
        assert_same_outcome(result, outcome(looped_step_scan, a, f, x, 0.1, 40))
    # a count of 2^1024 cannot divide a time: the table and the scan stop at
    # 2^1023, and a scan past it that finds no hit ends as one to 2^1023 does
    a = diagonal_generator_from_entries([0.3 + 0.7j, 1.1j, -0.2])
    f = Functional([0.5, -1.25, 2.0], 2.0)
    x = CVec(np.array([1.0, 0.5j, 0.25]) / (1.0 - 0.625j), 2.0)  # f(x) = 1
    for eps in [5e-324, 0.1]:
        got, table = shared_table_scans(a, f, [x], eps, 1030)
        assert_same_outcome(got[0], outcome(looped_step_scan, a, f, x, eps, 1030))
    assert table.shape == (1024, 3)
    with pytest.raises(ScheduleExhausted) as past:
        choose_step_count(a, f, x, 5e-324, 1030)
    with pytest.raises(ScheduleExhausted) as last:
        choose_step_count(a, f, x, 5e-324, 1023)
    assert past.value.j_max == last.value.j_max == 1023
    assert past.value.best_error == last.value.best_error
    assert choose_step_count(a, f, x, 0.1, 1030)[0] < 2**1024


def test_dense_table_overflow_stops_the_build_after_the_seed():
    # |A|_2 > 1000 overflows at t = 1: the one table call raises, after the
    # seed search and before any stage
    a = dense_generator(np.array([[1.0, 1000.0], [0.0, 0.0]]))
    f, z = Functional([1.0, 0.0], 2.0), CVec([1.0, 0.0], 2.0)
    _seed_with_meta(a, f, z)
    assert isinstance(outcome(_schedule_defects, a, 40), SemigroupOverflow)
    with pytest.raises(WitnessBuildError) as info:
        build_certificate(a, f, z, 0.1, 2)
    assert isinstance(info.value.cause, SemigroupOverflow)
    assert info.value.partial is None


def test_build_forms_its_schedule_in_one_call(monkeypatch):
    # K = 5 forms exp(A/2^j) - I for j = 0..160 with one semigroup_defects
    # call, however many stages scan it, and no other defect call
    calls = []
    kernel = witness.semigroup_defects
    monkeypatch.setattr(witness, "semigroup_defects", lambda a, t: calls.append(len(t)) or kernel(a, t))
    shapes = []
    table_kernel = spaces.cexpm1_array
    monkeypatch.setattr(spaces, "cexpm1_array", lambda z: shapes.append(z.shape) or table_kernel(z))
    build_from_config("blowup_k5")
    assert calls == [161]
    assert shapes == [(161, 7)]


def one_count_lipschitz(a, f, n):
    """The dual norm of exp(A/n)^T f from exp(A/n) alone."""
    composed = spaces.semigroup_matrix(a, 1.0 / float(n)).T @ f.coords
    return dual_norm(Functional(composed, f.p))


def test_batched_lipschitz_constants_have_the_one_count_bits(k5_certificate):
    cert = k5_certificate
    f = cert.functional_obj()
    steps = [st.steps for st in cert.stages]
    dense = dense_scan_pair()
    for a, g in [(cert.a, f), dense[:2]]:
        batched = _step_lipschitzes(a, g, steps).tolist()
        assert batched == [one_count_lipschitz(a, g, n) for n in steps]
        assert [_step_lipschitzes(a, g, [n]).item() for n in steps] == batched


def test_verify_names_batched_failures_with_their_one_stage_numbers(k5_certificate):
    # stage 0's ball shrunk below the witness's distance and stage 1's drift
    # moved: the witness gaps and drifts come from one array operation each
    cert = k5_certificate
    bad = replace_stage(cert, 0, stability_radius=1e-200)
    drift = cert.stages[1].generator_pairing
    bad = replace_stage(bad, 1, generator_pairing=drift + 1e-6 * abs(drift))
    gap = norm(CVec(cert.witness - cert.stages[0].vector, cert.p))
    with pytest.raises(InvalidCertificate) as info:
        verify_certificate(bad)
    failures = info.value.failures
    assert failures[0] == f"stage 0: witness sits {gap:.3g} away, outside radius 1e-200"
    assert failures[1] == "stage 1: stored generator pairing does not recompute"
