"""Inductive construction of blow-up witnesses for alternating products.

A witness certificate records a ladder of vectors x_0, x_1, ... whose
product pairings grow by a factor of e per stage, together with the
step counts that realize each stage, certified stability radii around
each vector, and the evaluation of every stage at the final vector y.
The final vector therefore witnesses every stage at once: the n_k-step
product at y has modulus at least e^k - 2*eps for all k.

Every product value is formed in log space by the one carrier,
:func:`semigroup_lab.trotter.batched_log_values`, so stages whose step
counts are far beyond 2^53 lose nothing to rounding.  The scan, the
certificate's witness row and ``verify`` each evaluate a whole batch of
step counts or vectors per call.  A build forms the defects exp(A/2^j) - I
of its whole schedule with one ``semigroup_defects`` call, and every
stage's scan and the witness row read their rows of that table.

Each stage's stability radius is proved by the step-perturbation bound,
which ``verify`` rechecks from the stored data, so a build samples
nothing.  ``validate_stability`` samples the radius sphere for the tests
that check the bound's lemma.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneratePair,
    InvalidCertificate,
    ScheduleExhausted,
    SemigroupOverflow,
    TruncationInsufficient,
    UnderflowRadius,
    WitnessBuildError,
    ZeroPairing,
)
from .spaces import (
    CVec,
    Functional,
    Generator,
    _conjugate_exponent,
    _lp_norm,
    apply_generator,
    dual_norm,
    norm,
    pairing,
    pairings,
    row_norms,
    semigroup_defects,
    semigroup_matrices,
)
from .trotter import batched_log_values, limit_gaps
# re-exported: the tests and perfbench's tracer name the carrier's one-row
# view in this module
from .trotter import product_log_value  # noqa: F401

DEFAULT_J_MAX = 40
DEFAULT_MARGIN = 0.3
DEFAULT_VALIDATION_SAMPLES = 100
UNDERFLOW_FLOOR = 1e-300
ZERO_PAIRING_FLOOR = 1e-14

# Slack demanded of the stage pairings before rounding is blamed.
_PAIRING_SLACK = 1e-10

# Validation samples per batched call, which bounds the memory a call takes.
_SAMPLE_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class WitnessStage:
    """One rung of the ladder.

    ``vector`` is x_k with f(x_k) = 1, ``generator_pairing`` is f(A x_k)
    whose real part is at least the stage index, ``steps`` the chosen
    product step count, and ``stability_radius`` the certified radius
    within which the product value moves by at most eps.  The bump
    fields describe how the stage was reached (search radius, pairing
    target, and the 1-based coordinate of the direction used); the seed
    stage records its own search there too.
    """

    index: int
    vector: np.ndarray
    generator_pairing: complex
    steps: int
    limit_error: float
    stability_radius: float
    log_value: complex
    bump_radius: float | None = None
    search_target: float | None = None
    direction_index: int | None = None


@dataclass(frozen=True, eq=False)
class WitnessCertificate:
    """A complete (or aborted) witness construction.

    ``witness`` equals the last stage vector; ``witness_log_values`` and
    ``witness_errors`` evaluate every stage's product at that single
    vector.  ``a`` is the generator the ladder was built on; files store
    it as a ``generator`` section, in the format of configs and reports.
    """

    a: Generator
    eps: float
    p: float
    functional: np.ndarray
    initial: np.ndarray
    stages: tuple[WitnessStage, ...]
    witness: np.ndarray
    witness_log_values: tuple[complex, ...]
    witness_errors: tuple[float, ...]
    j_max: int
    build_seed: int

    @property
    def stage_count(self) -> int:
        return len(self.stages) - 1

    @property
    def dim(self) -> int:
        return self.functional.size

    def generator(self) -> Generator:
        return self.a

    def functional_obj(self) -> Functional:
        return Functional(self.functional, self.p)


def find_direction(
    a: Generator, f: Functional, target: float, radius: float, stage: int = 0
) -> CVec:
    """A vector of the given norm whose generator pairing reaches target.

    Diagonal generators are searched along coordinate directions (the
    smallest coordinate that works wins, keeping witness supports
    short); dense generators use the extremal direction of the composed
    functional v -> f(A v).  When nothing in the ball reaches the
    target, TruncationInsufficient reports how close the ball gets.
    """
    if target <= 0.0 or radius <= 0.0:
        raise ValueError("direction search needs positive target and radius")
    if a.kind == "diagonal":
        gains = radius * np.abs(a.entries) * np.abs(f.coords)
        hits = np.flatnonzero(gains >= target)
        if hits.size == 0:
            raise TruncationInsufficient(
                needed_target=target,
                best_available=float(np.max(gains)),
                radius=radius,
                stage=stage,
            )
        m = int(hits[0])
        coords = np.zeros(a.dim, dtype=np.complex128)
        coords[m] = radius
        return CVec(coords, f.p)
    composed = a.matrix.T @ f.coords
    reach = radius * dual_norm(Functional(composed, f.p))
    if reach < target:
        raise TruncationInsufficient(
            needed_target=target, best_available=float(reach), radius=radius, stage=stage
        )
    if f.p == 2.0:
        direction = np.conj(composed) / _lp_norm(composed, 2.0)
    elif f.p == math.inf:
        moduli = np.abs(composed)
        direction = np.where(moduli > 0.0, np.conj(composed) / np.where(moduli > 0.0, moduli, 1.0), 1.0)
    else:
        m = int(np.argmax(np.abs(composed)))
        direction = np.zeros(a.dim, dtype=np.complex128)
        direction[m] = np.conj(composed[m]) / abs(composed[m])
    return CVec(radius * direction, f.p)


def rotate_nonneg(a: Generator, f: Functional, v: CVec) -> CVec:
    """Rotate v by a unimodular scalar so f(A v) is nonnegative real."""
    gain = pairing(f, apply_generator(a, v))
    if abs(gain) < ZERO_PAIRING_FLOOR:
        raise ZeroPairing(f"cannot orient a direction with |f(Av)| = {abs(gain):.3g}")
    return CVec(cmath.exp(-1j * cmath.phase(gain)) * v.coords, v.p)


def _bump(a: Generator, f: Functional, base: CVec, target: float, radius: float, stage: int):
    """One bump step: a direction of norm ``radius`` whose pairing reaches
    ``target``, rotated so f(A v) >= 0, added to ``base`` and regauged by
    1 + f(bump).  Returns the new vector and the stage's bump fields.

    Both callers pass a radius of at most 1/(2 |f|_*), so |f(bump)| <= 1/2
    and the denominator is at least 1/2 in modulus."""
    raw = find_direction(a, f, target, radius, stage=stage)
    oriented = rotate_nonneg(a, f, raw)
    denom = 1.0 + pairing(f, oriented)
    bump = {
        "bump_radius": radius,
        "search_target": target,
        "direction_index": int(np.argmax(np.abs(raw.coords))) + 1,
    }
    return CVec((base.coords + oriented.coords) / denom, base.p), bump


def _seed_with_meta(a: Generator, f: Functional, z: CVec):
    """The stage-0 vector and its bump fields: z regauged to f(z) = 1 and
    nudged inside the ball of radius 1/(2|f|) with pairing target
    4 |f(A z)|, so Re f(A x_0) >= 0."""
    gauge = pairing(f, z)
    if abs(gauge) < 1e-12:
        raise DegeneratePair(f"seed pairing {abs(gauge):.3g} is negligible")
    base = CVec(z.coords / gauge, z.p)
    radius = 1.0 / (2.0 * dual_norm(f))
    target = 4.0 * abs(pairing(f, apply_generator(a, base)))
    return _bump(a, f, base, target, radius, stage=0)


# The schedule's counts 2^j, j = 0 .. 1023, as floats: every count a time
# can be divided by.
_DYADIC = np.ldexp(1.0, np.arange(1024))


def _schedule_defects(a: Generator, j_max: int) -> np.ndarray:
    """exp(A/2^j) - I for j = 0 .. min(j_max, 1023), from one
    ``semigroup_defects`` call: row j has the bits the carrier forms for the
    count 2^j, and 2^1024 is the first count it cannot take."""
    return semigroup_defects(a, np.ldexp(1.0, -np.arange(min(j_max, 1023) + 1)))


def choose_step_count(
    a: Generator,
    f: Functional,
    x: CVec,
    eps: float,
    j_max: int = DEFAULT_J_MAX,
    *,
    _table: np.ndarray | None = None,
    _limit_log: complex | None = None,
) -> tuple[int, float, complex]:
    """The smallest dyadic step count whose product value lands within eps.

    Scans n = 2^j, j = 0 .. j_max, and returns (n, error, log_value) for the
    first n with |value - exp(f(Ax))| < eps, the error measured in log space;
    n is a Python int.  Raises ScheduleExhausted, carrying the smallest error
    seen, when no count hits; a NaN error is passed over.  The whole schedule
    goes through the carrier ``batched_log_values`` in one call, as one
    float64 array of counts, each count with the bits of a call on that count
    alone.  Its defects are ``_table``, the schedule's ``_schedule_defects``,
    and its limit log is ``_limit_log``, f(Ax) (``build_certificate`` forms
    the table once for all its stages and f(Ax) once per stage; a call on its
    own forms its own).  The schedule ends at 2^1023, the last count a time
    can be divided by, so the ScheduleExhausted of a scan with j_max >= 1024
    names j_max = 1023, the last count it tried.
    """
    if not 0.0 < eps:
        raise ValueError("eps must be positive")
    table = _schedule_defects(a, j_max) if _table is None else _table
    limit_log = pairing(f, apply_generator(a, x)) if _limit_log is None else _limit_log
    counts = _DYADIC[: len(table)]
    batch = batched_log_values(a, f, x.coords[None, :], counts, limit_log, defects=table)
    errors = batch.errors[:, 0]
    hits = np.flatnonzero(errors < eps)
    if hits.size:
        k = int(hits[0])
        return 2**k, errors[k].item(), batch.log_values[k, 0].item()
    # fmin passes over NaN, as the comparisons above do
    best = np.fmin.reduce(errors, initial=math.inf).item()
    raise ScheduleExhausted(j_max=len(table) - 1, best_error=best, target=eps)


def _step_lipschitzes(a: Generator, f: Functional, steps) -> np.ndarray:
    """The Lipschitz constant of x -> f(exp(A/n) x), the dual norm of
    exp(A/n)^T f, for every step count n of ``steps`` from one
    ``semigroup_matrices`` call.  A build asks for one count per stage,
    ``verify`` for every stage's at once."""
    matrices = semigroup_matrices(a, [1.0 / float(n) for n in steps])
    return row_norms(matrices.transpose(0, 2, 1) @ f.coords, _conjugate_exponent(f.p))


def _radius_log_bound(log_step_abs: float, n: int, lip: float, delta: float) -> float:
    """log(n * (|c| + L*delta)^(n-1) * L*delta), the step-perturbation bound.

    Takes log|c| rather than |c|: near n = 2^53 and beyond, |c| rounds to
    1.0 and the (n-1) log|c| term it carries would be lost.
    """
    if lip * delta == 0.0:
        return -math.inf
    log_move = math.log(lip * delta)
    hi, lo = max(log_step_abs, log_move), min(log_step_abs, log_move)
    return math.log(n) + (n - 1) * (hi + math.log1p(math.exp(lo - hi))) + log_move


def stability_radius(
    a: Generator,
    f: Functional,
    n: int,
    log_value: complex,
    eps: float,
    anchor_norm: float,
    stage: int = 0,
) -> float:
    """A radius delta such that the n-step product value moves by < eps
    anywhere in the delta-ball around x (within the f(.) = 1 slice).

    ``log_value`` is log(c^n), the n-step product's log value at x, as
    ``choose_step_count`` returns it.  Certified through the
    step-perturbation bound ``n * (|c| + L*delta)^(n-1) * L * delta <= eps``
    with c the step value at x and L the per-step Lipschitz constant; the
    bound is rechecked in log space, from log|c| = Re log(c^n) / n, and
    the radius halved until it holds.  The radius is additionally capped at
    1/(n L), at min(1, 1/(2L)) and at half the anchor norm so the ladder
    stays in a bounded region.  At L = 0 the value cannot move, and the
    caps that divide by L drop out (their L -> 0 limit).
    """
    L = _step_lipschitzes(a, f, [n]).item()
    log_step_abs = log_value.real / n
    power_log = (n - 1) * log_step_abs
    scale = math.inf if power_log > 690.0 else math.e * n * L * math.exp(power_log)
    lip_caps = (1.0 / (n * L), 1.0 / (2.0 * L)) if L > 0.0 else ()
    delta = min(eps / scale if scale > 0.0 else math.inf, *lip_caps, 1.0, anchor_norm / 2.0)
    log_eps = math.log(eps)
    while delta >= UNDERFLOW_FLOOR:
        if _radius_log_bound(log_step_abs, n, L, delta) <= log_eps:
            return delta
        delta /= 2.0
    raise UnderflowRadius(radius=delta, stage=stage)


def _kernel_projector(f: Functional) -> tuple[np.ndarray, np.ndarray, complex]:
    """(unit, anchor, gain): v -> v - (v . unit / gain) anchor projects onto
    the kernel of f, and depends on f alone.

    Scaling f leaves the projection alone; the sum f . conj(f) leaves the
    normal range once an entry nears 1e154 or all fall below 1e-154, and
    only then is it formed again from f scaled by its largest modulus.
    """
    unit = f.coords
    with np.errstate(over="ignore"):
        gain = complex(np.dot(unit, np.conj(unit)))
    if not sys.float_info.min <= gain.real < math.inf:
        unit = unit / np.max(np.abs(unit))
        gain = complex(np.dot(unit, np.conj(unit)))
    return unit, np.conj(unit), gain


def validate_stability(
    a: Generator,
    f: Functional,
    x: CVec,
    n: int,
    delta: float,
    rng: np.random.Generator,
    samples: int = DEFAULT_VALIDATION_SAMPLES,
) -> float:
    """Worst sampled deviation |value(h) - exp(f(Ax))| on the delta-slice.

    Samples random kernel directions of f, steps to the boundary of the
    ball, and evaluates the product value there.  The certified radius
    promises the result stays below 2*eps when the step count came from
    ``choose_step_count`` at accuracy eps.

    Each sample draws d real then d imaginary normals, as a per-sample
    loop would, so the generator ends in the same state; the draws come
    ``_SAMPLE_BLOCK`` samples at a time and go through the batched
    carrier together.  A direction with no kernel part is skipped, and a
    NaN deviation comes back as NaN.
    """
    limit_log = pairing(f, apply_generator(a, x))
    unit, anchor, anchor_gain = _kernel_projector(f)
    worst = [0.0]
    for start in range(0, samples, _SAMPLE_BLOCK):
        draws = rng.standard_normal((min(_SAMPLE_BLOCK, samples - start), 2, x.dim))
        raw = draws[:, 0] + 1j * draws[:, 1]
        kernel = raw - np.outer(raw @ unit / anchor_gain, anchor)
        size = np.linalg.norm(kernel, ord=x.p, axis=1)
        kept = size != 0.0
        if not kept.any():
            continue
        shifted = x.coords + (delta / size[kept])[:, None] * kernel[kept]
        batch = batched_log_values(a, f, shifted, [n], limit_log)
        worst.append(np.max(batch.errors))
    return float(np.max(worst))


def _next_rung(a: Generator, f: Functional, stages: list[WitnessStage], margin: float):
    """The next rung's vector and bump fields, from the stages so far.

    The step size is limited by the chain min_j delta_j / 2^(k-j) so the
    whole tail of the ladder stays inside every earlier stability ball:
    the bump v has norm gamma / 2, with eta = |f|_* gamma <= 1/2, and the
    step (v - f(v) x_prev) / (1 + f(v)) has norm at most
    (gamma / 2) (1 + |f|_* |x_prev|) / (3/4) <= chain / 3 by the choice
    of gamma.  The bump direction is searched at half the bump radius with
    a pairing target large enough that the new stage satisfies
    Re f(A x_new) >= index + margin even after the regauging denominator.
    ``verify_certificate`` rechecks both: the witness inside every stage's
    radius, and Re f(Ax) >= index at every stage.
    """
    new_index = len(stages)
    phi_norm = dual_norm(f)
    chain = min(st.stability_radius / 2.0 ** (new_index - st.index) for st in stages)
    prev = stages[-1]
    prev_vec = CVec(prev.vector, f.p)
    prev_norm = norm(prev_vec)
    gamma = min(chain / (2.0 * (prev_norm * phi_norm + 1.0)), 1.0 / (2.0 * phi_norm))
    eta = phi_norm * gamma
    drift = prev.generator_pairing
    target = (new_index - drift.real + eta * abs(drift) + margin) / (1.0 - eta)
    if target <= 0.0:
        target = margin
    return _bump(a, f, prev_vec, target, gamma / 2.0, stage=new_index)


def _assemble(
    a: Generator,
    f: Functional,
    z: CVec,
    eps: float,
    stages: list[WitnessStage],
    j_max: int,
    build_seed: int,
    table: np.ndarray,
) -> WitnessCertificate:
    """The certificate of ``stages``, with every stage evaluated at the last
    stage vector through its row log2(n) of the schedule ``table``."""
    witness = stages[-1].vector
    steps = [st.steps for st in stages]
    defects = table[[n.bit_length() - 1 for n in steps]]
    batch = batched_log_values(a, f, witness[None, :], steps, defects=defects)
    log_values = batch.log_values[:, 0]
    errors = limit_gaps(np.array([st.generator_pairing for st in stages]), log_values)
    return WitnessCertificate(
        a=a,
        eps=eps,
        p=f.p,
        functional=f.coords.copy(),
        initial=z.coords.copy(),
        stages=tuple(stages),
        witness=witness.copy(),
        witness_log_values=tuple(log_values.tolist()),
        witness_errors=tuple(errors.tolist()),
        j_max=j_max,
        build_seed=build_seed,
    )


def build_certificate(
    a: Generator,
    f: Functional,
    z: CVec,
    eps: float,
    stage_goal: int,
    j_max: int = DEFAULT_J_MAX,
    seed: int = 0,
    margin: float = DEFAULT_MARGIN,
    validation_samples: int = DEFAULT_VALIDATION_SAMPLES,
) -> WitnessCertificate:
    """Run the full ladder to ``stage_goal`` and certify it.

    One loop certifies every rung: the seed comes from ``_seed_with_meta``
    and each later rung from ``_next_rung``, whose bump targets give it
    Re f(Ax) >= index, and each is given its step count by
    ``choose_step_count`` and its radius by ``stability_radius``, whose
    bound proves it.  The schedule's ``_schedule_defects`` are formed once
    the seed is found and each stage's f(Ax) once; every stage's scan reads
    them.

    A build samples nothing and draws no random numbers: ``seed`` is only
    recorded as the certificate's ``build_seed``.  ``validation_samples``
    is accepted and ignored, for callers that still pass it.

    On any failure the partial ladder built so far is wrapped in a
    WitnessBuildError whose ``partial`` field is a certificate for the
    completed stages and whose ``cause`` is the underlying exception.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    if stage_goal < 0:
        raise ValueError("stage goal must be nonnegative")
    stages: list[WitnessStage] = []
    try:
        x, bump = _seed_with_meta(a, f, z)
        table = _schedule_defects(a, j_max)
        anchor_norm = norm(x)
        for index in range(stage_goal + 1):
            if index:
                x, bump = _next_rung(a, f, stages, margin)
            drift = pairing(f, apply_generator(a, x))
            steps, err, log_value = choose_step_count(
                a, f, x, eps, j_max=j_max, _table=table, _limit_log=drift
            )
            delta = stability_radius(a, f, steps, log_value, eps, anchor_norm, stage=index)
            stages.append(
                WitnessStage(
                    index=index,
                    vector=x.coords.copy(),
                    generator_pairing=drift,
                    steps=steps,
                    limit_error=err,
                    stability_radius=delta,
                    log_value=log_value,
                    **bump,
                )
            )
    except Exception as exc:
        partial = (
            _assemble(a, f, z, eps, stages, j_max, seed, table) if stages else None
        )
        raise WitnessBuildError(partial=partial, cause=exc) from exc
    return _assemble(a, f, z, eps, stages, j_max, seed, table)


def _blowup_floor(index: int, two_eps: float) -> float:
    """log(e^index - 2 eps) for any integer index: -inf where e^index <= 2 eps,
    and the index itself (inf past 1e308) where e^index overflows."""
    if index > 709:
        return float(index) if index < 1e308 else math.inf
    gap = math.exp(max(index, -746)) - two_eps
    return math.log(gap) if gap > 0.0 else -math.inf


def verify_certificate(cert: WitnessCertificate) -> None:
    """Recheck every invariant of a certificate from its stored data.

    Raises InvalidCertificate listing all failed checks; returns None
    when everything holds.  A recomputation that leaves the floating range
    is a failure too, named by its overflow.

    Each quantity is recomputed for all stages at once: the log values at
    the stage vectors and at the witness from one carrier call each, every
    stage's exp(A/n) from one ``semigroup_matrices`` call, the stage
    pairings, the drifts f(A x_k) and the witness gaps from one array
    operation each, and every limit error from one ``limit_gaps`` call,
    every number with the bits of its one-stage form.
    """
    if not 0.0 < cert.eps < 0.5:
        # the stage bounds take log(eps) and log(1 - 2 eps)
        raise InvalidCertificate([f"eps {cert.eps} outside (0, 1/2)"])
    if not cert.stages:
        raise InvalidCertificate(["stages: certificate has no stages"])
    a = cert.a
    vectors = {"functional": cert.functional, "initial": cert.initial, "witness": cert.witness}
    vectors.update((f"stages[{k}].vector", st.vector) for k, st in enumerate(cert.stages))
    mismatched = [
        f"{name}: dimension {vec.size if vec.ndim == 1 else vec.shape}, expected {a.dim}"
        for name, vec in vectors.items()
        if vec.shape != (a.dim,)
    ]
    if mismatched:
        raise InvalidCertificate(mismatched)
    # the carrier divides a time by every step count
    uncountable = [st.index for st in cert.stages if not 1 <= st.steps < 2**1024]
    if uncountable:
        raise InvalidCertificate([f"stage {k}: step count outside [1, 2^1024)" for k in uncountable])
    f = cert.functional_obj()
    failures: list[str] = []
    if not np.array_equal(cert.witness, cert.stages[-1].vector):
        failures.append("witness vector differs from the last stage vector")
    two_eps = 2.0 * cert.eps
    steps = [st.steps for st in cert.stages]
    stage_vectors = np.array([st.vector for st in cert.stages])
    try:
        # each stage vector at its own step count: the diagonal of one batch
        stage_logs = np.diagonal(batched_log_values(a, f, stage_vectors, steps).log_values)
        witness_logs = batched_log_values(a, f, cert.witness[None, :], steps).log_values[:, 0]
    except SemigroupOverflow as exc:  # the stored numbers cannot be rechecked
        raise InvalidCertificate([*failures, str(exc)]) from exc
    limit_logs = np.array([st.generator_pairing for st in cert.stages])
    stage_errors, witness_errors = limit_gaps(limit_logs, np.stack((stage_logs, witness_logs)))
    gauges = pairings(f, stage_vectors)
    if a.kind == "diagonal":
        moved = stage_vectors * a.entries
    else:
        moved = (a.matrix @ stage_vectors[:, :, None])[:, :, 0]
    drifts = pairings(f, moved)
    gaps = row_norms(cert.witness - stage_vectors, cert.p)
    # the radius certificates, of the stages whose radius is worth checking
    lips = iter(
        _step_lipschitzes(
            a, f, [st.steps for st in cert.stages if st.stability_radius >= UNDERFLOW_FLOOR]
        ).tolist()
    )
    prev_index = -1
    # every check is written "not (holds)", so a NaN anywhere fails it
    rows = zip(cert.stages, *(c.tolist() for c in (stage_logs, stage_errors, gauges, drifts, gaps)))
    for st, lv, err, gauge, drift, gap in rows:
        tag = f"stage {st.index}"
        if st.index != prev_index + 1:
            failures.append(f"{tag}: index out of order")
        prev_index = st.index
        if not abs(gauge - 1.0) <= _PAIRING_SLACK:
            failures.append(f"{tag}: pairing {gauge:.3g} strays from 1")
        if not abs(drift - st.generator_pairing) <= 1e-9 * (1.0 + abs(drift)):
            failures.append(f"{tag}: stored generator pairing does not recompute")
        if not st.generator_pairing.real >= st.index:
            failures.append(
                f"{tag}: Re f(Ax) = {st.generator_pairing.real:.6g} < {st.index}"
            )
        if st.steps & (st.steps - 1):
            failures.append(f"{tag}: step count {st.steps} is not a power of two")
        elif st.steps.bit_length() - 1 > cert.j_max:
            failures.append(f"{tag}: step count exceeds the declared schedule")
        if not abs(lv - st.log_value) <= 1e-9 * (1.0 + abs(lv)):
            failures.append(f"{tag}: stored log value does not recompute")
        if not err < cert.eps:
            failures.append(f"{tag}: limit error {err:.3g} is not below eps")
        if not abs(err - st.limit_error) <= 1e-9 * (1.0 + err):
            failures.append(f"{tag}: stored limit error {st.limit_error:.3g} does not recompute")
        if not st.stability_radius >= UNDERFLOW_FLOOR:
            failures.append(
                f"{tag}: stability radius {st.stability_radius:.3g} is under {UNDERFLOW_FLOOR:.3g}"
            )
        else:
            lhs = _radius_log_bound(lv.real / st.steps, st.steps, next(lips), st.stability_radius)
            if not lhs <= math.log(cert.eps) + 1e-9:
                failures.append(f"{tag}: stability radius fails its certificate")
        if not gap <= st.stability_radius * (1.0 + 1e-12):
            failures.append(
                f"{tag}: witness sits {gap:.3g} away, outside radius "
                f"{st.stability_radius:.3g}"
            )
    counts = {len(cert.witness_log_values), len(cert.witness_errors)}
    if counts != {len(cert.stages)}:
        failures.append("witness evaluations do not cover every stage")
    else:
        for st, lv, err, lv_stored, err_stored in zip(
            cert.stages,
            witness_logs.tolist(),
            witness_errors.tolist(),
            cert.witness_log_values,
            cert.witness_errors,
        ):
            tag = f"stage {st.index} at witness"
            if not abs(lv - lv_stored) <= 1e-9 * (1.0 + abs(lv)):
                failures.append(f"{tag}: stored log value does not recompute")
            if not err < two_eps:
                failures.append(f"{tag}: deviation {err:.3g} is not below 2*eps")
            if not abs(err - err_stored) <= 1e-9 * (1.0 + err):
                failures.append(f"{tag}: stored deviation does not recompute")
            floor = _blowup_floor(st.index, two_eps)
            if not lv.real >= floor - 1e-12:
                failures.append(
                    f"{tag}: log-modulus {lv.real:.6g} under the blow-up floor {floor:.6g}"
                )
    if failures:
        raise InvalidCertificate(failures)
