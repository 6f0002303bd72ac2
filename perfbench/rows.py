"""Single-layer timings at fixed seeds and the sizes of the ROADMAP baseline.

Each row calls one public library function directly, untraced, and
reports the median of a few repetitions:

* ``dense_trotter_apply`` at d = 8, n = 2^16 (dense oblique projection);
* the K = 5 certificate build and its verification (shipped blowup_k5);
* the split audit at 10^4 samples on that certificate;
* the dense classical audit at d = 6 (default grid), per vector.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from workloads import SHIPPED_CONFIGS, dissipative_dense


def _median_seconds(fn, repeats: int, per: int = 1) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append((perf_counter() - start) / per)
    return statistics.median(times)


def layer_rows() -> dict[str, float]:
    import semigroup_lab as lab

    rng = np.random.default_rng(8)
    raw = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    a = lab.dense_generator(raw * (2.0 / np.linalg.norm(raw, 2)))
    proj = lab.random_oblique_projection(8, 4, rng)
    x = lab.CVec(rng.standard_normal(8) + 1j * rng.standard_normal(8))

    cfg = lab.load_config(SHIPPED_CONFIGS / "blowup_k5.config.json")
    f = cfg.functional()
    params = cfg.witness_params()

    def build():
        return lab.build_certificate(
            cfg.generator(),
            f,
            cfg.vector(f),
            eps=params.eps,
            stage_goal=params.stages,
            j_max=params.j_max,
            seed=cfg.seed,
            margin=params.margin,
            validation_samples=params.validation_samples,
        )

    cert = build()
    dense6 = lab.dense_generator(dissipative_dense(np.random.default_rng(6), 6))
    vectors = 2
    return {
        "row.dense_trotter_apply_d8_n65536_s": _median_seconds(
            lambda: lab.dense_trotter_apply(a, proj, x, 1.0, 1 << 16), 3
        ),
        "row.k5_build_s": _median_seconds(build, 5),
        "row.k5_verify_s": _median_seconds(lambda: lab.verify_certificate(cert), 5),
        "row.split_audit_10000_s": _median_seconds(
            lambda: lab.quasi_contractivity_audit(
                "split", cert=cert, seed=cfg.seed, vector_samples=10_000
            ),
            3,
        ),
        "row.dense_classical_d6_per_vector_s": _median_seconds(
            lambda: lab.quasi_contractivity_audit(
                "classical", a=dense6, omega=0.5, seed=6, vector_samples=vectors
            ),
            1,
            per=vectors,
        ),
    }
