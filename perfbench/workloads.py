"""Seeded workload generator: config files plus the fixed job list that uses them.

``generate(workload, seed, config_dir)`` writes every config a workload
needs into ``config_dir`` and returns its jobs.  The program only ever
sees those files; the same seed gives byte-identical configs.

Sizes are stratified rather than drawn (step-count ladders, dimensions
of the dense audits, projection kinds per position) so that the cost of
one pass over the job list barely depends on the seed; the seed moves
the matrices, vectors, weights and per-job program seeds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("dense-products", "blowup-ladders", "renorm-audits")

# Exit code the CLI uses when the ladder search runs out of truncation.
EXIT_TRUNCATION = 4

# Gap tolerances: several times the worst gap seen over 150 seeds
# (limit-check 8.9e-3, sweep 6.5e-2, scalar ladders 6.8e-10).  Sweep
# draws at n = 2^14 include ill-conditioned oblique projections whose
# first-order error constant is large, hence the wider sweep bound.
DENSE_LIMIT_TOL = 5e-2
SWEEP_TOL = 2e-1
SCALAR_LADDER_TOL = 1e-8

SHIPPED_CONFIGS = Path(__file__).resolve().parent.parent / "src" / "semigroup_lab" / "configs"


@dataclass(frozen=True)
class Job:
    """One CLI invocation of a pass.

    ``config`` is the config file a run subcommand reads; a verify job
    names instead the job whose artifact it rechecks (``verifies``).
    ``output`` is the file the job writes into its pass directory and
    ``tolerance`` the bound on the gaps it reports (limit-check, sweep).
    ``metric`` names the per-job timing the job feeds.
    """

    name: str
    command: str
    metric: str
    expected_exit: int = 0
    config: Path | None = None
    output: str | None = None
    tolerance: float | None = None
    verifies: str | None = None
    tag: str = ""


def _complex_rows(matrix: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def _complex_list(values) -> list:
    return [[float(z.real), float(z.imag)] for z in values]


def _write(config_dir: Path, name: str, payload: dict) -> Path:
    payload = {"schema": "semigroup-lab/config/1", **payload}
    path = config_dir / f"{name}.config.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _shipped(name: str) -> dict:
    return json.loads((SHIPPED_CONFIGS / f"{name}.config.json").read_text(encoding="utf-8"))


def _program_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31))


def _gaussian(rng: np.random.Generator, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _oblique_projection(rng: np.random.Generator, dim: int, cap: float) -> np.ndarray:
    """A non-orthogonal idempotent of random rank with spectral norm <= cap."""
    rank = int(rng.integers(1, dim))
    while True:
        frame, _ = np.linalg.qr(_gaussian(rng, dim, dim))
        basis = frame + 0.35 * _gaussian(rng, dim, dim) / math.sqrt(dim)
        candidate = basis[:, :rank] @ np.linalg.inv(basis)[:rank, :]
        if np.linalg.norm(candidate, 2) <= cap:
            return candidate


def _dense_products(rng: np.random.Generator, config_dir: Path) -> list[Job]:
    jobs = []
    # One limit-check per ladder end 2^12 .. 2^16.  Dimension and
    # projection kind are fixed by position so a pass costs the same for
    # every seed (a rank-one step does one more vector operation).
    for i, (j_end, dim) in enumerate(zip(range(12, 17), (16, 2, 12, 4, 8))):
        raw = _gaussian(rng, dim, dim)
        matrix = raw * (rng.uniform(1.0, 4.0) / np.linalg.norm(raw, 2))
        f = _gaussian(rng, dim)
        f /= np.linalg.norm(f)
        # x = f*/|f|^2 plus a kernel part keeps f(x) = 1 and |x| near 1.
        kernel = _gaussian(rng, dim)
        kernel -= np.vdot(f.conj(), kernel) * f.conj()
        x = f.conj() + 0.5 * kernel / np.linalg.norm(kernel)
        x /= np.dot(f, x)
        if i % 2 == 0:
            projection = {"kind": "rank_one"}
        else:
            projection = {"kind": "dense", "matrix": _complex_rows(_oblique_projection(rng, dim, 5.0))}
        name = f"dense-limit-{j_end}"
        path = _write(
            config_dir,
            name,
            {
                "seed": _program_seed(rng),
                "tolerance": DENSE_LIMIT_TOL,
                "space": {"dim": dim, "p": 2},
                "generator": {"kind": "dense", "matrix": _complex_rows(matrix)},
                "functional": {"kind": "values", "values": _complex_list(f)},
                "vector": {"kind": "values", "values": _complex_list(x)},
                "projection": projection,
                "time": 1.0,
                "schedule": {"j_min": j_end - 4, "j_max": j_end},
            },
        )
        jobs.append(
            Job(name, "limit-check", "limit_check_s", config=path,
                output=f"{name}.limit.csv", tolerance=DENSE_LIMIT_TOL)
        )
    sweep = _shipped("sweep_bounded")
    for k in range(2):
        name = f"dense-sweep-{k}"
        body = dict(sweep, seed=_program_seed(rng), tolerance=SWEEP_TOL)
        body["sweep"] = dict(sweep["sweep"], trials=4)
        path = _write(config_dir, name, {key: v for key, v in body.items() if key != "schema"})
        jobs.append(
            Job(name, "sweep", "sweep_s", config=path, output=f"{name}.sweep.csv",
                tolerance=SWEEP_TOL)
        )
    return jobs


def _scalar_ladder(rng: np.random.Generator, j_max: int) -> dict:
    """Imaginary diagonal entries up to 2^(j_max - 30) with real weights.

    The pairing weights w_m = f_m x_m are real with mixed signs and sum
    to 1, so Re f(Ax) = 0 while |step value| exceeds 1 and the products
    swell before the schedule reaches the top frequency; the weight on
    coordinate m scales like 1/theta_m so f(Ax) stays of order one and
    the error at the last step count is of order 1e-9.
    """
    dim = int(rng.integers(3, 9))
    exponents = np.linspace(0.0, j_max - 30, dim)
    theta = np.sort(2.0**exponents * rng.uniform(1.0, 1.5, dim))
    w = rng.choice([-1.0, 1.0], dim) * rng.uniform(0.5, 1.0, dim) / theta
    w[0] = 1.0 - np.sum(w[1:])
    f = rng.uniform(0.5, 2.0, dim)
    x = w / f
    return {
        "seed": _program_seed(rng),
        "tolerance": SCALAR_LADDER_TOL,
        "space": {"dim": dim, "p": 2},
        "generator": {"kind": "diagonal", "law": {"kind": "table", "values": [[0.0, float(t)] for t in theta]}},
        "functional": {"kind": "values", "values": [float(v) for v in f]},
        "vector": {"kind": "values", "values": [float(v) for v in x]},
        "time": 1.0,
        "schedule": {"j_min": 0, "j_max": j_max},
    }


def _verify_jobs(jobs: list[Job], prefix: str) -> list[Job]:
    return [
        Job(f"{prefix}-verify-{job.name}", "verify", "verify_s", verifies=job.name)
        for job in jobs
        if job.output and job.output.endswith(".json")
    ]


def _blowup_ladders(rng: np.random.Generator, config_dir: Path) -> list[Job]:
    jobs = []
    k5 = {k: v for k, v in _shipped("blowup_k5").items() if k != "schema"}
    for k in range(3):
        name = f"ladder-k5-{k}"
        path = _write(config_dir, name, dict(k5, seed=_program_seed(rng)))
        jobs.append(Job(name, "witness", "witness_s", config=path, output=f"{name}.cert.json"))
    bounded = {k: v for k, v in _shipped("bounded_contrapositive").items() if k != "schema"}
    name = "ladder-bounded"
    path = _write(config_dir, name, dict(bounded, seed=_program_seed(rng)))
    jobs.append(
        Job(name, "witness", "witness_s", expected_exit=EXIT_TRUNCATION, config=path,
            output=f"{name}.cert.json")
    )
    for j_max in (60, 80, 100, 122):
        name = f"ladder-scalar-{j_max}"
        path = _write(config_dir, name, _scalar_ladder(rng, j_max))
        jobs.append(
            Job(name, "limit-check", "limit_check_s", config=path,
                output=f"{name}.limit.csv", tolerance=SCALAR_LADDER_TOL)
        )
    return jobs + _verify_jobs(jobs, "ladder")


def dissipative_dense(rng: np.random.Generator, dim: int) -> np.ndarray:
    """B - c I with c above the l^1, l^2 and l^inf log-norms of B.

    The semigroup is then contractive in every audited norm, so the
    weighted sup sits at t = 0 and the audit must pass with margin.
    """
    raw = _gaussian(rng, dim, dim)
    b = raw * (rng.uniform(0.5, 1.5) / np.linalg.norm(raw, 2))
    off = np.abs(b) - np.diag(np.abs(np.diag(b)))
    diag = np.diag(b).real
    mu1 = np.max(diag + off.sum(axis=0))
    mu2 = np.max(np.linalg.eigvalsh((b + b.conj().T) / 2.0))
    mu_inf = np.max(diag + off.sum(axis=1))
    return b - (max(mu1, mu2, mu_inf) + 0.25) * np.eye(dim)


def _dissipative_table(rng: np.random.Generator, dim: int) -> list:
    """Diagonal entries with Re <= 0 (one at 0) and growing moduli."""
    real = -np.concatenate(([0.0], rng.uniform(0.0, 1.5, dim - 1)))
    imag = 3.0 ** np.arange(dim) * rng.uniform(0.2, 0.4, dim)
    entries = real + 1j * imag
    return _complex_list(entries[np.argsort(np.abs(entries))])


def _renorm_audits(rng: np.random.Generator, config_dir: Path) -> list[Job]:
    jobs = []
    split = {k: v for k, v in _shipped("split_renorm").items() if k != "schema"}
    name = "audit-split"
    path = _write(config_dir, name, dict(split, seed=_program_seed(rng)))
    jobs.append(Job(name, "renorm-audit", "split_audit_s", config=path, output=f"{name}.report.json"))

    def classical(name, dim, p, generator, vectors, grid, shifts, tag=""):
        path = _write(
            config_dir,
            name,
            {
                "seed": _program_seed(rng),
                "space": {"dim": dim, "p": p},
                "generator": generator,
                "renorm": {
                    "kind": "classical",
                    "omega": 0.5,
                    "vector_samples": vectors,
                    "time_samples": shifts,
                    "grid_points": grid,
                },
            },
        )
        jobs.append(
            Job(name, "renorm-audit", "classical_audit_s", config=path,
                output=f"{name}.report.json", tag=tag)
        )

    # p = 2 takes the vectorized diagonal route; p = 1 and inf loop per sample.
    for label, p, vectors in (("2", 2, 1000), ("1", 1, 6), ("inf", "inf", 6)):
        dim = int(rng.integers(4, 9))
        table = {"kind": "diagonal", "law": {"kind": "table", "values": _dissipative_table(rng, dim)}}
        classical(f"audit-diag-p{label}", dim, p, table, vectors, 257, 8)
    # Dense audits: one per dimension 4, 6, 8; the norm each gets is seeded.
    for dim, p in zip((4, 6, 8), rng.permutation(np.array([1, 2, "inf"], dtype=object))):
        matrix = {"kind": "dense", "matrix": _complex_rows(dissipative_dense(rng, dim))}
        classical(f"audit-dense-d{dim}", dim, p, matrix, 2, 33, 4, tag="dense-classical")
    return jobs + _verify_jobs(jobs, "audit")


_JOB_LISTS = {
    "dense-products": _dense_products,
    "blowup-ladders": _blowup_ladders,
    "renorm-audits": _renorm_audits,
}


def generate(workload: str, seed: int, config_dir: Path) -> list[Job]:
    """Write the workload's configs for ``seed`` and return its job list."""
    if workload not in _JOB_LISTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    # SeedSequence entries must be non-negative; the sign is its own entry.
    rng = np.random.default_rng([abs(seed), int(seed < 0), WORKLOADS.index(workload)])
    return _JOB_LISTS[workload](rng, Path(config_dir))
