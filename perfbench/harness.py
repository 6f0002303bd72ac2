"""Closed-loop job runner and the per-job correctness gate.

A pass runs the workload's fixed job list once, in order, one job at a
time, each through ``semigroup_lab.cli.main`` inside this process.  Only
the jobs themselves are timed; the gate runs after the pass:

* the exit code is the expected one (0, or 4 for a truncation stop);
* the job's output file exists, and its bytes equal those of the first
  pass (every job reruns every pass, so each run repeats each job);
* limit-check and sweep gaps are within the config tolerance;
* every certificate and report passes ``verify`` read back from disk
  (the verify jobs of the list).

A job that raises, exits through argparse, or writes something wrong is
counted as failed; nothing a job does stops the run.
"""

from __future__ import annotations

import cmath
import contextlib
import gc
import io
import math
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from workloads import Job


@dataclass
class JobResult:
    job: Job
    seconds: float
    exit_code: int | None
    output: str
    artifact: Path | None = None
    probe: float = 0.0
    failures: list[str] = field(default_factory=list)

    @property
    def unexpected_exit(self) -> bool:
        return self.exit_code != self.job.expected_exit


@dataclass
class PassResult:
    """One pass; ``wall`` is the sum of its job times (probes excluded)."""

    index: int
    traced: bool
    wall: float
    results: list[JobResult]

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r.failures)


def _argv(job: Job, out_dir: Path, artifacts: dict[str, Path]) -> list[str]:
    if job.command == "verify":
        return ["verify", str(artifacts[job.verifies])]
    return [job.command, "--config", str(job.config), "--out", str(out_dir)]


def run_job(cli, job: Job, out_dir: Path, artifacts: dict[str, Path], tracer=None) -> JobResult:
    """Run one job through ``cli.main`` with its output captured."""
    argv = _argv(job, out_dir, artifacts)
    captured = io.StringIO()
    span = tracer.job(job.name, f"cli.{job.command}") if tracer else contextlib.nullcontext()
    code: int | None
    start = perf_counter()
    try:
        with span, contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code = None
        captured.write(traceback.format_exc())
    seconds = perf_counter() - start
    artifact = out_dir / job.output if job.output else None
    return JobResult(job, seconds, code, captured.getvalue(), artifact)


def _csv_rows(path: Path) -> list[dict[str, str]]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _gap_failures(job: Job, path: Path) -> list[str]:
    rows = _csv_rows(path)
    if not rows:
        return ["CSV holds no rows"]
    if job.command == "sweep":
        gaps = [float(r["product_gap"]) for r in rows]
        worst = max(gaps)
        return [] if worst <= job.tolerance else [f"sweep gap {worst:.3g} above {job.tolerance:g}"]
    last = rows[-1]
    failures = []
    err = float(last["err_vs_limit"])
    if not err <= job.tolerance:
        failures.append(f"final scalar error {err:.3g} above {job.tolerance:g}")
    if "product_gap" in last:
        gap = float(last["product_gap"])
        if not gap <= job.tolerance:
            failures.append(f"final product gap {gap:.3g} above {job.tolerance:g}")
    return failures


def check(result: JobResult) -> None:
    """Fill ``result.failures`` from the exit code and the files written."""
    job = result.job
    if result.exit_code is None:
        result.failures.append("crashed: " + result.output.strip().splitlines()[-1])
    elif result.unexpected_exit:
        result.failures.append(f"exit {result.exit_code}, expected {job.expected_exit}")
    if job.command == "verify":
        if "PASS " not in result.output or "FAIL " in result.output:
            result.failures.append("artifact does not verify from disk")
        return
    if result.artifact is None or not result.artifact.is_file():
        result.failures.append(f"no output file {job.output}")
        return
    if job.tolerance is not None:
        try:
            result.failures.extend(_gap_failures(job, result.artifact))
        except (KeyError, ValueError, IndexError) as exc:
            result.failures.append(f"unreadable CSV: {exc!r}")


class Bench:
    """Runs passes of one job list and holds the first pass's outputs.

    Every pass writes into a fresh directory under ``work_dir``; after
    the gate, its files are compared byte for byte with the first pass
    and the directory is removed.  The speed probe runs before the first
    job and after every job; a job's ``probe`` is the mean of the two
    probes around it.
    """

    def __init__(self, cli, jobs: list[Job], work_dir: Path, probe: Callable[[], float]):
        self.cli = cli
        self.probe = probe
        self.jobs = jobs
        self.work_dir = Path(work_dir)
        self.reference: dict[str, bytes] | None = None
        self.passes: list[PassResult] = []

    def run_pass(self, tracer=None) -> PassResult:
        out_dir = self.work_dir / f"pass-{len(self.passes)}"
        out_dir.mkdir(parents=True)
        artifacts: dict[str, Path] = {}
        results = []
        gc.collect()
        before = self.probe()
        wall = 0.0
        for job in self.jobs:
            result = run_job(self.cli, job, out_dir, artifacts, tracer)
            after = self.probe()
            result.probe = (before + after) / 2.0
            before = after
            wall += result.seconds
            if result.artifact is not None:
                artifacts[job.name] = result.artifact
            results.append(result)
        for result in results:
            check(result)
        self._compare(results)
        shutil.rmtree(out_dir)
        outcome = PassResult(len(self.passes), tracer is not None, wall, results)
        self.passes.append(outcome)
        return outcome

    def _compare(self, results: list[JobResult]) -> None:
        current = {
            r.job.name: r.artifact.read_bytes()
            for r in results
            if r.artifact is not None and r.artifact.is_file()
        }
        if self.reference is None:
            self.reference = current
            return
        for r in results:
            name = r.job.name
            if name in current and name in self.reference and current[name] != self.reference[name]:
                r.failures.append("output differs from the first pass")

    @property
    def attempted(self) -> int:
        return sum(len(p.results) for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.passes)

    def failures(self) -> list[str]:
        return [
            f"pass {p.index} {r.job.name}: {msg}"
            for p in self.passes
            for r in p.results
            for msg in r.failures
        ]


class SpeedProbe:
    """A fixed piece of work, timed beside every job, that tracks machine speed.

    On the machine this was sized on (two cores shared with other
    tenants) the same code runs up to twice as slowly from one minute to
    the next, far more than the effects the benchmark must resolve.  The
    probe mixes what the workloads do: small numpy operations in a Python
    loop, scalar complex arithmetic, and small LAPACK calls.  A timing
    ``t`` measured next to a probe that took ``p`` is reported as
    ``t * REFERENCE_S / p``: seconds at the speed at which the probe takes
    REFERENCE_S.  Over five seeds this cut the spread of a renorm-audits
    run from 13% (one probe per pass) to 3%.  The probe shares no code
    with semigroup_lab, so a change to the program leaves it alone.
    """

    REFERENCE_S = 0.007

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self._vector = rng.standard_normal(8) + 0j

    def __call__(self) -> float:
        start = perf_counter()
        v = self._vector
        for _ in range(700):
            v = self._matrix @ v
            v = v / np.abs(v).max()
        z, total = 0.1 + 0.2j, 0j
        for k in range(7000):
            total += cmath.exp(z * (k * 1e-5)) - 1.0
        small = self._matrix[:6, :6]
        for _ in range(100):
            np.linalg.norm(small, 2)
        return perf_counter() - start

    def scale(self, probe_seconds: float) -> float:
        """Factor turning a timing made next to this probe into reference seconds."""
        return self.REFERENCE_S / probe_seconds


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest standard percentile with at least ten samples beyond it."""
    for q in TAIL_PERCENTILES:
        if len(values) * (1.0 - q / 100.0) >= 10.0:
            return q, percentile(values, q)
    return None
