"""Layered benchmark of the semigroup-lab CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload dense-products --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

One run measures one workload: it times fresh interpreters importing
``semigroup_lab.cli`` (set-up), generates the workload's configs from
the seed, runs one warm-up pass over the job list, then repeats passes
for ``--seconds``.  Every job of every pass is checked (see ``harness``).
With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` traced and untraced passes
alternate, the JSON carries the per-layer metrics, and the fixed-size
layer rows of ``rows`` are timed after the passes.  ``--workload all``
runs each workload in its own process, one after another, and exits 1
if any job of any workload failed.

Job times are scaled to a reference machine speed by the speed probe
run around every job (``harness.SpeedProbe``).  BLAS runs on one thread,
so the sweep's two pool threads plus BLAS stay within the two cores this
was sized on; SEMIGROUP_LAB_THREADS is left unset so the sweep pool takes
its default size.  Scratch files, span dumps and result files go to
``.perfbench_runs/`` in the repository.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
WORKLOADS = ("dense-products", "blowup-ladders", "renorm-audits")
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
SETUP_SPEED_EXPONENT = 0.5
MIN_PASSES = 3

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "job_gmean_s": "s",
    "peak_rss_mb": "MB",
}

PER_JOB = (
    "limit_check_s",
    "sweep_s",
    "witness_s",
    "split_audit_s",
    "classical_audit_s",
    "verify_s",
)

PER_LAYER = {
    "trotter.dense_trotter_apply.calls": "count",
    "trotter.dense_trotter_apply.busy_s": "s",
    "trotter.dense_trotter_apply.steps": "count",
    "trotter.dense_trotter_apply.share": "ratio",
    "trotter.bounded_limit_oracle.calls": "count",
    "trotter.bounded_limit_oracle.busy_s": "s",
    "projections.random_oblique_projection.busy_s": "s",
    "cli.sweep.pool_efficiency": "ratio",
    "trotter.scalar_trotter_value.calls": "count",
    "trotter.scalar_trotter_value.busy_s": "s",
    "trotter.step_derivative.calls": "count",
    "trotter.step_derivative.busy_s": "s",
    "spaces.cexpm1.calls": "count",
    "spaces.clog1p.calls": "count",
    "witness.choose_step_count.busy_s": "s",
    "witness.choose_step_count.scan_ratio": "ratio",
    "witness.stability_radius.busy_s": "s",
    "witness.validate_stability.busy_s": "s",
    "witness.build_certificate.busy_s": "s",
    "witness.verify_certificate.busy_s": "s",
    "spaces.semigroup_apply.calls": "count",
    "spaces.semigroup_apply.busy_s": "s",
    "spaces.semigroup_apply.dense_audit_share": "ratio",
    "spaces.semigroup_defect.calls": "count",
    "spaces.semigroup_defect.busy_s": "s",
    "renorm.classical.busy_s": "s",
    "renorm.classical_renorm_value.calls": "count",
    "renorm.split.busy_s": "s",
    "renorm.split_norm.calls": "count",
    "projections.project.calls": "count",
    "projections.project.busy_s": "s",
    "serialize.save_json.busy_s": "s",
    "serialize.load_json.busy_s": "s",
    "serialize.cert_from_dict.busy_s": "s",
    "serialize.report_from_dict.busy_s": "s",
    "serialize.bytes_written": "bytes",
    "config.load_config.calls": "count",
    "config.load_config.busy_s": "s",
    "cli.limit-check.self_s": "s",
    "cli.sweep.self_s": "s",
    "cli.witness.self_s": "s",
    "cli.renorm-audit.self_s": "s",
    "cli.verify.self_s": "s",
    "cli.unexpected_exit.count": "count",
    **{f"layer.{layer}.self_s": "s" for layer in tracing.LAYERS},
    "trace.overhead_s": "s",
    "trace.prediction_met": "bool",
    "row.dense_trotter_apply_d8_n65536_s": "s",
    "row.k5_build_s": "s",
    "row.k5_verify_s": "s",
    "row.split_audit_10000_s": "s",
    "row.dense_classical_d6_per_vector_s": "s",
}


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def _provenance(workload: str, seed: int, pool_size: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "sweep_pool_size": pool_size,
        "SEMIGROUP_LAB_THREADS": os.environ.get("SEMIGROUP_LAB_THREADS", "unset"),
    }


def _measure_setup(env: dict, probe) -> list[float]:
    """Times of fresh interpreters importing semigroup_lab.cli.

    One untimed import first writes the bytecode caches, which an
    installed package already has.  Each start-up is paired with the
    mean of the probes right before and after it.  Start-up is mostly
    loading shared libraries and bytecode and tracks machine speed only
    partly: over 276 pairs on the two-core machine this was sized on,
    log start-up time rose 0.50 per unit of log probe time (r = 0.71), so
    start-ups are scaled by the square root of the probe's factor.
    """
    cmd = [sys.executable, "-c", "import semigroup_lab.cli"]
    times = []
    before = probe()
    for i in range(SETUP_REPEATS + 1):
        start = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, timeout=120)
        elapsed = perf_counter() - start
        after = probe()
        if i:
            times.append(elapsed * probe.scale((before + after) / 2.0) ** SETUP_SPEED_EXPONENT)
        before = after
    return times


def _line(name: str, unit: str, values: list[float]) -> str:
    from harness import tail

    median = statistics.median(values)
    t = tail(values)
    tail_text = f"p{t[0]:g} {t[1]:.6g}" if t else "tail n/a (<20 samples)"
    return f"  {name:<22} {median:>12.6g} {unit:<6} {tail_text:<24} n={len(values)}"


def _run_passes(bench, seconds: float, trace: bool, tracer, summarize_pass) -> list[dict]:
    """Warm-up pass, then passes until ``seconds`` would be exceeded.

    With tracing, untraced and traced passes alternate; each traced
    pass is summarized (and its spans kept) before the next begins.
    """
    bench.run_pass()
    summaries = []
    walls: list[float] = []
    start = perf_counter()
    while True:
        if trace and len(walls) % 2 == 1:
            tracer.install()
            try:
                outcome = bench.run_pass(tracer)
            finally:
                tracer.uninstall()
            summaries.append(summarize_pass(outcome))
        else:
            outcome = bench.run_pass()
        walls.append(perf_counter() - start - sum(walls))
        needed = MIN_PASSES * (2 if trace else 1)
        if len(walls) >= needed and sum(walls) + statistics.median(walls) > seconds:
            return summaries


def _job_times(passes, probe) -> dict[str, list[float]]:
    """Each job's times over the passes, in seconds at the reference speed."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for r in p.results:
            times.setdefault(r.job.name, []).append(r.seconds * probe.scale(r.probe))
    return times


def _list_seconds(times: dict[str, list[float]]) -> float:
    """Time of the whole job list: the sum of each job's median time.

    Summing per-job medians keeps one slow moment of the machine from
    moving the result, which a median of pass totals does not.
    """
    return sum(statistics.median(v) for v in times.values())


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "semigroup_lab" / "cli.py").is_file():
        print(f"no semigroup_lab sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("SEMIGROUP_LAB_THREADS", None)
    pythonpath = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    import harness

    probe = harness.SpeedProbe()
    setup_times = _measure_setup(dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath)), probe)
    sys.path.insert(0, str(SRC))

    import rows
    import workloads
    from semigroup_lab import cli

    # The pool size the sweep uses; a sweep without a pool counts as 1.
    pool_size = cli._thread_count() if hasattr(cli, "_thread_count") else 1
    prov = _provenance(workload, seed, pool_size)
    RUNS.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=RUNS))
    tracer = tracing.Tracer() if trace else None
    first_spans: list = []
    try:
        config_dir = work_dir / "configs"
        config_dir.mkdir()
        jobs = workloads.generate(workload, seed, config_dir)
        dense_audits = {j.name for j in jobs if j.tag == "dense-classical"}
        bench = harness.Bench(cli, jobs, work_dir, probe)

        def summarize_pass(outcome):
            spans, counts = tracer.drain()
            if not first_spans:
                first_spans.extend(spans)
            return tracing.summarize(spans, counts, outcome.wall, pool_size, dense_audits)

        summaries = _run_passes(bench, seconds, trace, tracer, summarize_pass)
        layer_rows = rows.layer_rows() if trace else {}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    measured = [p for p in bench.passes[1:] if not p.traced]
    traced_passes = [p for p in bench.passes[1:] if p.traced]
    times = _job_times(measured, probe)
    per_kind: dict[str, list[float]] = {}
    for job in jobs:
        per_kind.setdefault(job.metric, []).extend(times[job.name])
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "run_s": _list_seconds(times),
        "job_gmean_s": math.exp(
            statistics.fmean(math.log(statistics.median(v)) for v in per_kind.values())
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    attempted, failed = bench.attempted, bench.failed

    print(f"semigroup-lab benchmark: workload {workload}, seed {seed}, trace {int(trace)}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(f"jobs per pass: {len(jobs)}; passes: 1 warm-up + {len(measured)} untraced"
          + (f" + {len(traced_passes)} traced" if trace else ""))
    print(f"raw: job list {statistics.median(p.wall for p in measured):.6g} s per pass "
          f"(median), speed probe {statistics.median(r.probe for p in measured for r in p.results):.6g} s "
          f"(reference {probe.REFERENCE_S} s)")
    print("end-to-end; times after set-up are in seconds at the reference probe speed:")
    print(_line("setup_s", "s", setup_times))
    print(f"  {'run_s':<22} {end_to_end['run_s']:>12.6g} s      sum of per-job medians")
    for metric in PER_JOB:
        if metric in per_kind:
            print(_line(metric, "s", per_kind[metric]))
    print(f"  {'job_gmean_s':<22} {end_to_end['job_gmean_s']:>12.6g} s      "
          "geometric mean of the per-job medians above")
    print(f"  {'peak_rss_mb':<22} {end_to_end['peak_rss_mb']:>12.6g} MB")
    print(f"  {'error_ratio':<22} {failed / attempted:>12.6g} ratio  "
          f"{failed} of {attempted} jobs failed")
    for line in bench.failures()[:20]:
        print("  FAILED " + line)

    metrics, units = end_to_end, END_TO_END
    result = {"provenance": prov, "end_to_end": end_to_end, "setup_samples": setup_times,
              "job_times": times, "failures": bench.failures()}
    if trace:
        layer = {
            name: statistics.median(s.get(name, 0.0) for s in summaries) for name in PER_LAYER
        }
        layer["cli.unexpected_exit.count"] = float(
            sum(r.unexpected_exit for p in bench.passes for r in p.results)
        )
        overhead = _list_seconds(_job_times(traced_passes, probe)) - end_to_end["run_s"]
        layer["trace.overhead_s"] = overhead
        met = tracing.prediction_met(workload, layer)
        layer["trace.prediction_met"] = float(met)
        layer.update(layer_rows)
        _print_trace(workload, summaries, layer, overhead, end_to_end["run_s"], met)
        span_file = RUNS / f"{workload}-seed{seed}.spans.jsonl.gz"
        with gzip.open(span_file, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(tracing.Span._fields) + "\n")
            for s in first_spans:
                fh.write(json.dumps(s) + "\n")
        print(f"spans of the first traced pass: {span_file.relative_to(ROOT)}")
        metrics, units = layer, PER_LAYER
        result["per_layer"] = layer
    result_file = RUNS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    result_file.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


def _print_trace(workload, summaries, layer, overhead, run_s, met) -> None:
    names = sorted({k[: -len(".calls")] for s in summaries for k in s if k.endswith(".calls")})
    print("traced passes, per pass (median): calls, busy s, self s")
    for name in names:
        get = lambda key: statistics.median(s.get(f"{name}.{key}", 0.0) for s in summaries)
        timed = f"{name}.busy_s" in summaries[0]
        times = f"{get('busy_s'):>10.4f} {get('self_s'):>10.4f}" if timed else "   (counted only)"
        print(f"  {name:<40} {get('calls'):>10.0f} {times}")
    print(f"sweep pool efficiency {layer['cli.sweep.pool_efficiency']:.3f}; "
          f"step-count scan ratio {layer['witness.choose_step_count.scan_ratio']:.2f}")
    print("self time per layer (s per pass):")
    for module in tracing.LAYERS:
        print(f"  {module:<12} {layer[f'layer.{module}.self_s']:.4f}")
    print(f"tracing overhead: {overhead:+.4f} s per pass ({overhead / run_s:+.1%} of untraced run_s)")
    print(f"predicted split: {tracing.PREDICTIONS[workload]}: {'met' if met else 'NOT MET'}")
    print(f"  dense_trotter_apply share {layer['trotter.dense_trotter_apply.share']:.3f}, "
          f"calls {layer['trotter.dense_trotter_apply.calls']:.0f}; "
          f"semigroup_apply share of dense classical audits "
          f"{layer['spaces.semigroup_apply.dense_audit_share']:.3f}")
    print("layer rows at the baseline sizes (untraced, median):")
    for name, value in layer.items():
        if name.startswith("row."):
            print(f"  {name[4:]:<36} {value:.6g} s")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            outcome = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            outcome = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        summary["correct"] = summary["correct"] and outcome["correct"] and proc.returncode == 0
        summary["attempted"] += outcome["attempted"]
        summary["failed"] += outcome["failed"]
        summary["workloads"][workload] = outcome["metrics"]
        print()
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
