"""Tests of the benchmark's own machinery.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from semigroup_lab import cli  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_a_function_of_the_seed(tmp_path, workload):
    def files(seed, where):
        where.mkdir()
        jobs = workloads.generate(workload, seed, where)
        return jobs, {p.name: p.read_bytes() for p in sorted(where.iterdir())}

    jobs, first = files(7, tmp_path / "a")
    _, again = files(7, tmp_path / "b")
    _, other = files(8, tmp_path / "c")
    assert first == again
    assert first != other
    assert len({j.name for j in jobs}) == len(jobs)
    assert {j.config.name for j in jobs if j.config} == set(first)


def _ladder_jobs(tmp_path):
    jobs = {j.name: j for j in workloads.generate("blowup-ladders", 3, tmp_path)}
    return jobs["ladder-k5-0"], jobs["ladder-verify-ladder-k5-0"]


def _run_checked(job, out_dir, artifacts):
    result = harness.run_job(cli, job, out_dir, artifacts)
    harness.check(result)
    return result


def _corrupt_stage_steps(path: Path) -> None:
    payload = json.loads(path.read_text())
    payload["stages"][1]["steps"] += 1
    path.write_text(json.dumps(payload))


def _truncate(path: Path) -> None:
    path.write_text(path.read_text()[:200])


@pytest.mark.parametrize("corrupt", [_corrupt_stage_steps, _truncate])
def test_corrupted_certificate_counts_as_a_failure(tmp_path, corrupt):
    witness, verify = _ladder_jobs(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    built = _run_checked(witness, out, {})
    assert built.failures == []
    artifacts = {witness.name: built.artifact}
    assert _run_checked(verify, out, artifacts).failures == []

    corrupt(built.artifact)
    result = _run_checked(verify, out, artifacts)
    assert result.exit_code == 6
    assert "artifact does not verify from disk" in result.failures


def test_bad_invocations_are_failures_not_crashes(tmp_path):
    witness, _ = _ladder_jobs(tmp_path)
    missing = workloads.Job("gone", "witness", "witness_s", config=tmp_path / "nope.json",
                            output="gone.cert.json")
    result = _run_checked(missing, tmp_path, {})
    assert result.exit_code == 2
    assert result.failures

    unknown = workloads.Job("odd", "no-such-command", "witness_s", config=witness.config)
    result = _run_checked(unknown, tmp_path, {})
    assert result.unexpected_exit and result.failures


def test_rerun_with_different_bytes_is_flagged(tmp_path):
    witness, verify = _ladder_jobs(tmp_path)
    bench = harness.Bench(cli, [witness, verify], tmp_path / "work", lambda: 1.0)
    assert bench.run_pass().failed == 0
    key = witness.name
    bench.reference[key] = bench.reference[key] + b" "
    assert bench.run_pass().failed == 1
    assert bench.failures() == [f"pass 1 {key}: output differs from the first pass"]


def test_gap_above_tolerance_is_a_failure(tmp_path):
    job = next(j for j in workloads.generate("blowup-ladders", 3, tmp_path)
               if j.command == "limit-check")
    result = _run_checked(job, tmp_path, {})
    assert result.failures == []
    strict = workloads.Job(job.name, job.command, job.metric, config=job.config,
                           output=job.output, tolerance=0.0)
    result = _run_checked(strict, tmp_path, {})
    assert any("above" in msg for msg in result.failures)


def _span(sid, name, start, end, parent, job="j", thread=1, cpu=0.0):
    return tracing.Span(sid, name, start, end, parent, job, thread, True, 0, cpu)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, "cli.sweep", 0.0, 10.0, 0),
        # two pool threads overlapping on [2, 6] and [4, 8]
        _span(2, "trotter.dense_trotter_apply", 2.0, 6.0, 1, thread=2, cpu=3.0),
        _span(3, "trotter.dense_trotter_apply", 4.0, 8.0, 1, thread=3, cpu=2.0),
    ]
    out = tracing.summarize(spans, {}, wall=10.0, pool_size=2, dense_audit_jobs=set())
    assert out["cli.sweep.self_s"] == pytest.approx(4.0)
    assert out["trotter.dense_trotter_apply.busy_s"] == pytest.approx(8.0)
    assert out["trotter.dense_trotter_apply.share"] == pytest.approx(0.6)
    assert out["cli.sweep.pool_efficiency"] == pytest.approx(5.0 / 20.0)
    assert out["layer.cli.self_s"] == pytest.approx(4.0)


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    import semigroup_lab.renorm as renorm
    import semigroup_lab.spaces as spaces

    original = spaces.semigroup_apply
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert renorm.semigroup_apply is spaces.semigroup_apply is not original
        witness, _ = _ladder_jobs(tmp_path)
        harness.run_job(cli, witness, tmp_path, {}, tracer)
    finally:
        tracer.uninstall()
    assert renorm.semigroup_apply is original
    spans, counts = tracer.drain()
    names = {s.name for s in spans}
    assert {"cli.witness", "witness.build_certificate", "serialize.save_json"} <= names
    assert counts["spaces.cexpm1"] > 0
    root = next(s for s in spans if s.name == "cli.witness")
    build = next(s for s in spans if s.name == "witness.build_certificate")
    assert build.parent == root.sid and build.job == witness.name


def test_benchmark_json_lists_the_metrics_a_run_prints():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
