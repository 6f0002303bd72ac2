"""Command-line surface: exit codes, CSV layout, artifact verification."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semigroup_lab
from semigroup_lab.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_OVERFLOW,
    EXIT_TRUNCATION,
    main,
)
from semigroup_lab.serialize import (
    CONFIG_SCHEMA,
    cert_from_dict,
    cert_to_dict,
    dumps_canonical,
    load_json,
)

FINAL_ERR_BOUND = 1e-3

# Artifacts written by the shipped configs at commit 7371cd3, the last to
# write certificates under schema semigroup-lab/cert/1.
V1_DATA = Path(__file__).parent / "data"


def shipped_config(name):
    return json.loads(
        (Path(semigroup_lab.__file__).parent / "configs" / f"{name}.config.json").read_text()
    )


K5_CONFIG = shipped_config("blowup_k5")


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    return lines[0], header, rows


def test_limit_check_writes_schema_and_converges(tmp_path):
    rc = main(["limit-check", "--config", "two_point", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    schema_line, header, rows = read_csv(tmp_path / "two_point.limit.csv")
    assert schema_line == "# schema=semigroup-lab/limit-csv/1"
    assert "steps" in header and "err_vs_limit" in header
    assert float(rows[-1]["err_vs_limit"]) <= FINAL_ERR_BOUND


def test_limit_check_reports_matrix_gap(tmp_path):
    rc = main(["limit-check", "--config", "bounded_oracle", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    _, header, rows = read_csv(tmp_path / "bounded_oracle.limit.csv")
    assert "product_gap" in header
    assert float(rows[-1]["product_gap"]) <= 1e-8


def test_limit_check_is_deterministic(tmp_path):
    for sub in ("a", "b"):
        rc = main(["limit-check", "--config", "two_point", "--out", str(tmp_path / sub)])
        assert rc == EXIT_OK
    first = (tmp_path / "a" / "two_point.limit.csv").read_bytes()
    second = (tmp_path / "b" / "two_point.limit.csv").read_bytes()
    assert first == second


def test_seed_override_changes_sweep_rows(tmp_path):
    base = ["sweep", "--config", "sweep_bounded"]
    assert main(base + ["--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(base + ["--out", str(tmp_path / "b"), "--seed", "123"]) == EXIT_OK
    first = (tmp_path / "a" / "sweep_bounded.sweep.csv").read_bytes()
    second = (tmp_path / "b" / "sweep_bounded.sweep.csv").read_bytes()
    assert first != second


def test_limit_check_overflow_keeps_csv_header(tmp_path, capsys):
    # the limit is exp(360), but the n-step product is about exp(720) / 2^n
    # and overflows for every n <= 8
    data = {
        "schema": CONFIG_SCHEMA,
        "name": "overflowing",
        "seed": 0,
        "space": {"dim": 2, "p": 2.0},
        "generator": {"kind": "dense", "matrix": [[720.0, 0.0], [0.0, 0.0]]},
        "functional": {"kind": "values", "values": [0.5, 0.5]},
        "vector": {"kind": "values", "values": [1.0, 1.0]},
        "projection": {"kind": "rank_one"},
        "time": 1.0,
        "schedule": {"j_min": 1, "j_max": 3},
    }
    cfg = tmp_path / "overflowing.config.json"
    cfg.write_text(json.dumps(data))
    rc = main(["limit-check", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_OVERFLOW
    assert "overflow after 0 rows: alternating product" in capsys.readouterr().err
    schema_line, header, rows = read_csv(tmp_path / "overflowing.limit.csv")
    assert schema_line == "# schema=semigroup-lab/limit-csv/1"
    assert header[-1] == "product_gap"
    assert rows == []


def test_sweep_overflow_keeps_csv_header(tmp_path):
    # 2^1024 steps is too large a count to divide a time by, in every trial
    cfg = write_config(
        tmp_path,
        "huge_steps",
        schedule={"j_min": 1024, "j_max": 1024},
        sweep={"trials": 2, "times": [1.0]},
    )
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OVERFLOW
    schema_line, header, rows = read_csv(tmp_path / "huge_steps.sweep.csv")
    assert schema_line == "# schema=semigroup-lab/sweep-csv/1"
    assert header[0] == "trial"
    assert rows == []


def test_witness_truncation_saves_partial(tmp_path, capsys):
    rc = main(["witness", "--config", "bounded_contrapositive", "--out", str(tmp_path)])
    assert rc == EXIT_TRUNCATION
    err = capsys.readouterr().err
    assert "witness build failed" in err
    partial = tmp_path / "bounded_contrapositive.cert.json"
    assert partial.exists()
    assert main(["verify", str(partial)]) == EXIT_OK


def test_split_audit_build_failure_exits_with_its_cause(tmp_path, capsys):
    # a split audit that builds its own certificate on the bounded dense
    # generator stops at stage 1, like the witness command, and writes no report
    data = shipped_config("bounded_contrapositive")
    data["renorm"] = {"kind": "split", "vector_samples": 100}
    cfg = tmp_path / "split_bounded.config.json"
    cfg.write_text(json.dumps(data))
    rc = main(["renorm-audit", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_TRUNCATION
    assert "witness build failed: direction search at stage 1" in capsys.readouterr().err
    assert not (tmp_path / "split_bounded.report.json").exists()


def test_witness_and_verify_roundtrip(tmp_path, capsys):
    rc = main(["witness", "--config", "blowup_k5", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    cert_path = tmp_path / "blowup_k5.cert.json"
    assert main(["verify", str(cert_path)]) == EXIT_OK

    payload = json.loads(cert_path.read_text())
    payload["witness_errors"][-1] = {"~f": (0.4999).hex()}
    tampered = tmp_path / "tampered.cert.json"
    tampered.write_text(json.dumps(payload))
    assert main(["verify", str(tampered)]) == EXIT_INVALID

    del payload["eps"]
    tampered.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", str(tampered)]) == EXIT_INVALID
    assert "eps: missing" in capsys.readouterr().out


def test_renorm_audit_classical_report(tmp_path):
    rc = main(["renorm-audit", "--config", "classical_renorm", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    report_path = tmp_path / "classical_renorm.report.json"
    assert report_path.exists()
    assert main(["verify", str(report_path)]) == EXIT_OK


def test_verify_rejects_unknown_payload(tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"schema": "semigroup-lab/other/1"}))
    assert main(["verify", str(bogus)]) == EXIT_INVALID
    missing = tmp_path / "missing.json"
    assert main(["verify", str(missing)]) == EXIT_INVALID


@pytest.mark.parametrize(
    "name",
    ["blowup_k5.cert.json", "bounded_contrapositive.cert.json", "split_renorm.report.json"],
)
def test_v1_artifacts_pass_verify(name):
    assert main(["verify", str(V1_DATA / name)]) == EXIT_OK


@pytest.mark.parametrize("config", ["blowup_k5", "bounded_contrapositive"])
def test_v1_certificate_reencodes_to_a_fresh_build(tmp_path, config):
    main(["witness", "--config", config, "--out", str(tmp_path)])
    fresh = (tmp_path / f"{config}.cert.json").read_text()
    old = load_json(V1_DATA / f"{config}.cert.json")
    assert old["schema"] == "semigroup-lab/cert/1"
    assert json.loads(fresh)["schema"] == "semigroup-lab/cert/2"
    assert dumps_canonical(cert_to_dict(cert_from_dict(old))) == fresh


def test_bad_config_exits_with_config_code(tmp_path):
    bad = tmp_path / "bad.config.json"
    bad.write_text(json.dumps({"schema": CONFIG_SCHEMA, "space": {"dim": "x"}}))
    rc = main(["limit-check", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    rc = main(["limit-check", "--config", "no_such_config", "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG


def test_witness_without_witness_section_fails_cleanly(tmp_path):
    data = {
        "schema": CONFIG_SCHEMA,
        "name": "no_witness",
        "seed": 0,
        "space": {"dim": 2, "p": 2.0},
        "schedule": {"j_min": 0, "j_max": 2},
    }
    cfg = tmp_path / "no_witness.config.json"
    cfg.write_text(json.dumps(data))
    rc = main(["witness", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG


def run_python(args, blas_threads=None):
    """Run a fresh interpreter on the package with OPENBLAS_NUM_THREADS set or unset."""
    unset = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in unset}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    package_root = str(Path(semigroup_lab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    cmd = [sys.executable, *args]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)


def run_cli_subprocess(args, blas_threads):
    return run_python(["-m", "semigroup_lab.cli", *args], blas_threads)


def test_dense_report_replays_across_blas_threads(tmp_path):
    rng = np.random.default_rng(66)
    raw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    matrix = raw / np.linalg.norm(raw, 2) - 1.5 * np.eye(6)
    config = tmp_path / "dense_audit.config.json"
    config.write_text(json.dumps({
        "schema": CONFIG_SCHEMA,
        "seed": 3,
        "space": {"dim": 6, "p": 2},
        "generator": {
            "kind": "dense",
            "matrix": [[[z.real, z.imag] for z in row] for row in matrix],
        },
        "renorm": {"kind": "classical", "omega": 0.5, "vector_samples": 1000},
    }))
    reports = {}
    for threads in ("1", None):
        out = tmp_path / f"threads-{threads}"
        args = ["renorm-audit", "--config", str(config), "--out", str(out)]
        done = run_cli_subprocess(args, threads)
        assert done.returncode == EXIT_OK, done.stdout + done.stderr
        reports[threads] = out / "dense_audit.report.json"
    # each report is verified under the other thread setting
    for written, replay in (("1", None), (None, "1")):
        done = run_cli_subprocess(["verify", str(reports[written])], replay)
        assert done.returncode == EXIT_OK, done.stdout + done.stderr
    assert reports["1"].read_bytes() == reports[None].read_bytes()


def write_config(tmp_path, name, **overrides):
    data = {
        "schema": CONFIG_SCHEMA,
        "seed": 0,
        "space": {"dim": 2, "p": 2},
        "generator": {"kind": "diagonal", "law": {"kind": "table", "values": [0.0, 2.0]}},
        "functional": {"kind": "values", "values": [0.5, 0.5]},
        "vector": {"kind": "values", "values": [1.0, 1.0]},
        "schedule": {"j_min": 0, "j_max": 2},
    }
    data.update(overrides)
    path = tmp_path / f"{name}.config.json"
    path.write_text(json.dumps(data))
    return path


def test_limit_check_zero_step_pairing(tmp_path):
    # exp(-1000/n) - 1 rounds to -1 for n <= 16: the step pairing is 0
    cfg = write_config(
        tmp_path,
        "vanishing",
        generator={"kind": "diagonal", "law": {"kind": "table", "values": [-1000.0, -1000.0]}},
        functional={"kind": "values", "values": [1.0, 0.0]},
        vector={"kind": "values", "values": [1.0, 0.0]},
        schedule={"j_min": 0, "j_max": 6},
    )
    assert main(["limit-check", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    _, _, rows = read_csv(tmp_path / "vanishing.limit.csv")
    assert len(rows) == 7
    assert float(rows[0]["step_re"]) == 0.0
    assert rows[0]["log_re"] == "-inf"
    assert all(row["value_re"] == row["value_im"] == "" for row in rows)


def test_limit_csv_numeric_cells_parse_as_floats(tmp_path):
    runs = [
        ("limit-check", "two_point", "limit"),
        ("limit-check", "bounded_oracle", "limit"),
        ("sweep", "sweep_bounded", "sweep"),
    ]
    for command, config, suffix in runs:
        assert main([command, "--config", config, "--out", str(tmp_path)]) == EXIT_OK
        _, header, rows = read_csv(tmp_path / f"{config}.{suffix}.csv")
        assert rows, config
        numeric = [name for name in header if name != "path"]
        for row in rows:
            for name in numeric:
                if row[name]:
                    float(row[name])


@pytest.mark.parametrize(
    "command, overrides, field",
    [
        ("limit-check", {"tolerance": "0.5"}, "tolerance"),
        ("limit-check", {"tolerance": "10"}, "tolerance"),
        ("limit-check", {"tolerance": "1e5"}, "tolerance"),
        ("limit-check", {"tolerance": "0x1p5000"}, "tolerance"),
        (
            "limit-check",
            {"generator": {"kind": "diagonal", "law": {"kind": "table", "values": [0.0, 1.0, 2.0]}}},
            "generator.law",
        ),
        (
            "limit-check",
            {
                "space": {"dim": 12, "p": 2},
                "generator": {"kind": "diagonal", "law": {"kind": "imag_double_exp", "param": 10}},
            },
            "generator.law",
        ),
        (
            "limit-check",
            {"generator": {"kind": "dense", "matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}},
            "generator.matrix",
        ),
        ("sweep", {"sweep": {"trials": "x"}}, "sweep.trials"),
        ("sweep", {"sweep": {"times": 3}}, "sweep.times"),
        ("sweep", {"sweep": {"generator_norm": "2.0"}}, "sweep.generator_norm"),
        (
            "renorm-audit",
            {"renorm": {"kind": "classical", "omega": 3.0, "grid_points": 1}},
            "renorm.grid_points",
        ),
        (
            "renorm-audit",
            {"renorm": {"kind": "classical", "omega": 3.0, "time_samples": 0}},
            "renorm.time_samples",
        ),
        ("renorm-audit", {"renorm": {"kind": "classical", "omega": 2.0}}, "renorm.omega"),
        (
            "renorm-audit",
            {"renorm": {"kind": "classical", "omega": 3.0, "vector_samples": 0}},
            "renorm.vector_samples",
        ),
        (
            "witness",
            {**K5_CONFIG, "witness": {"eps": 0.1, "stages": 0, "validation_samples": -1}},
            "witness.validation_samples",
        ),
        (
            "witness",
            {**K5_CONFIG, "witness": {"eps": 0.1, "stages": 0, "j_max": -3}},
            "witness.j_max",
        ),
        ("sweep", {"sweep": {"trials": -2}}, "sweep.trials"),
        ("sweep", {"sweep": {"times": []}}, "sweep.times"),
        (
            "sweep",
            {"sweep": {"trials": 1, "projection_norm_cap": 0.5}},
            "sweep.projection_norm_cap",
        ),
        (
            "limit-check",
            {"vector": {"kind": "basis", "index": 1, "gauge": "no"}},
            "vector.gauge",
        ),
        (
            "limit-check",
            {"vector": {"kind": "basis", "index": 1, "gauge": False}},
            "vector",
        ),
        ("limit-check", {"vector": {"kind": "values", "values": [3.0, 1.0]}}, "vector"),
        ("sweep", {"seed": -1, "sweep": {"trials": 1}}, "seed"),
        ("renorm-audit", {"renorm": {"kind": "classical", "omega": "inf"}}, "renorm.omega"),
        (
            "renorm-audit",
            {"renorm": {"kind": "classical", "omega": math.nan, "tol": -1.0}},
            "renorm.omega",
        ),
        (
            "renorm-audit",
            {"renorm": {"kind": "classical", "omega": 3.0, "tol": math.nan}},
            "renorm.tol",
        ),
        (
            "renorm-audit",
            {**K5_CONFIG, "renorm": {"kind": "split", "slack": math.nan, "vector_samples": 10}},
            "renorm.slack",
        ),
        ("sweep", {"sweep": {"trials": 1, "generator_norm": math.nan}}, "sweep.generator_norm"),
        ("sweep", {"sweep": {"trials": 1, "times": [1.0, math.nan]}}, "sweep.times"),
        ("sweep", {"sweep": {"trials": 1, "generator_norm": -1.0}}, "sweep.generator_norm"),
        (
            "witness",
            {**K5_CONFIG, "witness": {**K5_CONFIG["witness"], "margin": -5.0}},
            "witness.margin",
        ),
        (
            "witness",
            {**K5_CONFIG, "witness": {**K5_CONFIG["witness"], "margin": math.nan}},
            "witness.margin",
        ),
    ],
    ids=[
        "decimal_string",
        "digit_string",
        "exponent_string",
        "hex_overflow",
        "table_length",
        "law_overflow",
        "matrix_shape",
        "sweep_trials",
        "sweep_times",
        "sweep_decimal_string",
        "grid_points_one",
        "time_samples_zero",
        "omega_at_spectral_bound",
        "vector_samples_zero",
        "validation_samples_negative",
        "witness_j_max_negative",
        "sweep_trials_negative",
        "sweep_times_empty",
        "projection_norm_cap_below_one",
        "gauge_string",
        "ungauged_basis_vector",
        "vector_pairing_not_one",
        "seed_negative",
        "omega_inf",
        "omega_nan",
        "tol_nan",
        "slack_nan",
        "generator_norm_nan",
        "sweep_time_nan",
        "generator_norm_negative",
        "margin_negative",
        "margin_nan",
    ],
)
def test_malformed_config_is_a_config_error(tmp_path, capsys, command, overrides, field):
    cfg = write_config(tmp_path, "malformed", **overrides)
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert f"config error: {field}: " in capsys.readouterr().err


def test_negative_seed_override_is_a_config_error(tmp_path, capsys):
    rc = main(["witness", "--config", "blowup_k5", "--out", str(tmp_path), "--seed", "-3"])
    assert rc == EXIT_CONFIG
    assert "config error: seed: " in capsys.readouterr().err


def drop_eps(path):
    payload = load_json(V1_DATA / "blowup_k5.cert.json")
    del payload["eps"]
    path.write_text(json.dumps(payload))


def inflate_radius(path):
    payload = load_json(V1_DATA / "blowup_k5.cert.json")
    radius = float.fromhex(payload["stages"][3]["stability_radius"]["~f"])
    payload["stages"][3]["stability_radius"] = {"~f": (100.0 * radius).hex()}
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize(
    "prepare, code, message",
    [
        (None, EXIT_CONFIG, "config error: renorm.certificate: cannot read "),
        (
            lambda path: path.write_text("{not json"),
            EXIT_CONFIG,
            "config error: renorm.certificate: cannot read ",
        ),
        (drop_eps, EXIT_INVALID, "certificate invalid: eps: missing"),
        (inflate_radius, EXIT_INVALID, "stability radius fails its certificate"),
    ],
    ids=["missing_file", "not_json", "missing_eps", "inflated_radius"],
)
def test_split_audit_certificate_file_errors(tmp_path, capsys, prepare, code, message):
    cert = tmp_path / "given.cert.json"
    if prepare is not None:
        prepare(cert)
    renorm = {"kind": "split", "certificate": cert.name, "vector_samples": 10}
    cfg = write_config(tmp_path, "given_cert", renorm=renorm)
    rc = main(["renorm-audit", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == code
    err = capsys.readouterr().err
    assert message in err
    if code == EXIT_INVALID:
        assert err.startswith("certificate invalid: ")
    assert not (tmp_path / "given_cert.report.json").exists()


def test_readme_library_sketch_runs(tmp_path):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    sketch = readme.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    script = tmp_path / "sketch.py"
    script.write_text(sketch)
    done = run_python([str(script)])
    assert done.returncode == 0, done.stderr
    assert float(done.stdout.split()[-1]) < 2e-6
