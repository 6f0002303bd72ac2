"""Command-line surface: exit codes, CSV layout, artifact verification."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

import semigroup_lab
from semigroup_lab import ConfigError, dual_norm, load_config
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
# write certificates under schema semigroup-lab/cert/1, the
# classical_renorm report as commit 4add2e4 wrote it, the two diagonal
# ladders and the /2 K = 5 certificate as written once every stored product
# value came from the one log-domain carrier, trotter.batched_log_values,
# the bounded_oracle and sweep CSVs as written once every dense exponential
# came from spaces.matrix_expm1, and the /2 split_renorm report as commit
# 4aaab96 wrote it.
V1_DATA = Path(__file__).parent / "data"

# A deep imaginary ladder shaped like perfbench's ladder-scalar-122: entries
# i theta_m up to 2^92, real weights f_m x_m of mixed signs summing to 1,
# step counts 2^0 .. 2^122.
IMAG_LADDER_122 = {
    "seed": 0,
    "tolerance": 1e-8,
    "space": {"dim": 5, "p": 2},
    "generator": {
        "kind": "diagonal",
        "law": {
            "kind": "table",
            "values": [
                [0.0, 1.4126762884975603],
                [0.0, 9125228.450365318],
                [0.0, 83653816070559.36],
                [0.0, 6.520739027892925e20],
                [0.0, 6.988275940243721e27],
            ],
        },
    },
    "functional": {
        "kind": "values",
        "values": [
            0.7118900813699944,
            1.7656116147749372,
            1.2558868351652994,
            0.8731363006371201,
            1.3678059509517557,
        ],
    },
    "vector": {
        "kind": "values",
        "values": [
            1.4047110933371811,
            5.973163384526946e-08,
            -4.911526540376881e-15,
            1.4364444796942092e-21,
            -8.546348407085627e-29,
        ],
    },
    "time": 1.0,
    "schedule": {"j_min": 0, "j_max": 122},
}


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


def test_dense_ladder_keeps_rows_before_an_undividable_step_count(tmp_path, capsys):
    # t / 2^1024 is the first time the ladder cannot form; the dense defects
    # of the rows before it still come from one stacked call
    cfg = write_config(
        tmp_path,
        "dense_huge_steps",
        generator={"kind": "dense", "matrix": [[-1.0, 2.0], [0.5, -0.25]]},
        schedule={"j_min": 1020, "j_max": 1026},
    )
    assert main(["limit-check", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OVERFLOW
    assert "overflow after 4 rows: int too large to convert to float" in capsys.readouterr().err
    _, _, rows = read_csv(tmp_path / "dense_huge_steps.limit.csv")
    assert [int(row["steps"]) for row in rows] == [2**j for j in range(1020, 1024)]


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


@pytest.mark.parametrize("command", ["limit-check", "sweep"])
def test_a_far_schedule_exponent_forms_no_huge_step_count(tmp_path, capsys, command):
    # 2^(10^8) would be a 12.5 MB integer; both cap the exponent at 1024, the
    # first count no time divides by, and stop there as they do at j = 1024
    far = {"j_min": 10**8, "j_max": 10**8}
    cfg = write_config(tmp_path, "far", schedule=far, sweep={"trials": 2, "times": [1.0]})
    tracemalloc.start()
    try:
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == EXIT_OVERFLOW
    assert peak < 2**20
    if command == "limit-check":
        assert "overflow after 0 rows: int too large to convert to float" in capsys.readouterr().err


def test_sweep_overflow_keeps_the_rows_before_it(tmp_path):
    # with one step, |hA| = 800 at t = 400 fails the overflow check of the
    # trial's stacked defects; each trial still writes its row at t = 1, has
    # none at t = 2, and exits 3
    one_step = {"j_min": 0, "j_max": 0}
    sweep = {"trials": 3, "generator_norm": 2.0}
    short = write_config(tmp_path, "short", schedule=one_step, sweep=dict(sweep, times=[1.0]))
    long = write_config(
        tmp_path, "long", schedule=one_step, sweep=dict(sweep, times=[1.0, 400.0, 2.0])
    )
    assert main(["sweep", "--config", str(short), "--out", str(tmp_path)]) == EXIT_OK
    assert main(["sweep", "--config", str(long), "--out", str(tmp_path)]) == EXIT_OVERFLOW
    _, _, rows = read_csv(tmp_path / "long.sweep.csv")
    assert [(row["trial"], row["time"]) for row in rows] == [(str(k), "1.0") for k in range(3)]
    assert read_csv(tmp_path / "long.sweep.csv") == read_csv(tmp_path / "short.sweep.csv")


def test_limit_check_oracle_overflow_writes_no_row(tmp_path, capsys):
    # the bounded-limit oracle exp(800) overflows; the verdict reads the
    # rows written, of which there are none
    data = shipped_config("bounded_oracle")
    data["generator"]["matrix"] = [[400.0 * v for v in row] for row in data["generator"]["matrix"]]
    data["schedule"] = {"j_min": 12, "j_max": 14}
    cfg = tmp_path / "big_oracle.config.json"
    cfg.write_text(json.dumps(data))
    assert main(["limit-check", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OVERFLOW
    out, err = capsys.readouterr()
    assert "overflow after 0 rows: bounded limit oracle overflowed at t = 1.0" in err
    assert "final error inf above tolerance" in out
    assert read_csv(tmp_path / "big_oracle.limit.csv")[2] == []


def test_sweep_oracle_overflow_keeps_the_rows_before_it(tmp_path):
    # at generator norm 2000 trial 3's oracle overflows at t = 2: the trial
    # keeps its rows at t = 0.5 and 1, writes no NaN row, and the sweep goes on
    data = shipped_config("sweep_bounded")
    data["sweep"]["generator_norm"] = 2000.0
    cfg = tmp_path / "big_sweep.config.json"
    cfg.write_text(json.dumps(data))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OVERFLOW
    _, _, rows = read_csv(tmp_path / "big_sweep.sweep.csv")
    assert all(math.isfinite(float(row["product_gap"])) for row in rows)
    assert [row["time"] for row in rows if row["trial"] == "3"] == ["0.5", "1.0"]
    assert rows[-1]["trial"] == "11"


def test_witness_truncation_saves_partial(tmp_path, capsys):
    rc = main(["witness", "--config", "bounded_contrapositive", "--out", str(tmp_path)])
    assert rc == EXIT_TRUNCATION
    err = capsys.readouterr().err
    assert "witness build failed" in err
    partial = tmp_path / "bounded_contrapositive.cert.json"
    assert partial.exists()
    assert main(["verify", str(partial)]) == EXIT_OK


def test_witness_exhausted_schedule_saves_partial(tmp_path, capsys):
    # stage 0 needs no step count; stage 1 finds none with j <= 0
    witness = {**K5_CONFIG["witness"], "j_max": 0}
    cfg = write_config(tmp_path, "j_max_zero", **{**K5_CONFIG, "witness": witness})
    assert main(["witness", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_TRUNCATION
    assert "witness build failed: no step count 2^j with j <= 0" in capsys.readouterr().err
    partial = tmp_path / "j_max_zero.cert.json"
    assert len(load_json(partial)["stages"]) == 1
    assert main(["verify", str(partial)]) == EXIT_OK


def test_witness_schedule_past_2_1023_exits_with_truncation(tmp_path, capsys):
    # 2^1023 is the last count a time divides by; a schedule declared past it
    # ends there, and a build that finds no count exits 4 as it would at 1023
    cfg = write_config(
        tmp_path,
        "far_schedule",
        space={"dim": 3, "p": 2},
        generator={"kind": "diagonal", "law": {"kind": "table", "values": [-0.2, [0.1, 0.7], [0.0, 5.0]]}},
        functional={"kind": "values", "values": [0.6, 0.15, -0.375]},
        vector={"kind": "basis", "index": 1},
        witness={"eps": 5e-324, "stages": 0, "j_max": 1030},
    )
    assert main(["witness", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_TRUNCATION
    assert "witness build failed: no step count 2^j with j <= 1023" in capsys.readouterr().err


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


@pytest.mark.parametrize("payload", [[1, 2], 5], ids=["array", "number"])
def test_verify_refuses_a_payload_that_is_not_an_object(tmp_path, capsys, payload):
    path = tmp_path / "not_an_object.json"
    path.write_text(json.dumps(payload))
    assert main(["verify", str(path)]) == EXIT_INVALID
    assert capsys.readouterr().out == f"FAIL {path}: expected an object, got {payload!r}\n"


@pytest.mark.parametrize(
    "name",
    [
        "blowup_k5.cert.json",
        "bounded_contrapositive.cert.json",
        "split_renorm.report.json",
        "classical_renorm.report.json",
    ],
)
def test_v1_artifacts_pass_verify(name):
    assert main(["verify", str(V1_DATA / name)]) == EXIT_OK


def test_shipped_classical_report_is_unchanged(tmp_path):
    assert main(["renorm-audit", "--config", "classical_renorm", "--out", str(tmp_path)]) == EXIT_OK
    written = (tmp_path / "classical_renorm.report.json").read_bytes()
    assert written == (V1_DATA / "classical_renorm.report.json").read_bytes()


def test_fresh_split_report_is_unchanged(tmp_path):
    # one run holds the certificate build, its verify, the split audit and
    # the canonical writer to the bytes they wrote before
    assert main(["renorm-audit", "--config", "split_renorm", "--out", str(tmp_path)]) == EXIT_OK
    written = (tmp_path / "split_renorm.report.json").read_bytes()
    assert written == (V1_DATA / "split_renorm.v2.report.json").read_bytes()


@pytest.mark.parametrize(
    "command, name",
    [("limit-check", "bounded_oracle.limit.csv"), ("sweep", "sweep_bounded.sweep.csv")],
)
def test_shipped_dense_csv_is_unchanged(tmp_path, command, name):
    config = name.split(".")[0]
    assert main([command, "--config", config, "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / name).read_bytes() == (V1_DATA / name).read_bytes()


@pytest.mark.parametrize("name", ["two_point", "imag_ladder_122"])
def test_diagonal_ladder_csv_is_unchanged(tmp_path, name):
    config = name
    if name == "imag_ladder_122":
        config = str(write_config(tmp_path, name, **IMAG_LADDER_122))
    assert main(["limit-check", "--config", config, "--out", str(tmp_path)]) == EXIT_OK
    written = (tmp_path / f"{name}.limit.csv").read_bytes()
    assert written == (V1_DATA / f"{name}.limit.csv").read_bytes()


# Worst deviation of the pinned diagonal ladders from 50-digit mpmath, in
# units of u = 2^-52: log parts 1.3 u of |log|, limit errors 4.0 u of
# |exp(limit)| (the parent's scalar carrier: 1.5 u and 2.5 u).
LADDER_LOG_ROUNDING = 4 * 2.0**-52
LADDER_ERROR_ROUNDING = 8 * 2.0**-52


@pytest.mark.parametrize("name", ["two_point", "imag_ladder_122"])
def test_diagonal_ladder_csv_matches_mpmath(tmp_path, name):
    config = "two_point"
    if name == "imag_ladder_122":
        config = write_config(tmp_path, name, **IMAG_LADDER_122)
    cfg = load_config(config)
    a, f = cfg.generator(), cfg.functional()
    x = cfg.vector(f)
    _, _, rows = read_csv(V1_DATA / f"{name}.limit.csv")
    with mpmath.workdps(50):
        terms = [
            (mpmath.mpc(complex(fm)) * mpmath.mpc(complex(xm)), mpmath.mpc(complex(am)))
            for fm, xm, am in zip(f.coords, x.coords, a.entries)
        ]
        limit = cfg.time * mpmath.fsum(w * am for w, am in terms)
        for row in rows:
            n = int(row["steps"])
            h = mpmath.mpf(cfg.time) / n
            log = n * mpmath.log1p(mpmath.fsum(w * mpmath.expm1(h * am) for w, am in terms))
            got = complex(float(row["log_re"]), float(row["log_im"]))
            assert abs(got.real - log.real) <= LADDER_LOG_ROUNDING * abs(log), n
            assert abs(got.imag - log.imag) <= LADDER_LOG_ROUNDING * abs(log), n
            err = abs(mpmath.exp(log) - mpmath.exp(limit))
            bound = LADDER_ERROR_ROUNDING * abs(mpmath.exp(limit))
            assert abs(float(row["err_vs_limit"]) - err) <= bound, n


def test_ladder_past_2_1024_is_lazy(tmp_path, capsys):
    # no step count past 2^1023 divides a time, so j_max = 20000 writes the
    # rows of j_max = 1100 and stops at 2^1024 without forming the rest
    written = []
    for j_max in (1100, 20000):
        cfg = write_config(
            tmp_path, "two_point", **{**shipped_config("two_point"), "schedule": {"j_max": j_max}}
        )
        out = tmp_path / str(j_max)
        assert main(["limit-check", "--config", str(cfg), "--out", str(out)]) == EXIT_OVERFLOW
        assert "overflow after 1024 rows: int too large to convert to float" in capsys.readouterr().err
        written.append((out / "two_point.limit.csv").read_bytes())
    assert written[0] == written[1]


# Fresh /2 builds pinned on their own: the one log-domain carrier moved the
# last bits of the K = 5 ladder's numbers, and of two rungs of its tuned law,
# so the /1 certificate no longer re-encodes to them.
FRESH_V2 = {"blowup_k5": "blowup_k5.v2.cert.json"}


@pytest.mark.parametrize("config", ["blowup_k5", "bounded_contrapositive"])
def test_v1_certificate_reencodes_to_a_fresh_build(tmp_path, config):
    main(["witness", "--config", config, "--out", str(tmp_path)])
    fresh = (tmp_path / f"{config}.cert.json").read_text()
    old = load_json(V1_DATA / f"{config}.cert.json")
    assert old["schema"] == "semigroup-lab/cert/1"
    assert json.loads(fresh)["schema"] == "semigroup-lab/cert/2"
    reencoded = dumps_canonical(cert_to_dict(cert_from_dict(old)))
    assert json.loads(reencoded)["schema"] == "semigroup-lab/cert/2"
    assert dumps_canonical(cert_to_dict(cert_from_dict(json.loads(reencoded)))) == reencoded
    if config in FRESH_V2:
        assert fresh == (V1_DATA / FRESH_V2[config]).read_text()
    else:
        assert reencoded == fresh


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


SCIPY_PROBE = """
import json
import sys
from semigroup_lab.cli import main

for args in json.loads(sys.argv[1]):
    main(args)
    print("scipy" in sys.modules)
"""


def scipy_flags(runs):
    """Whether scipy is loaded after each CLI run of ``runs``, in one fresh
    interpreter."""
    result = run_python(["-c", SCIPY_PROBE, json.dumps(runs)])
    assert result.returncode == 0, result.stderr
    return [line for line in result.stdout.splitlines() if line in ("True", "False")]


def test_diagonal_runs_never_import_scipy(tmp_path):
    out = str(tmp_path)
    runs = [
        ["witness", "--config", "blowup_k5", "--out", out],
        ["verify", out + "/blowup_k5.cert.json"],
        ["renorm-audit", "--config", "split_renorm", "--out", out],
        ["renorm-audit", "--config", "classical_renorm", "--out", out],
    ]
    assert scipy_flags(runs) == ["False"] * len(runs)


def test_dense_runs_never_import_scipy(tmp_path):
    # every dense exponential (defects, propagators, the bounded oracle)
    # comes from the package's own kernel
    out = str(tmp_path)
    runs = [
        ["limit-check", "--config", "bounded_oracle", "--out", out],
        ["sweep", "--config", "sweep_bounded", "--out", out],
        ["verify", str(V1_DATA / "bounded_contrapositive.cert.json")],
    ]
    assert scipy_flags(runs) == ["False"] * len(runs)


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


def test_diagonal_overflow_counts_only_weighted_entries(tmp_path, capsys):
    # exp(1000/n) overflows for n = 1; a coordinate that f(x) never weights
    # drops out of every row, one it weights stops the ladder before a row
    ladder = {
        "generator": {"kind": "diagonal", "law": {"kind": "table", "values": [0.0, 1000.0]}},
        "schedule": {"j_min": 0, "j_max": 4},
    }
    unweighted = write_config(
        tmp_path, "unweighted", functional={"kind": "values", "values": [1.0, 0.0]}, **ladder
    )
    assert main(["limit-check", "--config", str(unweighted), "--out", str(tmp_path)]) == EXIT_OK
    _, _, rows = read_csv(tmp_path / "unweighted.limit.csv")
    assert [row["log_re"] for row in rows] == ["0.0"] * 5
    weighted = write_config(tmp_path, "weighted", **ladder)
    assert main(["limit-check", "--config", str(weighted), "--out", str(tmp_path)]) == EXIT_OVERFLOW
    assert "overflow after 0 rows: diagonal orbit at t = 1 overflows" in capsys.readouterr().err


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
        ("sweep", {"sweep": {"trials": 1, "times": {"0x1p0": 5, "0x1p1": 7}}}, "sweep.times"),
        ("sweep", {"sweep": {"trials": 1, "times": "0x1p0"}}, "sweep.times"),
        ("limit-check", {"tolerance": math.nan}, "tolerance"),
        (
            "witness",
            {**K5_CONFIG, "functional": {"kind": "geometric", "scale": 1e308, "base": 2.0}},
            "functional",
        ),
        (
            "renorm-audit",
            {"renorm": {"kind": "classical", "omega": 3.0, "tol": -1e-12}},
            "renorm.tol",
        ),
        ("limit-check", {"tolerance": -1.0}, "tolerance"),
        ("limit-check", {"time": math.nan}, "time"),
        ("limit-check", {"time": math.inf}, "time"),
        ("limit-check", {"vector": {"kind": "values", "values": [math.nan, 1.0]}}, "vector.values"),
        (
            "witness",
            {**K5_CONFIG, "vector": {"kind": "values", "values": [math.nan] + [0.0] * 6}},
            "vector.values",
        ),
        (
            "limit-check",
            {"generator": {"kind": "diagonal", "law": {"kind": "table", "values": [0.0, math.inf]}}},
            "generator.law.values",
        ),
        (
            "limit-check",
            {"generator": {"kind": "diagonal", "law": {"kind": "table", "values": [math.nan, 2.0]}}},
            "generator.law.values",
        ),
        (
            "limit-check",
            {"generator": {"kind": "dense", "matrix": [[math.nan, 0.0], [0.0, 2.0]]}},
            "generator.matrix",
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
        "sweep_times_object",
        "sweep_times_string",
        "tolerance_nan",
        "functional_dual_norm_overflow",
        "tol_negative",
        "tolerance_negative",
        "time_nan",
        "time_inf",
        "vector_nan",
        "k5_vector_nan",
        "table_inf",
        "table_nan",
        "matrix_nan",
    ],
)
def test_malformed_config_is_a_config_error(tmp_path, capsys, command, overrides, field):
    cfg = write_config(tmp_path, "malformed", **overrides)
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert f"config error: {field}: " in capsys.readouterr().err


def test_functional_past_the_sum_of_squares_range_is_no_config_error(tmp_path):
    # |f|_2 = 1e160 sqrt(4/3 (1 - 4^-7)) is a double, though its sum of
    # squares is not; the config check measures it
    big = {"kind": "geometric", "scale": 1e160, "base": 2.0}
    f = load_config(write_config(tmp_path, "big", **{**K5_CONFIG, "functional": big})).functional()
    assert dual_norm(f) == pytest.approx(1e160 * math.sqrt(4.0 / 3.0 * (1.0 - 4.0**-7)), rel=1e-15)


@pytest.mark.parametrize(
    ("name", "scale", "base", "steps"),
    [
        ("blowup_k5", 1e160, 2.0, [1, 2**23]),
        ("blowup_k5", 1e-160, 2.0, [1]),
        ("bounded_contrapositive", 1e160, 16.0, [16]),
    ],
    ids=["1e160", "1e-160", "dense_1e160"],
)
def test_functional_outside_the_sum_of_squares_range_builds_without_a_warning(
    tmp_path, name, scale, base, steps
):
    # f . conj(f) is out of the normal range, so the validation's kernel
    # projection is formed from f scaled by its largest modulus, and the dense
    # direction search divides by the overflow-safe norm of f(A .).  The K = 5
    # build stops after the stages that scales 10.24 and 0.01 * 2^-10 reach:
    # the radius cap of 1.0 is not in the functional's units (ROADMAP item 4);
    # the dense one where it stops at scale 1
    functional = {"kind": "geometric", "scale": scale, "base": base}
    cfg = write_config(tmp_path, "scaled", **{**shipped_config(name), "functional": functional})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["witness", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_TRUNCATION
    partial = cert_from_dict(json.loads((tmp_path / "scaled.cert.json").read_text()))
    assert [st.steps for st in partial.stages] == steps


def test_functional_with_a_subnormal_seed_radius_is_a_config_error(tmp_path):
    # 1/(2|f|) is normal up to |f| = 2^1021 and subnormal past it
    edge = 2.0**1021
    for size, refused in [(edge, False), (np.nextafter(edge, math.inf), True), (3e307, True)]:
        functional = {"kind": "values", "values": [size] + [0.0] * 6}
        cfg = load_config(write_config(tmp_path, "edge", **{**K5_CONFIG, "functional": functional}))
        if refused:
            with pytest.raises(ConfigError, match="makes the seed radius .* subnormal"):
                cfg.functional()
        else:
            assert dual_norm(cfg.functional()) == edge


def test_negative_seed_override_is_a_config_error(tmp_path, capsys):
    rc = main(["witness", "--config", "blowup_k5", "--out", str(tmp_path), "--seed", "-3"])
    assert rc == EXIT_CONFIG
    assert "config error: seed: " in capsys.readouterr().err


def test_nan_tolerance_override_is_a_config_error(tmp_path, capsys):
    rc = main(["limit-check", "--config", "two_point", "--out", str(tmp_path), "--tolerance", "nan"])
    assert rc == EXIT_CONFIG
    assert "config error: tolerance: " in capsys.readouterr().err
    assert not (tmp_path / "two_point.limit.csv").exists()


def test_negative_tolerance_override_is_a_config_error(tmp_path, capsys):
    rc = main(["limit-check", "--config", "two_point", "--out", str(tmp_path), "--tolerance", "-1"])
    assert rc == EXIT_CONFIG
    assert "config error: tolerance: must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "two_point.limit.csv").exists()


@pytest.mark.parametrize(
    "command, config, out",
    [
        ("witness", "blowup_k5", "taken"),
        ("limit-check", "two_point", "taken/sub"),
    ],
    ids=["file", "under_a_file"],
)
def test_out_naming_a_file_is_a_config_error(tmp_path, capsys, command, config, out):
    (tmp_path / "taken").write_text("kept\n")
    rc = main([command, "--config", config, "--out", str(tmp_path / out)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: --out: ")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert (tmp_path / "taken").read_text() == "kept\n"


PARSER_COUNT_PROBE = """
import argparse, sys

built = []
init = argparse.ArgumentParser.__init__

def counting_init(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counting_init
from semigroup_lab.cli import main
print(len(built))
main(["verify", *sys.argv[1:]])
print(len(built))
main(["verify", *sys.argv[1:]])
print(len(built))
"""


def test_parser_is_built_once_on_the_first_call():
    # importing the CLI builds nothing; the first call builds the parser and
    # its five subparsers, later calls reuse them
    result = run_python(["-c", PARSER_COUNT_PROBE, str(V1_DATA / "blowup_k5.cert.json")])
    assert result.returncode == 0, result.stderr
    counts = [line for line in result.stdout.splitlines() if line.isdigit()]
    assert counts == ["0", "6", "6"]


def test_parser_reuse_leaks_nothing_between_calls(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main(["limit-check"])
    assert info.value.code == EXIT_CONFIG
    assert "--config" in capsys.readouterr().err
    args = ["limit-check", "--config", "two_point", "--out", str(out)]
    assert main([*args, "--tolerance", "0.5", "--seed", "3"]) == EXIT_OK
    capsys.readouterr()
    code = main(args)
    stdout = capsys.readouterr().out
    csv = (out / "two_point.limit.csv").read_bytes()
    fresh = run_cli_subprocess(args, blas_threads=None)
    assert (code, stdout, csv) == (
        fresh.returncode,
        fresh.stdout,
        (out / "two_point.limit.csv").read_bytes(),
    )


@pytest.mark.parametrize("steps, j_max", [(0, 160), (2**1100, 1200)], ids=["zero", "huge"])
def test_verify_names_a_step_count_the_carrier_cannot_take(tmp_path, capsys, steps, j_max):
    payload = load_json(V1_DATA / "blowup_k5.v2.cert.json")
    payload["stages"][1]["steps"] = steps
    payload["j_max"] = j_max
    path = tmp_path / "bad_steps.cert.json"
    path.write_text(json.dumps(payload))
    assert main(["verify", str(path)]) == EXIT_INVALID
    assert "  - stage 1: step count outside [1, 2^1024)\n" in capsys.readouterr().out


def test_verify_names_a_non_finite_generator_pairing(tmp_path, capsys):
    payload = load_json(V1_DATA / "blowup_k5.v2.cert.json")
    payload["stages"][1]["generator_pairing"] = {"~c": [(1.5).hex(), "inf"]}
    path = tmp_path / "inf_pairing.cert.json"
    path.write_text(json.dumps(payload))
    assert main(["verify", str(path)]) == EXIT_INVALID
    out = capsys.readouterr().out
    assert "  - stages[1].generator_pairing: must be finite\n" in out
    assert "math domain error" not in out


@pytest.mark.parametrize(
    "source, failure",
    [
        ({"certificate": [1]}, "source.certificate.schema: not a certificate (None)"),
        ({"generator": {"kind": "x"}}, "source.generator.kind: 'x' is not diagonal or dense"),
    ],
    ids=["certificate", "generator"],
)
def test_verify_names_the_report_source_field(tmp_path, capsys, source, failure):
    payload = load_json(V1_DATA / "split_renorm.report.json")
    payload["source"] = source
    path = tmp_path / "bad_source.report.json"
    path.write_text(json.dumps(payload))
    assert main(["verify", str(path)]) == EXIT_INVALID
    assert f"  - {failure}\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "name, section, key, value, failure",
    [
        ("classical_renorm", "parameters", "tol", math.nan, "parameters.tol: must be finite"),
        ("split_renorm", "parameters", "slack", math.nan, "parameters.slack: must be finite"),
        ("classical_renorm", "parameters", "p", 3.0, "p must be one of 1, 2, inf"),
        ("blowup_k5", "law", "param", -1.0, "law: table law takes no param"),
    ],
    ids=["nan_tol", "nan_slack", "p_three", "table_param"],
)
def test_verify_refuses_values_that_switch_a_check_off(
    tmp_path, capsys, name, section, key, value, failure
):
    stored = next(V1_DATA.glob(f"{name}.*.json"))
    payload = load_json(stored)
    payload[section][key] = value
    path = tmp_path / stored.name
    path.write_text(json.dumps(payload))
    assert main(["verify", str(path)]) == EXIT_INVALID
    assert failure in capsys.readouterr().out


def drop_eps(path):
    payload = load_json(V1_DATA / "blowup_k5.cert.json")
    del payload["eps"]
    path.write_text(json.dumps(payload))


def inflate_radius(path):
    payload = load_json(V1_DATA / "blowup_k5.cert.json")
    radius = float.fromhex(payload["stages"][3]["stability_radius"]["~f"])
    payload["stages"][3]["stability_radius"] = {"~f": (100.0 * radius).hex()}
    path.write_text(json.dumps(payload))


def unnormed_p(path):
    payload = load_json(V1_DATA / "blowup_k5.cert.json")
    payload["p"] = 1.5
    path.write_text(json.dumps(payload))


def index_past_exp(path):
    payload = load_json(V1_DATA / "blowup_k5.cert.json")
    payload["stages"][2]["index"] = 710
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
        (unnormed_p, EXIT_INVALID, "certificate invalid: p: p must be one of 1, 2, inf"),
        (index_past_exp, EXIT_INVALID, "certificate invalid: stage 710: index out of order"),
    ],
    ids=["missing_file", "not_json", "missing_eps", "inflated_radius", "unnormed_p",
         "index_past_exp"],
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
