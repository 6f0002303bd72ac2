"""Command-line surface: exit codes, CSV layout, artifact verification."""

import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

import semigroup_lab
from semigroup_lab import ConfigError, Generator, dual_norm, load_config
from semigroup_lab import cli, renorm
from semigroup_lab.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_OVERFLOW,
    EXIT_TRUNCATION,
    EXIT_UNDERFLOW,
    main,
)
from semigroup_lab.errors import UnderflowRadius, WitnessBuildError
from semigroup_lab.serialize import (
    CONFIG_SCHEMA,
    cert_from_dict,
    cert_to_dict,
    dumps_canonical,
    generator_to_dict,
    load_json,
    pack,
    report_to_dict,
    unpack,
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


def test_limit_check_product_overflow_keeps_the_rows_before_it(tmp_path, capsys):
    # bounded_oracle's ladder powers a rank-one step whose rounding grows
    # with n until the product overflows at a middle row of j = 50 .. 70;
    # the rows before it are those of the ladder that stops just short of it
    data = shipped_config("bounded_oracle")
    data["schedule"] = {"j_min": 50, "j_max": 70}
    cfg = tmp_path / "deep.config.json"
    cfg.write_text(json.dumps(data))
    assert main(["limit-check", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OVERFLOW
    err = capsys.readouterr().err
    written = int(err.split("overflow after ")[1].split(" rows")[0])
    assert 0 < written < 21
    assert f"alternating product overflowed within {2 ** (50 + written)} steps" in err
    _, _, rows = read_csv(tmp_path / "deep.limit.csv")
    assert [int(row["steps"]) for row in rows] == [2**j for j in range(50, 50 + written)]
    data["schedule"] = {"j_min": 50, "j_max": 49 + written}
    short = tmp_path / "short"
    cfg.write_text(json.dumps(data))
    assert main(["limit-check", "--config", str(cfg), "--out", str(short)]) == EXIT_OK
    assert (short / "deep.limit.csv").read_bytes() == (tmp_path / "deep.limit.csv").read_bytes()


def huge_projection_run(tmp_path, name, matrix):
    data = shipped_config("bounded_oracle")
    data["projection"] = {"kind": "dense", "matrix": matrix}
    cfg = tmp_path / f"{name}.config.json"
    cfg.write_text(json.dumps(data))
    return main(["limit-check", "--config", str(cfg), "--out", str(tmp_path)])


def test_a_projection_past_the_square_range_that_is_not_idempotent_is_a_config_error(
    tmp_path, capsys
):
    # M^2 - M of diag(1e160) holds inf + nan j: its 2-norm is NaN, which is refused
    matrix = [[1e160, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    assert huge_projection_run(tmp_path, "huge", matrix) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "config error: projection.matrix: matrix is not idempotent: "
        "|M^2 - M| = nan with |M| = 1e+160\n"
    )
    assert not (tmp_path / "huge.limit.csv").exists()


def test_a_projection_past_the_square_range_that_is_idempotent_runs(tmp_path, capsys):
    # M^2 = M exactly, with |M| = 1e160: the one-step product is finite and
    # the two-step product overflows
    matrix = [[1, 1e160, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    assert huge_projection_run(tmp_path, "tall", matrix) == EXIT_OVERFLOW
    out, err = capsys.readouterr()
    assert err == "overflow after 1 rows: alternating product overflowed within 2 steps\n"
    csv = tmp_path / "tall.limit.csv"
    assert out == f"limit-check tall: 1 rows -> {csv}; final error 1.64e-15 within tolerance 0.01\n"
    _, _, rows = read_csv(csv)
    assert [(row["steps"], row["product_gap"]) for row in rows] == [
        ("1", "3.4362868860838373e+160")
    ]


@pytest.mark.parametrize("p", [1, 2, "inf"])
@pytest.mark.parametrize("entry", [math.nan, "inf"], ids=["nan", "inf"])
def test_a_dense_projection_with_a_non_finite_entry_is_a_config_error(tmp_path, capsys, p, entry):
    matrix = [[1.0, entry, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    data = shipped_config("bounded_oracle")
    data["space"]["p"] = p
    data["projection"] = {"kind": "dense", "matrix": matrix}
    cfg = tmp_path / "odd.config.json"
    cfg.write_text(json.dumps(data))
    assert main(["limit-check", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", "config error: projection.matrix: must be finite\n")


@pytest.mark.parametrize("projection", [True, False], ids=["projected", "unprojected"])
def test_limit_check_at_a_time_past_the_floating_range_overflows_without_a_warning(
    tmp_path, capsys, projection
):
    # |t| |A|_2 overflows to inf, and so does the 1-norm of the projected
    # step's exponent
    data = shipped_config("bounded_oracle")
    data["time"] = 1e308
    if not projection:
        del data["projection"]
    cfg = tmp_path / "late.config.json"
    cfg.write_text(json.dumps(data))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["limit-check", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_OVERFLOW
    err = capsys.readouterr().err
    assert err == "overflow after 0 rows: dense orbit with |tA| = inf overflows\n"
    assert [str(w.message) for w in caught] == []


def test_limit_check_forms_its_products_to_the_first_overflowing_block(tmp_path, monkeypatch):
    # bounded_oracle's product overflows at j = 61: a ladder to j = 1023
    # forms only its first block of 64 rows, and writes the rows of j <= 60
    import semigroup_lab.cli as cli

    blocks = []
    products = cli.dense_trotter_products

    def counted(a, proj, x, t, counts, **kwargs):
        blocks.append(len(counts))
        return products(a, proj, x, t, counts, **kwargs)

    monkeypatch.setattr(cli, "dense_trotter_products", counted)
    data = shipped_config("bounded_oracle")
    cfg = tmp_path / "long.config.json"
    for j_max, out, code in ((1023, "long", EXIT_OVERFLOW), (60, "short", EXIT_OK)):
        data["schedule"] = {"j_min": 0, "j_max": j_max}
        cfg.write_text(json.dumps(data))
        assert main(["limit-check", "--config", str(cfg), "--out", str(tmp_path / out)]) == code
    assert blocks == [64, 61]
    long, short = (tmp_path / out / "long.limit.csv" for out in ("long", "short"))
    assert long.read_bytes() == short.read_bytes()


@pytest.mark.parametrize("schedule", [(0, 16), (50, 70)], ids=["0-16", "50-70"])
def test_limit_check_products_keep_their_bytes_across_blocks(tmp_path, monkeypatch, schedule):
    # blocks of 2, 4, 8, ... rows write the bytes of one block, with and
    # without an overflowing row
    import semigroup_lab.cli as cli

    data = shipped_config("bounded_oracle")
    data["schedule"] = {"j_min": schedule[0], "j_max": schedule[1]}
    cfg = tmp_path / "blocks.config.json"
    cfg.write_text(json.dumps(data))
    codes = []
    for block, out in ((1024, "one"), (2, "many")):
        monkeypatch.setattr(cli, "_LADDER_BLOCK", block)
        codes.append(main(["limit-check", "--config", str(cfg), "--out", str(tmp_path / out)]))
    assert codes[0] == codes[1]
    one, many = (tmp_path / out / "blocks.limit.csv" for out in ("one", "many"))
    assert one.read_bytes() == many.read_bytes()


def counted_exponentials(monkeypatch):
    """Count the matrix exponential calls of a run, wherever they are made."""
    import semigroup_lab.spaces as spaces
    import semigroup_lab.trotter as trotter

    calls = []
    kernel = spaces.matrix_expm1

    def counted(stack):
        calls.append(len(stack))
        return kernel(stack)

    monkeypatch.setattr(spaces, "matrix_expm1", counted)
    monkeypatch.setattr(trotter, "matrix_expm1", counted)
    return calls


def test_dense_product_jobs_make_one_exponential_call(tmp_path, monkeypatch):
    # a dense limit-check forms its 17 step defects and its oracle in one
    # stack, and a sweep trial its 3 defects and 3 oracles
    calls = counted_exponentials(monkeypatch)
    assert main(["limit-check", "--config", "bounded_oracle", "--out", str(tmp_path)]) == EXIT_OK
    assert calls == [18]
    calls.clear()
    assert main(["sweep", "--config", "sweep_bounded", "--out", str(tmp_path)]) == EXIT_OK
    assert calls == [6] * 12
    shipped = V1_DATA / "bounded_oracle.limit.csv", V1_DATA / "sweep_bounded.sweep.csv"
    assert (tmp_path / "bounded_oracle.limit.csv").read_bytes() == shipped[0].read_bytes()
    assert (tmp_path / "sweep_bounded.sweep.csv").read_bytes() == shipped[1].read_bytes()


NO_DRAW = "no projection under norm cap {} in 200 draws"


@pytest.mark.parametrize("cap", [1.05, 1.001])
def test_sweep_projection_cap_no_draw_meets_is_a_config_error(tmp_path, capsys, cap):
    # every oblique projection of an 8-dimensional trial has a norm well
    # above 1.05, so 200 draws find none
    data = shipped_config("sweep_bounded")
    data["sweep"].update(dim_min=8, dim_max=8, trials=2, projection_norm_cap=cap)
    cfg = tmp_path / "tight.config.json"
    cfg.write_text(json.dumps(data))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: sweep.projection_norm_cap: {NO_DRAW.format(cap)}\n"
    assert not (tmp_path / "tight.sweep.csv").exists()


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
    errors = unpack(payload["witness_errors"], "~f8").copy()
    errors[-1] = 0.4999
    payload["witness_errors"] = pack(errors, "~f8")
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


# The deepest pinned ladder: 17 stages on the whole schedule, the last at
# 2^808, where one ulp of a stage's log value moves its limit error past
# verify's tolerance.  tools/make_shipped_configs.py writes its config.
DEEP_LADDER = "blowup_k17"


def test_deep_ladder_witness_writes_the_pinned_certificate(tmp_path):
    config = V1_DATA / "configs" / f"{DEEP_LADDER}.config.json"
    assert main(["witness", "--config", str(config), "--out", str(tmp_path)]) == EXIT_OK
    written = (tmp_path / f"{DEEP_LADDER}.cert.json").read_bytes()
    assert written == (V1_DATA / f"{DEEP_LADDER}.v3.cert.json").read_bytes()


def test_deep_ladder_certificate_verifies():
    assert main(["verify", str(V1_DATA / f"{DEEP_LADDER}.cert.json")]) == EXIT_OK


def test_shipped_classical_report_is_unchanged(tmp_path):
    assert main(["renorm-audit", "--config", "classical_renorm", "--out", str(tmp_path)]) == EXIT_OK
    written = (tmp_path / "classical_renorm.report.json").read_bytes()
    assert written == (V1_DATA / "classical_renorm.report.json").read_bytes()


def test_fresh_split_report_is_unchanged(tmp_path):
    # one run holds the certificate build, its verify, the split audit and
    # the canonical writer to the bytes they wrote before
    assert main(["renorm-audit", "--config", "split_renorm", "--out", str(tmp_path)]) == EXIT_OK
    written = (tmp_path / "split_renorm.report.json").read_bytes()
    assert written == (V1_DATA / "split_renorm.v3.report.json").read_bytes()


@pytest.mark.parametrize(
    "command, name",
    [("limit-check", "bounded_oracle.limit.csv"), ("sweep", "sweep_bounded.sweep.csv")],
)
def test_shipped_dense_csv_is_unchanged(tmp_path, command, name):
    config = name.split(".")[0]
    assert main([command, "--config", config, "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / name).read_bytes() == (V1_DATA / name).read_bytes()


# bounded_oracle keeps no 2-norm of a matrix; each of sweep_bounded's 12
# trials keeps two, one SVD each: the generator's scaling and the size of
# its projection, which the cap test reads.  The overflow guard and the
# idempotency check are settled by Frobenius bounds (60 and 1 SVDs when
# each took one).
@pytest.mark.parametrize(
    "command, name, svds",
    [("limit-check", "bounded_oracle.limit.csv", 0), ("sweep", "sweep_bounded.sweep.csv", 24)],
)
def test_shipped_dense_jobs_take_an_svd_only_for_a_norm_they_keep(
    monkeypatch, tmp_path, command, name, svds
):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(np.linalg._linalg, "svd", counted)  # np.linalg.norm's
    assert main([command, "--config", name.split(".")[0], "--out", str(tmp_path)]) == EXIT_OK
    assert len(calls) == svds
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


# Fresh builds pinned on their own: the one log-domain carrier moved the
# last bits of the K = 5 ladder's numbers, and of two rungs of its tuned law,
# so the /1 certificate no longer re-encodes to them.
FRESH_V3 = {"blowup_k5": "blowup_k5.v3.cert.json"}


@pytest.mark.parametrize("config", ["blowup_k5", "bounded_contrapositive"])
def test_v1_certificate_reencodes_to_a_fresh_build(tmp_path, config):
    main(["witness", "--config", config, "--out", str(tmp_path)])
    fresh = (tmp_path / f"{config}.cert.json").read_text()
    old = load_json(V1_DATA / f"{config}.cert.json")
    assert old["schema"] == "semigroup-lab/cert/1"
    assert json.loads(fresh)["schema"] == "semigroup-lab/cert/3"
    reencoded = dumps_canonical(cert_to_dict(cert_from_dict(old)))
    assert json.loads(reencoded)["schema"] == "semigroup-lab/cert/3"
    assert dumps_canonical(cert_to_dict(cert_from_dict(json.loads(reencoded)))) == reencoded
    if config in FRESH_V3:
        assert fresh == (V1_DATA / FRESH_V3[config]).read_text()
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


def run_python(args, blas_threads=None, extra_env=None):
    """Run a fresh interpreter on the package with OPENBLAS_NUM_THREADS set or
    unset, and ``extra_env`` added to the environment.  The child keeps the
    parent's NPY_DISABLE_CPU_FEATURES unless ``extra_env`` sets another, so
    it runs at the parent's numpy dispatch level."""
    unset = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in unset}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    env.update(extra_env or {})
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


CLI_RUNS = """
import json
import sys
from semigroup_lab.cli import main

print(json.dumps([main(args) for args in json.loads(sys.argv[1])]))
"""


def cli_exit_codes(runs, extra_env=None):
    """The exit code of each CLI run of ``runs``, in one fresh interpreter."""
    result = run_python(["-c", CLI_RUNS, json.dumps(runs)], extra_env=extra_env)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def simd_targets_above_x86_v3():
    """numpy's dispatch targets past X86_V3 (AVX2) that this machine has."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    if "X86_V3" not in __cpu_dispatch__:
        return []
    above = __cpu_dispatch__[__cpu_dispatch__.index("X86_V3") + 1 :]
    return [target for target in above if __cpu_features__.get(target)]


def test_artifacts_verify_across_simd_dispatch_levels(tmp_path):
    # numpy's kernels may round differently at another SIMD level, and
    # OpenBLAS's at another core type; a certificate or report written at
    # one setting verifies at the other
    settings = [{"OPENBLAS_CORETYPE": "Nehalem"}]
    targets = simd_targets_above_x86_v3()
    if targets:
        settings.append({"NPY_DISABLE_CPU_FEATURES": " ".join(targets)})
    k17 = Path(__file__).parent / "data" / "configs" / "blowup_k17.config.json"
    names = ("blowup_k5.cert.json", "blowup_k17.cert.json", "split_renorm.report.json")

    def writes(out):
        return [
            ["witness", "--config", "blowup_k5", "--out", str(out)],
            ["witness", "--config", str(k17), "--out", str(out)],
            ["renorm-audit", "--config", "split_renorm", "--out", str(out)],
        ]

    def verifies(out):
        return [["verify", str(out / name)] for name in names]

    full = tmp_path / "full"
    assert cli_exit_codes(writes(full)) == [EXIT_OK] * 3
    moved = False
    for k, setting in enumerate(settings):
        other = tmp_path / f"setting{k}"
        assert cli_exit_codes(writes(other) + verifies(full), setting) == [EXIT_OK] * 6
        assert cli_exit_codes(verifies(other)) == [EXIT_OK] * 3
        moved |= any((other / n).read_bytes() != (full / n).read_bytes() for n in names)
    if not moved:
        pytest.skip(f"no artifact's bytes differ under any of {settings}")


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


@pytest.mark.parametrize(
    "law, dim, first",
    [
        ({"kind": "poly", "param": 400}, 40, 6),
        ({"kind": "imag_poly", "param": 400}, 40, 6),
        ({"kind": "geom", "param": 1e10}, 40, 31),
        ({"kind": "factorial"}, 200, 171),
    ],
    ids=lambda v: v["kind"] if isinstance(v, dict) else None,
)
def test_a_growth_law_past_the_floating_range_is_a_config_error_without_a_warning(
    tmp_path, capsys, law, dim, first
):
    cfg = write_config(
        tmp_path,
        "steep",
        space={"dim": dim, "p": 2},
        generator={"kind": "diagonal", "law": law},
        functional={"kind": "geometric"},
        vector={"kind": "basis", "index": 1},
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["limit-check", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr() == (
        "", f"config error: generator.law: {law['kind']} entry {first} exceeds the floating range\n"
    )
    assert [str(w.message) for w in caught] == []


# Each config check with its whole line: a later check that fails on the
# same input may print the same field, so the field alone shows nothing.
@pytest.mark.parametrize(
    "command, overrides, message",
    [
        ("limit-check", {"tolerance": 1e400}, "tolerance: must be finite, got inf"),
        (
            "witness",
            {**K5_CONFIG, "witness": {**K5_CONFIG["witness"], "eps": 0.5}},
            "witness.eps: must lie in (0, 1/2), got 0.5",
        ),
        (
            "witness",
            {**K5_CONFIG, "witness": {**K5_CONFIG["witness"], "stages": -1}},
            "witness.stages: must be nonnegative",
        ),
        ("renorm-audit", {"renorm": {"kind": "classical"}}, "renorm.omega: missing"),
        (
            "sweep",
            {"sweep": {"trials": 1, "projection_norm_cap": 1.0}},
            "sweep.projection_norm_cap: must exceed 1",
        ),
        ("limit-check", {"space": {"dim": 0, "p": 2}}, "space.dim: must be positive"),
        (
            "limit-check",
            {"functional": {"kind": "values", "values": ["inf", 0.5]}},
            "functional: dual norm inf is not finite",
        ),
        ("limit-check", {"generator": None}, "config declares no generator"),
        ("limit-check", {"functional": None}, "config declares no functional"),
        (
            "limit-check",
            {"functional": {"kind": "geometric", "base": 1.0}},
            "functional.geometric needs base > 1 and scale != 0",
        ),
        ("limit-check", {"vector": None}, "config declares no vector"),
        ("limit-check", {"vector": {"kind": "basis", "index": 3}}, "vector.index 3 outside 1..2"),
        (
            "limit-check",
            {
                "functional": {"kind": "values", "values": [0.0, 0.5]},
                "vector": {"kind": "basis", "index": 1},
            },
            "vector.basis cannot gauge against functional zero at 1",
        ),
        ("sweep", {}, "config declares no sweep section"),
        (
            "renorm-audit",
            {"renorm": {"kind": "weighted", "omega": 3.0}},
            "renorm.kind: 'weighted' is not classical or split",
        ),
        (
            "sweep",
            {"sweep": {"trials": 1, "dim_min": 1}},
            "sweep needs 2 <= dim_min <= dim_max",
        ),
        # refused before any entry is formed: entry 2 (2**nan) would read as an overflow
        (
            "limit-check",
            {"generator": {"kind": "diagonal", "law": {"kind": "poly", "param": math.nan}}},
            "generator.law: growth law param must be finite, got nan",
        ),
        (
            "limit-check",
            {"generator": {"kind": "diagonal", "law": {"kind": "poly", "param": "inf"}}},
            "generator.law: growth law param must be finite, got inf",
        ),
    ],
    ids=[
        "tolerance_overflow",
        "eps_half",
        "stages_negative",
        "classical_without_omega",
        "projection_norm_cap_one",
        "dim_zero",
        "functional_inf",
        "no_generator",
        "no_functional",
        "geometric_base_one",
        "no_vector",
        "basis_index_outside",
        "gauge_against_zero",
        "no_sweep_section",
        "renorm_kind_unknown",
        "sweep_dim_min_one",
        "law_param_nan",
        "law_param_inf",
    ],
)
def test_config_check_prints_its_whole_line(tmp_path, capsys, command, overrides, message):
    cfg = write_config(tmp_path, "malformed", **overrides)
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: {message}\n")


def test_config_that_is_not_an_object_prints_its_whole_line(tmp_path, capsys):
    cfg = tmp_path / "list.config.json"
    cfg.write_text("[1, 2]")
    assert main(["limit-check", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", "config error: top level must be an object\n")


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


# A tagged complex is an [re, im] pair: a third entry is refused, not dropped,
# and a lone entry is named as such, in a scalar field and in a vector.
@pytest.mark.parametrize("extra", [["0x1p+0"], []], ids=["three_entries", "one_entry"])
@pytest.mark.parametrize("field", ["generator_pairing", "vector"])
def test_verify_refuses_a_tagged_complex_that_is_not_a_pair(tmp_path, capsys, field, extra):
    payload = load_json(V1_DATA / "blowup_k5.v2.cert.json")
    stage = payload["stages"][1]
    tagged = stage[field] if field == "generator_pairing" else stage[field]["~a"][0]
    tagged["~c"] = tagged["~c"] + extra if extra else tagged["~c"][:1]
    path = tmp_path / "odd_pair.cert.json"
    path.write_text(json.dumps(payload))
    assert main(["verify", str(path)]) == EXIT_INVALID
    out = capsys.readouterr().out
    assert f"  - stages[1].{field}: complex entries are [re, im] pairs, got {tagged['~c']!r}\n" in out


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


class CountedNormals(renorm.SplitNormals):
    """``SplitNormals`` that records whether its helper thread started."""

    started = 0

    def __init__(self, *args):
        super().__init__(*args)
        CountedNormals.started += self._thread is not None


def split_report_copy(tmp_path, change=None, name="split_renorm.v2.report.json"):
    payload = load_json(V1_DATA / name)
    if change is not None:
        change(payload)
    path = tmp_path / "changed.report.json"
    path.write_text(json.dumps(payload))
    return path


def underflowing_build(*args, **kwargs):
    raise WitnessBuildError(partial=None, cause=UnderflowRadius(radius=1e-310, stage=2))


def failing_pass(*args, **kwargs):
    raise RuntimeError("audit pass failed")


def split_run(tmp_path, name, renorm_section=None, data=None):
    data = dict(data or shipped_config("split_renorm"))
    data["renorm"] = renorm_section or {"kind": "split", "vector_samples": 3000}
    cfg = tmp_path / f"{name}.config.json"
    cfg.write_text(json.dumps(data))
    return ["renorm-audit", "--config", str(cfg), "--out", str(tmp_path)]


def drop_embedded_eps(payload):
    del payload["source"]["certificate"]["eps"]


def miscount_embedded_steps(payload):
    payload["source"]["certificate"]["stages"][1]["steps"] += 1


def certificate_run(tmp_path, change=None, name="blowup_k5.v3.cert.json"):
    """A split renorm-audit of a copy of the data file ``name``, changed by
    ``change``, named by ``renorm.certificate``."""
    payload = load_json(V1_DATA / name)
    if change is not None:
        change(payload)
    (tmp_path / "changed.cert.json").write_text(json.dumps(payload))
    return split_run(
        tmp_path,
        "from_file",
        {"kind": "split", "certificate": "changed.cert.json", "vector_samples": 3000},
    )


def drop_certificate_eps(payload):
    del payload["eps"]


# Each case: its arguments, a patch, its exit code (None: the error it
# raises) and how many helper threads it starts.  renorm-audit starts the
# helper before it builds a certificate, and once it has read and decoded
# a certificate file; verify starts it once the embedded certificate has
# decoded.
THREAD_CASES = {
    "passes": (lambda tmp: split_run(tmp, "passing"), None, EXIT_OK, 1),
    "replay_passes": (lambda tmp: ["verify", str(split_report_copy(tmp))], None, EXIT_OK, 1),
    "truncation": (
        lambda tmp: split_run(tmp, "bounded", data=shipped_config("bounded_contrapositive")),
        None,
        EXIT_TRUNCATION,
        1,
    ),
    "underflow": (
        lambda tmp: split_run(tmp, "underflow"), ("build_certificate", underflowing_build),
        EXIT_UNDERFLOW,
        1,
    ),
    "unreadable_certificate": (
        lambda tmp: split_run(
            tmp, "absent", {"kind": "split", "certificate": "absent.cert.json",
                            "vector_samples": 3000},
        ),
        None,
        EXIT_CONFIG,
        0,
    ),
    "undecodable_certificate": (
        lambda tmp: certificate_run(tmp, drop_certificate_eps), None, EXIT_INVALID, 0
    ),
    "certificate_file_passes": (lambda tmp: certificate_run(tmp), None, EXIT_OK, 1),
    "malformed_embedded_certificate": (
        lambda tmp: ["verify", str(split_report_copy(tmp, drop_embedded_eps))],
        None,
        EXIT_INVALID,
        0,
    ),
    "unverifiable_embedded_certificate": (
        lambda tmp: [
            "verify",
            str(split_report_copy(tmp, miscount_embedded_steps, "split_renorm.v3.report.json")),
        ],
        None,
        EXIT_INVALID,
        1,
    ),
    "audit_raises": (
        lambda tmp: split_run(tmp, "raising"), ("_contractivity", failing_pass), None, 1
    ),
}


@pytest.mark.parametrize("case", THREAD_CASES)
def test_no_thread_outlives_a_split_audit_call(tmp_path, monkeypatch, capsys, case):
    argv, patch, code, starts = THREAD_CASES[case]
    if patch is not None:
        name, replacement = patch
        monkeypatch.setattr(cli if hasattr(cli, name) else renorm, name, replacement)
    monkeypatch.setattr(cli, "SplitNormals", CountedNormals)
    monkeypatch.setattr(CountedNormals, "started", 0)
    args = argv(tmp_path)
    before = threading.enumerate()
    if code is None:
        with pytest.raises(RuntimeError, match="audit pass failed"):
            main(args)
    else:
        assert main(args) == code, capsys.readouterr()
    assert threading.enumerate() == before
    # a helper that started was joined
    assert CountedNormals.started == starts



def test_replay_of_a_fresh_split_report_draws_ahead_for_its_dimension(tmp_path, monkeypatch):
    # verify decodes the embedded certificate first and sizes the normals
    # it draws ahead by the certificate's dimension
    assert main(["renorm-audit", "--config", "split_renorm", "--out", str(tmp_path)]) == EXIT_OK
    dims = []

    class Recorded(renorm.SplitNormals):
        def __init__(self, seed, samples, dim):
            dims.append(dim)
            super().__init__(seed, samples, dim)

    monkeypatch.setattr(cli, "SplitNormals", Recorded)
    assert main(["verify", str(tmp_path / "split_renorm.report.json")]) == EXIT_OK
    assert dims == [load_config("split_renorm").dim] == [7]


def test_a_certificate_file_draws_ahead_for_its_own_dimension(tmp_path, monkeypatch):
    # renorm-audit decodes the file before it starts the helper, so the
    # normals drawn ahead fit the certificate, not the config's space
    dims = []

    class Recorded(renorm.SplitNormals):
        def __init__(self, seed, samples, dim):
            dims.append(dim)
            super().__init__(seed, samples, dim)

    monkeypatch.setattr(cli, "SplitNormals", Recorded)
    args = certificate_run(tmp_path, name="bounded_contrapositive.cert.json")
    assert main(args) == EXIT_OK
    assert dims == [6] != [load_config(args[2]).dim]


def comparable(value):
    """An audit argument in a form ``==`` compares: a certificate or a
    generator as the codec writes it."""
    if isinstance(value, renorm.WitnessCertificate):
        return cert_to_dict(value)
    if isinstance(value, Generator):
        return generator_to_dict(value)
    return value


@pytest.mark.parametrize("config", ["split_renorm", "classical_renorm"])
def test_an_audit_and_its_replay_take_the_same_arguments(tmp_path, monkeypatch, config):
    calls = []
    audit = cli.quasi_contractivity_audit

    def recorded(kind, **kwargs):
        kwargs.pop("normals", None)
        calls.append((kind, {key: comparable(value) for key, value in kwargs.items()}))
        return audit(kind, **kwargs)

    monkeypatch.setattr(cli, "quasi_contractivity_audit", recorded)
    assert main(["renorm-audit", "--config", config, "--out", str(tmp_path)]) == EXIT_OK
    assert main(["verify", str(tmp_path / f"{config}.report.json")]) == EXIT_OK
    assert len(calls) == 2
    assert calls[0] == calls[1]


def overflowing_law(payload):
    # the last table entry's real part becomes 1e30: exp(1e30 t) overflows
    payload["generator"]["law"]["values"][-1]["~c"][0] = (1e30).hex()


def overflowing_matrix(payload):
    payload["dense_matrix"]["~a"][0][5]["~c"][0] = (1e30).hex()


@pytest.mark.parametrize(
    "name, change, message",
    [
        ("blowup_k5.v3.cert.json", overflowing_law, "diagonal orbit at t = 1 overflows"),
        (
            "bounded_contrapositive.cert.json",
            overflowing_matrix,
            "dense orbit with |tA| = 6.25e+28 overflows",
        ),
    ],
    ids=["diagonal", "dense"],
)
def test_a_certificate_that_cannot_be_recomputed_is_invalid(
    tmp_path, monkeypatch, capsys, name, change, message
):
    monkeypatch.setattr(cli, "SplitNormals", CountedNormals)
    monkeypatch.setattr(CountedNormals, "started", 0)
    args = certificate_run(tmp_path, change, name)
    assert main(["verify", str(tmp_path / "changed.cert.json")]) == EXIT_INVALID
    assert f"certificate invalid: {message}\n  - {message}\n" in capsys.readouterr().out
    before = threading.enumerate()
    assert main(args) == EXIT_INVALID
    assert capsys.readouterr() == ("", f"certificate invalid: {message}\n")
    assert threading.enumerate() == before
    assert CountedNormals.started == 1  # the file decodes; verification refuses it
    assert not (tmp_path / "from_file.report.json").exists()


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_the_codec_refuses_a_non_finite_dense_matrix(tmp_path, capsys, value):
    # a certificate, through verify and renorm-audit, and in cert/3 form
    def change(payload):
        payload["dense_matrix"]["~a"][0][0]["~c"][0] = value.hex()

    args = certificate_run(tmp_path, change, "bounded_contrapositive.cert.json")
    assert main(["verify", str(tmp_path / "changed.cert.json")]) == EXIT_INVALID
    assert "  - generator.matrix: must be finite\n" in capsys.readouterr().out
    assert main(args) == EXIT_INVALID
    assert capsys.readouterr().err == "certificate invalid: generator.matrix: must be finite\n"
    packed = cert_to_dict(cert_from_dict(load_json(V1_DATA / "bounded_contrapositive.cert.json")))
    packed["generator"]["matrix"]["~a"][0][0]["~c"][0] = value.hex()
    (tmp_path / "packed.cert.json").write_text(json.dumps(packed))
    assert main(["verify", str(tmp_path / "packed.cert.json")]) == EXIT_INVALID
    assert "  - generator.matrix: must be finite\n" in capsys.readouterr().out
    # a dense classical report's source
    data = shipped_config("classical_renorm")
    data["space"]["dim"] = 2
    data["generator"] = {"kind": "dense", "matrix": [[-1.0, 0.5], [0.0, -2.0]]}
    config = tmp_path / "dense.config.json"
    config.write_text(json.dumps(data))
    assert main(["renorm-audit", "--config", str(config), "--out", str(tmp_path)]) == EXIT_OK
    report = load_json(tmp_path / "dense.report.json")
    report["source"]["generator"]["matrix"]["~a"][0][0]["~c"][0] = value.hex()
    (tmp_path / "dense.report.json").write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify", str(tmp_path / "dense.report.json")]) == EXIT_INVALID
    assert "  - source.generator.matrix: must be finite\n" in capsys.readouterr().out
    # a config, refused with the message it had before the codec checked
    data["generator"]["matrix"][0][0] = value
    config.write_text(json.dumps(data))
    assert main(["renorm-audit", "--config", str(config), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: generator.matrix: must be finite\n"


def refuse_to_start(thread):
    raise RuntimeError("can't start new thread")


def test_a_split_audit_with_no_thread_to_be_had_draws_its_own_normals(
    tmp_path, monkeypatch, capsys, k5_certificate
):
    name, audit = "split_renorm.report.json", ["renorm-audit", "--config", "split_renorm", "--out"]
    normal = renorm._split_audit(k5_certificate, 9, 3000, renorm.DEFAULT_SLACK)
    assert main(audit + [str(tmp_path / "a")]) == EXIT_OK
    before = threading.enumerate()
    monkeypatch.setattr(threading.Thread, "start", refuse_to_start)
    with renorm.SplitNormals(9, 3000, k5_certificate.dim) as normals:
        assert normals.key is None
    alone = renorm._split_audit(k5_certificate, 9, 3000, renorm.DEFAULT_SLACK)
    assert main(audit + [str(tmp_path / "b")]) == EXIT_OK
    assert threading.enumerate() == before
    assert dumps_canonical(report_to_dict(alone)) == dumps_canonical(report_to_dict(normal))
    assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()


# Each size asks numpy for more than a 64-bit address space holds, so the
# allocation fails on any machine before any memory is touched.
@pytest.mark.parametrize(
    "config, change, shape",
    [
        ("split_renorm", {"vector_samples": 10**13}, "(2, 10000000000000, 7)"),
        ("classical_renorm", {"vector_samples": 10**13}, "(10000000000000, 6)"),
        ("classical_renorm", {"grid_points": 10**15}, "(1000000000000000,)"),
    ],
    ids=["split_samples", "classical_samples", "classical_grid"],
)
def test_an_audit_too_large_to_allocate_ends_with_one_line(
    tmp_path, capsys, config, change, shape
):
    data = shipped_config(config)
    data["renorm"].update(change)
    cfg = tmp_path / "vast.config.json"
    cfg.write_text(json.dumps(data))
    assert main(["renorm-audit", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_FAIL
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("out of memory: Unable to allocate ")
    assert err.endswith(f" for an array with shape {shape} and data type float64\n")
    assert err.count("\n") == 1
    assert not (tmp_path / "vast.report.json").exists()

@pytest.mark.parametrize(
    "generator, change, message",
    [
        (
            {"kind": "diagonal", "law": {"kind": "table", "values": [[0.9, 0.0], [0.95, 1.0]]}},
            {"omega": 1.0},
            "diagonal orbit at t = 750 overflows",
        ),
        (
            {"kind": "dense", "matrix": [[0.4, 0.0], [0.0, 0.3]]},
            {"omega": 0.41, "grid_points": 3000},
            "dense orbit with |tA| = 690 overflows",
        ),
    ],
    ids=["diagonal", "dense"],
)
def test_a_classical_audit_whose_orbit_overflows_ends_with_one_line(
    tmp_path, capsys, generator, change, message
):
    data = shipped_config("classical_renorm")
    data["space"]["dim"] = 2
    data["generator"] = generator
    data["renorm"].update(change)
    cfg = tmp_path / "overflowing.config.json"
    cfg.write_text(json.dumps(data))
    assert main(["renorm-audit", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OVERFLOW
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"renorm-audit overflowing: {message}\n"
    assert not (tmp_path / "overflowing.report.json").exists()


# The weighted sup leaves the floating range: ω < 0 with a horizon of 5000
# makes exp(-ωt) overflow past t = 1820, and ω = 1.075 with a horizon of
# 667 makes the right side's factor exp(ωs) overflow at the last shift.
@pytest.mark.parametrize(
    "values, omega, message",
    [
        (
            [[-0.5, 1.0], [-0.5, 3.0], [-0.4, 9.0]],
            -0.39,
            "weight exp(-omega t) at t = 1.84e+03 overflows",
        ),
        ([[-0.5, 0.0], [1.0, 0.0]], 1.075, "shift factor exp(omega t) at t = 667 overflows"),
    ],
    ids=["weight", "shift_factor"],
)
def test_a_classical_audit_whose_weights_overflow_ends_with_one_line(
    tmp_path, capsys, values, omega, message
):
    data = shipped_config("classical_renorm")
    data["space"]["dim"] = len(values)
    data["generator"] = {"kind": "diagonal", "law": {"kind": "table", "values": values}}
    data["renorm"]["omega"] = omega
    cfg = tmp_path / "overflowing.config.json"
    cfg.write_text(json.dumps(data))
    assert main(["renorm-audit", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OVERFLOW
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"renorm-audit overflowing: {message}\n"
    assert not (tmp_path / "overflowing.report.json").exists()


def set_dim(value):
    def change(payload):
        payload["parameters"]["dim"] = value
    return change


def drop_dim(payload):
    del payload["parameters"]["dim"]


def set_top(key, value):
    def change(payload):
        payload[key] = value
    return change


def shorten_functional(payload):
    payload["source"]["certificate"]["functional"]["~a"].pop()


NOT_REPRODUCED = "certificate invalid: report does not reproduce from its source"


# The output of ``verify`` on each mutant at the commit before its normals
# were drawn ahead, with the report's path written as P.
@pytest.mark.parametrize(
    "change, message",
    [
        (drop_dim, NOT_REPRODUCED),
        (set_dim("7"), NOT_REPRODUCED),
        (set_dim(7.0), NOT_REPRODUCED),
        (set_dim(True), NOT_REPRODUCED),
        (set_dim(6), NOT_REPRODUCED),
        (set_dim(8), NOT_REPRODUCED),
        (set_dim(-1), NOT_REPRODUCED),
        (drop_embedded_eps, "certificate invalid: source.certificate.eps: missing"),
        (
            shorten_functional,
            "certificate invalid: source.certificate.generator.law: table law holds 7 "
            "entries, requested 6",
        ),
        (set_top("seed", -1), "expected non-negative integer"),
        (set_top("vector_samples", -1), "negative dimensions are not allowed"),
        (set_top("vector_samples", 0), NOT_REPRODUCED),
        (
            set_top("vector_samples", 10**13),
            "Unable to allocate 1019. TiB for an array with shape (2, 10000000000000, 7) "
            "and data type float64",
        ),
        (
            set_top("vector_samples", 10**17),
            "array is too big; `arr.size * arr.dtype.itemsize` is larger than the "
            "maximum possible size.",
        ),
    ],
    ids=[
        "no_dim", "dim_string", "dim_float", "dim_bool", "dim_below", "dim_above",
        "dim_negative", "no_eps", "short_functional", "negative_seed", "negative_samples",
        "no_samples", "huge_samples", "vast_samples",
    ],
)
def test_split_report_errors_keep_their_messages(tmp_path, capsys, change, message):
    path = split_report_copy(tmp_path, change)
    assert main(["verify", str(path)]) == EXIT_INVALID
    out = capsys.readouterr().out.replace(str(path), "P")
    first = f"FAIL P: {message}\n"
    if message.startswith("certificate invalid: "):
        first += f"  - {message.removeprefix('certificate invalid: ')}\n"
    assert out == first
