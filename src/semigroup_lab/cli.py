"""Command-line front end.

Subcommands: limit-check (scalar product-formula schedules, optionally
against the bounded-limit oracle), witness (build and save a blow-up
certificate), renorm-audit (split or classical renorming audit), verify
(recheck certificates and reports from disk), and sweep (randomized
bounded-convergence trials, run in order of their trial index).

Exit codes: 0 success, 2 configuration problems, 3 overflow with a
partial CSV written, 4 direction search exhausted the truncation or no
step count of the schedule met the accuracy target, 5 stability radius
underflow, 6 certificate or report verification failure, 1 anything else.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from collections.abc import Iterable
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, load_config, resolve_config_path
from .errors import (
    ConfigError,
    InvalidCertificate,
    ScheduleExhausted,
    SemigroupOverflow,
    SpectralBoundViolated,
    TruncationInsufficient,
    UnderflowRadius,
    WitnessBuildError,
)
from .projections import projection_norm, random_oblique_projection
from .renorm import quasi_contractivity_audit
from .serialize import (
    CERT_SCHEMAS,
    REPORT_SCHEMA,
    _field,
    _float,
    _int,
    _object,
    cert_from_dict,
    cert_to_dict,
    generator_from_dict,
    generator_to_dict,
    load_json,
    report_from_dict,
    report_to_dict,
    save_json,
)
from .spaces import CVec, Generator, norm, semigroup_defects
from .trotter import (
    bounded_limit_oracle,
    bounded_limit_oracles,
    dense_trotter_apply,
    require_unit_pairing,
    scalar_trotter_values,
)
from .witness import build_certificate, verify_certificate

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_OVERFLOW = 3
EXIT_TRUNCATION = 4
EXIT_UNDERFLOW = 5
EXIT_INVALID = 6

# Exit codes of a failed witness build, by the type of its cause.
BUILD_EXITS = (
    (TruncationInsufficient, EXIT_TRUNCATION),
    (ScheduleExhausted, EXIT_TRUNCATION),
    (UnderflowRadius, EXIT_UNDERFLOW),
    (SemigroupOverflow, EXIT_OVERFLOW),
)

# What ends a CSV subcommand with its partial CSV and EXIT_OVERFLOW: a value
# out of range, or a step count too large to divide a time by.
OVERFLOWS = (SemigroupOverflow, OverflowError)

LIMIT_CSV_SCHEMA = "semigroup-lab/limit-csv/1"
SWEEP_CSV_SCHEMA = "semigroup-lab/sweep-csv/1"


def _write_csv(path: Path, schema: str, fields: list[str], lines: list[str]) -> None:
    """Write a CSV from its already formatted rows: each row gives a float as
    its repr (the shortest string that reads back to it), a missing value
    as "" and a flag as 1 or 0."""
    path.write_text(
        "\n".join([f"# schema={schema}", ",".join(fields), *lines]) + "\n", encoding="utf-8"
    )


def _dividable(schedule: Iterable[int]) -> tuple[list[int], OverflowError | None]:
    """The step counts of a ladder before the first too large to divide a
    time by, and that count's OverflowError (None when there is none).  The
    counts are taken lazily, so a ladder stops at 2^1024 however long its
    schedule is."""
    counts: list[int] = []
    for n in schedule:
        try:
            float(n)
        except OverflowError as exc:
            return counts, exc
        counts.append(n)
    return counts, None


def _step_defects(a: Generator, steps: list[float]) -> np.ndarray | None:
    """The defects exp(hA) - I at a sweep trial's steps h, from one call, or
    None when some dense |hA| fails the overflow check; then each row meets
    that check itself, once the rows before it are written."""
    try:
        return semigroup_defects(a, steps)
    except SemigroupOverflow:
        return None


def _limit_target(oracle: np.ndarray, x: CVec, t: float) -> np.ndarray:
    """The bounded-limit oracle's target exp(tPAP)Px at t, or SemigroupOverflow
    when the oracle overflowed and left inf or NaN entries."""
    with np.errstate(over="ignore", invalid="ignore"):
        target = oracle @ x.coords
    if not np.all(np.isfinite(target)):
        raise SemigroupOverflow(f"bounded limit oracle overflowed at t = {t!r}")
    return target


def run_limit_check(cfg: ExperimentConfig, out_dir: Path) -> int:
    a = cfg.generator()
    f = cfg.functional()
    x = cfg.vector(f)
    try:
        require_unit_pairing(f, x)
    except ValueError as exc:
        raise ConfigError(f"vector: {exc}") from exc
    proj = None
    if cfg.projection_spec is not None:
        proj = cfg.projection(f, x)
    fields = [
        "steps",
        "step_re",
        "step_im",
        "deriv_re",
        "deriv_im",
        "log_re",
        "log_im",
        "value_re",
        "value_im",
        "err_vs_limit",
        "path",
        "branch_ambiguous",
    ]
    if proj is not None:
        fields.append("product_gap")
    lines: list[str] = []
    code = EXIT_OK
    last_err = math.inf
    try:
        counts, undividable = _dividable(cfg.schedule())
        # the scalar record and the dense product of a row share one defect;
        # the steps t/n shrink, so a dense overflow stops the first row
        defects = semigroup_defects(a, [cfg.time / float(n) for n in counts])
        records = scalar_trotter_values(a, f, x, cfg.time, counts, defects)
        if proj is not None:
            oracle_vec = _limit_target(bounded_limit_oracle(a, proj, cfg.time), x, cfg.time)
        for k, rec in enumerate(records):
            step, deriv, log, value = rec.step_value, rec.derivative, rec.log_value, rec.value
            line = (
                f"{rec.steps},{step.real!r},{step.imag!r},{deriv.real!r},{deriv.imag!r},"
                f"{log.real!r},{log.imag!r},"
                + ("," if value is None else f"{value.real!r},{value.imag!r}")
                + f",{rec.err_vs_limit!r},{rec.path},{1 if rec.branch_ambiguous else 0}"
            )
            if proj is not None:
                product = dense_trotter_apply(a, proj, x, cfg.time, rec.steps, defect=defects[k])
                line += f",{norm(CVec(product.coords - oracle_vec, x.p))!r}"
            lines.append(line)
            last_err = rec.err_vs_limit
        if undividable is not None:
            raise undividable
    except OVERFLOWS as exc:
        print(f"overflow after {len(lines)} rows: {exc}", file=sys.stderr)
        code = EXIT_OVERFLOW
    out_path = out_dir / f"{cfg.name}.limit.csv"
    _write_csv(out_path, LIMIT_CSV_SCHEMA, fields, lines)
    verdict = "within" if last_err <= cfg.tolerance else "above"
    print(
        f"limit-check {cfg.name}: {len(lines)} rows -> {out_path}; "
        f"final error {last_err:.3g} {verdict} tolerance {cfg.tolerance:.3g}"
    )
    return code


def _build_from_config(cfg: ExperimentConfig):
    """Build the config's witness certificate.  A WitnessBuildError goes up
    to ``main``, which maps its cause to the exit code."""
    a = cfg.generator()
    f = cfg.functional()
    z = cfg.vector(f)
    params = cfg.witness_params()
    return build_certificate(
        a,
        f,
        z,
        eps=params.eps,
        stage_goal=params.stages,
        j_max=params.j_max,
        seed=cfg.seed,
        margin=params.margin,
        validation_samples=params.validation_samples,
    )


def run_witness(cfg: ExperimentConfig, out_dir: Path) -> int:
    cert_path = out_dir / f"{cfg.name}.cert.json"
    try:
        cert = _build_from_config(cfg)
    except WitnessBuildError as failure:
        if failure.partial is not None:
            save_json(cert_path, cert_to_dict(failure.partial))
            print(
                f"partial certificate ({len(failure.partial.stages)} stage(s)) "
                f"-> {cert_path}",
                file=sys.stderr,
            )
        raise
    verify_certificate(cert)
    save_json(cert_path, cert_to_dict(cert))
    for st in cert.stages:
        print(
            f"stage {st.index}: Re f(Ax) = {st.generator_pairing.real:.4f}, "
            f"steps = 2^{st.steps.bit_length() - 1}, "
            f"radius = {st.stability_radius:.3g}, error = {st.limit_error:.3g}"
        )
    print(
        f"witness {cfg.name}: {cert.stage_count} stages certified -> {cert_path}"
    )
    return EXIT_OK


def run_renorm_audit(cfg: ExperimentConfig, out_dir: Path, config_dir: Path) -> int:
    params = cfg.renorm_params()
    if params.kind == "classical":
        a = cfg.generator()
        try:
            report = quasi_contractivity_audit(
                "classical",
                a=a,
                omega=params.omega,
                p=cfg.p,
                seed=cfg.seed,
                vector_samples=params.vector_samples,
                time_samples=params.time_samples,
                grid_points=params.grid_points,
                tol=params.tol,
            )
        except SpectralBoundViolated as exc:
            raise ConfigError(f"renorm.omega: {exc}") from exc
        report = replace(report, source={"generator": generator_to_dict(a)})
    else:
        if params.certificate is not None:
            cert_path = Path(params.certificate)
            if not cert_path.is_absolute():
                cert_path = config_dir / cert_path
            try:
                payload = load_json(cert_path)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"renorm.certificate: cannot read {cert_path}: {exc}") from exc
            cert = cert_from_dict(payload)
        else:
            cert = _build_from_config(cfg)
        verify_certificate(cert)
        report = quasi_contractivity_audit(
            "split",
            cert=cert,
            seed=cfg.seed,
            vector_samples=params.vector_samples,
            slack=params.slack,
        )
        report = replace(report, source={"certificate": cert_to_dict(cert)})
    out_path = out_dir / f"{cfg.name}.report.json"
    save_json(out_path, report_to_dict(report))
    state = "passed" if report.passed else f"FAILED ({len(report.violations)} violations)"
    print(f"renorm-audit {cfg.name} [{report.kind}]: {state} -> {out_path}")
    if report.lambdas:
        gaps = ", ".join(f"{v:.4f}" for v in report.lambdas)
        print(f"growth exponent lower bounds: {gaps}")
    return EXIT_OK if report.passed else EXIT_FAIL


def _named(prefix: str, read, *args):
    """``read(*args)``, with each decoding failure named under ``prefix``."""
    try:
        return read(*args)
    except InvalidCertificate as exc:
        raise InvalidCertificate([prefix + line for line in exc.failures]) from exc


def _bound(raw) -> float:
    """An audit bound read back from a report.  A NaN or infinite one is
    never exceeded, so it would switch the replayed check off."""
    value = _float(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    return value


def _rebuild_report(report):
    """The audit ``report`` records, re-run from its embedded source.  The
    fresh report carries no source: it was read from the stored one."""
    src, params = report.source, report.parameters
    if "certificate" in src:
        cert = _named("source.certificate.", cert_from_dict, src["certificate"])
        verify_certificate(cert)
        fresh = quasi_contractivity_audit(
            "split",
            cert=cert,
            seed=report.seed,
            vector_samples=report.vector_samples,
            slack=_field(params, "slack", _bound, "parameters."),
        )
    elif "generator" in src:
        dim = _field(params, "dim", _int, "parameters.")
        a = _named("source.", generator_from_dict, src["generator"], dim)
        fresh = quasi_contractivity_audit(
            "classical",
            a=a,
            omega=_field(params, "omega", _float, "parameters."),
            p=_field(params, "p", _float, "parameters."),
            seed=report.seed,
            vector_samples=report.vector_samples,
            time_samples=_field(params, "time_samples_requested", _int, "parameters."),
            grid_points=_field(params, "grid_points", _int, "parameters."),
            tol=_field(params, "tol", _bound, "parameters."),
        )
    else:
        raise InvalidCertificate(["report embeds no source to re-run"])
    return fresh


def run_verify(paths: list[str]) -> int:
    code = EXIT_OK
    for raw in paths:
        path = Path(raw)
        try:
            data = load_json(path)
        except Exception as exc:
            print(f"FAIL {path}: unreadable ({exc})")
            code = EXIT_INVALID
            continue
        try:
            schema = _object(data).get("schema")
            if schema in CERT_SCHEMAS:
                cert = cert_from_dict(data)
                verify_certificate(cert)
                print(
                    f"PASS {path}: certificate, {cert.stage_count} stages, "
                    f"eps = {cert.eps:g}"
                )
            elif schema == REPORT_SCHEMA:
                report = report_from_dict(data)
                fresh = _rebuild_report(report)
                if report_to_dict(fresh) != report_to_dict(replace(report, source={})):
                    raise InvalidCertificate(["report does not reproduce from its source"])
                state = "passed" if report.passed else "recorded violations"
                print(f"PASS {path}: {report.kind} report reproduces ({state})")
            else:
                raise InvalidCertificate([f"unknown schema {schema!r}"])
        except InvalidCertificate as exc:
            print(f"FAIL {path}: {exc}")
            for line in exc.failures[:10]:
                print(f"  - {line}")
            code = EXIT_INVALID
        except Exception as exc:
            print(f"FAIL {path}: {exc}")
            code = EXIT_INVALID
    return code


def run_sweep(cfg: ExperimentConfig, out_dir: Path) -> int:
    params = cfg.sweep_params()
    steps = 2 ** min(cfg.j_max, 1024)  # 2^1024 already divides no time
    lines: list[str] = []
    gaps: list[float] = []
    overflowed = False
    for trial in range(params.trials):
        rng = np.random.default_rng([cfg.seed, trial])
        dim = int(rng.integers(params.dim_min, params.dim_max + 1))
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        matrix = raw * (params.generator_norm / np.linalg.norm(raw, 2))
        a = Generator(kind="dense", matrix=matrix)
        rank = int(rng.integers(1, dim))
        proj = random_oblique_projection(dim, rank, rng, norm_cap=params.projection_norm_cap)
        x = CVec(rng.standard_normal(dim) + 1j * rng.standard_normal(dim), 2.0)
        try:
            oracles = bounded_limit_oracles(a, proj, params.times)
            defects = _step_defects(a, [t / float(steps) for t in params.times])
            tail = f"{projection_norm(proj)!r},{params.generator_norm!r}"
            for k, t in enumerate(params.times):
                defect = None if defects is None else defects[k]
                product = dense_trotter_apply(a, proj, x, t, steps, defect=defect)
                gap = norm(CVec(product.coords - _limit_target(oracles[k], x, t), x.p))
                gaps.append(gap)
                lines.append(f"{trial},{dim},{rank},{t!r},{steps},{gap!r},{tail}")
        except OVERFLOWS:
            overflowed = True
    fields = [
        "trial",
        "dim",
        "rank",
        "time",
        "steps",
        "product_gap",
        "projection_norm",
        "generator_norm",
    ]
    out_path = out_dir / f"{cfg.name}.sweep.csv"
    _write_csv(out_path, SWEEP_CSV_SCHEMA, fields, lines)
    worst = max(gaps, default=math.nan)
    print(
        f"sweep {cfg.name}: {len(lines)} rows over {params.trials} trials -> {out_path}; "
        f"worst gap {worst:.3g} vs tolerance {cfg.tolerance:.3g}"
    )
    return EXIT_OVERFLOW if overflowed else EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call of a process and
    reused by every later one (``parse_args`` keeps no state between calls)."""
    parser = argparse.ArgumentParser(
        prog="semigroup-lab",
        description="Product-formula limits, blow-up witnesses, renorming audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_common(p: argparse.ArgumentParser, tolerance: bool = True) -> None:
        p.add_argument("--config", required=True, help="config path or shipped config name")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if tolerance:
            p.add_argument(
                "--tolerance", type=float, default=None, help="override the config tolerance"
            )

    with_common(sub.add_parser("limit-check", help="scalar product schedule to CSV"))
    with_common(sub.add_parser("witness", help="build a blow-up certificate"), tolerance=False)
    with_common(sub.add_parser("renorm-audit", help="audit a renorming route"))
    verify_parser = sub.add_parser("verify", help="recheck certificates and reports")
    verify_parser.add_argument("paths", nargs="+", help="cert/report JSON files")
    with_common(sub.add_parser("sweep", help="randomized bounded-convergence trials"))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "verify":
        return run_verify(args.paths)
    try:
        config_path = resolve_config_path(args.config)
        cfg = load_config(config_path)
        cfg = cfg.with_overrides(
            seed=args.seed, tolerance=getattr(args, "tolerance", None)
        )
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file, or a path under one
            raise ConfigError(f"--out: {exc}") from exc
        if args.command == "limit-check":
            return run_limit_check(cfg, out_dir)
        if args.command == "witness":
            return run_witness(cfg, out_dir)
        if args.command == "renorm-audit":
            return run_renorm_audit(cfg, out_dir, config_path.parent)
        if args.command == "sweep":
            return run_sweep(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvalidCertificate as exc:
        print(exc, file=sys.stderr)
        return EXIT_INVALID
    except WitnessBuildError as failure:
        print(f"witness build failed: {failure.cause}", file=sys.stderr)
        return next(
            (code for kind, code in BUILD_EXITS if isinstance(failure.cause, kind)), EXIT_FAIL
        )
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
