"""What the command line reaches: every function of the package runs when the
shipped configs and ``verify`` go through ``cli.main``, save those listed in
``NEVER_RAN``, each with what keeps it in the package.

A function that no run path calls either serves a caller outside the
package, named beside it, or belongs in the module that calls it.  The
trace takes one process: ``sys.setprofile`` on the calling thread and
``threading.setprofile`` on every thread started meanwhile, so the split
audit's ``SplitNormals`` helper thread is traced too.
"""

import inspect
import json
import sys
import threading
import types
from pathlib import Path

import semigroup_lab
from semigroup_lab.cli import EXIT_INVALID, EXIT_OK, EXIT_TRUNCATION, main

REPO = Path(__file__).resolve().parents[1]
# where the import found the package, the path its code objects carry
PACKAGE = Path(semigroup_lab.__file__).parent
SHIPPED = sorted((PACKAGE / "configs").glob("*.config.json"))
DATA = sorted((REPO / "tests" / "data").glob("*.json"))

COMMANDS = {
    "two_point": "limit-check",
    "bounded_oracle": "limit-check",
    "blowup_k5": "witness",
    "bounded_contrapositive": "witness",
    "split_renorm": "renorm-audit",
    "classical_renorm": "renorm-audit",
    "sweep_bounded": "sweep",
}

# Every function that no run path calls, as module.qualname, with its pin.
NEVER_RAN = {
    "trotter.scalar_trotter_value": "tests/test_acceptance.py import, the README sketch, "
    "perfbench/tracing.py SPANNED",
    "trotter.step_derivative": "tests/test_acceptance.py import, perfbench/tracing.py SPANNED",
    "trotter.step_pairing": "tests/test_acceptance.py import",
    "trotter.bounded_limit_oracle": "tests/test_acceptance.py import, "
    "perfbench/tracing.py SPANNED",
    "trotter.dense_trotter_apply": "tests/test_acceptance.py import, the README sketch, "
    "perfbench/tracing.py SPANNED, perfbench/rows.py call",
    "trotter.product_log_value": "perfbench/tracing.py SPANNED, as witness.product_log_value",
    "trotter._one_row": "serves step_derivative, step_pairing and product_log_value",
    "spaces.diagonal_generator_from_entries": "tests/test_acceptance.py import, the README sketch",
    "spaces.semigroup_apply": "perfbench/tracing.py SPANNED",
    "spaces.semigroup_matrix": "serves semigroup_apply",
    "spaces.semigroup_defect": "perfbench/tracing.py SPANNED",
    "spaces.clog1p": "perfbench/tracing.py COUNTED",
    "projections.project": "perfbench/tracing.py SPANNED",
    "projections.DenseProjection.dim": "serves project on a dense projection",
    "renorm.split_norm": "perfbench/tracing.py SPANNED",
    "renorm.classical_renorm_value": "perfbench/tracing.py SPANNED",
    "renorm.renorm_time_grid": "serves classical_renorm_value",
    "witness.validate_stability": "perfbench/tracing.py SPANNED",
    "witness._kernel_projector": "serves validate_stability",
    "witness.WitnessCertificate.generator": "tests/test_acceptance.py call",
    "errors.ScheduleExhausted.__str__": "the exit 4 message of a build no shipped config "
    "exhausts",
    "errors.UnderflowRadius.__str__": "the exit 5 message of a build no shipped config "
    "underflows",
    "errors.WitnessBuildError.__str__": "serves library callers; cli.main prints the cause",
}


def package_functions() -> dict[tuple[str, int, str], str]:
    """Every function defined in the package's sources, keyed as the code of
    a running frame names it, with its ``module.qualname``."""
    found = {}

    def walk(code: types.CodeType, module: str, prefix: str) -> None:
        for inner in code.co_consts:
            if not isinstance(inner, types.CodeType):
                continue
            qualname = prefix + inner.co_name
            if not inner.co_flags & inspect.CO_OPTIMIZED:  # a class body
                walk(inner, module, qualname + ".")
                continue
            if not inner.co_name.startswith("<"):  # not a lambda or comprehension
                key = (inner.co_filename, inner.co_firstlineno, inner.co_name)
                found[key] = f"{module}.{qualname}"
            walk(inner, module, qualname + ".<locals>.")

    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path.stem, "")
    return found


def clear_caches() -> None:
    """Empty every functools cache of the package, so that a cached function
    runs in the trace whatever ran before it in this process."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "semigroup_lab":
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def traced_run(tmp_path) -> tuple[set[tuple[str, int, str]], dict[str, int]]:
    """The functions of the package that ran, and the exit codes, while every
    shipped config went through the CLI and ``verify`` read back every
    output, every pinned file and one split report whose ``parameters.dim``
    is wrong."""
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            ran.add((code.co_filename, code.co_firstlineno, code.co_name))

    out = tmp_path / "out"
    codes = {}
    clear_caches()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        for config in SHIPPED:
            name = config.name.removesuffix(".config.json")
            codes[name] = main([COMMANDS[name], "--config", str(config), "--out", str(out)])
        codes["verify outputs"] = main(["verify", *map(str, sorted(out.glob("*.json")))])
        codes["verify data"] = main(["verify", *map(str, DATA)])
        # with no dimension to trust, verify draws no normals ahead, and the
        # audit draws its own streams (renorm._draws)
        report = json.loads((out / "split_renorm.report.json").read_text(encoding="utf-8"))
        report["parameters"]["dim"] += 1
        misstated = tmp_path / "misstated_dim.report.json"
        misstated.write_text(json.dumps(report), encoding="utf-8")
        codes["verify misstated dim"] = main(["verify", str(misstated)])
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return ran, codes


def test_every_package_function_runs_or_is_listed_with_its_pin(tmp_path, capsys):
    ran, codes = traced_run(tmp_path)
    capsys.readouterr()
    assert codes == {
        **dict.fromkeys(COMMANDS, EXIT_OK),
        "bounded_contrapositive": EXIT_TRUNCATION,
        "verify outputs": EXIT_OK,
        "verify data": EXIT_OK,
        "verify misstated dim": EXIT_INVALID,
    }
    never_ran = {name for key, name in package_functions().items() if key not in ran}
    unlisted = sorted(never_ran - NEVER_RAN.keys())
    running = sorted(NEVER_RAN.keys() - never_ran)
    assert (unlisted, running) == ([], []), (
        "move or list each function that never ran; drop each listed one that runs"
    )

