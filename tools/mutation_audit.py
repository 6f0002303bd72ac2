#!/usr/bin/env python3
"""Find the checks of a module that no test catches.

A check is the condition of a ``_check(...)`` call, or the test of an
``if`` whose body only raises or appends a failure.  For each check in
turn, the script copies the module's package into a temporary directory,
replaces that one condition with one that never fires (``True`` for a
``_check`` condition, ``False`` for an ``if`` test), and runs the given
pytest selection against the copy.  A check whose mutant still passes
every selected test is printed as a survivor.  The working tree is never
changed.

The replacement keeps every line where it was, so a test that reads the
module's source or line numbers sees them as they are.  Each mutant runs
with ``-x``, so a caught one stops at its first failing test.  Usage:

    python tools/mutation_audit.py src/semigroup_lab/config.py -- tests/test_cli.py tests/test_config.py
    python tools/mutation_audit.py src/semigroup_lab/witness.py --function verify_certificate -- tests

The unmutated copy must pass the selection first.  The exit status is 0
when no check survives and 1 when one does.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# seconds before a test run is cut; a mutant that loops forever counts as caught
_TIMEOUT = 900.0


def _only_fails(body: list[ast.stmt]) -> bool:
    """Whether every statement of ``body`` raises or appends (a failure)."""
    return all(
        isinstance(stmt, ast.Raise)
        or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Attribute)
            and stmt.value.func.attr == "append"
        )
        for stmt in body
    )


def checks(source: str, function: str | None = None) -> list[tuple[ast.expr, str]]:
    """Each check's condition node and the constant that switches it off
    (``True`` for a ``_check`` call, ``False`` for an ``if``), in source
    order; only those inside ``function`` when one is named."""
    tree = ast.parse(source)
    roots = [tree]
    if function is not None:
        roots = [
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == function
        ]
        if not roots:
            raise SystemExit(f"no function {function!r} in the module")
    found = []
    for root in roots:
        for node in ast.walk(root):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "_check"
                and node.args
            ):
                found.append((node.args[0], "True"))
            elif isinstance(node, ast.If) and _only_fails(node.body):
                found.append((node.test, "False"))
    return sorted(found, key=lambda item: (item[0].lineno, item[0].col_offset))


def mutate(source: str, node: ast.expr, constant: str) -> str:
    """``source`` with ``node`` replaced by ``constant``, in parentheses that
    span the node's lines so that no later line moves."""
    data = source.encode("utf-8")
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    begin = starts[node.lineno - 1] + node.col_offset
    end = starts[node.end_lineno - 1] + node.end_col_offset
    text = "(" + constant + "\n" * (node.end_lineno - node.lineno) + ")"
    return (data[:begin] + text.encode("utf-8") + data[end:]).decode("utf-8")


def run_tests(root: Path, pytest_args: list[str]) -> tuple[bool, str]:
    """Whether the selection passes with the package copy under ``root``
    first on the import path, and the last lines pytest printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *pytest_args]
    try:
        result = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=_TIMEOUT)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {_TIMEOUT:g} s"
    return result.returncode == 0, "\n".join(result.stdout.splitlines()[-15:])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        usage="%(prog)s [-h] [--function NAME] module -- PYTEST_ARGS...",
    )
    parser.add_argument("module", type=Path, help="a module file inside a package directory")
    parser.add_argument("--function", help="audit only the checks inside this function")
    # everything after "--" goes to pytest as it is
    argv = sys.argv[1:] if argv is None else argv
    cut = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:cut])
    pytest_args = argv[cut + 1 :]

    module = args.module.resolve()
    package = module.parent
    source = module.read_text(encoding="utf-8")
    found = checks(source, args.function)
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutation-audit-") as tmp:
        root = Path(tmp)
        copy = root / package.name / module.name
        shutil.copytree(package, root / package.name, ignore=shutil.ignore_patterns("__pycache__"))
        probe = subprocess.run(
            [sys.executable, "-c", f"import {package.name}; print({package.name}.__file__)"],
            env={**os.environ, "PYTHONPATH": str(root)},
            capture_output=True,
            text=True,
        )
        if not probe.stdout.startswith(str(root)):
            raise SystemExit(f"the copy under {root} is not the package that imports")
        passed, tail = run_tests(root, pytest_args)
        if not passed:
            raise SystemExit(f"{tail}\nthe selection fails on the unmutated copy")
        for k, (node, constant) in enumerate(found, 1):
            copy.write_text(mutate(source, node, constant), encoding="utf-8")
            caught = not run_tests(root, pytest_args)[0]
            kind = "_check" if constant == "True" else "if"
            where = f"{args.module}:{node.lineno} ({kind})"
            print(f"[{k}/{len(found)}] {where}: {'caught' if caught else 'SURVIVED'}", flush=True)
            if not caught:
                survivors.append(f"{where}: {ast.get_source_segment(source, node)}")
    print(f"{len(survivors)} of {len(found)} checks survived")
    for line in survivors:
        print(f"  {line}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
