"""A deterministic field sweep of ``verify`` over the payloads in tests/data.

Each leaf (a number, string, boolean, null, or tagged float or complex) is
set to each of a fixed list of wrong values, and the mutant goes through
``cli.main(["verify", ...])``.  It must exit 0 or 6 without a traceback,
and it may exit 0 only where ``verify`` is documented not to check, or
where the codec reads the mutant as the original payload (a 0 written for
a zero entry, a null for a field whose default it holds, a /1 legacy key
that the certificate's other generator key overrides).  Large payloads
are sampled with a fixed seed to keep the sweep within a few seconds.
"""

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest

from semigroup_lab.cli import EXIT_INVALID, EXIT_OK, main
from semigroup_lab.serialize import (
    CERT_SCHEMAS,
    cert_from_dict,
    cert_to_dict,
    generator_from_dict,
    generator_to_dict,
    report_from_dict,
    report_to_dict,
)

DATA = Path(__file__).parent / "data"
WRONG_VALUES = [None, True, "x", "0.5", [], {}, -1, 0, 1e308, math.nan]
# mutants per payload; the classical report replays in a few ms, so all of
# its mutants run
SAMPLES = {"classical_renorm.report.json": None}
DEFAULT_SAMPLES = 120

# Fields verify does not recompute: how a stage's bump was searched, and the
# build's starting vector and seed.
UNCHECKED = {"bump_radius", "search_target", "direction_index", "initial", "build_seed"}
# Inputs of a report's re-run whose mutants can be honest reports of the
# audit they name, unless they are NaN (a NaN switches off the comparison
# it enters).  A passing audit reproduces under any bound at least as
# lax.  The shipped classical report records only its spectral bound, its
# horizon and a worst excess of exactly 0 (the excess at shift 0, which no
# later shift exceeds for a contraction semigroup), so it reads the same
# for every seed, and for every such generator with that spectral bound.
HONEST = {
    "classical_renorm.report.json": {"seed", "tol", "generator"},
    "split_renorm.report.json": {"slack"},
}


def leaves(node, path=()):
    if isinstance(node, dict) and node and set(node) <= {"~f", "~c"}:
        yield path
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from leaves(value, path + (index,))
    else:
        yield path


def mutate(payload, path, value):
    out = copy.deepcopy(payload)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def reading(payload):
    """The payload as the codec reads it, written back; None if refused."""
    try:
        if payload["schema"] in CERT_SCHEMAS:
            return cert_to_dict(cert_from_dict(payload))
        out = report_to_dict(report_from_dict(payload))
        source = out["source"]
        if "certificate" in source:
            source["certificate"] = cert_to_dict(cert_from_dict(source["certificate"]))
        if "generator" in source:
            dim = out["parameters"]["dim"]
            source["generator"] = generator_to_dict(generator_from_dict(source["generator"], dim))
        return out
    except Exception:
        return None


def field_names(path):
    return {key for key in path if isinstance(key, str) and key != "~a"}


def mutants(name):
    payload = json.loads((DATA / name).read_text())
    every = [(path, value) for path in leaves(payload) for value in WRONG_VALUES]
    count = SAMPLES.get(name, DEFAULT_SAMPLES)
    if count is not None:
        picked = np.random.default_rng(list(name.encode())).choice(len(every), count, replace=False)
        every = [every[i] for i in sorted(picked)]
    return payload, every


@pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.json")))
def test_verify_field_sweep(tmp_path, capsys, name):
    payload, cases = mutants(name)
    original = reading(payload)
    assert original is not None
    path_out = tmp_path / name
    for path, value in cases:
        mutant = mutate(payload, path, value)
        path_out.write_text(json.dumps(mutant))
        with np.errstate(all="ignore"):  # 1e308 overflows on its way to a refusal
            code = main(["verify", str(path_out)])
        out = capsys.readouterr()
        where = f"{'/'.join(map(str, path))} = {value!r}"
        assert "Traceback" not in out.out + out.err, where
        if reading(mutant) == original:
            assert code == EXIT_OK, where
        else:
            assert code in (EXIT_OK, EXIT_INVALID), where
            names = field_names(path)
            nan = isinstance(value, float) and math.isnan(value)
            honest = names & HONEST.get(name, set()) and not nan
            assert code == EXIT_INVALID or names & UNCHECKED or honest, where
