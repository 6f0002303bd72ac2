"""Repository tooling: the law designer, the shipped configs regenerate
from their script, and nothing in the package or its tools names scipy."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from semigroup_lab import (
    CVec, Functional, build_certificate, diagonal_generator, law_entries, verify_certificate
)
from semigroup_lab.cli import EXIT_OK, main

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "tools" / "make_shipped_configs.py"
SHIPPED = REPO / "src" / "semigroup_lab" / "configs"
NAMES = sorted(p.name for p in SHIPPED.glob("*.config.json"))


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("make_shipped_configs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def regenerated(script, tmp_path_factory):
    # the blow-up configs come from the law designer, whose builds run the
    # whole certificate pipeline
    script.OUT = tmp_path_factory.mktemp("configs")
    script.main()
    return script.OUT


def test_designer_fills_rungs_and_replays(script):
    f = Functional([0.01, 0.005, 0.0025, 0.00125], 2.0)
    z = CVec([100.0, 0.0, 0.0, 0.0], 2.0)
    law = script.design_blowup_law(f, z, eps=0.1, stage_goal=2)
    again = script.design_blowup_law(f, z, eps=0.1, stage_goal=2)
    assert law.values == again.values
    entries = law_entries(law, 4)
    assert np.all(np.diff(np.abs(entries)) >= 0.0)
    a = diagonal_generator(law, 4)
    first = build_certificate(a, f, z, eps=0.1, stage_goal=2, j_max=160, seed=7)
    second = build_certificate(a, f, z, eps=0.1, stage_goal=2, j_max=160, seed=7)
    assert np.array_equal(first.witness, second.witness)
    verify_certificate(first)
    assert first.stage_count == 2


def test_designer_requires_seed_on_first_coordinate(script):
    f = Functional([0.01, 0.005, 0.0025], 2.0)
    with pytest.raises(ValueError):
        script.design_blowup_law(f, CVec([0.0, 1.0, 0.0], 2.0), eps=0.1, stage_goal=1)


def test_script_writes_every_shipped_config(regenerated):
    assert len(NAMES) == 7
    assert sorted(p.name for p in regenerated.iterdir()) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_shipped_config_regenerates_byte_for_byte(regenerated, name):
    assert (regenerated / name).read_bytes() == (SHIPPED / name).read_bytes()


def test_deep_ladder_config_regenerates_byte_for_byte(script, tmp_path, monkeypatch):
    monkeypatch.setattr(script, "DEEP_LADDER", tmp_path / "blowup_k17.config.json")
    script.write_deep_ladder()
    pinned = REPO / "tests" / "data" / "configs" / "blowup_k17.config.json"
    assert (tmp_path / "blowup_k17.config.json").read_bytes() == pinned.read_bytes()


def test_k18_ladder_builds_and_verifies_through_the_cli(script, tmp_path):
    # one stage past the pinned K = 17 ladder, at 2^890; at K = 19 the
    # stability radius falls under the underflow floor
    config = tmp_path / "blowup_k18.config.json"
    config.write_text(script.dumps(script.blowup_config(stages=18, dim=20, j_max=1023)))
    assert main(["witness", "--config", str(config), "--out", str(tmp_path)]) == EXIT_OK
    assert main(["verify", str(tmp_path / "blowup_k18.cert.json")]) == EXIT_OK


def test_nothing_names_scipy():
    # the package's matrix exponential is its own; a scipy name anywhere
    # would put a dependency and its import cost back
    sources = [REPO / "src" / "semigroup_lab", REPO / "tools", REPO / "pyproject.toml"]
    naming = {
        path.relative_to(REPO).as_posix()
        for root in sources
        for path in ([root] if root.is_file() else root.rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts and "scipy" in path.read_text()
    }
    assert naming == set()
