"""Config parsing: shipped files, field validation, overrides."""

import math

import pytest

from semigroup_lab import load_config, pairing, parse_config
from semigroup_lab.errors import ConfigError
from semigroup_lab.serialize import CONFIG_SCHEMA

SHIPPED = [
    "two_point",
    "bounded_oracle",
    "blowup_k5",
    "split_renorm",
    "bounded_contrapositive",
    "classical_renorm",
    "sweep_bounded",
]


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_configs_materialize(name):
    cfg = load_config(name)
    assert cfg.name == name
    if cfg.generator_spec is not None:
        a = cfg.generator()
        assert a.dim == cfg.dim
    if cfg.functional_spec is not None:
        f = cfg.functional()
        assert f.dim == cfg.dim
        if cfg.vector_spec is not None:
            cfg.vector(f)
    if cfg.witness_spec is not None:
        params = cfg.witness_params()
        assert 0.0 < params.eps < 0.5
    if cfg.renorm_spec is not None:
        cfg.renorm_params()
    if cfg.sweep_spec is None:
        cfg.schedule()


def minimal(**overrides):
    data = {
        "schema": CONFIG_SCHEMA,
        "name": "t",
        "seed": 1,
        "space": {"dim": 2, "p": 2.0},
        "schedule": {"j_min": 0, "j_max": 2},
    }
    data.update(overrides)
    return data


def test_parse_minimal():
    cfg = parse_config(minimal())
    assert cfg.dim == 2
    assert list(cfg.schedule()) == [1, 2, 4]


def test_projection_without_a_section_is_refused_by_name():
    # the CLI asks for a projection only when the config declares one
    with pytest.raises(ConfigError, match="^config declares no projection$"):
        parse_config(minimal()).projection()


def test_rejects_wrong_schema():
    with pytest.raises(ConfigError, match="schema"):
        parse_config(minimal(schema="something/else/9"))


def test_rejects_bad_dimension():
    with pytest.raises(ConfigError, match="space.dim"):
        parse_config(minimal(space={"dim": "x", "p": 2.0}))


def test_rejects_bad_exponent():
    with pytest.raises(ConfigError, match="space.p"):
        parse_config(minimal(space={"dim": 2, "p": 3.0}))


def test_rejects_inverted_schedule():
    with pytest.raises(ConfigError, match="schedule"):
        parse_config(minimal(schedule={"j_min": 5, "j_max": 2}))


def test_rejects_unknown_law_kind():
    data = minimal(
        generator={"kind": "diagonal", "law": {"kind": "nope"}},
    )
    with pytest.raises(ConfigError, match="law"):
        parse_config(data).generator()


def test_numbers_accept_hex_strings():
    cfg = parse_config(minimal(tolerance="0x1.8p1"))
    assert cfg.tolerance == 3.0


def test_numbers_accept_tagged_floats():
    cfg = parse_config(minimal(tolerance={"~f": (0.125).hex()}))
    assert cfg.tolerance == 0.125


def test_with_overrides():
    cfg = load_config("two_point")
    other = cfg.with_overrides(seed=99, tolerance=0.5)
    assert other.seed == 99
    assert other.tolerance == 0.5
    assert other.dim == cfg.dim
    assert cfg.seed != 99


def test_basis_vector_gauges_against_functional():
    cfg = load_config("blowup_k5")
    f = cfg.functional()
    x = cfg.vector(f)
    assert pairing(f, x) == pytest.approx(1.0, abs=1e-12)


def test_missing_file_and_unknown_name():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.json")
    with pytest.raises(ConfigError):
        load_config("no_such_shipped_config")


def test_infinite_exponent_roundtrip():
    cfg = parse_config(minimal(space={"dim": 2, "p": "inf"}))
    assert cfg.p == math.inf
