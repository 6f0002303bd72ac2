"""Tagged hex-float JSON: every finite double survives a round trip."""

import copy
import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import pytest

from semigroup_lab import (
    CVec,
    Functional,
    GrowthLaw,
    InvalidCertificate,
    build_certificate,
    cert_to_dict,
    dense_generator,
    diagonal_generator,
    diagonal_generator_from_entries,
    dumps_canonical,
    quasi_contractivity_audit,
    report_to_dict,
    verify_certificate,
)
from semigroup_lab.cli import _rebuild_report
from semigroup_lab.renorm import RenormReport
from semigroup_lab.serialize import (
    cert_from_dict,
    decode,
    encode,
    generator_from_dict,
    generator_to_dict,
    load_json,
    record_from_dict,
    record_to_dict,
    report_from_dict,
)
from semigroup_lab.witness import WitnessCertificate, WitnessStage

AWKWARD_FLOATS = [
    0.1,
    -0.0,
    1e-300,
    5e-324,  # smallest subnormal
    1.7976931348623157e308,
    math.pi,
    math.inf,
    -math.inf,
]


def roundtrip(value):
    return decode(json.loads(json.dumps(encode(value))))


@pytest.mark.parametrize("x", AWKWARD_FLOATS)
def test_float_roundtrip_bit_exact(x):
    back = roundtrip(x)
    assert back == x
    assert math.copysign(1.0, back) == math.copysign(1.0, x)


def test_nan_roundtrip():
    back = roundtrip(math.nan)
    assert math.isnan(back)


def test_complex_roundtrip():
    z = complex(-0.1, 1e-200)
    assert roundtrip(z) == z


def test_nested_structures():
    payload = {
        "a": [1, 2.5, True, None, "s"],
        "b": {"c": [complex(0.0, -3.3)]},
    }
    back = roundtrip(payload)
    assert back["a"] == [1, 2.5, True, None, "s"]
    assert back["a"][2] is True  # bool survives, not coerced to int
    assert back["b"]["c"][0] == complex(0.0, -3.3)


def test_numpy_values_become_plain_python():
    encoded = encode(
        {
            "i": np.int64(7),
            "f": np.float64(0.25),
            "arr": np.array([1.0 + 2.0j, 3.0]),
        }
    )
    text = json.dumps(encoded)
    back = decode(json.loads(text))
    assert back["i"] == 7 and isinstance(back["i"], int)
    assert back["f"] == 0.25
    assert back["arr"] == [1.0 + 2.0j, 3.0 + 0.0j]


def test_dumps_canonical_is_order_independent():
    one = dumps_canonical({"b": 1, "a": 2})
    two = dumps_canonical({"a": 2, "b": 1})
    assert one == two
    assert one.endswith("\n")


@pytest.mark.parametrize(
    "law",
    [
        GrowthLaw("poly", 1.5),
        GrowthLaw("imag_poly", 2.0),
        GrowthLaw("geom", 3.0),
        GrowthLaw("factorial"),
        GrowthLaw("imag_double_exp", 2.0),
        GrowthLaw("table", values=(0.0, 0.5j, complex(0.0, 1e80))),
    ],
)
def test_law_roundtrip(law):
    back = record_from_dict(GrowthLaw, json.loads(json.dumps(record_to_dict(law))))
    assert back.kind == law.kind
    assert back.param == law.param
    assert back.values == law.values


@pytest.mark.parametrize(
    "generator",
    [
        diagonal_generator(GrowthLaw("poly", 1.5), 3),
        dense_generator([[0.1, -2.0j], [1e-300, complex(0.5, 0.25)]]),
    ],
    ids=["diagonal", "dense"],
)
def test_generator_roundtrip(generator):
    # the report path: encode, JSON text, decode, rebuild
    desc = decode(json.loads(json.dumps(generator_to_dict(generator))))
    back = generator_from_dict(desc, generator.dim)
    assert back.law == generator.law
    assert generator_to_dict(back) == generator_to_dict(generator)


def test_lawless_diagonal_generator_is_described_by_a_table_law():
    a = diagonal_generator_from_entries([0.0, 0.5j, complex(-2.0, 1e-300)])
    desc = decode(json.loads(json.dumps(generator_to_dict(a))))
    assert desc["law"]["kind"] == "table"
    back = generator_from_dict(desc, a.dim)
    assert np.array_equal(back.entries, a.entries)


def test_writer_refuses_a_table_law_the_reader_refuses():
    # the entry moduli 0.1, 50, 1 decrease, so generator_from_dict refuses the
    # table law; the certificate verifies in memory but is never written
    a = diagonal_generator_from_entries([0.1j, 50j, 1j])
    f = Functional([1.0, 1.0, 1.0], 2.0)
    cert = build_certificate(a, f, CVec([1.0, 0.0, 0.0], 2.0), eps=0.1, stage_goal=0)
    verify_certificate(cert)
    with pytest.raises(ValueError, match="nondecreasing"):
        cert_to_dict(cert)


def test_unknown_generator_source_is_invalid():
    with pytest.raises(InvalidCertificate) as info:
        generator_from_dict({"kind": "diagonal", "entries": [1.0]}, 1)
    assert info.value.failures == ["generator.law: missing"]
    with pytest.raises(InvalidCertificate) as info:
        generator_from_dict({"kind": "sparse"}, 1)
    assert info.value.failures[0].startswith("generator.kind: ")


def test_malformed_report_names_the_field():
    with pytest.raises(InvalidCertificate) as info:
        report_from_dict({"schema": "semigroup-lab/report/1", "kind": "split"})
    assert info.value.failures == ["seed: missing"]

    # parameters are read when the report is re-run
    a = diagonal_generator(GrowthLaw("poly", 1.0), 3)
    report = quasi_contractivity_audit(
        "classical", a=a, omega=0.5, vector_samples=4, time_samples=2, grid_points=9
    )
    payload = report_to_dict(replace(report, source={"generator": generator_to_dict(a)}))
    assert report_to_dict(_rebuild_report(report_from_dict(payload))) == payload
    for mutate, message in [
        (lambda params: params.pop("dim"), "parameters.dim: missing"),
        (
            lambda params: params.update(omega="x"),
            "parameters.omega: cannot read 'x' as a number (use a 0x hex string or 'inf')",
        ),
    ]:
        broken = copy.deepcopy(payload)
        mutate(broken["parameters"])
        with pytest.raises(InvalidCertificate) as info:
            _rebuild_report(report_from_dict(broken))
        assert info.value.failures == [message]


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        (None, "seed", 1.5, "seed: expected an integer, got 1.5"),
        (None, "vector_samples", "4", "vector_samples: expected an integer, got '4'"),
        (None, "time_samples", True, "time_samples: expected an integer, got True"),
        (None, "passed", "no", "passed: expected true or false, got 'no'"),
        (None, "kind", 5, "kind: expected a string, got 5"),
        ("parameters", "dim", 3.0, "parameters.dim: expected an integer, got 3.0"),
        ("parameters", "grid_points", "9", "parameters.grid_points: expected an integer, got '9'"),
        (
            "parameters",
            "time_samples_requested",
            2.5,
            "parameters.time_samples_requested: expected an integer, got 2.5",
        ),
    ],
    ids=["seed", "vector_samples", "time_samples", "passed", "kind", "dim", "grid_points",
         "time_samples_requested"],
)
def test_report_integer_and_bool_fields_are_strict(section, key, value, message):
    a = diagonal_generator(GrowthLaw("poly", 1.0), 3)
    report = quasi_contractivity_audit(
        "classical", a=a, omega=0.5, vector_samples=4, time_samples=2, grid_points=9
    )
    payload = report_to_dict(replace(report, source={"generator": generator_to_dict(a)}))
    (payload if section is None else payload[section])[key] = value
    with pytest.raises(InvalidCertificate) as info:
        _rebuild_report(report_from_dict(payload))
    assert info.value.failures == [message]


def both_reports(cert):
    a = diagonal_generator(GrowthLaw("poly", 1.0), 3)
    classical = quasi_contractivity_audit(
        "classical", a=a, omega=0.5, vector_samples=4, time_samples=2, grid_points=9
    )
    split = quasi_contractivity_audit("split", cert=cert, seed=9, vector_samples=50)
    return [
        replace(classical, source={"generator": generator_to_dict(a)}),
        replace(split, source={"certificate": cert_to_dict(cert)}),
    ]


def field_names(cls):
    return {fld.name for fld in fields(cls)}


def test_every_record_field_is_written(k5_certificate):
    payload = cert_to_dict(k5_certificate)
    assert set(payload) == field_names(WitnessCertificate) - {"a"} | {"generator", "schema"}
    for stage in payload["stages"]:
        assert set(stage) == field_names(WitnessStage)
    for report in both_reports(k5_certificate):
        assert set(report_to_dict(report)) == field_names(RenormReport) | {"schema"}


def test_records_roundtrip_bit_for_bit(k5_certificate):
    # hex floats make equal encodings bit-identical values
    def through_json(payload):
        return json.loads(json.dumps(payload))

    for stage in k5_certificate.stages:
        back = record_from_dict(WitnessStage, through_json(record_to_dict(stage)))
        assert record_to_dict(back) == record_to_dict(stage)
    payload = cert_to_dict(k5_certificate)
    assert cert_to_dict(cert_from_dict(through_json(payload))) == payload
    for report in both_reports(k5_certificate):
        payload = report_to_dict(report)
        assert report_to_dict(report_from_dict(through_json(payload))) == payload


def test_shipped_split_report_reencodes_to_itself():
    payload = load_json(Path(__file__).parent / "data" / "split_renorm.report.json")
    assert report_to_dict(report_from_dict(payload)) == payload


def test_record_field_without_reader_is_refused():
    @dataclass
    class Odd:
        count: int
        shape: set

    with pytest.raises(TypeError, match="Odd.shape"):
        record_from_dict(Odd, {"count": 1, "shape": [2]})
    assert record_from_dict(Odd, {"count": 1, "shape": [2]}, shape=set).shape == {2}
