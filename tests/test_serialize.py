"""Tagged hex-float JSON: every finite double survives a round trip."""

import base64
import copy
import json
import math
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from semigroup_lab import (
    CVec,
    Functional,
    Generator,
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
from semigroup_lab.cli import EXIT_INVALID, _rebuild_report, main
from semigroup_lab.renorm import RenormReport
from semigroup_lab.serialize import (
    PACKED_DTYPES,
    _entries,
    _entry,
    _matrix,
    _vector,
    cert_from_dict,
    decode,
    encode,
    generator_from_dict,
    generator_to_dict,
    load_json,
    pack,
    record_from_dict,
    record_to_dict,
    report_from_dict,
    unpack,
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
    # hex keeps a NaN's sign, though not its payload, as a float, in a
    # complex and in an array
    for sign in (1.0, -1.0):
        nan = math.copysign(math.nan, sign)
        back = roundtrip(nan)
        assert math.isnan(back) and math.copysign(1.0, back) == sign
        z = roundtrip(complex(nan, -nan))
        assert (math.copysign(1.0, z.real), math.copysign(1.0, z.imag)) == (sign, -sign)
        (w,) = roundtrip(np.array([complex(-nan, nan)]))
        assert (math.copysign(1.0, w.real), math.copysign(1.0, w.imag)) == (-sign, sign)


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


def test_writer_refuses_a_law_that_is_not_the_generators():
    # only diagonal_generator attaches a law, with the entries it forms;
    # a generator put together by hand is checked where it becomes a record
    law = GrowthLaw("poly", 1.0)
    a = Generator(kind="diagonal", entries=[-1.0, -2.0, -4.0], law=law)
    with pytest.raises(ValueError, match="^diagonal entries disagree with the declared law$"):
        generator_to_dict(a)
    assert generator_to_dict(replace(a, entries=[-1.0, -2.0, -3.0]))["law"] == record_to_dict(law)


def test_a_generator_from_a_law_forms_its_entries_once(monkeypatch):
    import semigroup_lab.serialize as serialize
    import semigroup_lab.spaces as spaces

    calls = []
    entries = spaces.law_entries

    def counted(law, dim):
        calls.append(law.kind)
        return entries(law, dim)

    monkeypatch.setattr(spaces, "law_entries", counted)
    monkeypatch.setattr(serialize, "law_entries", counted)
    desc = generator_to_dict(diagonal_generator(GrowthLaw("imag_poly", 1.0), 4))
    assert calls == ["imag_poly", "imag_poly"]  # one build, one written record
    generator_from_dict(desc, 4)
    assert calls == ["imag_poly"] * 3


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
    # the re-run carries no source: verify compares everything but the source
    assert report_to_dict(_rebuild_report(report_from_dict(payload))) == {**payload, "source": {}}
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


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("lambdas", {}, "lambdas: expected a list, got {}"),
        ("lambdas", "0x1p0", "lambdas: expected a list, got '0x1p0'"),
        ("violations", {"0": [1, 2.0]}, "violations: expected a list, got {'0': [1, 2.0]}"),
        ("violations", [{"0": 1}], "violations: expected a list, got {'0': 1}"),
        ("parameters", [1], "parameters: expected an object, got [1]"),
        ("summary", 5, "summary: expected an object, got 5"),
    ],
    ids=["lambdas_object", "lambdas_string", "violations_object", "violation_row_object",
         "parameters_list", "summary_number"],
)
def test_report_container_fields_are_strict(key, value, message):
    a = diagonal_generator(GrowthLaw("poly", 1.0), 3)
    report = quasi_contractivity_audit(
        "classical", a=a, omega=0.5, vector_samples=4, time_samples=2, grid_points=9
    )
    payload = report_to_dict(replace(report, source={"generator": generator_to_dict(a)}))
    payload[key] = value
    with pytest.raises(InvalidCertificate) as info:
        report_from_dict(payload)
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
    assert set(payload) == field_names(WitnessCertificate) - {"a"} | {
        "generator", "schema", "stage_values"
    }
    # each stage's integer fields in its row, every other field in a column
    integers = {"index", "steps", "direction_index"}
    for stage in payload["stages"]:
        assert set(stage) == integers
    assert set(payload["stage_values"]) == field_names(WitnessStage) - integers
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


@pytest.mark.parametrize(
    "value",
    [complex(1.5, math.inf), complex(-math.inf, 0.0), complex(math.nan, 1.0)],
    ids=["inf_imag", "neg_inf_real", "nan_real"],
)
def test_certificate_refuses_a_non_finite_generator_pairing(value):
    payload = load_json(Path(__file__).parent / "data" / "blowup_k5.v2.cert.json")
    cert_from_dict(payload)
    payload["stages"][1]["generator_pairing"] = encode(value)
    with pytest.raises(InvalidCertificate) as info:
        cert_from_dict(payload)
    assert info.value.failures == ["stages[1].generator_pairing: must be finite"]


def test_record_field_without_reader_is_refused():
    @dataclass
    class Odd:
        count: int
        shape: set

    with pytest.raises(TypeError, match="Odd.shape"):
        record_from_dict(Odd, {"count": 1, "shape": [2]})
    assert record_from_dict(Odd, {"count": 1, "shape": [2]}, shape=set).shape == {2}


# Each malformed dense matrix with the message it has always been refused
# with; the matrix is decoded once, then read row by row and entry by entry.
@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[1.0, 0.0], [0.0]], "1 entries, space is 2"),
        ([[1.0, True], [0.0, 1.0]], "expected a number, got True"),
        (
            [[1.0, "0.5"], [0.0, 1.0]],
            "cannot read '0.5' as a number (use a 0x hex string or 'inf')",
        ),
        (
            [[1.0, [0.0, 1.0, 2.0]], [0.0, 1.0]],
            "complex entries are [re, im] pairs, got [0.0, 1.0, 2.0]",
        ),
        (
            {"~a": [{"~c": ["0x1p+0", "0x0p+0"]}, {"~c": ["0x0p+0", "0x1p+0"]}]},
            "expected a list, got (1+0j)",
        ),
    ],
    ids=["row_length", "bool_entry", "decimal_string", "three_item_pair", "tagged_complex_rows"],
)
def test_malformed_dense_matrix_messages(matrix, message):
    with pytest.raises(InvalidCertificate) as info:
        generator_from_dict({"kind": "dense", "matrix": matrix}, 2)
    assert info.value.failures == [f"generator.matrix: {message}"]


def test_dense_matrix_forms_decode_alike():
    matrix = np.array([[1.5, complex(0.25, -2.0)], [-0.0, complex(1e-300, 1e300)]])
    forms = [
        [[1.5, [0.25, -2.0]], [-0.0, [1e-300, 1e300]]],
        [
            ["0x1.8p+0", ["0x1p-2", "-0x1p+1"]],
            ["-0x0p+0", [(1e-300).hex(), (1e300).hex()]],
        ],
        encode(matrix),
    ]
    for form in forms:
        back = generator_from_dict({"kind": "dense", "matrix": form}, 2).matrix
        assert back.dtype == np.complex128
        assert back.tobytes() == matrix.tobytes()


# dumps_canonical writes the text of json.dumps(indent=2, sort_keys=True)
# plus a newline in one pass; json.dumps stays the reference here.

def reference_dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e308, 5e-324])
    | st.text()
    | st.sampled_from(["", "é", "\u2603 snow", "\ud83d\ude00", "\x00\x1f", '"\\/\b\f\n\r\t', "~f"])
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=40,
)


@given(JSON_VALUES)
@example({})
@example([])
@example({"b": [{}, [], {"~f": "0x1.8p+1"}], "a": -0.0, "é": [math.nan, -math.inf]})
def test_canonical_dump_is_the_indented_json_text(payload):
    assert dumps_canonical(payload) == reference_dump(payload)


def test_canonical_dump_writes_tuples_as_lists():
    assert dumps_canonical({"t": (1, (2.5, "x"))}) == reference_dump({"t": [1, [2.5, "x"]]})


@pytest.mark.parametrize("key", [1, 2.5, None, True, (1,)], ids=repr)
def test_canonical_dump_refuses_keys_that_are_not_strings(key):
    with pytest.raises(TypeError):
        dumps_canonical({key: 1})
    with pytest.raises(TypeError):
        dumps_canonical({"a": [{key: 1}]})


def test_canonical_dump_refuses_values_json_cannot_write():
    for value in (1j, np.float32(1.0), {1, 2}, b"x"):
        with pytest.raises(TypeError):
            dumps_canonical({"v": value})


@pytest.mark.parametrize(
    "path", sorted((Path(__file__).parent / "data").glob("*.json")), ids=lambda p: p.name
)
def test_every_json_file_in_the_test_data_redumps_to_its_own_bytes(path):
    text = path.read_text(encoding="utf-8")
    assert dumps_canonical(json.loads(text)) == text


# The bulk codec paths against the per-value ones they stand in for: the
# same text and the same bits, and every other form left to the per-value
# readers, which read or refuse it as before.

PARTS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(AWKWARD_FLOATS + [math.nan])
COMPLEXES = st.builds(complex, PARTS, PARTS)


def outcome(read, *args):
    """What ``read(*args)`` gives: the bytes of its array, or its error."""
    try:
        return read(*args).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


def entry_by_entry(raw, dim=None):
    """The per-entry vector reader."""
    return _entries(decode(raw), dim)


@given(st.lists(COMPLEXES, max_size=8))
@example([])
@example([complex(-0.0, math.inf), complex(math.nan, 5e-324), complex(-math.inf, -0.0)])
def test_vector_codec_bulk_paths_match_the_per_value_paths(values):
    vector = np.array(values, dtype=np.complex128)
    tagged = encode(vector)
    assert tagged == {"~a": encode(vector.tolist())}
    assert dumps_canonical(tagged) == reference_dump(tagged)
    # hex keeps every bit but a NaN's payload, so the readers are held to each other
    assert _vector(tagged).tobytes() == entry_by_entry(tagged).tobytes()
    pairs = [[z.real, z.imag] for z in values]
    bulk = _vector(pairs, len(values))
    assert bulk.tobytes() == entry_by_entry(pairs, len(values)).tobytes() == vector.tobytes()


@pytest.mark.parametrize(
    "array", [np.zeros((0, 2), dtype=np.complex128), np.eye(2, dtype=np.complex128) * (1 - 0.5j),
              np.array([1.5, -0.0, math.inf]), np.array([1, 2])],
    ids=["empty_2d", "complex_2d", "float_1d", "int_1d"],
)
def test_other_arrays_encode_through_the_recursion(array):
    assert encode(array) == {"~a": encode(array.tolist())}


def tagged_vector(*entries):
    return {"~a": list(entries)}


ONE = {"~c": ["0x1p+0", "0x0p+0"]}


# Each tagged or plain vector the bulk readers leave to the per-entry one,
# which reads it or names what is wrong.
@pytest.mark.parametrize(
    "raw, dim",
    [
        (tagged_vector(ONE, {"~f": "0x1p-1"}), None),
        (tagged_vector(ONE, 0.5), None),
        (tagged_vector(ONE, [0.5, "inf"]), None),
        (tagged_vector(ONE, {"~c": ["0x1p+0", "0x0p+0"], "x": 1}), None),
        (tagged_vector(ONE, {"~c": ["0x1p+0"]}), None),
        (tagged_vector(ONE, {"~c": ["0x1p+0", "0x0p+0", "0x1p+0"]}), None),
        (tagged_vector(ONE, {"~c": "ab"}), None),
        (tagged_vector(ONE, {"~c": [1.0, 0.0]}), None),
        (tagged_vector(ONE, {"~c": ["0x1p+0", "0.5"]}), None),
        (tagged_vector(ONE, {"~c": ["0x1p+2000", "0x0p+0"]}), None),
        (tagged_vector(ONE, "0x1p+0"), None),
        (tagged_vector(ONE, [1.0]), None),
        (tagged_vector(ONE, ONE), 3),
        ({"~a": ONE}, None),
        ([[1.0, 0.5], [True, 0.0]], 2),
        ([[1.0, 0.5], ["0x1p+0", 0.0]], 2),
        ([[1.0, 0.5], ["0.5", 0.0]], 2),
        ([[1.0, 0.5], [2**1100, 0.0]], 2),
        ([[1.0, 0.5], [2**70, None]], 2),
        ([[1.0, 0.5], [0.0, 1.0, 2.0]], 2),
        ([[1.0, 0.5], 0.25], 2),
        ([[1.0, 0.5], [0.0, [1.0, 2.0]]], 2),
        ([[1.0, 0.5], ONE], 2),
        ([[1.0, 0.5]], 2),
        ([1.0, 0.5], 2),
        ([], 0),
    ],
    ids=repr,
)
def test_vector_forms_the_bulk_readers_leave_read_as_before(raw, dim):
    assert outcome(_vector, raw, dim) == outcome(entry_by_entry, raw, dim)


def test_decode_refuses_a_tagged_complex_that_is_not_a_pair():
    for pair in (["0x1p+0"], ["0x1p+0", "0x0p+0", "0x1p+0"], [], "ab"):
        with pytest.raises(ValueError, match=r"complex entries are \[re, im\] pairs"):
            decode({"~c": pair})
    assert decode({"~c": ["0x1p+0", "-0x1p-1"]}) == complex(1.0, -0.5)


def matrix_by_entries(raw, dim=None):
    """The per-entry matrix reader."""
    rows = decode(raw)
    if dim is not None and len(rows) != dim:
        raise ValueError(f"{len(rows)} rows, space is {dim}")
    return np.array([_entries(row, dim) for row in rows], dtype=np.complex128)


@given(st.integers(1, 4).flatmap(lambda d: st.lists(
    st.lists(st.tuples(PARTS, PARTS | st.integers(-(2**60), 2**60)), min_size=d, max_size=d),
    min_size=d, max_size=d,
)))
def test_plain_pair_matrices_read_in_bulk_as_entry_by_entry(rows):
    raw = [[list(pair) for pair in row] for row in rows]
    bulk = _matrix(raw, len(raw))
    assert bulk.tobytes() == matrix_by_entries(raw, len(raw)).tobytes()
    assert bulk.tobytes() == np.array([[_entry(v) for v in row] for row in raw]).tobytes()
    assert _matrix(raw).tobytes() == bulk.tobytes()


@pytest.mark.parametrize(
    "raw, dim",
    [
        ([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [True, 0.0]]], 2),
        ([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], ["0x1p+0", 0.0]]], 2),
        ([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [1.0, "inf"]]], 2),
        ([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [2**1100, 0.0]]], 2),
        ([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [1.0, 0.0, 2.0]]], 2),
        ([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0]]], 2),
        ([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], 1.0]], 2),
        ([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], ONE]], 2),
        ([[[1.0, 0.0], [0.0, 1.0]]], 2),
        ([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [1.0, 0.0]]], 3),
        ([[[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]], [[0.0, 0.0], [1.0, 0.0]]], None),
        ([[1.0, 0.5], [0.25, 2.0]], 2),
        ([[1.0, [0.5, 1.0]], [0.25, 2.0]], 2),
        ([], None),
        ([[]], None),
    ],
    ids=repr,
)
def test_matrix_forms_the_bulk_reader_leaves_read_as_before(raw, dim):
    assert outcome(_matrix, raw, dim) == outcome(matrix_by_entries, raw, dim)


TAGGED_LEAVES = (
    st.builds(lambda text: {"~f": text}, st.text(max_size=8) | st.sampled_from(["0x1.8p+1", "nan"]))
    | st.builds(lambda re, im: {"~c": [re, im]}, st.text(max_size=8), st.text(max_size=8))
    | st.builds(lambda parts: {"~c": parts}, st.lists(JSON_SCALARS, max_size=3))
    | st.builds(lambda value: {"~f": value}, JSON_SCALARS)
    | st.builds(lambda value: {"~a": value}, st.lists(JSON_SCALARS, max_size=3))
)


@given(st.recursive(
    TAGGED_LEAVES | JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=20,
))
@example({"~c": ["0x1p+0", "-0x0p+0"]})
@example([{"~f": "0x1p-1074"}, {"~c": ["\u2603", "\n"]}, {"~c": ("a", "b")}, {"~c": ["a", 1]}])
def test_canonical_dump_writes_tagged_leaves_as_the_indented_json_text(payload):
    assert dumps_canonical(payload) == reference_dump(payload)


# A dense matrix, as ``encode`` writes it, against the per-value paths:
# the recursion's tagged form and text, and the per-entry reader's bits.
@given(st.integers(0, 5).flatmap(lambda d: st.lists(
    st.lists(COMPLEXES, min_size=d, max_size=d), min_size=1, max_size=5,
)))
@example([
    [complex(-0.0, math.inf), complex(math.nan, 5e-324)],
    [complex(-math.inf, -0.0), 2.5e-320j],
])
@example([[]])
def test_matrix_codec_bulk_paths_match_the_per_value_paths(rows):
    matrix = np.array(rows, dtype=np.complex128).reshape(len(rows), len(rows[0]))
    tagged = encode(matrix)
    assert tagged == {"~a": encode(matrix.tolist())}
    assert dumps_canonical(tagged) == reference_dump(tagged)
    assert _matrix(tagged).tobytes() == matrix_by_entries(tagged).tobytes()
    dim = len(rows) if matrix.shape[0] == matrix.shape[1] else None
    assert _matrix(tagged, dim).tobytes() == matrix_by_entries(tagged, dim).tobytes()
    if dim is not None:
        # hex keeps every bit but a NaN's payload
        back = _matrix(tagged, dim)
        assert np.array_equal(back, matrix, equal_nan=True)
        signs = np.signbit(back.view(np.float64))
        assert signs.tolist() == np.signbit(matrix.view(np.float64)).tolist()


TWO = {"~c": ["0x1p+1", "-0x0p+0"]}


# Each tagged matrix the bulk reader leaves to the per-entry one, which
# reads it or names what is wrong.
@pytest.mark.parametrize(
    "raw, dim",
    [
        ({"~a": [[ONE, TWO], [TWO, ONE]]}, 3),
        ({"~a": [[ONE, TWO], [TWO]]}, 2),
        ({"~a": [[ONE, TWO], [TWO]]}, None),
        ({"~a": [[ONE, TWO], [TWO, {"~f": "0x1p-1"}]]}, 2),
        ({"~a": [[ONE, TWO], [TWO, 0.5]]}, 2),
        ({"~a": [[ONE, TWO], [TWO, [0.5, 1.0]]]}, 2),
        ({"~a": [[ONE, TWO], [TWO, {"~c": ["0x1p+0"]}]]}, 2),
        ({"~a": [[ONE, TWO], [TWO, {"~c": ["0x1p+0", "0.5"]}]]}, 2),
        ({"~a": [[ONE, TWO], [TWO, {"~c": ["0x1p+0", "0x0p+0"], "x": 1}]]}, 2),
        ({"~a": [[ONE, TWO], {"~a": [TWO, ONE]}]}, 2),
        ({"~a": [[ONE, TWO], "ab"]}, 2),
        ({"~a": [ONE, TWO]}, 2),
        ({"~a": []}, None),
        ({"~a": [[], []]}, 2),
    ],
    ids=repr,
)
def test_tagged_matrix_forms_the_bulk_reader_leaves_read_as_before(raw, dim):
    assert outcome(_matrix, raw, dim) == outcome(matrix_by_entries, raw, dim)


# A value with two faults is refused for the one read first: a list's length
# before its entries, and an entry's parts in order.
@pytest.mark.parametrize(
    "read, raw, dim, error",
    [
        (_vector, tagged_vector(ONE, {"~c": ["0x1p+0"]}), 3, (ValueError, "2 entries, space is 3")),
        (
            _vector,
            [["0.5", {"~c": ["0x1p+0"]}]],
            1,
            (ValueError, "cannot read '0.5' as a number (use a 0x hex string or 'inf')"),
        ),
        (_vector, [[True, {"~f": "zz"}]], 1, (TypeError, "expected a number, got True")),
        (_matrix, {"~a": [[ONE], [{"~c": "ab"}]]}, 1, (ValueError, "2 rows, space is 1")),
        (_matrix, [[ONE, ONE], [{"~c": ["0x1p+0"]}]], 2, (ValueError, "1 entries, space is 2")),
    ],
    ids=[
        "vector_length_and_tag",
        "pair_part_and_tag",
        "pair_parts",
        "matrix_rows_and_tag",
        "row_length_and_tag",
    ],
)
def test_a_value_with_two_faults_names_the_one_read_first(read, raw, dim, error):
    assert outcome(read, raw, dim) == error


# cert/3's packed arrays: padded base64 of little-endian bytes keeps every
# bit of every value, a NaN's sign and payload included.

DATA = Path(__file__).parent / "data"
SPECIAL_BITS = [
    0x0000000000000000,  # +0.0
    0x8000000000000000,  # -0.0
    0x7FF0000000000000,  # +inf
    0xFFF0000000000000,  # -inf
    0x7FF8000000000000,  # the quiet NaN
    0xFFF8000000000001,  # a negative quiet NaN with a payload
    0x7FF0000000000001,  # a signalling NaN
    0xFFF7FFFFFFFFFFFF,  # a negative signalling NaN, every payload bit set
    0x0000000000000001,  # the smallest subnormal
    0x800FFFFFFFFFFFFF,  # the largest negative subnormal
]
BIT_PATTERNS = st.integers(0, 2**64 - 1) | st.sampled_from(SPECIAL_BITS)


@given(st.sampled_from([0, 1, 18]).flatmap(
    lambda k: st.lists(BIT_PATTERNS, min_size=2 * k, max_size=2 * k)
))
@example(SPECIAL_BITS + SPECIAL_BITS[:8] + SPECIAL_BITS + SPECIAL_BITS[:8])
def test_packed_arrays_round_trip_bit_for_bit(patterns):
    bits = np.array(patterns, dtype=np.uint64)
    count = bits.size // 2
    for tag, values in [("~f8", bits[:count].view(np.float64)), ("~c16", bits.view(np.complex128))]:
        for form in (values, values.tolist()):  # an array, and a tuple field's Python numbers
            back = unpack(json.loads(dumps_canonical(pack(form, tag))), tag)
            assert back.dtype == values.dtype and back.shape == (count,)
            assert back.view(np.uint64).tolist() == values.view(np.uint64).tolist()


def pinned_certificates():
    """Every pinned /1 and /2 certificate, the embedded ones too."""
    for path in sorted(DATA.glob("*.json")):
        payload = load_json(path)
        payload = payload.get("source", {}).get("certificate", payload)
        if payload.get("schema") in ("semigroup-lab/cert/1", "semigroup-lab/cert/2"):
            yield pytest.param(payload, id=path.name)


def bits(value):
    """``value`` with every float as its bytes, field by field."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (float, complex)):
        return type(value).__name__, np.array(value).tobytes()
    if isinstance(value, (tuple, list)):
        return [bits(v) for v in value]
    if is_dataclass(value):
        return {fld.name: bits(getattr(value, fld.name)) for fld in fields(value)}
    return type(value).__name__, value


@pytest.mark.parametrize("payload", pinned_certificates())
def test_pinned_certificates_reencode_as_cert3_to_the_same_bits(payload):
    old = cert_from_dict(payload)
    text = dumps_canonical(cert_to_dict(old))
    assert json.loads(text)["schema"] == "semigroup-lab/cert/3"
    assert bits(cert_from_dict(json.loads(text))) == bits(old)


@pytest.mark.parametrize("field", ["bump_radius", "search_target", "limit_error", "witness_errors"])
def test_writer_refuses_a_none_in_a_float_field(k5_certificate, field):
    if field == "witness_errors":
        cert = replace(k5_certificate, witness_errors=k5_certificate.witness_errors[:-1] + (None,))
    else:
        stages = list(k5_certificate.stages)
        stages[2] = replace(stages[2], **{field: None})
        cert = replace(k5_certificate, stages=tuple(stages))
    with pytest.raises(ValueError) as info:
        cert_to_dict(cert)
    assert str(info.value) == f"{field}: a None has no place in a packed float array"


def packed(tag, data: bytes) -> dict:
    return {tag: base64.b64encode(data).decode("ascii")}


def k5_v3():
    return load_json(DATA / "blowup_k5.v3.cert.json")


def column(payload, name, tag="~f8"):
    return unpack(payload["stage_values"][name], tag).copy()


def set_column(payload, name, values, tag="~f8"):
    payload["stage_values"][name] = pack(values, tag)


def with_inf_pairing(payload):
    pairings = column(payload, "generator_pairing", "~c16")
    pairings[3] = complex(1.5, math.inf)
    set_column(payload, "generator_pairing", pairings, "~c16")


# Each malformed cert/3 payload with the failure that names its field.
@pytest.mark.parametrize(
    "mutate, failure",
    [
        (
            lambda payload: payload["functional"].update({"~c16": "!" + payload["functional"]["~c16"][1:]}),
            "functional: not padded base64 (Only base64 data is allowed)",
        ),
        (
            lambda payload: payload.update(witness=packed("~c16", bytes(16 * 7 - 8))),
            "witness: 104 bytes, not a whole number of 16-byte entries",
        ),
        (
            lambda payload: payload.update(witness_errors=packed("~f8", bytes(45))),
            "witness_errors: 45 bytes, not a whole number of 8-byte entries",
        ),
        (
            lambda payload: payload.update(initial={"~a": [1.0] * 7}),
            "initial: expected a packed array {'~c16': base64}, got {'~a': [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]}",
        ),
        (
            lambda payload: payload.update(witness_log_values={"~f8": ""}),
            "witness_log_values: expected a packed array {'~c16': base64}, got {'~f8': ''}",
        ),
        (
            lambda payload: set_column(payload, "limit_error", column(payload, "limit_error")[:5]),
            "stage_values.limit_error: 5 entries, not 6 for 6 stages",
        ),
        (
            lambda payload: set_column(payload, "vector", column(payload, "vector", "~c16")[:41], "~c16"),
            "stage_values.vector: 41 entries, not 42 for 6 stages x dimension 7",
        ),
        (
            lambda payload: payload["stages"].pop(),
            "stage_values.vector: 42 entries, not 35 for 5 stages x dimension 7",
        ),
        (with_inf_pairing, "stage_values.generator_pairing: must be finite"),
        (
            lambda payload: payload["stage_values"].pop("stability_radius"),
            "stage_values.stability_radius: missing",
        ),
        (lambda payload: payload.update(stage_values=[]), "stage_values: expected an object, got []"),
        (
            lambda payload: payload["stages"][4].update(steps=2.0),
            "stages[4].steps: expected an integer, got 2.0",
        ),
        (lambda payload: payload["stages"][1].pop("index"), "stages[1].index: missing"),
        (lambda payload: payload["stages"].__setitem__(3, 3), "stages: expected an object, got 3"),
    ],
    ids=["non_base64", "ragged_vector_bytes", "ragged_float_bytes", "tagged_list", "wrong_tag",
         "short_column", "vector_not_k_by_d", "one_row_short", "inf_pairing", "missing_column",
         "columns_list", "float_steps", "missing_index", "row_not_an_object"],
)
def test_malformed_packed_certificate_names_the_field(tmp_path, capsys, mutate, failure):
    payload = k5_v3()
    cert_from_dict(payload)
    mutate(payload)
    with pytest.raises(InvalidCertificate) as info:
        cert_from_dict(payload)
    assert info.value.failures == [failure]
    path = tmp_path / "malformed.cert.json"
    path.write_text(json.dumps(payload))
    assert main(["verify", str(path)]) == EXIT_INVALID
    assert capsys.readouterr().out.endswith(f"\n  - {failure}\n")


def test_readme_decodes_a_packed_array_with_the_standard_library():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Certificate format", 1)[1]
    recipe = section.split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(recipe, names)
    payload = k5_v3()
    for field, read, tag in [("witness_errors", "floats", "~f8"), ("witness", "complexes", "~c16")]:
        values = np.array(names[read](payload[field]), dtype=PACKED_DTYPES[tag])
        assert values.tobytes() == unpack(payload[field], tag).tobytes()
