"""JSON persistence with exact floating-point round trips.

Floats are stored as C99 hex literals inside small tagged objects
(``{"~f": "0x1.8p+1"}``), complex numbers as tagged pairs, and arrays as
tagged nested lists.  Decoding restores bit-identical values (a NaN's
sign, not its payload), which the replay and verification paths rely on.
The readers here serve configs, certificates and reports alike: a real is
a plain number, a tagged float, a ``0x`` hex string or ``"inf"`` (decimal
strings are refused), and a complex entry may also be an ``[re, im]``
pair.  Every field of a config, certificate or report is read through
:func:`_field`; growth laws, reports and config sections are written and
read field by field from their dataclasses (:func:`record_to_dict`,
:func:`record_from_dict`).

A ``cert/3`` certificate writes each of its float arrays as one packed
string (:func:`pack`): padded base64 of the array's little-endian bytes
under a tag naming the dtype, ``{"~c16": ...}`` or ``{"~f8": ...}``, which
keeps every bit, a NaN's payload included.  Each float field of its
stages is one such column under ``stage_values`` (the stage vectors as
one K x d array), and ``stages`` keeps one row of integer fields per
stage.  ``cert/1`` and ``cert/2`` certificates still read.
"""

from __future__ import annotations

import binascii
import functools
import json
import math
import typing
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, InvalidCertificate, SemigroupOverflow
from .renorm import RenormReport
from .spaces import (
    Generator,
    GrowthLaw,
    _check_p,
    dense_generator,
    diagonal_generator,
    law_entries,
)
from .witness import WitnessCertificate, WitnessStage

CERT_SCHEMA = "semigroup-lab/cert/3"
CERT_SCHEMAS = (CERT_SCHEMA, "semigroup-lab/cert/2", "semigroup-lab/cert/1")  # all decode
REPORT_SCHEMA = "semigroup-lab/report/1"
CONFIG_SCHEMA = "semigroup-lab/config/1"


def encode(value):
    """Recursively encode a value into tagged, JSON-safe form.  An array is
    written as the nested list of its values, each tagged as a lone value
    is, so :func:`_hex` writes every float part."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return {"~f": _hex(float(value))}
    if isinstance(value, (complex, np.complexfloating)):
        z = complex(value)
        return {"~c": [_hex(z.real), _hex(z.imag)]}
    if isinstance(value, np.ndarray):
        return {"~a": encode(value.tolist())}
    if isinstance(value, (list, tuple)):
        return [encode(x) for x in value]
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    raise TypeError(f"cannot encode {type(value).__name__}")


def _hex(x: float) -> str:
    """``x.hex()``, but ``-nan`` for a NaN whose sign bit is set (``float.hex``
    writes every NaN as ``nan``; ``float.fromhex`` reads ``-nan`` back)."""
    return "-nan" if x != x and math.copysign(1.0, x) < 0.0 else x.hex()


def decode(value):
    """Invert :func:`encode`; tagged arrays come back as nested lists.  A
    tagged complex that is not an [re, im] pair raises ValueError."""
    if isinstance(value, dict):
        if len(value) == 1:
            if "~f" in value:
                return float.fromhex(value["~f"])
            if "~c" in value:
                return _tagged_complex(value["~c"])
            if "~a" in value:
                return decode(value["~a"])
        return {k: decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode(x) for x in value]
    return value


def _tagged_complex(pair) -> complex:
    """The value of a tagged complex ``{"~c": pair}``."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise ValueError(f"complex entries are [re, im] pairs, got {pair!r}")
    return complex(float.fromhex(pair[0]), float.fromhex(pair[1]))


def dumps_canonical(payload: dict) -> str:
    """The canonical textual form: sorted keys, two-space indent, a final
    newline; the text of ``json.dumps(payload, indent=2, sort_keys=True)``
    plus ``"\\n"``, written in one pass.

    ``json.dumps`` runs its pure-Python encoder whenever it indents; this
    emitter writes the same text with less work per value.  Strings go
    through ``json``'s own ASCII escaper, floats through ``repr`` (NaN and
    the infinities as ``NaN``, ``Infinity`` and ``-Infinity``), and a key
    that is not a string raises TypeError.
    """
    out: list[str] = []
    _emit(payload, "\n", out.append)
    out.append("\n")
    return "".join(out)


_escape = json.encoder.encode_basestring_ascii
_FLOAT_WORDS = {math.inf: "Infinity", -math.inf: "-Infinity"}


def _emit(value, newline: str, write) -> None:
    """Write ``value`` at the indent that ``newline`` (a newline and the
    current indent) opens each of its lines with."""
    if isinstance(value, str):
        write(_escape(value))
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key in sorted(value):
            write(lead)
            write(_escape(key))
            write(": ")
            _emit(value[key], inner, write)
            lead = "," + inner
        write(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        inner = newline + "  "
        lead = "[" + inner
        for item in value:
            write(lead)
            _emit(item, inner, write)
            lead = "," + inner
        write(newline + "]")
    elif value is None:
        write("null")
    elif value is True:
        write("true")
    elif value is False:
        write("false")
    elif isinstance(value, int):
        write(int.__repr__(value))
    elif isinstance(value, float):
        write("NaN" if value != value else _FLOAT_WORDS.get(value) or float.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def save_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(dumps_canonical(payload), encoding="utf-8")


def load_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def generator_to_dict(a: Generator) -> dict:
    """The ``generator`` section of configs, reports and certificates; a
    diagonal generator without a law becomes a ``table`` law of its entries.
    A law that :func:`generator_from_dict` would refuse (table moduli that
    decrease), or one whose entries are not the generator's, raises
    ValueError here instead of reaching a file."""
    if a.kind == "dense":
        return {"kind": "dense", "matrix": encode(a.matrix)}
    law = a.law or GrowthLaw("table", values=tuple(complex(e) for e in a.entries))
    if not np.array_equal(law_entries(law, a.dim), a.entries):
        raise ValueError("diagonal entries disagree with the declared law")
    return {"kind": "diagonal", "law": record_to_dict(law)}


def generator_from_dict(desc: dict, dim: int) -> Generator:
    """Invert :func:`generator_to_dict`; configs share the format.  ``dim``
    sizes a diagonal law and fixes the shape of a dense matrix.  A table
    law's values and a dense matrix's entries must be finite: a NaN or
    infinite entry turns every product it enters into NaN."""
    kind = _field(desc, "kind", str, "generator.")
    if kind == "diagonal":
        values = _tuple(_entry)
        return _field(
            desc,
            "law",
            lambda raw: diagonal_generator(
                record_from_dict(
                    GrowthLaw, raw, "generator.law.", values=lambda v: _finite(values(v))
                ),
                dim,
            ),
            "generator.",
        )
    if kind == "dense":
        return _field(
            desc, "matrix", lambda raw: dense_generator(_finite(_matrix(raw, dim))), "generator."
        )
    raise InvalidCertificate([f"generator.kind: {kind!r} is not diagonal or dense"])


# What a reader raises on a malformed value; callers name the field.
READ_ERRORS = (KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError,
               DimensionMismatch, SemigroupOverflow)


_REQUIRED = object()


def _field(data: dict, key: str, convert, path: str = "", default=_REQUIRED):
    """``convert(data[key])``, or ``default`` when the field is missing or
    null.  A malformed field, or a missing one without a ``default``, raises
    InvalidCertificate naming the field."""
    try:
        raw = data.get(key)
        if raw is None:
            if default is _REQUIRED:
                raise ValueError("missing")
            return default
        return convert(raw)
    except READ_ERRORS as exc:
        raise InvalidCertificate([f"{path}{key}: {exc}"]) from exc


def _int(raw) -> int:
    raw = decode(raw)
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise TypeError(f"expected an integer, got {raw!r}")
    return raw


def _bool(raw) -> bool:
    if not isinstance(raw, bool):
        raise TypeError(f"expected true or false, got {raw!r}")
    return raw


def _float(raw) -> float:
    """A real as files write it: a plain number, a tagged float, a ``0x`` hex
    string or ``"inf"`` (decimal strings are refused).  A value
    :func:`decode` has read is taken too."""
    if type(raw) is float:
        return raw
    if isinstance(raw, (dict, list)):
        raw = decode(raw)
    if isinstance(raw, str):
        bare = raw.lstrip("+-").lower()
        if not bare.startswith("0x") and bare != "inf":
            raise ValueError(f"cannot read {raw!r} as a number (use a 0x hex string or 'inf')")
        return float.fromhex(raw)
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise TypeError(f"expected a number, got {raw!r}")
    return float(raw)


def _entry(raw) -> complex:
    """One complex entry as files write it: a tagged complex, an ``[re, im]``
    pair whose parts :func:`_float` reads, or a lone real.  A value
    :func:`decode` has read is taken too."""
    if isinstance(raw, dict):
        if len(raw) == 1 and "~c" in raw:
            return _tagged_complex(raw["~c"])
        raw = decode(raw)
    if isinstance(raw, list):
        if len(raw) != 2:
            raise ValueError(f"complex entries are [re, im] pairs, got {decode(raw)!r}")
        return complex(_float(raw[0]), _float(raw[1]))
    return raw if isinstance(raw, complex) else complex(_float(raw))


def _finite(values):
    """``values`` (numbers, or an array of them) unless one is NaN or
    infinite: such an entry turns every product it enters into NaN."""
    if not np.isfinite(values).all():
        raise ValueError("must be finite")
    return values


def _list(raw) -> list:
    """A JSON list, kept as written."""
    if not isinstance(raw, list):
        raise TypeError(f"expected a list, got {raw!r}")
    return raw


def _tuple(read):
    """The reader of a tuple field: a JSON list, each entry through ``read``."""
    return lambda raw: tuple(read(v) for v in _list(raw))


def _items(items, dim: int | None, what: str) -> list:
    items = _list(items)
    if dim is not None and len(items) != dim:
        raise ValueError(f"{len(items)} {what}, space is {dim}")
    return items


def _entries(items, dim: int | None) -> np.ndarray:
    """Complex entries of a list, ``dim`` of them if given."""
    return np.array([_entry(v) for v in _items(items, dim, "entries")], dtype=np.complex128)


def _listed(raw):
    """The list under a ``{"~a": ...}`` tag, or ``raw`` itself; any other value
    comes back decoded, as the message that refuses it prints it."""
    if isinstance(raw, dict) and len(raw) == 1 and "~a" in raw:
        raw = raw["~a"]
    return raw if isinstance(raw, list) else decode(raw)


def _vector(raw, dim: int | None = None) -> np.ndarray:
    """Complex entries, ``dim`` of them when ``dim`` is given, each read by
    :func:`_entry`."""
    return _entries(_listed(raw), dim)


def _matrix(raw, dim: int | None = None) -> np.ndarray:
    """Rows of complex entries, ``dim`` x ``dim`` when ``dim`` is given, each
    entry read by :func:`_entry`."""
    rows = _items(_listed(raw), dim, "rows")
    return np.array([_entries(_listed(row), dim) for row in rows], dtype=np.complex128)


def _string(raw) -> str:
    if not isinstance(raw, str):
        raise TypeError(f"expected a string, got {raw!r}")
    return raw


def _object(raw) -> dict:
    """A JSON object, kept as written."""
    if not isinstance(raw, dict):
        raise TypeError(f"expected an object, got {raw!r}")
    return raw


# The reader of each declared field type.
READERS = {
    int: _int,
    int | None: _int,
    float: _float,
    float | None: _float,
    complex: _entry,
    bool: _bool,
    str: _string,
    str | None: _string,
    dict: lambda raw: _object(decode(raw)),
    np.ndarray: _vector,
    tuple[float, ...]: _tuple(_float),
    tuple[complex, ...]: _tuple(_entry),
    tuple[tuple, ...]: _tuple(lambda row: tuple(decode(_list(row)))),
}


@functools.cache
def _record_fields(cls, overridden: frozenset) -> tuple:
    """``(name, reader, default)`` for every field of the dataclass ``cls``,
    ``default`` None for a field with a dataclass default; a field with no
    reader for its type and no override is refused here."""
    hints = typing.get_type_hints(cls)
    table = []
    for fld in fields(cls):
        read = READERS.get(hints[fld.name])
        if read is None and fld.name not in overridden:
            raise TypeError(f"{cls.__name__}.{fld.name}: no reader for {hints[fld.name]}")
        required = fld.default is MISSING and fld.default_factory is MISSING
        table.append((fld.name, read, _REQUIRED if required else None))
    return tuple(table)


def record_to_dict(record, **writers) -> dict:
    """Every field of the dataclass ``record`` under its own name, through
    :func:`encode` or ``writers[name]``."""
    return {
        fld.name: writers.get(fld.name, encode)(getattr(record, fld.name))
        for fld in fields(record)
    }


def record_from_dict(cls, data: dict, path: str = "", **readers):
    """Invert :func:`record_to_dict`: each field through the reader of its
    declared type or ``readers[name]``.  A field with a default may be
    missing; anything malformed raises InvalidCertificate naming the field."""
    data = _object(data)
    values = {}
    for name, read, default in _record_fields(cls, frozenset(readers)):
        value = _field(data, name, readers.get(name, read), path, default)
        if value is not None:
            values[name] = value
    return cls(**values)


# The dtype of each packed array's little-endian bytes, by its tag.
PACKED_DTYPES = {"~c16": np.dtype("<c16"), "~f8": np.dtype("<f8")}


def pack(values, tag: str) -> dict:
    """``{tag: text}``: ``values`` as one padded base64 string (RFC 4648) of
    their little-endian bytes in the dtype ``tag`` names."""
    data = np.ascontiguousarray(values, dtype=PACKED_DTYPES[tag]).tobytes()
    return {tag: binascii.b2a_base64(data, newline=False).decode("ascii")}


def unpack(raw, tag: str) -> np.ndarray:
    """The entries of a packed array ``{tag: text}``, every bit as written.
    Text that is not padded base64, or bytes that are not a whole number
    of entries, raise ValueError."""
    if not (type(raw) is dict and len(raw) == 1 and tag in raw):
        raise TypeError(f"expected a packed array {{{tag!r}: base64}}, got {raw!r:.60}")
    try:
        data = binascii.a2b_base64(raw[tag], strict_mode=True)
    except binascii.Error as exc:
        raise ValueError(f"not padded base64 ({exc})") from None
    dtype = PACKED_DTYPES[tag]
    if len(data) % dtype.itemsize:
        raise ValueError(
            f"{len(data)} bytes, not a whole number of {dtype.itemsize}-byte entries"
        )
    return np.frombuffer(data, dtype)


# The tag of each float type cert/3 packs: a certificate's arrays, and each
# float field of its stages as one column across the stages.
_ARRAY_TAGS = {np.ndarray: "~c16", tuple[complex, ...]: "~c16", tuple[float, ...]: "~f8"}
_COLUMN_TAGS = {np.ndarray: "~c16", complex: "~c16", float: "~f8", float | None: "~f8"}


@functools.cache
def _cert_layout() -> tuple:
    """cert/3's layout, from the declared field types: ``(name, tag, read)``
    of each packed certificate array, ``(name, tag, per_stage)`` of each
    stage column (``per_stage`` for the stage vectors, one row of the
    column each), and ``(name, read, default)`` of each integer field a
    stage row keeps."""
    arrays = tuple(
        (name, _ARRAY_TAGS[hint], _unpacker(_ARRAY_TAGS[hint], hint is not np.ndarray))
        for name, hint in typing.get_type_hints(WitnessCertificate).items()
        if hint in _ARRAY_TAGS
    )
    columns = tuple(
        (name, _COLUMN_TAGS[hint], hint is np.ndarray)
        for name, hint in typing.get_type_hints(WitnessStage).items()
        if hint in _COLUMN_TAGS
    )
    packed = frozenset(name for name, _, _ in columns)
    int_fields = tuple(f for f in _record_fields(WitnessStage, packed) if f[0] not in packed)
    return arrays, columns, int_fields


def _unpacker(tag: str, as_tuple: bool):
    """The reader of a packed certificate array: the array, or for a tuple
    field the tuple of its entries."""
    if as_tuple:
        return lambda raw: tuple(unpack(raw, tag).tolist())
    return lambda raw: unpack(raw, tag)


def cert_to_dict(cert: WitnessCertificate) -> dict:
    """A ``cert/3`` payload: every float array packed, each float stage
    field one column of ``stage_values``, the integer stage fields in
    ``stages`` rows, the scalars and the ``generator`` section as
    :func:`encode` and :func:`generator_to_dict` write them.  A None in a
    float field raises ValueError naming it."""
    arrays, columns, int_fields = _cert_layout()
    writers = {name: functools.partial(_packed, name, tag) for name, tag, _ in arrays}
    payload = record_to_dict(
        cert,
        a=generator_to_dict,
        stages=lambda stages: [
            {name: encode(getattr(st, name)) for name, _, _ in int_fields} for st in stages
        ],
        **writers,
    )
    payload["generator"] = payload.pop("a")
    payload["stage_values"] = {
        name: _packed(name, tag, [getattr(st, name) for st in cert.stages])
        for name, tag, _ in columns
    }
    return {"schema": CERT_SCHEMA, **payload}


def _packed(name: str, tag: str, values) -> dict:
    """:func:`pack` for the field ``name``; a None among ``values`` raises
    ValueError, since numpy would write it as a NaN."""
    if type(values) is not np.ndarray and any(v is None for v in values):
        raise ValueError(f"{name}: a None has no place in a packed float array")
    return pack(values, tag)


def _stage_columns(raw, stage_values: dict, dim: int) -> tuple[WitnessStage, ...]:
    """cert/3's stages: the integer fields of each from its row of ``raw``,
    every other field from its column in ``stage_values``, which holds one
    entry per row (the vectors ``dim`` each).  A stage's generator pairing
    must be finite, as in the per-stage records."""
    _, columns, int_fields = _cert_layout()
    rows = _list(raw)
    names, values = [], []
    for name, tag, per_stage in columns:
        read = functools.partial(
            _column, tag, len(rows), dim if per_stage else None, name == "generator_pairing"
        )
        names.append(name)
        values.append(_field(stage_values, name, read, "stage_values."))
    stages = []
    for k, (row, floats) in enumerate(zip(rows, zip(*values))):
        row = _object(row)
        ints = {}
        for name, read, default in int_fields:
            value = row.get(name)
            if type(value) is not int:
                value = _field(row, name, read, f"stages[{k}].", default)
            if value is not None:
                ints[name] = value
        stages.append(WitnessStage(**ints, **dict(zip(names, floats))))
    return tuple(stages)


def _column(tag: str, count: int, width: int | None, finite: bool, raw) -> list:
    """The ``count`` entries of a packed stage column, or its ``count`` rows
    of ``width`` entries when ``width`` is given; all finite if ``finite``."""
    column = unpack(raw, tag)
    size = count if width is None else count * width
    if column.size != size:
        raise ValueError(
            f"{column.size} entries, not {size} for {count} stages"
            + ("" if width is None else f" x dimension {width}")
        )
    if finite:
        _finite(column)
    return column.tolist() if width is None else list(column.reshape(count, width))


def cert_from_dict(data: dict) -> WitnessCertificate:
    """Decode a certificate; a malformed payload raises InvalidCertificate."""
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema not in CERT_SCHEMAS:
        raise InvalidCertificate([f"schema: not a certificate ({schema!r})"])
    if schema == CERT_SCHEMA:
        readers = {name: read for name, _, read in _cert_layout()[0]}
        stage_values = _field(data, "stage_values", _object)
        # the functional, read first below, sizes the stage vectors
        readers["stages"] = lambda raw: _stage_columns(raw, stage_values, functional.size)
    else:
        if schema != "semigroup-lab/cert/2":  # /1 kept its generator in ``law`` or ``dense_matrix``
            legacy = {"kind": "diagonal", "law": data.get("law")}
            if data.get("dense_matrix") is not None:
                legacy = {"kind": "dense", "matrix": data["dense_matrix"]}
            data = {**data, "generator": legacy}
        readers = {
            "functional": _vector,
            "stages": lambda raw: tuple(
                record_from_dict(
                    WitnessStage, st, f"stages[{k}].",
                    generator_pairing=lambda v: _finite(_entry(v)),
                )
                for k, st in enumerate(_list(raw))
            ),
        }
    # the functional sizes the generator, which files keep under ``generator``
    functional = _field(data, "functional", readers["functional"])
    a = _field(data, "generator", lambda raw: generator_from_dict(raw, functional.size))
    return record_from_dict(
        WitnessCertificate,
        {**data, "a": a, "functional": functional},
        **{
            **readers,
            "a": lambda raw: raw,
            "functional": lambda raw: raw,
            "p": lambda raw: _check_p(_float(raw)),
        },
    )


def report_to_dict(report: RenormReport) -> dict:
    return {"schema": REPORT_SCHEMA, **record_to_dict(report)}


def report_from_dict(data: dict) -> RenormReport:
    """Decode a report; a malformed payload raises InvalidCertificate.
    ``source`` holds file sections (a written generator or certificate) and
    is kept as written."""
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != REPORT_SCHEMA:
        raise InvalidCertificate([f"schema: not a report ({schema!r})"])
    return record_from_dict(RenormReport, data, source=_object)
