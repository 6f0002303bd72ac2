"""JSON persistence with exact floating-point round trips.

Floats are stored as C99 hex literals inside small tagged objects
(``{"~f": "0x1.8p+1"}``), complex numbers as tagged pairs, and arrays as
tagged nested lists.  Decoding restores bit-identical values, which the
replay and verification paths rely on.  The readers here serve configs,
certificates and reports alike: a real is a plain number, a tagged float,
a ``0x`` hex string or ``"inf"`` (decimal strings are refused), and a
complex entry may also be an ``[re, im]`` pair.  Every field of a config,
certificate or report is read through :func:`_field`; certificates, stages,
growth laws, reports and config sections are written and read field by
field from their dataclasses (:func:`record_to_dict`,
:func:`record_from_dict`).
"""

from __future__ import annotations

import functools
import json
import typing
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, InvalidCertificate, SemigroupOverflow
from .renorm import RenormReport
from .spaces import Generator, GrowthLaw, dense_generator, diagonal_generator, law_entries
from .witness import WitnessCertificate, WitnessStage

CERT_SCHEMA = "semigroup-lab/cert/2"
CERT_SCHEMAS = (CERT_SCHEMA, "semigroup-lab/cert/1")  # both decode
REPORT_SCHEMA = "semigroup-lab/report/1"
CONFIG_SCHEMA = "semigroup-lab/config/1"


def encode(value):
    """Recursively encode a value into tagged, JSON-safe form."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return {"~f": float(value).hex()}
    if isinstance(value, (complex, np.complexfloating)):
        z = complex(value)
        return {"~c": [z.real.hex(), z.imag.hex()]}
    if isinstance(value, np.ndarray):
        return {"~a": encode(value.tolist())}
    if isinstance(value, (list, tuple)):
        return [encode(x) for x in value]
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    raise TypeError(f"cannot encode {type(value).__name__}")


def decode(value):
    """Invert :func:`encode`; tagged arrays come back as nested lists."""
    if isinstance(value, dict):
        keys = set(value)
        if keys == {"~f"}:
            return float.fromhex(value["~f"])
        if keys == {"~c"}:
            return complex(float.fromhex(value["~c"][0]), float.fromhex(value["~c"][1]))
        if keys == {"~a"}:
            return decode(value["~a"])
        return {k: decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode(x) for x in value]
    return value


def dumps_canonical(payload: dict) -> str:
    """The canonical textual form: sorted keys, two-space indent."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def save_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(dumps_canonical(payload), encoding="utf-8")


def load_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def generator_to_dict(a: Generator) -> dict:
    """The ``generator`` section of configs, reports and certificates; a
    diagonal generator without a law becomes a ``table`` law of its entries.
    A law that :func:`generator_from_dict` would refuse (table moduli that
    decrease) raises ValueError here instead of reaching a file."""
    if a.kind == "dense":
        return {"kind": "dense", "matrix": encode(a.matrix)}
    law = a.law or GrowthLaw("table", values=tuple(complex(e) for e in a.entries))
    law_entries(law, a.dim)
    return {"kind": "diagonal", "law": record_to_dict(law)}


def generator_from_dict(desc: dict, dim: int) -> Generator:
    """Invert :func:`generator_to_dict`; configs share the format.  ``dim``
    sizes a diagonal law and fixes the shape of a dense matrix."""
    kind = _field(desc, "kind", str, "generator.")
    if kind == "diagonal":
        return _field(
            desc,
            "law",
            lambda raw: diagonal_generator(record_from_dict(GrowthLaw, raw, "generator.law."), dim),
            "generator.",
        )
    if kind == "dense":
        return _field(
            desc, "matrix", lambda raw: dense_generator(_matrix(raw, dim)), "generator."
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
    raw = decode(raw)
    if isinstance(raw, str):
        bare = raw.lstrip("+-").lower()
        if not bare.startswith("0x") and bare != "inf":
            raise ValueError(f"cannot read {raw!r} as a number (use a 0x hex string or 'inf')")
        return float.fromhex(raw)
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise TypeError(f"expected a number, got {raw!r}")
    return float(raw)


def _complex(raw) -> complex:
    raw = decode(raw)
    if isinstance(raw, complex):
        return raw
    if isinstance(raw, list):
        if len(raw) != 2:
            raise ValueError(f"complex entries are [re, im] pairs, got {raw!r}")
        return complex(_float(raw[0]), _float(raw[1]))
    return complex(_float(raw))


def _items(raw, dim: int | None, what: str) -> list:
    items = decode(raw)
    if not isinstance(items, list):
        raise TypeError(f"expected a list of {what}, got {items!r}")
    if dim is not None and len(items) != dim:
        raise ValueError(f"{len(items)} {what}, space is {dim}")
    return items


def _vector(raw, dim: int | None = None) -> np.ndarray:
    return np.array([_complex(v) for v in _items(raw, dim, "entries")], dtype=np.complex128)


def _matrix(raw, dim: int | None = None) -> np.ndarray:
    """Rows of complex entries, ``dim`` x ``dim`` when ``dim`` is given."""
    return np.array([_vector(row, dim) for row in _items(raw, dim, "rows")], dtype=np.complex128)


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
    complex: _complex,
    bool: _bool,
    str: _string,
    str | None: _string,
    dict: decode,
    np.ndarray: _vector,
    tuple[float, ...]: lambda raw: tuple(_float(v) for v in raw),
    tuple[complex, ...]: lambda raw: tuple(_complex(v) for v in raw),
    tuple[tuple, ...]: lambda raw: tuple(tuple(row) for row in decode(raw)),
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


def cert_to_dict(cert: WitnessCertificate) -> dict:
    payload = record_to_dict(
        cert,
        a=generator_to_dict,
        stages=lambda stages: [record_to_dict(st) for st in stages],
    )
    payload["generator"] = payload.pop("a")
    return {"schema": CERT_SCHEMA, **payload}


def cert_from_dict(data: dict) -> WitnessCertificate:
    """Decode a certificate; a malformed payload raises InvalidCertificate."""
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema not in CERT_SCHEMAS:
        raise InvalidCertificate([f"schema: not a certificate ({schema!r})"])
    if schema != CERT_SCHEMA:  # /1 kept its generator in ``law`` or ``dense_matrix``
        legacy = {"kind": "diagonal", "law": data.get("law")}
        if data.get("dense_matrix") is not None:
            legacy = {"kind": "dense", "matrix": data["dense_matrix"]}
        data = {**data, "generator": legacy}
    # the functional sizes the generator, which files keep under ``generator``
    functional = _field(data, "functional", _vector)
    a = _field(data, "generator", lambda raw: generator_from_dict(raw, functional.size))
    return record_from_dict(
        WitnessCertificate,
        {**data, "a": a, "functional": functional},
        a=lambda raw: raw,
        functional=lambda raw: raw,
        stages=lambda raw: tuple(
            record_from_dict(WitnessStage, st, f"stages[{k}].") for k, st in enumerate(raw)
        ),
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
