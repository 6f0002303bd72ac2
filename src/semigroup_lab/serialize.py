"""JSON persistence with exact floating-point round trips.

Floats are stored as C99 hex literals inside small tagged objects
(``{"~f": "0x1.8p+1"}``), complex numbers as tagged pairs, and arrays as
tagged nested lists.  Decoding restores bit-identical values, which the
replay and verification paths rely on.  The readers here serve configs,
certificates and reports alike: a real is a plain number, a tagged float,
a ``0x`` hex string or ``"inf"`` (decimal strings are refused), and a
complex entry may also be an ``[re, im]`` pair.
"""

from __future__ import annotations

import json
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


def law_to_dict(law: GrowthLaw) -> dict:
    return {
        "kind": law.kind,
        "param": encode(law.param),
        "values": [encode(v) for v in law.values],
    }


def law_from_dict(data: dict) -> GrowthLaw:
    return GrowthLaw(
        kind=data.get("kind"),
        param=_float(data.get("param", 0.0)),
        values=tuple(_complex(v) for v in data.get("values", [])),
    )


def generator_to_dict(a: Generator) -> dict:
    """The ``generator`` section of configs, reports and certificates; a
    diagonal generator without a law becomes a ``table`` law of its entries.
    A law that :func:`generator_from_dict` would refuse (table moduli that
    decrease) raises ValueError here instead of reaching a file."""
    if a.kind == "dense":
        return {"kind": "dense", "matrix": encode(a.matrix)}
    law = a.law or GrowthLaw("table", values=tuple(complex(e) for e in a.entries))
    law_entries(law, a.dim)
    return {"kind": "diagonal", "law": law_to_dict(law)}


def generator_from_dict(desc: dict, dim: int) -> Generator:
    """Invert :func:`generator_to_dict`; configs share the format.  ``dim``
    sizes a diagonal law and fixes the shape of a dense matrix."""
    kind = _field(desc, "kind", str, "generator.")
    if kind == "diagonal":
        return _field(
            desc, "law", lambda raw: diagonal_generator(law_from_dict(raw), dim), "generator."
        )
    if kind == "dense":
        return _field(
            desc, "matrix", lambda raw: dense_generator(_matrix(raw, dim)), "generator."
        )
    raise InvalidCertificate([f"generator.kind: {kind!r} is not diagonal or dense"])


# What a reader raises on a malformed value; callers name the field.
READ_ERRORS = (KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError,
               DimensionMismatch, SemigroupOverflow)


def _field(data: dict, key: str, convert, path: str = "", optional: bool = False):
    """``convert(data[key])``, raising InvalidCertificate that names the field
    when it is malformed, or missing and not ``optional``."""
    try:
        raw = data.get(key)
        if raw is None:
            if optional:
                return None
            raise ValueError("missing")
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


def _stage_to_dict(stage: WitnessStage) -> dict:
    return {
        "index": stage.index,
        "vector": encode(stage.vector),
        "generator_pairing": encode(stage.generator_pairing),
        "steps": stage.steps,
        "limit_error": encode(stage.limit_error),
        "stability_radius": encode(stage.stability_radius),
        "log_value": encode(stage.log_value),
        "bump_radius": encode(stage.bump_radius),
        "search_target": encode(stage.search_target),
        "direction_index": stage.direction_index,
    }


def _stage_from_dict(k: int, data: dict) -> WitnessStage:
    path = f"stages[{k}]."
    return WitnessStage(
        index=_field(data, "index", _int, path),
        vector=_field(data, "vector", _vector, path),
        generator_pairing=_field(data, "generator_pairing", _complex, path),
        steps=_field(data, "steps", _int, path),
        limit_error=_field(data, "limit_error", _float, path),
        stability_radius=_field(data, "stability_radius", _float, path),
        log_value=_field(data, "log_value", _complex, path),
        bump_radius=_field(data, "bump_radius", _float, path, optional=True),
        search_target=_field(data, "search_target", _float, path, optional=True),
        direction_index=_field(data, "direction_index", _int, path, optional=True),
    )


def cert_to_dict(cert: WitnessCertificate) -> dict:
    return {
        "schema": CERT_SCHEMA,
        "eps": encode(cert.eps),
        "p": encode(cert.p),
        "generator": generator_to_dict(cert.a),
        "functional": encode(cert.functional),
        "initial": encode(cert.initial),
        "stages": [_stage_to_dict(st) for st in cert.stages],
        "witness": encode(cert.witness),
        "witness_log_values": [encode(v) for v in cert.witness_log_values],
        "witness_errors": [encode(v) for v in cert.witness_errors],
        "j_max": cert.j_max,
        "build_seed": cert.build_seed,
    }


def cert_from_dict(data: dict) -> WitnessCertificate:
    """Decode a certificate; a malformed payload raises InvalidCertificate."""
    schema = data.get("schema")
    if schema not in CERT_SCHEMAS:
        raise InvalidCertificate([f"schema: not a certificate ({schema!r})"])
    if schema != CERT_SCHEMA:  # /1 kept its generator in ``law`` or ``dense_matrix``
        legacy = {"kind": "diagonal", "law": data.get("law")}
        if data.get("dense_matrix") is not None:
            legacy = {"kind": "dense", "matrix": data["dense_matrix"]}
        data = {**data, "generator": legacy}
    functional = _field(data, "functional", _vector)
    return WitnessCertificate(
        a=_field(data, "generator", lambda raw: generator_from_dict(raw, functional.size)),
        eps=_field(data, "eps", _float),
        p=_field(data, "p", _float),
        functional=functional,
        initial=_field(data, "initial", _vector),
        stages=_field(
            data,
            "stages",
            lambda raw: tuple(_stage_from_dict(k, st) for k, st in enumerate(raw)),
        ),
        witness=_field(data, "witness", _vector),
        witness_log_values=_field(
            data, "witness_log_values", lambda raw: tuple(_complex(v) for v in raw)
        ),
        witness_errors=_field(
            data, "witness_errors", lambda raw: tuple(_float(v) for v in raw)
        ),
        j_max=_field(data, "j_max", _int),
        build_seed=_field(data, "build_seed", _int),
    )


def report_to_dict(report: RenormReport) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "kind": report.kind,
        "seed": report.seed,
        "vector_samples": report.vector_samples,
        "time_samples": report.time_samples,
        "parameters": encode(report.parameters),
        "summary": encode(report.summary),
        "lambdas": [encode(v) for v in report.lambdas],
        "violations": encode([list(row) for row in report.violations]),
        "passed": report.passed,
        "source": encode(report.source),
    }


def report_from_dict(data: dict) -> RenormReport:
    """Decode a report; a malformed payload raises InvalidCertificate."""
    if data.get("schema") != REPORT_SCHEMA:
        raise InvalidCertificate([f"schema: not a report ({data.get('schema')!r})"])
    return RenormReport(
        kind=_field(data, "kind", str),
        seed=_field(data, "seed", _int),
        vector_samples=_field(data, "vector_samples", _int),
        time_samples=_field(data, "time_samples", _int),
        parameters=_field(data, "parameters", decode),
        summary=_field(data, "summary", decode),
        lambdas=_field(data, "lambdas", lambda raw: tuple(_float(v) for v in raw)),
        violations=_field(
            data, "violations", lambda raw: tuple(tuple(row) for row in decode(raw))
        ),
        passed=_field(data, "passed", _bool),
        source=_field(data, "source", decode, optional=True) or {},
    )
