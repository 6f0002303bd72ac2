"""Experiment configuration files and the objects they describe.

Configs are JSON documents read by the readers of
:mod:`semigroup_lab.serialize`.  A number is a plain number, a tagged
float, a C99 hex string (``"0x1.8p+1"``) or ``"inf"``; decimal strings
such as ``"10"`` are refused, not read as hex (16).  Complex entries may
be ``[re, im]`` pairs.  The ``generator`` section is the format of a
report's ``source.generator``, decoded by the same function.  Parsing
failures raise ConfigError with the offending field path in the message.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidCertificate
from .serialize import (
    CONFIG_SCHEMA,
    READ_ERRORS,
    _float,
    _int,
    _matrix,
    _vector,
    generator_from_dict,
)
from .spaces import CVec, Functional, Generator


def _read(convert, raw, where: str):
    try:
        return convert(raw)
    except READ_ERRORS as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _num(raw, where: str) -> float:
    return _read(_float, raw, where)


def _integer(raw, where: str) -> int:
    return _read(_int, raw, where)


def _section(data: dict, key: str, required: bool = False) -> dict | None:
    raw = data.get(key)
    if raw is None:
        if required:
            raise ConfigError(f"missing required section {key!r}")
        return None
    if not isinstance(raw, dict):
        raise ConfigError(f"section {key!r} must be an object")
    return raw


@dataclass(frozen=True)
class WitnessParams:
    eps: float
    stages: int
    j_max: int
    margin: float
    validation_samples: int


@dataclass(frozen=True)
class RenormParams:
    kind: str
    omega: float | None
    vector_samples: int
    time_samples: int
    grid_points: int
    slack: float
    tol: float
    certificate: str | None


@dataclass(frozen=True)
class SweepParams:
    trials: int
    dim_min: int
    dim_max: int
    generator_norm: float
    projection_norm_cap: float
    times: tuple[float, ...]


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed experiment description.

    Leaf specs (generator, functional, vector, projection) stay as
    dicts; the builder methods materialize them against the declared
    space so one config object serves every subcommand.
    """

    name: str
    seed: int
    tolerance: float
    dim: int
    p: float
    generator_spec: dict | None
    functional_spec: dict | None
    vector_spec: dict | None
    time: float
    j_min: int
    j_max: int
    witness_spec: dict | None
    renorm_spec: dict | None
    projection_spec: dict | None
    sweep_spec: dict | None

    def generator(self) -> Generator:
        if self.generator_spec is None:
            raise ConfigError("config declares no generator")
        try:
            return generator_from_dict(self.generator_spec, self.dim)
        except InvalidCertificate as exc:
            raise ConfigError("; ".join(exc.failures)) from exc

    def functional(self) -> Functional:
        spec = self.functional_spec
        if spec is None:
            raise ConfigError("config declares no functional")
        kind = spec.get("kind")
        if kind == "geometric":
            scale = _num(spec.get("scale", 1.0), "functional.scale")
            base = _num(spec.get("base", 2.0), "functional.base")
            if base <= 1.0 or scale == 0.0:
                raise ConfigError("functional.geometric needs base > 1 and scale != 0")
            coords = scale * base ** (-np.arange(self.dim, dtype=np.float64))
            return Functional(coords, self.p)
        if kind == "values":
            coords = _read(
                lambda raw: _vector(raw, self.dim), spec.get("values"), "functional.values"
            )
            return Functional(coords, self.p)
        raise ConfigError(f"functional.kind {kind!r} is not geometric or values")

    def vector(self, f: Functional | None = None) -> CVec:
        spec = self.vector_spec
        if spec is None:
            raise ConfigError("config declares no vector")
        kind = spec.get("kind")
        if kind == "basis":
            index = _integer(spec.get("index", 1), "vector.index")
            if not 1 <= index <= self.dim:
                raise ConfigError(f"vector.index {index} outside 1..{self.dim}")
            coords = np.zeros(self.dim, dtype=np.complex128)
            gauge = spec.get("gauge", True)
            if gauge:
                if f is None:
                    f = self.functional()
                weight = f.coords[index - 1]
                if weight == 0.0:
                    raise ConfigError(
                        f"vector.basis cannot gauge against functional zero at {index}"
                    )
                coords[index - 1] = 1.0 / weight
            else:
                coords[index - 1] = 1.0
            return CVec(coords, self.p)
        if kind == "values":
            coords = _read(
                lambda raw: _vector(raw, self.dim), spec.get("values"), "vector.values"
            )
            return CVec(coords, self.p)
        raise ConfigError(f"vector.kind {kind!r} is not basis or values")

    def schedule(self) -> list[int]:
        return [2**j for j in range(self.j_min, self.j_max + 1)]

    def witness_params(self) -> WitnessParams:
        spec = self.witness_spec
        if spec is None:
            raise ConfigError("config declares no witness section")
        if "eps" not in spec:
            raise ConfigError("witness.eps is required")
        if "stages" not in spec:
            raise ConfigError("witness.stages is required")
        eps = _num(spec["eps"], "witness.eps")
        if not 0.0 < eps < 0.5:
            raise ConfigError(f"witness.eps must lie in (0, 1/2), got {eps}")
        stages = _integer(spec["stages"], "witness.stages")
        if stages < 0:
            raise ConfigError("witness.stages must be nonnegative")
        return WitnessParams(
            eps=eps,
            stages=stages,
            j_max=_integer(spec.get("j_max", 40), "witness.j_max"),
            margin=_num(spec.get("margin", 0.3), "witness.margin"),
            validation_samples=_integer(
                spec.get("validation_samples", 100), "witness.validation_samples"
            ),
        )

    def renorm_params(self) -> RenormParams:
        spec = self.renorm_spec
        if spec is None:
            raise ConfigError("config declares no renorm section")
        kind = spec.get("kind")
        if kind not in ("classical", "split"):
            raise ConfigError(f"renorm.kind {kind!r} is not classical or split")
        omega = None
        if kind == "classical":
            if "omega" not in spec:
                raise ConfigError("renorm.omega is required for the classical audit")
            omega = _num(spec["omega"], "renorm.omega")
        certificate = spec.get("certificate")
        if certificate is not None and not isinstance(certificate, str):
            raise ConfigError("renorm.certificate must be a path string")
        return RenormParams(
            kind=kind,
            omega=omega,
            vector_samples=_integer(
                spec.get("vector_samples", 1000), "renorm.vector_samples"
            ),
            time_samples=_integer(spec.get("time_samples", 8), "renorm.time_samples"),
            grid_points=_integer(spec.get("grid_points", 257), "renorm.grid_points"),
            slack=_num(spec.get("slack", 1e-10), "renorm.slack"),
            tol=_num(spec.get("tol", 1e-9), "renorm.tol"),
            certificate=certificate,
        )

    def sweep_params(self) -> SweepParams:
        spec = self.sweep_spec
        if spec is None:
            raise ConfigError("config declares no sweep section")
        params = SweepParams(
            trials=_integer(spec.get("trials", 20), "sweep.trials"),
            dim_min=_integer(spec.get("dim_min", 2), "sweep.dim_min"),
            dim_max=_integer(spec.get("dim_max", 8), "sweep.dim_max"),
            generator_norm=_num(spec.get("generator_norm", 2.0), "sweep.generator_norm"),
            projection_norm_cap=_num(
                spec.get("projection_norm_cap", 5.0), "sweep.projection_norm_cap"
            ),
            times=_read(
                lambda raw: tuple(_float(t) for t in raw),
                spec.get("times", [0.5, 1.0, 2.0]),
                "sweep.times",
            ),
        )
        if not 2 <= params.dim_min <= params.dim_max:
            raise ConfigError("sweep needs 2 <= dim_min <= dim_max")
        return params

    def projection(self, f: Functional | None = None, x: CVec | None = None):
        from .projections import DenseProjection, make_rank_one

        spec = self.projection_spec
        if spec is None:
            raise ConfigError("config declares no projection")
        kind = spec.get("kind")
        if kind == "rank_one":
            if f is None:
                f = self.functional()
            if x is None:
                x = self.vector(f)
            return make_rank_one(f, x)
        if kind == "dense":
            return _read(
                lambda raw: DenseProjection(_matrix(raw, self.dim), self.p),
                spec.get("matrix"),
                "projection.matrix",
            )
        raise ConfigError(f"projection.kind {kind!r} is not rank_one or dense")

    def with_overrides(
        self, seed: int | None = None, tolerance: float | None = None
    ) -> "ExperimentConfig":
        out = self
        if seed is not None:
            out = replace(out, seed=seed)
        if tolerance is not None:
            out = replace(out, tolerance=tolerance)
        return out


def parse_config(data: dict, name: str = "config") -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("top level must be an object")
    schema = data.get("schema", CONFIG_SCHEMA)
    if schema != CONFIG_SCHEMA:
        raise ConfigError(f"unsupported schema {schema!r}")
    space = _section(data, "space", required=True)
    dim = _integer(space.get("dim"), "space.dim")
    if dim < 1:
        raise ConfigError("space.dim must be positive")
    p = _num(space.get("p", 2.0), "space.p")
    if p not in (1.0, 2.0, math.inf):
        raise ConfigError("space.p must be 1, 2, or inf")
    schedule = _section(data, "schedule") or {}
    j_min = _integer(schedule.get("j_min", 0), "schedule.j_min")
    j_max = _integer(schedule.get("j_max", 20), "schedule.j_max")
    if j_min < 0 or j_max < j_min:
        raise ConfigError("schedule needs 0 <= j_min <= j_max")
    return ExperimentConfig(
        name=name,
        seed=_integer(data.get("seed", 0), "seed"),
        tolerance=_num(data.get("tolerance", 1e-3), "tolerance"),
        dim=dim,
        p=p,
        generator_spec=_section(data, "generator"),
        functional_spec=_section(data, "functional"),
        vector_spec=_section(data, "vector"),
        time=_num(data.get("time", 1.0), "time"),
        j_min=j_min,
        j_max=j_max,
        witness_spec=_section(data, "witness"),
        renorm_spec=_section(data, "renorm"),
        projection_spec=_section(data, "projection"),
        sweep_spec=_section(data, "sweep"),
    )


def resolve_config_path(arg: str | Path) -> Path:
    """An existing config path, or the shipped config of that name."""
    path = Path(arg)
    if path.exists():
        return path
    arg = str(arg)
    if "/" not in arg and "\\" not in arg:
        shipped = resources.files("semigroup_lab").joinpath("configs")
        for candidate in (f"{arg}.config.json", arg):
            target = shipped.joinpath(candidate)
            if target.is_file():
                return Path(str(target))
    raise ConfigError(f"no config file at {arg!r} and no shipped config by that name")


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a config from a path or from the shipped set by bare name."""
    path = resolve_config_path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    name = path.name
    for suffix in (".config.json", ".json"):
        if name.endswith(suffix):
            name = name[: -len(suffix)]
            break
    return parse_config(data, name=name)
