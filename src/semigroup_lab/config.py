"""Experiment configuration files and the objects they describe.

Configs are JSON documents; every value is read through
:func:`semigroup_lab.serialize._field` and its readers.  A number is a plain number, a tagged
float, a C99 hex string (``"0x1.8p+1"``) or ``"inf"``; decimal strings
such as ``"10"`` are refused, not read as hex (16).  Complex entries may
be ``[re, im]`` pairs.  The ``generator`` section is the format of a
report's ``source.generator``, decoded by the same function.  Parsing
failures raise ConfigError with the offending field path in the message
(a reader's InvalidCertificate becomes ConfigError in ``_config_errors``).
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidCertificate
from .renorm import (
    DEFAULT_GRID_POINTS, DEFAULT_SLACK, DEFAULT_TIME_SAMPLES, DEFAULT_TOL, DEFAULT_VECTOR_SAMPLES
)
from .serialize import (
    CONFIG_SCHEMA,
    _bool,
    _field,
    _finite,
    _float,
    _int,
    _matrix,
    _object,
    _string,
    _vector,
    generator_from_dict,
    record_from_dict,
)
from .spaces import CVec, Functional, Generator, _check_p, dual_norm
from .witness import DEFAULT_J_MAX, DEFAULT_MARGIN, DEFAULT_VALIDATION_SAMPLES


@contextlib.contextmanager
def _config_errors():
    """InvalidCertificate, which names the field, raised as ConfigError: the
    one place a config reader's failure changes type."""
    try:
        yield
    except InvalidCertificate as exc:
        raise ConfigError("; ".join(exc.failures)) from exc


def _check(ok: bool, where: str, what: str) -> None:
    if not ok:
        raise ConfigError(f"{where}: {what}")


@dataclass(frozen=True)
class WitnessParams:
    eps: float
    stages: int
    j_max: int = DEFAULT_J_MAX
    margin: float = DEFAULT_MARGIN
    # read and checked so old configs parse; a build samples nothing
    validation_samples: int = DEFAULT_VALIDATION_SAMPLES


@dataclass(frozen=True)
class RenormParams:
    kind: str
    omega: float | None = None
    vector_samples: int = DEFAULT_VECTOR_SAMPLES
    time_samples: int = DEFAULT_TIME_SAMPLES
    grid_points: int = DEFAULT_GRID_POINTS
    slack: float = DEFAULT_SLACK
    tol: float = DEFAULT_TOL
    certificate: str | None = None


@dataclass(frozen=True)
class SweepParams:
    trials: int = 20
    dim_min: int = 2
    dim_max: int = 8
    generator_norm: float = 2.0
    projection_norm_cap: float = 5.0
    times: tuple[float, ...] = (0.5, 1.0, 2.0)


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

    def __post_init__(self) -> None:
        # here so that --seed and --tolerance overrides are checked too
        _check(self.seed >= 0, "seed", f"must be nonnegative, got {self.seed}")
        # a NaN or inf tolerance is never exceeded
        _check(math.isfinite(self.tolerance), "tolerance", f"must be finite, got {self.tolerance}")
        # no error is below a negative one, so every run would read "above"
        _check(self.tolerance >= 0.0, "tolerance", f"must be nonnegative, got {self.tolerance}")
        # a NaN or inf time makes every row of a ladder NaN
        _check(math.isfinite(self.time), "time", f"must be finite, got {self.time}")

    @_config_errors()
    def generator(self) -> Generator:
        if self.generator_spec is None:
            raise ConfigError("config declares no generator")
        a = generator_from_dict(self.generator_spec, self.dim)
        # the codec reads any dense matrix (a table law's values are checked
        # as they are read); a run needs finite entries
        finite = a.kind != "dense" or bool(np.isfinite(a.matrix).all())
        _check(finite, "generator.matrix", "must be finite")
        return a

    @_config_errors()
    def functional(self) -> Functional:
        spec = self.functional_spec
        if spec is None:
            raise ConfigError("config declares no functional")
        kind = _field(spec, "kind", _string, "functional.")
        if kind == "geometric":
            scale = _field(spec, "scale", _float, "functional.", 1.0)
            base = _field(spec, "base", _float, "functional.", 2.0)
            if base <= 1.0 or scale == 0.0:
                raise ConfigError("functional.geometric needs base > 1 and scale != 0")
            coords = scale * base ** (-np.arange(self.dim, dtype=np.float64))
        elif kind == "values":
            coords = _field(spec, "values", lambda raw: _vector(raw, self.dim), "functional.")
        else:
            raise ConfigError(f"functional.kind: {kind!r} is not geometric or values")
        f = Functional(coords, self.p)
        size = dual_norm(f)
        # radii and search targets are measured against it, and a build
        # seeds its ladder in the ball of radius 1/(2|f|)
        _check(math.isfinite(size), "functional", f"dual norm {size} is not finite")
        _check(
            size <= 0.5 / sys.float_info.min,  # 1/(2|f|) stays a normal double
            "functional",
            f"dual norm {size:.3g} makes the seed radius 1/(2|f|) subnormal",
        )
        return f

    @_config_errors()
    def vector(self, f: Functional | None = None) -> CVec:
        spec = self.vector_spec
        if spec is None:
            raise ConfigError("config declares no vector")
        kind = _field(spec, "kind", _string, "vector.")
        if kind == "basis":
            index = _field(spec, "index", _int, "vector.", 1)
            if not 1 <= index <= self.dim:
                raise ConfigError(f"vector.index {index} outside 1..{self.dim}")
            coords = np.zeros(self.dim, dtype=np.complex128)
            if _field(spec, "gauge", _bool, "vector.", True):
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
            coords = _field(
                spec, "values", lambda raw: _finite(_vector(raw, self.dim)), "vector."
            )
            return CVec(coords, self.p)
        raise ConfigError(f"vector.kind: {kind!r} is not basis or values")

    def schedule(self) -> Iterator[int]:
        """The step counts 2^j, j_min <= j <= j_max, formed one at a time and
        with j capped at 1024: a ladder stops at 2^1024, the first count too
        large to divide a time by, however large j_min and j_max are."""
        return (2**j for j in range(min(self.j_min, 1024), min(self.j_max, 1024) + 1))

    @_config_errors()
    def _params(self, cls, spec: dict | None, section: str):
        if spec is None:
            raise ConfigError(f"config declares no {section} section")
        return record_from_dict(cls, spec, f"{section}.")

    def witness_params(self) -> WitnessParams:
        params = self._params(WitnessParams, self.witness_spec, "witness")
        _check(0.0 < params.eps < 0.5, "witness.eps", f"must lie in (0, 1/2), got {params.eps}")
        _check(params.stages >= 0, "witness.stages", "must be nonnegative")
        _check(params.j_max >= 0, "witness.j_max", "must be nonnegative")
        _check(0.0 < params.margin < math.inf, "witness.margin", "must be positive and finite")
        _check(params.validation_samples >= 1, "witness.validation_samples", "must be positive")
        return params

    def renorm_params(self) -> RenormParams:
        params = self._params(RenormParams, self.renorm_spec, "renorm")
        if params.kind not in ("classical", "split"):
            raise ConfigError(f"renorm.kind: {params.kind!r} is not classical or split")
        _check(params.kind == "split" or params.omega is not None, "renorm.omega", "missing")
        for name in ("omega", "tol", "slack"):  # a NaN or inf bound is never exceeded
            value = getattr(params, name)
            _check(value is None or math.isfinite(value), f"renorm.{name}", "must be finite")
        # shift 0 is always audited and its excess is exactly 0, so a negative
        # tol would fail every classical audit
        _check(params.tol >= 0.0, "renorm.tol", "must be nonnegative")
        _check(params.vector_samples >= 1, "renorm.vector_samples", "must be positive")
        _check(params.time_samples >= 1, "renorm.time_samples", "must be positive")
        _check(params.grid_points >= 2, "renorm.grid_points", "must be at least 2")
        return params

    def sweep_params(self) -> SweepParams:
        params = self._params(SweepParams, self.sweep_spec, "sweep")
        if not 2 <= params.dim_min <= params.dim_max:
            raise ConfigError("sweep needs 2 <= dim_min <= dim_max")
        _check(params.trials >= 1, "sweep.trials", "must be positive")
        _check(bool(params.times), "sweep.times", "must not be empty")
        _check(all(map(math.isfinite, params.times)), "sweep.times", "must be finite")
        norm = params.generator_norm
        _check(0.0 <= norm < math.inf, "sweep.generator_norm", "must be finite and nonnegative")
        # a nonzero projection has norm >= 1, so a cap <= 1 is never met
        _check(params.projection_norm_cap > 1.0, "sweep.projection_norm_cap", "must exceed 1")
        return params

    @_config_errors()
    def projection(self, f: Functional | None = None, x: CVec | None = None):
        from .projections import DenseProjection, make_rank_one

        spec = self.projection_spec
        if spec is None:
            raise ConfigError("config declares no projection")
        kind = _field(spec, "kind", _string, "projection.")
        if kind == "rank_one":
            if f is None:
                f = self.functional()
            if x is None:
                x = self.vector(f)
            return make_rank_one(f, x)
        if kind == "dense":
            return _field(
                spec,
                "matrix",
                lambda raw: DenseProjection(_finite(_matrix(raw, self.dim)), self.p),
                "projection.",
            )
        raise ConfigError(f"projection.kind: {kind!r} is not rank_one or dense")

    def with_overrides(
        self, seed: int | None = None, tolerance: float | None = None
    ) -> "ExperimentConfig":
        out = self
        if seed is not None:
            out = replace(out, seed=seed)
        if tolerance is not None:
            out = replace(out, tolerance=tolerance)
        return out


@_config_errors()
def parse_config(data: dict, name: str = "config") -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("top level must be an object")
    schema = data.get("schema", CONFIG_SCHEMA)
    if schema != CONFIG_SCHEMA:
        raise ConfigError(f"unsupported schema {schema!r}")
    space = _field(data, "space", _object)
    dim = _field(space, "dim", _int, "space.")
    _check(dim >= 1, "space.dim", "must be positive")
    p = _field(space, "p", lambda raw: _check_p(_float(raw)), "space.", 2.0)
    schedule = _field(data, "schedule", _object, "", {})
    j_min = _field(schedule, "j_min", _int, "schedule.", 0)
    j_max = _field(schedule, "j_max", _int, "schedule.", 20)
    if j_min < 0 or j_max < j_min:
        raise ConfigError("schedule needs 0 <= j_min <= j_max")
    sections = {
        f"{key}_spec": _field(data, key, _object, "", None)
        for key in ("generator", "functional", "vector", "witness", "renorm", "projection", "sweep")
    }
    return ExperimentConfig(
        name=name,
        seed=_field(data, "seed", _int, "", 0),
        tolerance=_field(data, "tolerance", _float, "", 1e-3),
        dim=dim,
        p=p,
        time=_field(data, "time", _float, "", 1.0),
        j_min=j_min,
        j_max=j_max,
        **sections,
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
