#!/usr/bin/env python3
"""Regenerate the shipped example configs under src/semigroup_lab/configs/.

The blow-up configs embed a tuned growth-law table produced by the law
designer, ``design_blowup_law``, which lives here because nothing in the
package calls it; its values are written as tagged hex floats so a
rebuild replays the exact same ladder bit for bit.  Everything else is
plain JSON, edited here rather than by hand so the files stay in sync.
The script also writes the deep-ladder test config,
tests/data/configs/blowup_k17.config.json, with the same designer.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from semigroup_lab import (
    CVec,
    Functional,
    GrowthLaw,
    TruncationInsufficient,
    WitnessBuildError,
    build_certificate,
    diagonal_generator_from_entries,
    law_entries,
)
from semigroup_lab.serialize import encode
from semigroup_lab.witness import DEFAULT_MARGIN

REPO = Path(__file__).resolve().parents[1]
OUT = REPO / "src" / "semigroup_lab" / "configs"
DEEP_LADDER = REPO / "tests" / "data" / "configs" / "blowup_k17.config.json"

SEED = 20260823

# The law designer's first rung on the seed coordinate, and the factor by
# which each later rung overshoots the pairing target it must clear.
_FIRST_RUNG = 0.05
_RUNG_PAD = 1.02


def design_blowup_law(
    f: Functional,
    z: CVec,
    eps: float,
    stage_goal: int,
    j_max: int = 160,
    margin: float = DEFAULT_MARGIN,
) -> GrowthLaw:
    """Tune a tabulated imaginary law that carries the ladder to the goal.

    Starts from a single small rung, ``_FIRST_RUNG``, on the seed
    coordinate and replays the build; every TruncationInsufficient names
    the pairing target and search radius the build got stuck at, and the
    next free coordinate receives a rung just large enough (padded by
    ``_RUNG_PAD``) to clear it.
    The build is deterministic, and a finished table replays the exact
    same ladder because unfilled rungs never influence earlier stages.

    The functional's dimension fixes the budget: one rung for the seed
    coordinate, one for the seed nudge, one per stage.  A dimension
    mismatch in either direction is an error.
    """
    dim = f.dim
    if z.dim != dim:
        raise ValueError("seed vector and functional dimensions differ")
    support = np.flatnonzero(z.coords)
    if support.size != 1 or support[0] != 0:
        raise ValueError("the law designer expects a seed on the first coordinate")
    entries = np.zeros(dim, dtype=np.complex128)
    entries[0] = 1j * _FIRST_RUNG
    for _ in range(dim + 1):
        gen = diagonal_generator_from_entries(entries)
        try:
            build_certificate(gen, f, z, eps, stage_goal, j_max=j_max, margin=margin)
        except WitnessBuildError as failure:
            cause = failure.cause
            if not isinstance(cause, TruncationInsufficient):
                raise
            free = np.flatnonzero(entries == 0.0)
            if free.size == 0:
                raise ValueError(
                    "growth table is full; the functional dimension is too small "
                    f"for {stage_goal} stages"
                ) from failure
            slot = int(free[0])
            weight = abs(f.coords[slot])
            if weight == 0.0:
                raise ValueError(
                    f"functional vanishes on coordinate {slot + 1}; no rung can help"
                ) from failure
            entries[slot] = 1j * (cause.needed_target * _RUNG_PAD / (cause.radius * weight))
            continue
        if np.any(entries == 0.0):
            raise ValueError(
                "growth table finished with unused rungs; shrink the functional "
                f"to dimension {int(np.count_nonzero(entries))}"
            )
        law = GrowthLaw(kind="table", values=tuple(complex(v) for v in entries))
        law_entries(law, dim)
        return law
    raise ValueError("law design did not converge; the stage goal may be unreachable")


def write(name: str, payload: dict) -> None:
    path = OUT / f"{name}.config.json"
    path.write_text(dumps(payload), encoding="utf-8")
    print(f"wrote {path}")


def blowup_config(stages: int, dim: int, j_max: int) -> dict:
    """A blow-up config whose growth law the designer tunes to carry a
    ``stages``-stage ladder in dimension ``dim`` on the schedule 2^0 ..
    2^j_max."""
    phi = Functional(0.01 * 2.0 ** (-np.arange(dim, dtype=float)), 2.0)
    z = CVec(np.eye(dim, dtype=complex)[0] / phi.coords[0], 2.0)
    law = design_blowup_law(phi, z, eps=0.1, stage_goal=stages, j_max=j_max)
    return {
        "schema": "semigroup-lab/config/1",
        "seed": SEED,
        "space": {"dim": dim, "p": 2},
        "generator": {
            "kind": "diagonal",
            "law": {"kind": "table", "values": [encode(v) for v in law.values]},
        },
        "functional": {"kind": "geometric", "scale": 0.01, "base": 2.0},
        "vector": {"kind": "basis", "index": 1},
        "witness": {"eps": 0.1, "stages": stages, "j_max": j_max},
    }


def dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)

    write(
        "two_point",
        {
            "schema": "semigroup-lab/config/1",
            "seed": SEED,
            "tolerance": 1e-3,
            "space": {"dim": 2, "p": 2},
            "generator": {"kind": "diagonal", "law": {"kind": "table", "values": [0.0, 2.0]}},
            "functional": {"kind": "values", "values": [0.5, 0.5]},
            "vector": {"kind": "values", "values": [1.0, 1.0]},
            "time": 1.0,
            "schedule": {"j_min": 0, "j_max": 20},
        },
    )

    write(
        "bounded_oracle",
        {
            "schema": "semigroup-lab/config/1",
            "seed": SEED,
            "tolerance": 1e-2,
            "space": {"dim": 4, "p": 2},
            "generator": {
                "kind": "dense",
                "matrix": [
                    [0.0, 2.0, 0.0, 0.0],
                    [0.0, 0.0, 2.0, 0.0],
                    [0.0, 0.0, 0.0, 2.0],
                    [2.0, 0.0, 0.0, 0.0],
                ],
            },
            "functional": {"kind": "values", "values": [0.4, 0.3, 0.2, 0.1]},
            "vector": {"kind": "values", "values": [1.0, 1.0, 1.0, 1.0]},
            "projection": {"kind": "rank_one"},
            "time": 1.0,
            "schedule": {"j_min": 0, "j_max": 16},
        },
    )

    blowup_common = blowup_config(stages=5, dim=7, j_max=160)
    write("blowup_k5", blowup_common)

    write(
        "split_renorm",
        {
            **blowup_common,
            "renorm": {"kind": "split", "vector_samples": 10000},
        },
    )

    write(
        "bounded_contrapositive",
        {
            "schema": "semigroup-lab/config/1",
            "seed": SEED,
            "space": {"dim": 6, "p": 2},
            "generator": {
                "kind": "dense",
                "matrix": [
                    [0.0, 0.0, 0.0, 0.0, 0.0, 2.0],
                    [2.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                    [0.0, 2.0, 0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 2.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 2.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.0, 2.0, 0.0],
                ],
            },
            "functional": {"kind": "geometric", "scale": 1.0, "base": 16.0},
            "vector": {"kind": "basis", "index": 1},
            "witness": {"eps": 0.1, "stages": 10, "j_max": 40},
        },
    )

    write(
        "classical_renorm",
        {
            "schema": "semigroup-lab/config/1",
            "seed": SEED,
            "space": {"dim": 6, "p": 2},
            "generator": {
                "kind": "diagonal",
                "law": {
                    "kind": "table",
                    "values": [
                        [0.0, 0.3],
                        [-0.25, 1.0],
                        [-0.5, 3.0],
                        [-0.75, 9.0],
                        [-1.0, 27.0],
                        [-1.25, 81.0],
                    ],
                },
            },
            "renorm": {
                "kind": "classical",
                "omega": 0.5,
                "vector_samples": 1000,
                "time_samples": 8,
                "grid_points": 257,
                "tol": 1e-9,
            },
        },
    )

    write(
        "sweep_bounded",
        {
            "schema": "semigroup-lab/config/1",
            "seed": SEED,
            "tolerance": 1e-2,
            "space": {"dim": 8, "p": 2},
            "schedule": {"j_min": 14, "j_max": 14},
            "sweep": {
                "trials": 12,
                "dim_min": 2,
                "dim_max": 8,
                "generator_norm": 2.0,
                "projection_norm_cap": 5.0,
                "times": [0.5, 1.0, 2.0],
            },
        },
    )


def write_deep_ladder() -> None:
    """The K = 17 ladder on the whole schedule, one rung per stage plus two."""
    DEEP_LADDER.write_text(dumps(blowup_config(stages=17, dim=19, j_max=1023)), encoding="utf-8")
    print(f"wrote {DEEP_LADDER}")


if __name__ == "__main__":
    main()
    write_deep_ladder()
