"""Numerical lab for semigroup product formulas and their failure modes.

The package walks one story end to end: alternating products
(exp(tA/n) P)^n converge for bounded generators, reduce to scalar powers
through rank-one projections, and blow up stage by stage for unbounded
diagonal generators; witness certificates make the blow-up checkable,
and renorming audits measure what no equivalent norm can repair.
"""

from .errors import (
    ConfigError,
    DegeneratePair,
    DimensionMismatch,
    InvalidCertificate,
    ScheduleExhausted,
    SemigroupLabError,
    SemigroupOverflow,
    SpectralBoundViolated,
    TruncationInsufficient,
    UnderflowRadius,
    WitnessBuildError,
    ZeroPairing,
)
from .spaces import (
    CVec,
    Functional,
    Generator,
    GrowthLaw,
    apply_generator,
    dense_generator,
    diagonal_generator,
    diagonal_generator_from_entries,
    dual_norm,
    law_entries,
    norm,
    pairing,
    semigroup_apply,
    semigroup_defect,
)
from .projections import (
    DenseProjection,
    RankOneProjection,
    make_rank_one,
    project,
    projection_norm,
    random_oblique_projection,
)
from .trotter import (
    TrotterRecord,
    bounded_limit_oracle,
    dense_trotter_apply,
    scalar_trotter_value,
    step_derivative,
    step_pairing,
)
from .witness import (
    WitnessCertificate,
    WitnessStage,
    build_certificate,
    choose_step_count,
    find_direction,
    rotate_nonneg,
    stability_radius,
    validate_stability,
    verify_certificate,
)
from .renorm import (
    RenormReport,
    classical_renorm_value,
    lambda_lower_bounds,
    quasi_contractivity_audit,
    renorm_time_grid,
    spectral_bound,
    split_norm,
    witness_projection,
)
from .serialize import (
    CERT_SCHEMA,
    CONFIG_SCHEMA,
    REPORT_SCHEMA,
    cert_from_dict,
    cert_to_dict,
    dumps_canonical,
    load_json,
    report_from_dict,
    report_to_dict,
    save_json,
)
from .config import ExperimentConfig, load_config, parse_config

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
