"""Exact sign-vector elimination calculus for multi-valued gates.

The library enumerates canonical sign vectors, evaluates the elimination
relation, counts eliminated sets in closed form with brute-force oracles to
match, searches eliminating covers, expands gates into exact multilinear
coefficient tensors, and derives sensitivity bounds plus reversibility
certificates from projection total signs and experiment collision data.
"""

__version__ = "0.1.0"

from .backend import UNDETERMINED, backend_name
from .counting import (
    PairProfile,
    SignMatrix,
    aligned_columns,
    count_eliminated_intersection,
    count_eliminated_oracle,
    count_eliminated_single,
    count_eliminated_union,
    count_intersection_oracle,
    count_pair,
    pair_profile,
)
from .covers import (
    CoverReport,
    column_rank,
    cover_reports,
    covered_fraction,
    describe_cover,
    full_support_vectors,
    is_eliminating_cover,
    is_minimal_cover,
    minimal_covers,
    orthogonality_implication_holds,
    unit_vectors,
)
from .errors import DomainError, ResourceLimitError, SignElimError, ValidationError
from .gates import (
    Gate,
    MultilinearExpansion,
    apply_functional,
    base_points,
    boolean_gate,
    dumps_gate,
    evaluate,
    expand,
    gate_from_json,
    gate_to_json,
    load_gate,
    parse_rational,
    rational_string,
    reduced_dimension,
    reduced_partial,
    validate_base_point,
)
from .selftest import CheckResult, run_selftest
from .sensitivity import (
    BasePointReport,
    BooleanSensitivity,
    Certificate,
    DataBound,
    ExperimentRecord,
    GateAnalysis,
    ProjectionFamily,
    ScorePair,
    analyze_gate,
    boolean_sensitivity,
    data_upper_bound,
    default_family,
    experiment_header,
    format_log3,
    log3_value,
    parse_experiment_csv,
    reduced_coordinates,
    reversibility_certificate,
    sensitivity_lower_set,
    sensitivity_score,
    sign_over_region,
    total_sign,
    verify_certificate,
    witness_signs,
)
from .signvec import (
    apply_permutation,
    as_fraction_dot,
    canonical_sign_vectors,
    canonicalize,
    eliminated_count,
    eliminated_mask,
    eliminated_set,
    eliminates,
    enumeration_key,
    is_canonical,
    jointly_eliminated_count,
    negate_column,
    negate_coordinate,
    parse_sign_string,
    sign_string,
    vector_count,
    zero_count,
)

__all__ = [name for name in dir() if not name.startswith("_")]
