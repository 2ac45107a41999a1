"""Exact-arithmetic computation of generalized Weierstrass semigroups for
Kummer extensions of the rational function field, from ramification data
alone: membership, gaps, pure gaps, discrepancies, and the complete sets
of absolute and relative maximal elements, with a definitional
brute-force oracle for cross-validation."""

from .arith import (
    BetaTable,
    beta,
    ceil_div,
    floor_div,
    mod_inverse,
    per_coordinate_t,
    t_of,
    unique_t,
)
from .errors import (
    BadPreset,
    BudgetExceeded,
    IndexNotDistinguished,
    InconsistentProfile,
    KummerError,
    ResidueOutOfRange,
)
from .maximal import (
    MaximalElement,
    Window,
    block_count,
    block_counts,
    cardinality,
    enumerate_maximal_in_window,
    enumerate_minimal_generating,
)
from .membership import (
    Classification,
    MaximalKind,
    Verdict,
    classify,
    classify_window,
    ell_drop,
    is_discrepancy_point,
    is_maximal_by_criterion,
    is_member,
    is_relative_discrepancy_point,
    single_place_gap_count,
)
from .model import (
    CurvePreset,
    RamificationProfile,
    ValidationReport,
    dump_profile,
    genus,
    load_profile,
    preset_beelen_montanucci,
    preset_separable,
    preset_xabns,
    preset_yns,
    profile_from_dict,
    profile_to_dict,
    validate,
)
from .oracle import (
    DEFAULT_BUDGET,
    CrosscheckReport,
    crosscheck_window,
    is_maximal_definitional,
    nabla_nonempty,
)

__version__ = "0.1.0"
