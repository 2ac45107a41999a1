"""Exact-arithmetic computation of generalized Weierstrass semigroups for
Kummer extensions of the rational function field, from ramification data
alone: membership, gaps, pure gaps, discrepancies, and the complete sets
of absolute and relative maximal elements, with a definitional
brute-force oracle for cross-validation."""

from .arith import BetaTable, beta, unique_t
from .errors import (
    DEFAULT_BUDGET,
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
    is_maximal_by_criterion,
    is_member,
    single_place_gap_count,
)
from .model import (
    RamificationProfile,
    ValidationReport,
    dump_profile,
    genus,
    preset_beelen_montanucci,
    preset_separable,
    preset_xabns,
    preset_yns,
    profile_from_dict,
    profile_to_dict,
    validate,
)
from .oracle import (
    CrosscheckReport,
    crosscheck_window,
    is_maximal_definitional,
    nabla_nonempty,
)

__version__ = "0.1.0"
