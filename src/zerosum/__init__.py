"""Exact zero-sum computations in small finite groups.

Decide product-1-freeness of sequences, measure Davenport constants,
enumerate extremal product-1-free sequences and verify them against the
closed-form characterizations for cyclic, metacyclic, dihedral and dicyclic
groups.
"""

from .engine import (
    BudgetExhaustedError,
    EngineError,
    EngineLimitError,
    ReachableSet,
    default_kernel_name,
    has_product_in,
    is_product1_free,
    oracle_reachable,
    reachable_products,
)
from .davenport import SearchResult, max_free_length, verify_known_constants
from .extremal import (
    CharacterizationFamily,
    VerificationReport,
    check_cyclic_structure,
    check_minimal_zero_sum_order,
    check_weighted_lemma,
    enumerate_extremal,
    family_cyclic,
    family_dicyclic,
    family_dihedral,
    family_metacyclic,
    verify_theorem,
)
from .groups import (
    Group,
    GroupError,
    GroupSpec,
    build_group,
    parse_group_spec,
    quaternion_names,
)
from .sequences import GSequence, SequenceError, items_text

__version__ = "0.1.0"

__all__ = [
    "BudgetExhaustedError",
    "CharacterizationFamily",
    "EngineError",
    "EngineLimitError",
    "GSequence",
    "Group",
    "GroupError",
    "GroupSpec",
    "ReachableSet",
    "SearchResult",
    "SequenceError",
    "VerificationReport",
    "build_group",
    "check_cyclic_structure",
    "check_minimal_zero_sum_order",
    "check_weighted_lemma",
    "default_kernel_name",
    "enumerate_extremal",
    "family_cyclic",
    "family_dicyclic",
    "family_dihedral",
    "family_metacyclic",
    "has_product_in",
    "is_product1_free",
    "items_text",
    "max_free_length",
    "oracle_reachable",
    "parse_group_spec",
    "quaternion_names",
    "reachable_products",
    "verify_known_constants",
    "verify_theorem",
]
