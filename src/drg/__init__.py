"""Exact resistance computations on distance-regular graphs.

Given an intersection array, the package computes Biggs potentials,
effective resistances and the resistance-ratio bounds exactly (rational
arithmetic throughout), and cross-validates the closed-form resistances
against an independent Laplacian solver on explicitly constructed graphs.
"""

from .arrays import (
    ArrayFormatError,
    DerivedParams,
    IntersectionArray,
    ValidationReport,
    derive,
    format_array,
    is_cocktail_party,
    parse_array,
    validate,
)
from .catalog import CatalogEntry, catalog_list, lookup, slugify
from .graphs import (
    DistancePartitionReport,
    LabeledGraph,
    construct,
    parse_edge_list,
    registry_names,
    verify_drg,
)
from .oracle import (
    cross_validate,
    kirchhoff_certifies,
    resistance_matrix,
)
from .potentials import (
    PotentialProfile,
    StepBound,
    TailSumCheck,
    check_resistance_cap,
    compute_potentials_explicit,
    compute_profile,
    step_inequalities,
    tail_sum_check,
)
from .proofs import (
    BIGGS_SMITH_RATIO,
    BoundTrace,
    CaseId,
    TraceStep,
    classify_case,
    prove_k3,
    prove_optimal,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayFormatError",
    "BIGGS_SMITH_RATIO",
    "BoundTrace",
    "CaseId",
    "CatalogEntry",
    "DerivedParams",
    "DistancePartitionReport",
    "IntersectionArray",
    "LabeledGraph",
    "PotentialProfile",
    "StepBound",
    "TailSumCheck",
    "TraceStep",
    "ValidationReport",
    "catalog_list",
    "check_resistance_cap",
    "classify_case",
    "compute_potentials_explicit",
    "compute_profile",
    "construct",
    "cross_validate",
    "derive",
    "format_array",
    "is_cocktail_party",
    "kirchhoff_certifies",
    "lookup",
    "parse_array",
    "parse_edge_list",
    "prove_k3",
    "prove_optimal",
    "registry_names",
    "resistance_matrix",
    "slugify",
    "step_inequalities",
    "tail_sum_check",
    "validate",
    "verify_drg",
]
