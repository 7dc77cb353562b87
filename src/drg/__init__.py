"""Exact resistance computations on distance-regular graphs.

Given an intersection array, the package computes Biggs potentials,
effective resistances and the resistance-ratio bounds exactly (rational
arithmetic throughout). On explicitly constructed graphs it certifies
the closed-form resistances with an exact Kirchhoff check, and lists
the mismatched pairs with a fraction-free Laplacian solve when that
check fails.

Each submodule is imported on first use (PEP 562): `import drg` loads
nothing else, `drg.catalog_list()` loads the array side only, and
`drg.construct` or `drg.graphs` loads the graph side.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "arrays": (
        "ArrayFormatError",
        "DerivedParams",
        "IntersectionArray",
        "ValidationReport",
        "derive",
        "format_array",
        "is_cocktail_party",
        "parse_array",
        "validate",
    ),
    "catalog": ("CatalogEntry", "catalog_list", "lookup", "slugify"),
    "cli": (),
    "fmt": (),
    "graphs": (
        "DistancePartitionReport",
        "LabeledGraph",
        "construct",
        "parse_edge_list",
        "registry_names",
        "verify_drg",
    ),
    "oracle": ("cross_validate", "kirchhoff_certifies", "resistance_matrix"),
    "potentials": (
        "PotentialProfile",
        "compute_potentials_explicit",
        "compute_profile",
        "compute_ratio",
        "compute_resistances",
    ),
    "proofs": (
        "BIGGS_SMITH_RATIO",
        "BoundTrace",
        "CaseId",
        "TraceStep",
        "check_resistance_cap",
        "classify_case",
        "prove_k3",
        "prove_optimal",
        "step_inequalities",
        "tail_sum_check",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    """Import the submodule that `name` is, or that defines it, and bind the value here."""
    if name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
