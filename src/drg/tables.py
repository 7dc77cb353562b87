"""Embedded catalog data: the 23 known valency-3/4 arrays with D >= 3.

Each row: (display name, vertex count, array text, printed ratio,
construction key or None).  A construction key `name` or `name:param`
refers to the explicit-graph registry in drg.graphs.  A fixed graph
there (a key with no parameter) takes its claimed array from the row
that names it, so each such key is on exactly one row.  The printed
ratio keeps its original precision; loaders re-derive the exact value
and verify agreement.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

from .arrays import IntersectionArray, parse_array

VALENCY_34_TABLE: tuple[tuple[str, int, str, str, str | None], ...] = (
    ("Cube", 8, "3,2,1;1,2,3", "0.428571", "hypercube:3"),
    ("Heawood graph", 14, "3,2,2;1,1,3", "0.461538", "heawood"),
    ("Pappus graph", 18, "3,2,2,1;1,1,2,3", "0.588235", "pappus"),
    ("Coxeter graph", 28, "3,2,2,1;1,1,1,2", "0.666667", "coxeter"),
    ("Tutte's 8-cage", 30, "3,2,2,2;1,1,1,3", "0.655172", "tutte_8cage"),
    ("Dodecahedron", 20, "3,2,1,1,1;1,1,1,2,3", "0.842105", "dodecahedron"),
    ("Desargues graph", 20, "3,2,2,1,1;1,1,2,2,3", "0.710526", "desargues"),
    ("Tutte's 12-cage", 126, "3,2,2,2,2,2;1,1,1,1,1,3", "0.872", None),
    ("Biggs-Smith graph", 102, "3,2,2,2,1,1,1;1,1,1,1,1,1,3", "0.930693", None),
    ("Foster graph", 90, "3,2,2,2,2,1,1,1;1,1,1,1,2,2,2,3", "0.896067", None),
    ("K_{5,5} minus a matching", 10, "4,3,1;1,3,4", "0.296296", "crown_5"),
    ("Nonincidence graph of PG(2,2)", 14, "4,3,2;1,2,4", "0.307692", "nonincidence_pg22"),
    ("Line graph of Petersen graph", 15, "4,2,1;1,1,4", "0.428571", "line_of_petersen"),
    ("4-cube", 16, "4,3,2,1;1,2,3,4", "0.422222", "hypercube:4"),
    ("Flag graph of PG(2,2)", 21, "4,2,2;1,1,2", "0.5", None),
    ("Incidence graph of PG(2,3)", 26, "4,3,3;1,1,4", "0.32", None),
    ("Incidence graph of AG(2,4)-p.c.", 32, "4,3,3,1;1,1,3,4", "0.376344", None),
    ("Odd graph O_4", 35, "4,3,3;1,1,2", "0.352941", None),
    ("Flag graph of GQ(2,2)", 45, "4,2,2,2;1,1,1,2", "0.681818", None),
    ("Doubled odd graph", 70, "4,3,3,2,2,1,1;1,1,2,2,3,3,4", "0.521739", None),
    ("Incidence graph of GQ(3,3)", 80, "4,3,3,3;1,1,1,4", "0.417722", None),
    ("Flag graph of GH(2,2)", 189, "4,2,2,2,2,2;1,1,1,1,1,2", "0.882979", None),
    ("Incidence graph of GH(3,3)", 728, "4,3,3,3,3,3;1,1,1,1,1,4", "0.485557", None),
)

# Supplementary rows (not part of the table reproduction): exercise the
# D = 1, split-at-D and cocktail-party code paths.
EXTRA_TABLE: tuple[tuple[str, int, str, None, str | None], ...] = (
    ("Complete graph K_4", 4, "3;1", None, "complete:4"),
    ("Petersen graph", 10, "3,2;1,1", None, "petersen"),
    ("Octahedron", 6, "4,1;1,4", None, "cocktail_party:3"),
)

BIGGS_SMITH_NAME = "Biggs-Smith graph"

# array -> display name for the embedded valency-3/4 classification.
VALENCY_34_MEMBERSHIP: Mapping[IntersectionArray, str] = MappingProxyType(
    {parse_array(text): name for name, _, text, _, _ in VALENCY_34_TABLE}
)
