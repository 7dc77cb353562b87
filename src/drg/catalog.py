"""Named-array catalog: the embedded valency-3/4 table plus extras.

VALENCY_34_TABLE holds the 23 known valency-3/4 arrays with D >= 3 and
EXTRA_TABLE three supplementary ones, a row each: (display name, vertex
count, array text, printed ratio at its original precision, construction
key or None).  A construction key `name` or `name:param` refers to the
explicit-graph registry in drg.graphs; a fixed graph there (a key with
no parameter) claims the array of the entry that names it, so each such
key is on exactly one row.

The entries that catalog_list() builds, once per process on first use,
are the only parsed form of the rows.  They are self-verifying: loading
recomputes the vertex count and the ratio from the stored array and
refuses to serve data that disagrees with the stored rendering.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType

from ._record import Record, set_field
from .arrays import IntersectionArray, derive, parse_array
from .fmt import decimal_places, decimal_str
from .potentials import compute_profile

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


class CatalogEntry(Record):
    __slots__ = _fields = (
        "name",
        "slug",
        "vertices",
        "array",
        "paper_ratio",
        "constructible",
        "supplementary",
        "ratio",
    )

    def __init__(
        self,
        name: str,
        slug: str,
        vertices: int,
        array: IntersectionArray,
        paper_ratio: str | None,  # ratio rendering at its original precision
        constructible: str | None,  # registry key, e.g. "hypercube:3"
        supplementary: bool,
        ratio: Fraction,  # recomputed exact value
    ) -> None:
        set_field(self, "name", name)
        set_field(self, "slug", slug)
        set_field(self, "vertices", vertices)
        set_field(self, "array", array)
        set_field(self, "paper_ratio", paper_ratio)
        set_field(self, "constructible", constructible)
        set_field(self, "supplementary", supplementary)
        set_field(self, "ratio", ratio)

    @property
    def extremal(self) -> bool:
        return self.name == BIGGS_SMITH_NAME

    def ratio_matches_stored(self) -> bool:
        if self.paper_ratio is None:
            return True
        places = decimal_places(self.paper_ratio)
        return decimal_str(self.ratio, places) == self.paper_ratio


def slugify(name: str) -> str:
    """CLI lookup key: lowercase, hyphenated, trailing 'graph' dropped."""
    text = name.lower().replace("'", "")
    text = re.sub(r"[^a-z0-9]+", "-", text).strip("-")
    if text.endswith("-graph"):
        text = text[: -len("-graph")]
    return text


def _build_entry(
    name: str,
    vertices: int,
    array_text: str,
    ratio_text: str | None,
    constructible: str | None,
    supplementary: bool,
) -> CatalogEntry:
    arr = parse_array(array_text)
    params = derive(arr)
    profile = compute_profile(params)
    if params.n != vertices:
        raise ValueError(
            f"catalog entry {name!r}: stored vertex count {vertices} "
            f"but the array gives n = {params.n}"
        )
    entry = CatalogEntry(
        name=name,
        slug=slugify(name),
        vertices=params.n,
        array=arr,
        paper_ratio=ratio_text,
        constructible=constructible,
        supplementary=supplementary,
        ratio=profile.ratio,
    )
    if not entry.ratio_matches_stored():
        raise ValueError(
            f"catalog entry {name!r}: stored ratio {ratio_text} disagrees "
            f"with the recomputed value {profile.ratio}"
        )
    return entry


@functools.cache
def catalog_list() -> tuple[CatalogEntry, ...]:
    """The table rows, then the extras flagged supplementary; built once per process."""
    return tuple(
        _build_entry(name, n, arr, ratio, constructible, supplementary)
        for table, supplementary in ((VALENCY_34_TABLE, False), (EXTRA_TABLE, True))
        for name, n, arr, ratio, constructible in table
    )


def lookup(name: str) -> CatalogEntry | None:
    """Find an entry by slug or (case-insensitive) display name."""
    slug, want = slugify(name), name.strip().lower()
    for entry in catalog_list():
        if entry.slug == slug or entry.name.lower() == want:
            return entry
    return None


@functools.cache
def table_entries() -> Mapping[IntersectionArray, CatalogEntry]:
    """The entries of the VALENCY_34_TABLE rows (no extra) by array, built once."""
    return MappingProxyType({e.array: e for e in catalog_list() if not e.supplementary})
