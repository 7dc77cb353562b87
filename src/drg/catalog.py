"""Named-array catalog: the embedded valency-3/4 table plus extras.

Entries are self-verifying: loading recomputes the vertex count and the
ratio from the stored array and refuses to serve data that disagrees
with the stored rendering.  The rows are built and checked once per
process, on first use.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .arrays import IntersectionArray, derive, parse_array
from .fmt import decimal_places, decimal_str
from .potentials import compute_profile
from .tables import BIGGS_SMITH_NAME, EXTRA_TABLE, VALENCY_34_TABLE


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    slug: str
    vertices: int
    array: IntersectionArray
    paper_ratio: str | None  # ratio rendering at its original precision
    constructible: str | None  # registry key, e.g. "hypercube:3"
    supplementary: bool
    ratio: Fraction  # recomputed exact value

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


def named_array_lines(lines: list[str]) -> Iterator[tuple[int, str, str]]:
    """(lineno, name, array) per `name | array` or bare-array line; `#` comments."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            name, bar, array_text = (part.strip() for part in line.partition("|"))
            yield (lineno, name, array_text) if bar else (lineno, line, line)


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
