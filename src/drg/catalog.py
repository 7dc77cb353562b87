"""Named-array catalog: the embedded valency-3/4 table plus extras.

Entries are self-verifying: loading recomputes the vertex count and the
ratio from the stored array and refuses to serve data that disagrees
with the stored rendering, an n or ratio too long to print, or a slug
that an earlier entry has.  The embedded rows are built and checked
once per process, on first use; the DRG_CATALOG file is read again on
every call, so an edited file (or a bad one) shows at once.
"""

from __future__ import annotations

import functools
import os
import re
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .arrays import IntersectionArray, derive, parse_array
from .fmt import decimal_places, decimal_str, frac_str
from .potentials import compute_profile
from .tables import BIGGS_SMITH_NAME, EXTRA_TABLE, VALENCY_34_TABLE

ENV_SUPPLEMENTARY = "DRG_CATALOG"


class CatalogError(ValueError):
    """The supplementary catalog file cannot be read or has a bad line."""


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
    vertices: int | None,
    array_text: str,
    ratio_text: str | None,
    constructible: str | None,
    supplementary: bool,
) -> CatalogEntry:
    slug = slugify(name)
    if not slug:  # lookup("") or lookup("   ") would find it
        raise ValueError(f"catalog entry {name!r}: the name has no letter or digit")
    arr = parse_array(array_text)
    params = derive(arr)
    profile = compute_profile(params)
    if vertices is not None and params.n != vertices:
        raise ValueError(
            f"catalog entry {name!r}: stored vertex count {vertices} "
            f"but the array gives n = {params.n}"
        )
    try:  # `drg table` and `drg catalog list` print both; str() stops at 4300 digits
        str(params.n), frac_str(profile.ratio)
    except ValueError:
        raise ValueError(f"catalog entry {name!r}: n or rho is too long to print") from None
    entry = CatalogEntry(
        name=name,
        slug=slug,
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


def read_utf8(path: str, what: str) -> str:
    """The file at `path` decoded as UTF-8; `what` names it in a refusal.

    open() raises OSError as it does.  A file that is not UTF-8 raises
    ValueError `path:line: cannot read <what>: ...`, the line of its
    first bad byte.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line}: cannot read {what}: {exc}") from exc


def _supplementary_from_env() -> list[CatalogEntry]:
    path = os.environ.get(ENV_SUPPLEMENTARY)
    if not path:
        return []
    try:
        lines = read_utf8(path, ENV_SUPPLEMENTARY).splitlines()
    except OSError as exc:
        raise CatalogError(f"{path}: cannot read {ENV_SUPPLEMENTARY}: {exc}") from exc
    except ValueError as exc:
        raise CatalogError(str(exc)) from exc
    out = []
    # lookup returns the first entry with a slug, so a second one is unreachable
    owners = {e.slug: f"the built-in entry {e.name!r}" for e in _embedded()}
    for lineno, name, array_text in named_array_lines(lines):
        try:
            entry = _build_entry(name, None, array_text, None, None, True)
            if entry.slug in owners:
                taken = f"slug {entry.slug!r} is taken by {owners[entry.slug]}"
                raise ValueError(f"catalog entry {name!r}: {taken}")
        except ValueError as exc:
            raise CatalogError(f"{path}:{lineno}: {exc}") from exc
        owners[entry.slug] = f"{name!r} on line {lineno}"
        out.append(entry)
    return out


@functools.cache
def _embedded() -> tuple[CatalogEntry, ...]:
    """The table rows, then the extras flagged supplementary; built once per process."""
    return tuple(
        _build_entry(name, n, arr, ratio, constructible, supplementary)
        for table, supplementary in ((VALENCY_34_TABLE, False), (EXTRA_TABLE, True))
        for name, n, arr, ratio, constructible in table
    )


def catalog_list() -> tuple[CatalogEntry, ...]:
    """All embedded rows, the extras flagged supplementary, plus env entries."""
    return _embedded() + tuple(_supplementary_from_env())


def lookup(name: str) -> CatalogEntry | None:
    """Find an entry by slug or (case-insensitive) display name."""
    slug, want = slugify(name), name.strip().lower()
    for entry in catalog_list():
        if entry.slug == slug or entry.name.lower() == want:
            return entry
    return None
