"""Catalog data integrity and lookup."""

from __future__ import annotations

from fractions import Fraction

import pytest

from drg import catalog, catalog_list, construct, derive, lookup, parse_array, slugify
from drg import graphs
from drg.catalog import _build_entry, table_entries
from drg.fmt import decimal_places, decimal_str


def test_catalog_sizes():
    entries = catalog_list()
    assert len([e for e in entries if not e.supplementary]) == 23
    assert len([e for e in entries if e.supplementary]) == 3


def test_table_entries_map_each_table_row_and_no_extra():
    by_array = table_entries()
    for entry in catalog_list():
        assert by_array.get(entry.array) == (None if entry.supplementary else entry)
    assert [e.name for e in by_array.values()] == [name for name, *_ in catalog.VALENCY_34_TABLE]
    assert by_array.get(parse_array("4,3,3,3,3;1,1,1,1,4")) is None


def test_every_entry_is_self_verifying(paper_rows):
    for e in paper_rows:
        assert e.ratio_matches_stored()
        assert e.vertices == sum(derive(e.array).sphere_sizes)


def test_specific_stored_ratios(paper_rows):
    by_name = {e.name: e for e in paper_rows}
    assert by_name["Cube"].ratio == Fraction(3, 7)
    assert by_name["Heawood graph"].ratio == Fraction(6, 13)
    assert by_name["Tutte's 12-cage"].ratio == Fraction(109, 125)  # 0.872 exactly
    assert by_name["Flag graph of PG(2,2)"].ratio == Fraction(1, 2)
    assert by_name["Incidence graph of PG(2,3)"].ratio == Fraction(8, 25)  # 0.32
    assert by_name["Doubled odd graph"].ratio == Fraction(12, 23)
    assert by_name["Foster graph"].ratio == Fraction(319, 356)


def test_extremal_flag(paper_rows):
    extremal = [e for e in paper_rows if e.extremal]
    assert len(extremal) == 1
    assert extremal[0].name == "Biggs-Smith graph"
    assert extremal[0].ratio == Fraction(94, 101)


def test_all_non_extremal_below_target(paper_rows):
    for e in paper_rows:
        if not e.extremal:
            assert e.ratio < Fraction(93, 100)


def test_slugify():
    assert slugify("Biggs-Smith graph") == "biggs-smith"
    assert slugify("Heawood graph") == "heawood"
    assert slugify("Tutte's 8-cage") == "tuttes-8-cage"
    assert slugify("Odd graph O_4") == "odd-graph-o-4"
    assert slugify("K_{5,5} minus a matching") == "k-5-5-minus-a-matching"


def test_lookup_variants():
    assert lookup("biggs-smith").name == "Biggs-Smith graph"
    assert lookup("cube").name == "Cube"
    assert lookup("4-cube").name == "4-cube"
    assert lookup("petersen").name == "Petersen graph"
    assert lookup("Biggs-Smith graph").name == "Biggs-Smith graph"
    assert lookup("no-such-thing") is None


@pytest.mark.parametrize(
    "spell", (str.upper, str.lower, lambda name: f"  {name}\t "), ids=("upper", "lower", "padded")
)
def test_every_entry_resolves_from_its_display_name(spell):
    for e in catalog_list():
        assert lookup(spell(e.name)) is e


def test_slugs_are_unique():
    entries = catalog_list()
    slugs = [e.slug for e in entries]
    assert len(slugs) == len(set(slugs))


def test_constructible_entries_match_registry():
    for e in catalog_list():
        if e.constructible is None:
            continue
        name, _, param = e.constructible.partition(":")
        g = construct(name, int(param) if param else None)
        assert g.claimed_array == e.array
        assert g.n == e.vertices


def test_fixed_constructions_and_parameterless_catalog_keys_match_one_to_one():
    keys = [e.constructible for e in catalog_list() if e.constructible]
    fixed = [key for key in keys if ":" not in key]
    assert sorted(fixed) == sorted(graphs.FIXED)  # each fixed name is exactly one row's key
    for e in catalog_list():
        if e.constructible in graphs.FIXED:
            assert construct(e.constructible).claimed_array is e.array  # the entry's own object


def test_entry_builder_rejects_wrong_vertex_count():
    with pytest.raises(ValueError):
        _build_entry("bogus", 9, "3,2,1;1,2,3", None, None, True)


def test_entry_builder_rejects_wrong_ratio():
    with pytest.raises(ValueError):
        _build_entry("bogus", 8, "3,2,1;1,2,3", "0.5", None, True)


def test_decimal_rendering_half_even():
    assert decimal_str(Fraction(1, 2), 0) == "0"  # ties to even
    assert decimal_str(Fraction(3, 2), 0) == "2"
    assert decimal_str(Fraction(109, 125), 3) == "0.872"
    assert decimal_str(Fraction(94, 101), 6) == "0.930693"
    assert decimal_str(Fraction(2, 3), 6) == "0.666667"
    assert decimal_str(Fraction(-2, 3), 2) == "-0.67"
    assert decimal_places("0.872") == 3
    assert decimal_places("0.5") == 1


def _decimal_str_reference(x: Fraction, places: int) -> str:
    """decimal_str as first written: the sign and magnitude taken on the Fraction."""
    sign = "-" if x < 0 else ""
    y = -x if x < 0 else x
    scale = 10**places
    q, r = divmod(y.numerator * scale, y.denominator)
    if 2 * r > y.denominator or (2 * r == y.denominator and q % 2 == 1):
        q += 1
    if places == 0:
        return f"{sign}{q}"
    whole, frac = divmod(q, scale)
    return f"{sign}{whole}.{frac:0{places}d}"


def test_decimal_str_matches_the_fraction_reference():
    values = {Fraction(p, q) for p in range(-80, 81) for q in range(1, 81)}
    for x in values:
        for places in range(9):
            assert decimal_str(x, places) == _decimal_str_reference(x, places), (x, places)
    with pytest.raises(ValueError, match="places must be >= 0"):
        decimal_str(Fraction(1, 3), -1)


def test_repeated_catalog_list_calls_are_equal():
    catalog.catalog_list.cache_clear()
    first = catalog_list()
    second = catalog_list()
    assert len(first) == 26
    assert first is second  # built once per process


def test_embedded_rows_are_verified_again_after_cache_clear(monkeypatch):
    name, n, text, _, key = catalog.VALENCY_34_TABLE[0]
    wrong_row = (name, n, text, "0.5", key)
    monkeypatch.setattr(catalog, "VALENCY_34_TABLE", (wrong_row, *catalog.VALENCY_34_TABLE[1:]))
    catalog.catalog_list.cache_clear()
    try:
        with pytest.raises(ValueError, match="stored ratio 0.5"):
            catalog_list()
    finally:
        catalog.catalog_list.cache_clear()
