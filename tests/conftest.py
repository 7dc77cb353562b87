"""Shared fixtures: a deterministic corpus of feasible small arrays.

The corpus is every array passing validation with D <= 4 (within small
entry caps) whose shape the ratio bounds are claimed for: b_1 >= 2, a
genuine cocktail-party array, or D = 1.  Feasible-but-unrealizable
arrays at D >= 5 can break the bounds (see test_potentials boundary
tests), so the corpus stays in the regime where the properties are
exhaustively true.
"""

from __future__ import annotations

from itertools import product

import pytest

from drg import IntersectionArray, catalog_list, validate


def _monotone_b(bs: tuple[int, ...]) -> bool:
    return all(bs[i] >= bs[i + 1] for i in range(len(bs) - 1))


def _monotone_c(cs: tuple[int, ...]) -> bool:
    return all(cs[i] <= cs[i + 1] for i in range(len(cs) - 1))


def small_feasible_arrays() -> list[IntersectionArray]:
    out = [IntersectionArray((k,), (1,)) for k in range(3, 9)]
    for D, kmax in ((2, 7), (3, 7), (4, 5)):
        for k in range(3, kmax + 1):
            for bs in product(range(1, k), repeat=D - 1):
                if not _monotone_b(bs):
                    continue
                for cs in product(range(1, k + 1), repeat=D - 1):
                    if not _monotone_c(cs):
                        continue
                    genuine_cocktail = D == 2 and bs[0] == 1 and cs[0] == k
                    if bs[0] < 2 and not genuine_cocktail:
                        continue
                    arr = IntersectionArray((k,) + bs, (1,) + cs)
                    if validate(arr).passed:
                        out.append(arr)
    return out


@pytest.fixture(scope="session")
def corpus() -> list[IntersectionArray]:
    arrays = small_feasible_arrays()
    seen = {(a.b, a.c) for a in arrays}
    for entry in catalog_list():
        key = (entry.array.b, entry.array.c)
        if key not in seen:
            seen.add(key)
            arrays.append(entry.array)
    return arrays


@pytest.fixture(scope="session")
def paper_rows():
    return [e for e in catalog_list() if not e.supplementary]
