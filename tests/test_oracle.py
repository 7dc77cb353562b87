"""Laplacian resistance oracle and cross-validation against the formula."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest

from drg import (
    LabeledGraph,
    compute_profile,
    construct,
    cross_validate,
    derive,
    laplacian_resistance,
    parse_array,
    resistance_matrix,
)


def test_complete_graph_resistance():
    g = construct("complete", 4)
    for u, v in combinations(range(4), 2):
        assert laplacian_resistance(g, u, v) == Fraction(1, 2)


def test_cube_adjacent_and_antipodal():
    g = construct("hypercube", 3)
    assert laplacian_resistance(g, 0, 1) == Fraction(7, 12)
    assert laplacian_resistance(g, 0, 7) == Fraction(5, 6)  # antipodal 000 vs 111


def test_petersen_adjacent():
    g = construct("petersen")
    u, v = g.edges[0]
    assert laplacian_resistance(g, u, v) == Fraction(3, 5)


def test_octahedron_adjacent():
    g = construct("cocktail_party", 3)
    u, v = g.edges[0]
    assert laplacian_resistance(g, u, v) == Fraction(5, 12)


def test_both_solver_methods_agree():
    for name in ("complete", "hypercube", "petersen"):
        g = construct(name)
        for u, v in list(combinations(range(g.n), 2))[:12]:
            ones = laplacian_resistance(g, u, v, method="ones")
            grounded = laplacian_resistance(g, u, v, method="grounded")
            assert ones == grounded, (name, u, v)


def test_solver_rejects_bad_input():
    g = construct("petersen")
    with pytest.raises(ValueError):
        laplacian_resistance(g, 2, 2)
    with pytest.raises(ValueError):
        laplacian_resistance(g, 0, 99)
    with pytest.raises(ValueError):
        laplacian_resistance(g, 0, 1, method="approximate")
    disconnected = LabeledGraph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        laplacian_resistance(disconnected, 0, 2)


def test_resistance_matrix_symmetric_and_consistent():
    g = construct("petersen")
    rmat = resistance_matrix(g)
    for u in range(g.n):
        assert rmat[u][u] == 0
        for v in range(u + 1, g.n):
            assert rmat[u][v] == rmat[v][u]
            assert rmat[u][v] == laplacian_resistance(g, u, v)


@pytest.mark.parametrize("name", ("hypercube", "petersen", "heawood"))
def test_resistance_is_a_metric(name):
    g = construct(name)
    rmat = resistance_matrix(g)
    for u, v, w in combinations(range(g.n), 3):
        assert rmat[u][w] <= rmat[u][v] + rmat[v][w]


def test_cross_validate_cube_values():
    result = cross_validate(construct("hypercube", 3))
    assert result.ok
    assert [c.expected for c in result.classes] == [
        Fraction(7, 12),
        Fraction(3, 4),
        Fraction(5, 6),
    ]


def test_cross_validate_heawood_values():
    result = cross_validate(construct("heawood"))
    assert result.ok
    assert [c.expected for c in result.classes] == [
        Fraction(13, 21),
        Fraction(6, 7),
        Fraction(19, 21),
    ]


def test_cross_validate_pappus_all_classes():
    result = cross_validate(construct("pappus"))
    assert result.ok
    assert len(result.classes) == 4
    profile = compute_profile(derive(parse_array("3,2,2,1;1,1,2,3")))
    assert profile.ratio == Fraction(10, 17)


def test_cross_validate_checks_every_pair_on_small_graphs():
    result = cross_validate(construct("petersen"))
    # 15 edges and 30 non-adjacent pairs
    assert [c.pairs_checked for c in result.classes] == [15, 30]


def test_cross_validate_rejects_non_drg():
    g = LabeledGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    with pytest.raises(ValueError):
        cross_validate(g)


def test_cross_validate_rejects_wrong_claim():
    base = construct("petersen")
    g = LabeledGraph(base.n, base.edges, name="petersen-mislabelled",
                     claimed_array=parse_array("3,2,1;1,2,3"))
    with pytest.raises(ValueError):
        cross_validate(g)


@pytest.mark.parametrize("d", (3, 4, 5))
def test_hypercube_adjacent_resistance_matches_formula(d):
    g = construct("hypercube", d)
    b = ",".join(str(d - i) for i in range(d))
    c = ",".join(str(i + 1) for i in range(d))
    profile = compute_profile(derive(parse_array(f"{b};{c}")))
    assert laplacian_resistance(g, 0, 1) == profile.resistances[0]


def test_cross_validate_runs_one_bfs_per_vertex(monkeypatch):
    calls = []
    bfs = LabeledGraph.distances_from

    def counted(self, source):
        calls.append(source)
        return bfs(self, source)

    monkeypatch.setattr(LabeledGraph, "distances_from", counted)
    g = construct("petersen")
    assert cross_validate(g).ok
    # one BFS per vertex for the distance matrix, plus the two connectivity checks
    assert len(calls) <= g.n + 2
