"""Fraction-free integer elimination, checked against an independent
Fraction Gauss-Jordan reference and against spanning-tree counts that
need no solver at all."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, prod

import pytest

from drg import LabeledGraph, construct, cross_validate, derive, resistance_matrix
from drg.graphs import registry_names
from drg.oracle import fraction_free_solve


# ----------------------------------------------------------------------
# reference: plain Fraction Gauss-Jordan, a gcd on every operation


def _reduce(m: list[list[Fraction]], n: int) -> None:
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        m[col], m[pivot] = m[pivot], m[col]
        inv = m[col][col]
        m[col] = [v / inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]


def reference_solve(a, b) -> list[list[Fraction]]:
    """A^-1 B by Gauss-Jordan on [A | B] over the rationals."""
    n = len(a)
    m = [[Fraction(x) for x in ra] + [Fraction(x) for x in rb] for ra, rb in zip(a, b)]
    _reduce(m, n)
    return [row[n:] for row in m]


def reference_det(a) -> Fraction:
    """det A by Fraction Gaussian elimination: the signed product of pivots."""
    m = [[Fraction(x) for x in row] for row in a]
    n, det = len(m), Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return det


def reference_resistance_matrix(g: LabeledGraph) -> list[list[Fraction]]:
    """r(u,v) = M_uu + M_vv - 2 M_uv with M = (L + J/n)^-1."""
    n = g.n
    lap_j = [[Fraction(1, n)] * n for _ in range(n)]
    for v in range(n):
        lap_j[v][v] += g.degree(v)
    for u, v in g.edges:
        lap_j[u][v] -= 1
        lap_j[v][u] -= 1
    identity = [[int(r == c) for c in range(n)] for r in range(n)]
    m = reference_solve(lap_j, identity)
    return [[m[u][u] + m[v][v] - 2 * m[u][v] for v in range(n)] for u in range(n)]


def grounded_laplacian(g: LabeledGraph) -> list[list[int]]:
    keep = range(1, g.n)
    return [
        [(g.degree(r) if r == c else 0) - (c in g.adjacency[r]) for c in keep]
        for r in keep
    ]


def spanning_trees(g: LabeledGraph) -> int:
    det, _ = fraction_free_solve(grounded_laplacian(g), [[] for _ in range(g.n - 1)])
    return det


# ----------------------------------------------------------------------
# the routine itself


def test_fraction_free_solve_matches_reference_on_random_matrices():
    rng = random.Random(20130321)
    for n in range(1, 9):
        for _ in range(5):
            a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            a[0][0] = 0  # force a row swap whenever column 0 has another entry
            b = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(n)]
            try:
                want = reference_solve(a, b)
            except ValueError:
                with pytest.raises(ValueError, match="singular matrix"):
                    fraction_free_solve(a, b)
                continue
            det, scaled = fraction_free_solve(a, b)
            assert det == reference_det(a)
            assert scaled == [[det * x for x in row] for row in want]


def test_fraction_free_solve_determinant_sign_under_row_swaps():
    assert fraction_free_solve([[0, 1], [1, 0]], [[1], [0]]) == (-1, [[0], [-1]])
    assert fraction_free_solve([[0, 2, 0], [0, 0, 3], [5, 0, 0]], [[], [], []])[0] == 30


def test_fraction_free_solve_empty_system():
    assert fraction_free_solve([], []) == (1, [])


@pytest.mark.parametrize(
    "a",
    (
        [[1, 2], [2, 4]],
        [[0, 0], [0, 1]],
        [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],  # full Laplacian of a triangle
    ),
)
def test_fraction_free_solve_rejects_singular_matrix(a):
    with pytest.raises(ValueError, match="singular matrix"):
        fraction_free_solve(a, [[1] for _ in a])


# ----------------------------------------------------------------------
# resistances against the Fraction reference

SMALL_REGISTRY = tuple(name for name in registry_names() if construct(name).n <= 20)


@pytest.mark.parametrize("name", SMALL_REGISTRY)
def test_resistance_matrix_matches_fraction_reference(name):
    g = construct(name)
    assert resistance_matrix(g) == reference_resistance_matrix(g)


@pytest.mark.parametrize("name", SMALL_REGISTRY)
def test_foster_theorem(name):
    # Foster: the edge resistances of a connected graph sum to n - 1.
    g = construct(name)
    rmat = resistance_matrix(g)
    assert sum(rmat[u][v] for u, v in g.edges) == g.n - 1


# ----------------------------------------------------------------------
# matrix-tree theorem: spanning-tree counts known in closed form


@pytest.mark.parametrize("n", range(2, 10))
def test_cayley_spanning_trees_of_complete_graph(n):
    assert spanning_trees(construct("complete", n)) == n ** (n - 2)


def test_petersen_spanning_trees():
    assert spanning_trees(construct("petersen")) == 2000


@pytest.mark.parametrize("d", (3, 4, 5, 6))
def test_hypercube_spanning_trees(d):
    want = 2 ** (2**d - d - 1) * prod(k ** comb(d, k) for k in range(1, d + 1))
    assert spanning_trees(construct("hypercube", d)) == want


# ----------------------------------------------------------------------
# edge cases


def test_single_vertex_resistance_matrix():
    assert resistance_matrix(LabeledGraph(1, [])) == [[0]]


def test_single_edge_resistance_matrix():
    assert resistance_matrix(LabeledGraph(2, [(0, 1)])) == [[0, 1], [1, 0]]


def test_resistance_matrix_rejects_disconnected_graph():
    with pytest.raises(ValueError, match="disconnected"):
        resistance_matrix(LabeledGraph(4, [(0, 1), (2, 3)]))


# ----------------------------------------------------------------------
# the oracle checks every pair, also above 30 vertices


@pytest.mark.parametrize("name, param", (("hypercube", 5), ("cocktail_party", 16)))
def test_cross_validate_checks_every_pair_above_thirty_vertices(name, param):
    g = construct(name, param)
    assert g.n == 32
    result = cross_validate(g)
    assert result.ok
    sizes = derive(result.drg_report.observed_array).sphere_sizes
    assert [c.pairs_checked for c in result.classes] == [
        g.n * sizes[d] // 2 for d in range(1, len(result.classes) + 1)
    ]
