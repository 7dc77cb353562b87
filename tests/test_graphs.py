"""Constructions and distance-regularity verification."""

from __future__ import annotations

import operator
import random
import re
import sys
from collections import deque
from itertools import combinations
from pathlib import Path

import pytest

from drg import (
    ArrayFormatError,
    IntersectionArray,
    LabeledGraph,
    construct,
    parse_array,
    parse_edge_list,
    registry_names,
    verify_drg,
)
from drg import graphs
from drg.graphs import MAX_VERTICES, MAX_WORK, DistancePartitionReport, Violation


def test_registry_has_expected_size():
    assert len(registry_names()) >= 12


@pytest.mark.parametrize("name", registry_names())
def test_registry_graphs_are_distance_regular(name):
    g = construct(name)
    report = verify_drg(g)
    assert report.is_drg, report.violations[:3]
    assert report.observed_array == g.claimed_array


def test_hypercube_3():
    g = construct("hypercube", 3)
    assert g.n == 8
    assert g.claimed_array == parse_array("3,2,1;1,2,3")
    assert verify_drg(g).is_drg


def test_hypercubes_4_and_5():
    for d in (4, 5):
        g = construct("hypercube", d)
        assert g.n == 2**d
        report = verify_drg(g)
        assert report.is_drg
        assert report.observed_array == g.claimed_array


def test_complete_4():
    g = construct("complete", 4)
    assert g.n == 4 and len(g.edges) == 6
    assert g.claimed_array == parse_array("3;1")


def test_desargues_is_gp_10_3():
    g = construct("desargues")
    assert g.n == 20 and len(g.edges) == 30
    assert g.claimed_array == parse_array("3,2,2,1,1;1,1,2,2,3")


def test_petersen_shape():
    g = construct("petersen")
    assert g.n == 10 and len(g.edges) == 15
    assert all(g.degree(v) == 3 for v in range(10))


def test_line_of_petersen_shape():
    g = construct("line_of_petersen")
    assert g.n == 15
    assert all(g.degree(v) == 4 for v in range(15))


def test_set_system_graph_numbers_vertices_in_the_order_given():
    pairs = [set(p) for p in combinations(range(5), 2)]
    disjoint = [(i, j) for i, j in combinations(range(10), 2) if not pairs[i] & pairs[j]]
    assert construct("petersen").edges == tuple(disjoint)


def test_incidence_graphs_number_the_left_side_first():
    lines = [{i, (i + 1) % 7, (i + 3) % 7} for i in range(7)]
    flags = [(p, 7 + j) for p in range(7) for j, line in enumerate(lines) if p in line]
    antiflags = [(p, 7 + j) for p in range(7) for j, line in enumerate(lines) if p not in line]
    assert construct("heawood").edges == tuple(flags)
    assert construct("nonincidence_pg22").edges == tuple(antiflags)
    assert construct("crown_5").edges == tuple(
        (i, 5 + j) for i in range(5) for j in range(5) if i != j
    )


def test_invalid_parameters():
    with pytest.raises(ValueError):
        construct("hypercube", 1)
    with pytest.raises(ValueError):
        construct("complete", 1)
    with pytest.raises(ValueError, match="cocktail_party needs a parameter >= 2, got 1"):
        construct("cocktail_party", 1)
    with pytest.raises(ValueError):
        construct("no_such_graph")
    with pytest.raises(ValueError):
        construct("petersen", 3)


# the largest member of each family under both caps
@pytest.mark.parametrize("name, top", [("complete", 219), ("cocktail_party", 109), ("hypercube", 10)])
def test_family_rows_build_their_members(name, top):
    least, _, size, _, _ = graphs.FAMILIES[name]
    assert least == 2
    for p in [*range(least, min(top, 12) + 1), top]:
        g = construct(name, p)
        assert g.name == f"{name}({p})"
        assert size(p) == (g.n, len(g.edges))
        report = verify_drg(g)
        assert report.is_drg and g.claimed_array == report.observed_array
    with pytest.raises(ValueError, match="cap of"):
        construct(name, top + 1)
    for p in (least - 1, -10**9):
        with pytest.raises(ValueError, match=re.escape(f"{name} needs a parameter >= {least}, got {p}")):
            construct(name, p)


def test_near_miss_is_not_distance_regular():
    # K_4 minus one edge: degrees differ, so b_0 is not constant
    g = LabeledGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    report = verify_drg(g)
    assert not report.is_drg
    assert report.observed_array is None
    assert report.violations


def test_claimed_array_mismatch_is_violation():
    g = LabeledGraph(
        4,
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        claimed_array=parse_array("3,2;1,1"),
    )
    report = verify_drg(g)
    assert not report.is_drg
    assert any(v.kind == "diameter" for v in report.violations)


def test_disconnected_graph_rejected():
    g = LabeledGraph(4, [(0, 1), (2, 3)])
    assert not g.is_connected()
    with pytest.raises(ValueError, match="^graph is disconnected$"):
        verify_drg(g)


def test_graph_structural_errors():
    with pytest.raises(ValueError, match=r"^loop at vertex 0$"):
        LabeledGraph(3, [(0, 0)])
    with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
        LabeledGraph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match=r"^edge \(0,5\) out of range for n=3$"):
        LabeledGraph(3, [(0, 5)])
    with pytest.raises(ValueError, match="need at least one vertex"):
        LabeledGraph(0, [])


def _graph_on_reference(n: int, adjacent) -> tuple[list, tuple]:
    """The edges and adjacency lists of the graph on 0..n-1 with i ~ j iff
    adjacent(i, j), for i < j, as graphs._graph_on and LabeledGraph built
    the dense families before they took their edges from combinations."""
    edges = [(i, j) for j in range(n) for i in range(j) if adjacent(i, j)]
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        neighbours[i].append(j)
        neighbours[j].append(i)
    return sorted(edges), tuple(tuple(sorted(nb)) for nb in neighbours)


# the family's vertex count and the adjacency rule it was built from, per parameter m
_DENSE_RULES = {
    "complete": lambda m: (m, operator.ne),
    "cocktail_party": lambda m: (2 * m, lambda u, v: v - u != m),
}


@pytest.mark.parametrize("name", sorted(_DENSE_RULES))
def test_dense_families_keep_the_graphs_of_their_adjacency_rules(name):
    for m in range(2, 41):
        g = construct(name, m)
        n, adjacent = _DENSE_RULES[name](m)
        edges, adjacency = _graph_on_reference(n, adjacent)
        assert g.n == n
        assert g.edges == tuple(edges)
        assert g.adjacency == adjacency


def edge_loop_neighbour_sums(g, rows):
    """Each vertex's sum of its neighbours' rows, one edge at a time."""
    sums = [0] * g.n
    for u, v in g.edges:
        sums[u] += rows[v]
        sums[v] += rows[u]
    return sums


class _CountedRows(list):
    """Rows that count how many are read one at a time by index."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


# the star K_{1,3}, C_5 and an 8- and a 9-vertex graph have 4m = n(n-1)
# exactly, so their sums still run over neighbours; one edge more and
# they run over closed non-neighbourhoods
_DENSITY_GRAPHS = {
    "one-vertex": LabeledGraph(1, []),
    "isolated": LabeledGraph(6, [(1, 4)]),
    "star-4": LabeledGraph(4, [(0, 1), (0, 2), (0, 3)]),
    "star-4-and-an-edge": LabeledGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2)]),
    "C5": LabeledGraph(5, [(i, (i + 1) % 5) for i in range(5)]),
    "C5-and-a-chord": LabeledGraph(5, [*((i, (i + 1) % 5) for i in range(5)), (0, 2)]),
    "n8-m14": LabeledGraph(8, list(combinations(range(8), 2))[:14]),
    "n8-m15": LabeledGraph(8, list(combinations(range(8), 2))[:15]),
    "n9-m18": LabeledGraph(9, list(combinations(range(9), 2))[::2]),
    "n9-m19": LabeledGraph(9, list(combinations(range(9), 2))[:19]),
    "K5-and-an-isolated-vertex": LabeledGraph(6, list(combinations(range(5), 2))),
    "complete-24": construct("complete", 24),
    "cocktail_party-16": construct("cocktail_party", 16),
    "hypercube-6": construct("hypercube", 6),
}


@pytest.mark.parametrize("key", _DENSITY_GRAPHS)
def test_neighbour_sums_read_the_shorter_side(key):
    g = _DENSITY_GRAPHS[key]
    n, m = g.n, len(g.edges)
    rows = _CountedRows(random.Random(key).randrange(-(2**80), 2**80) for _ in range(n))
    assert graphs.neighbour_sums(g, rows) == edge_loop_neighbour_sums(g, list(rows))
    # closed non-neighbourhoods when the average degree is above (n - 1) / 2
    assert rows.reads == (n * n - 2 * m if 4 * m > n * (n - 1) else 2 * m)


def test_neighbour_sums_list_the_non_neighbourhoods_once_per_adjacency():
    g = construct("cocktail_party", 5)
    rows = list(range(1, g.n + 1))
    assert graphs.neighbour_sums(g, rows) == edge_loop_neighbour_sums(g, rows)
    kept = g._closed_non_neighbours
    assert kept[0] is g.adjacency
    assert list(map(set, kept[1])) == [{x, (x + 5) % 10} for x in range(10)]
    doubled = [2 * r for r in rows]
    assert graphs.neighbour_sums(g, doubled) == edge_loop_neighbour_sums(g, doubled)
    assert g._closed_non_neighbours is kept
    # a replaced adjacency is listed again: K_10 less another perfect matching
    other = LabeledGraph(10, [(u, v) for u, v in combinations(range(10), 2) if v != u ^ 1])
    g.adjacency = other.adjacency
    assert graphs.neighbour_sums(g, rows) == edge_loop_neighbour_sums(other, rows)
    assert g._closed_non_neighbours[0] is other.adjacency


def test_repr_names_the_graph_and_its_counts():
    assert repr(construct("petersen")) == "<LabeledGraph petersen: n=10, m=15>"
    assert repr(LabeledGraph(3, [(0, 1)])) == "<LabeledGraph graph: n=3, m=1>"


def test_parse_edge_list_round_trip():
    g = parse_edge_list("0 1\n1 2\n\n# comment\n2 0\n", name="triangle")
    assert g.n == 3 and len(g.edges) == 3
    assert g.name == "triangle"


def test_parse_edge_list_errors():
    with pytest.raises(ValueError):
        parse_edge_list("0 1 2\n")
    with pytest.raises(ValueError):
        parse_edge_list("0 x\n")
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(ValueError):
        parse_edge_list("-1 2\n")
    with pytest.raises(ValueError, match="line 2: vertex index too long to convert"):
        parse_edge_list("0 1\n0 " + "1" * 5000 + "\n")


def test_verify_accepts_observed_array_without_claim():
    g = parse_edge_list("\n".join(f"{u} {v}" for u, v in construct("heawood").edges))
    report = verify_drg(g)
    assert report.is_drg
    assert report.observed_array == parse_array("3,2,2;1,1,3")


# ----------------------------------------------------------------------
# verify_drg against the per-pair neighbor scan it replaced


def reference_verify(g):
    """(violations, observed array) by scanning y's neighborhood twice per pair (x, y)."""
    dist = [g.distances_from(v) for v in range(g.n)]
    diameter = max(max(row) for row in dist)
    expected_b = [None] * (diameter + 1)
    expected_c = [None] * (diameter + 1)
    claimed = g.claimed_array
    if claimed is not None and claimed.D == diameter:
        for i in range(diameter):
            expected_b[i] = claimed.b[i]
        expected_c[0] = 0
        for i in range(1, diameter + 1):
            expected_c[i] = claimed.c[i - 1]
    violations = []
    for x in range(g.n):
        row = dist[x]
        for y in range(g.n):
            i = row[y]
            down = sum(1 for w in g.adjacency[y] if row[w] == i - 1)
            up = sum(1 for w in g.adjacency[y] if row[w] == i + 1)
            if expected_c[i] is None:
                expected_c[i] = down
            elif expected_c[i] != down:
                violations.append(Violation(x, y, f"c{i}", expected_c[i], down))
            if i < diameter:
                if expected_b[i] is None:
                    expected_b[i] = up
                elif expected_b[i] != up:
                    violations.append(Violation(x, y, f"b{i}", expected_b[i], up))
            elif up != 0:
                violations.append(Violation(x, y, f"b{i}", 0, up))
    if claimed is not None and claimed.D != diameter:
        violations.append(Violation(0, 0, "diameter", claimed.D, diameter))
    observed = None
    if not violations:
        observed = IntersectionArray(tuple(expected_b[:diameter]), tuple(expected_c[1:]))
    return tuple(violations), observed


def relabelled(g, claimed):
    """g under a fixed vertex permutation, carrying `claimed` as its array."""
    perm = list(range(g.n))
    random.Random(g.n).shuffle(perm)
    label = f"{g.name}-claims-{claimed}" if claimed else f"{g.name}-relabelled"
    return LabeledGraph(
        g.n, [(perm[u], perm[v]) for u, v in g.edges], name=label, claimed_array=claimed
    )


def _reference_cases():
    golden = Path(__file__).parent / "golden" / "inputs" / "path3.txt"
    cases = [construct(name) for name in registry_names()]
    cases.append(parse_edge_list(golden.read_text(encoding="utf-8"), name="path3"))
    petersen, cube = construct("petersen"), construct("hypercube", 4)
    cases += [
        # not distance-regular
        LabeledGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], name="k4-minus-edge"),
        LabeledGraph(6, [(i, i + 1) for i in range(5)], name="path6"),
        LabeledGraph(5, [(0, i) for i in range(1, 5)], name="star"),
        LabeledGraph(cube.n, cube.edges + ((0, 15),), name="cube4-plus-diagonal"),
        LabeledGraph(petersen.n, petersen.edges[1:], name="petersen-minus-edge"),
        # distance-regular, mislabelled
        relabelled(petersen, parse_array("3,2,1;1,2,3")),  # wrong diameter
        relabelled(petersen, parse_array("3,2;1,2")),  # wrong c_2
        relabelled(cube, parse_array("4,3,2,1;1,2,2,4")),  # wrong c_3
        relabelled(construct("complete", 5), parse_array("3;1")),  # wrong k
        # distance-regular, no claim
        relabelled(construct("coxeter"), None),
    ]
    return cases


@pytest.mark.parametrize(
    "g",
    [construct(name) for name in registry_names()]
    + [construct("hypercube", d) for d in (4, 5, 6)],
    ids=lambda g: g.name,
)
def test_diagnose_builds_the_report_of_an_accepted_graph(g):
    # the per-base scan, which verify_drg runs only on a graph it does not
    # accept, gives the kernel's report on every distance-regular graph
    assert graphs._diagnose(g) == verify_drg(g)


@pytest.mark.parametrize("g", _reference_cases(), ids=lambda g: g.name)
def test_verify_drg_matches_the_per_pair_scan(g):
    report = verify_drg(g)
    violations, observed = reference_verify(g)
    assert report.violations == violations
    assert report.observed_array == observed
    assert report.is_drg == (not violations)


# ----------------------------------------------------------------------
# verify_drg against the edge-loop version that the bitset BFS replaced


def deque_bfs(g, source):
    """BFS distances by a FIFO queue over the adjacency lists; -1 marks unreachable."""
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.adjacency[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def edge_loop_verify(g):
    """The report from a deque BFS per vertex and one pass over the edges per base."""
    first = deque_bfs(g, 0)
    if -1 in first:
        raise ValueError("graph is disconnected")
    dist = [first, *(deque_bfs(g, x) for x in range(1, g.n))]
    diameter = max(max(row) for row in dist)
    if diameter == 0:
        raise ValueError("graph has a single vertex")
    expected_b = [None] * (diameter + 1)
    expected_c = [None] * (diameter + 1)
    claimed = g.claimed_array
    if claimed is not None and claimed.D == diameter:
        expected_b[:diameter] = claimed.b
        expected_c[:] = (0, *claimed.c)
    violations = []
    for x in range(g.n):
        row = dist[x]
        down = [0] * g.n
        up = [0] * g.n
        for u, v in g.edges:
            du, dv = row[u], row[v]
            if du < dv:
                down[v] += 1
                up[u] += 1
            elif dv < du:
                down[u] += 1
                up[v] += 1
        for y, i in enumerate(row):
            if expected_c[i] is None:
                expected_c[i] = down[y]
            elif expected_c[i] != down[y]:
                violations.append(Violation(x, y, f"c{i}", expected_c[i], down[y]))
            if i < diameter:
                if expected_b[i] is None:
                    expected_b[i] = up[y]
                elif expected_b[i] != up[y]:
                    violations.append(Violation(x, y, f"b{i}", expected_b[i], up[y]))
    if claimed is not None and claimed.D != diameter:
        violations.append(Violation(0, 0, "diameter", claimed.D, diameter))
    observed = None
    if not violations:
        observed = IntersectionArray(tuple(expected_b[:diameter]), tuple(expected_c[1:]))
    return DistancePartitionReport(
        is_drg=not violations,
        observed_array=observed,
        violations=tuple(violations),
        diameter=diameter,
        distances=dist,
    )


def seeded_relabelling(g, seed, claimed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    label = f"{g.name}-seed{seed}-{'claimed' if claimed else 'unclaimed'}"
    return LabeledGraph(g.n, edges, name=label, claimed_array=claimed)


def one_edge_moved(g, seed, claimed):
    """g with one edge (u, v) replaced by (u, w), w a non-neighbour of u."""
    rng = random.Random(seed)
    edges = list(g.edges)
    while True:
        u, v = edges.pop(rng.randrange(len(edges)))
        free = [w for w in range(g.n) if w != u and w not in g.adjacency[u]]
        if free:
            break
        edges = list(g.edges)
    edges.append((u, rng.choice(free)))
    label = f"{g.name}-moved-{'claimed' if claimed else 'unclaimed'}"
    return LabeledGraph(g.n, edges, name=label, claimed_array=claimed)


def _edge_loop_cases():
    registry = [construct(name) for name in registry_names()]
    cases = _reference_cases()  # the registry and the per-pair scan's damaged graphs
    for seed, g in enumerate(registry, start=1):
        cases.append(seeded_relabelling(g, seed, g.claimed_array))
        cases.append(seeded_relabelling(g, seed + 100, None))
    cases += [construct("hypercube", d) for d in range(4, 9)]
    for seed, g in enumerate(registry, start=1):
        if g.name.startswith("complete"):
            continue  # no non-edge to move an edge to
        cases.append(one_edge_moved(g, seed, g.claimed_array))
        cases.append(one_edge_moved(g, seed, None))
    # each graph claiming its successor's array: another diameter, or the same one
    for g, other in zip(registry, registry[1:] + registry[:1]):
        cases.append(
            LabeledGraph(g.n, g.edges, name=f"{g.name}-claims-{other.name}",
                         claimed_array=other.claimed_array)
        )
    return cases + _kernel_edge_cases()


def johnson_5_2(claimed=None):
    """J(5,2), the complement of the Petersen graph, from its edge list as text:
    the 2-subsets of a 5-set, adjacent when they meet."""
    pairs = list(combinations(range(5), 2))
    text = "".join(
        f"{i} {j}\n" for (i, p), (j, q) in combinations(enumerate(pairs), 2) if set(p) & set(q)
    )
    g = parse_edge_list(text, name="J(5,2)")
    g.claimed_array = claimed
    return g


def cycle(n, claimed=None):
    return LabeledGraph(n, [(i, (i + 1) % n) for i in range(n)], name=f"C{n}", claimed_array=claimed)


def _kernel_edge_cases():
    """Graphs at the edges of verify_drg's packed-row kernel."""
    dodecahedron = construct("dodecahedron")
    return [
        # 8-bit fields up to n = 128, so degree 127; 16-bit from n = 129, degree 128
        construct("complete", 128),
        construct("complete", 129),
        # 16-bit fields with n around 256 and D = 127, 128, 128, then D = 200,
        # distances an 8-bit field's 2^7 could not hold
        cycle(255),
        cycle(256),
        cycle(257),
        cycle(400),
        # the complement of C_7: every c_i and b_0 constant, so only b_1 = b_{D-1}
        # breaks, at the kernel's last level
        LabeledGraph(7, [(i, (i + s) % 7) for i in range(7) for s in (2, 3)], name="co-C7"),
        # a claim right except for b_{D-1}, and one right except for c_D
        LabeledGraph(dodecahedron.n, dodecahedron.edges, name="dodecahedron-claims-b4=2",
                     claimed_array=parse_array("3,2,1,1,2;1,1,1,2,3")),
        relabelled(construct("hypercube", 5), parse_array("5,4,3,2,1;1,2,3,4,4")),
        # a claim of the wrong diameter on a graph the kernel certifies
        cycle(9, parse_array("2,1,1;1,1,2")),
        # J(5,2), the complement of Petersen: dense, so the kernel sums
        # non-neighbourhoods; with its array, and with one edge moved
        johnson_5_2(parse_array("6,2;1,4")),
        one_edge_moved(johnson_5_2(), 5, parse_array("6,2;1,4")),
        # 16-bit distance rows that the kernel certifies, with a wrong diameter
        cycle(300, parse_array("2;1")),
    ]


def _report_or_refusal(verify, g):
    try:
        return verify(g)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("g", _edge_loop_cases(), ids=lambda g: g.name)
def test_verify_drg_matches_the_edge_loop(g):
    # field for field: is_drg, observed_array, violations in order, diameter, distances
    assert _report_or_refusal(verify_drg, g) == _report_or_refusal(edge_loop_verify, g)


def test_kernel_edge_cases_break_where_they_say():
    cases = {g.name: g for g in _kernel_edge_cases()}
    for name, kinds in (("co-C7", {"b1"}), ("dodecahedron-claims-b4=2", {"b4"}), ("C9", {"diameter"})):
        assert {v.kind for v in verify_drg(cases[name]).violations} == kinds


def test_unpack16_reads_fields_past_one_byte_on_either_byte_order(monkeypatch):
    values = [0, 1, 255, 256, 1023, 0x1234, 0xFF00]
    row = sum(v << (16 * y) for y, v in enumerate(values))
    assert graphs._unpack16(row, len(values)) == values
    # under the other byte order each field's two bytes come out swapped,
    # so the swap happens exactly when the machine is big-endian
    monkeypatch.setattr(sys, "byteorder", "big" if sys.byteorder == "little" else "little")
    assert graphs._unpack16(row, len(values)) == [(v >> 8) | (v & 0xFF) << 8 for v in values]


@pytest.mark.parametrize(
    "g, message",
    [
        (LabeledGraph(4, [(0, 1), (2, 3)]), "graph is disconnected"),
        (LabeledGraph(5, [(1, 2), (2, 3), (3, 4)]), "graph is disconnected"),
        (LabeledGraph(1, []), "graph has a single vertex"),
        # every count constant, so only the kernel's unseen rows show it disconnected
        (LabeledGraph(10, [(i, (i + 1) % 5 + 5 * (i >= 5)) for i in range(10)]),
         "graph is disconnected"),
        (LabeledGraph(3, []), "graph is disconnected"),
    ],
    ids=("two-edges", "isolated-0", "single-vertex", "two-pentagons", "no-edges"),
)
def test_verify_drg_refusals_match_the_edge_loop(g, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        edge_loop_verify(g)
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify_drg(g)


@pytest.mark.parametrize(
    "g",
    [construct(name) for name in registry_names()]
    + [LabeledGraph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]), LabeledGraph(1, [])],
    ids=lambda g: g.name or f"n{g.n}",
)
def test_distances_from_matches_a_queue_bfs(g):
    assert [g.distances_from(v) for v in range(g.n)] == [deque_bfs(g, v) for v in range(g.n)]


# ----------------------------------------------------------------------
# parse_edge_list against the per-line reader that its bulk path skips


def per_line_parse_edge_list(text, name="", claimed=None):
    """The reader before the bulk path, with a loop and a repeated edge
    refused on their line: every check on every line, in order."""
    edges = []
    seen = set()
    top = -1
    for lineno, raw in enumerate(text.split("\n"), start=1):
        raw = raw.removesuffix("\r")
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        if not all(part.isascii() and part.isdigit() for part in parts):
            raise ValueError(f"line {lineno}: vertex indices must be ASCII digits, got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: vertex index too long to convert") from exc
        if max(u, v) >= MAX_VERTICES:
            raise ValueError(
                f"line {lineno}: vertex {max(u, v)} is beyond the cap of "
                f"{MAX_VERTICES} vertices"
            )
        if u == v:
            raise ValueError(f"line {lineno}: loop at vertex {u}")
        if frozenset((u, v)) in seen:
            raise ValueError(f"line {lineno}: duplicate edge {(min(u, v), max(u, v))}")
        seen.add(frozenset((u, v)))
        edges.append((u, v))
        top = max(top, u, v)
        if (top + 1) * len(edges) > MAX_WORK:
            raise ValueError(
                f"line {lineno}: n*m = {top + 1}*{len(edges)} is beyond the "
                f"work cap of {MAX_WORK}"
            )
    if not edges:
        raise ValueError("edge list is empty")
    arr = parse_array(claimed) if claimed else None
    return LabeledGraph(top + 1, edges, name=name, claimed_array=arr)


def _graph_or_refusal(read, text):
    try:
        g = read(text, name="g", claimed="2;1")
    except ValueError as exc:
        return f"ValueError: {exc}"
    return g.n, g.edges, g.name, g.claimed_array


_CUBE_10 = "".join(f"{u} {v}\n" for u, v in construct("hypercube", 10).edges)

EDGE_TEXTS = {
    # CRLF breaks; the other breaks that str.splitlines knows, which are
    # whitespace inside a line; and whitespace inside a line
    "crlf": "0 1\r\n1 2\r\n",
    "crlf-refusal": "0 1\r\n1 2 3\r\n",
    "cr-alone": "0 1\r1 2\n",
    "vt": "0 1\x0b1 2",
    "ff": "0 1\x0c1 2",
    "fs": "0 1\x1c1 2\x1d2 3\x1e3 0",
    "nel": "0 1\x851 2",
    "line-separator": "0 1\u20281 2\u2029",
    "ff-at-line-end": "0 1\x0c\n1 2\x85\n",
    "tabs": "0\t1\n\t1 \t 2\t\n",
    "blank-lines": "\n\n0 1\n\n\n1 2\n\n",
    "comments": "# a triangle\n0 1 # first\n1 2#second\n#\n2 0 # 5 6\n",
    "comment-only-line-number": "# c\n0 1\n1 2 3 # three\n",
    # tokens that are not ASCII digits
    "plus": "0 1\n+1 2\n",
    "underscore": "0 1\n1_0 2\n",
    "arabic-indic": "0 1\n\u0661 2\n",
    "superscript": "0 1\n\u00b2 1\n",
    "fullwidth": "0 1\n\uff11 2\n",
    "minus": "-1 2\n",
    "one-token": "0 1\n2\n",
    "three-tokens": "0 1\n1 2 3\n",
    "too-long": "0 1\n0 " + "1" * 5000 + "\n",
    "too-long-zeros": "0 1\n0 " + "0" * 5000 + "1\n",
    # the vertex cap
    "index-1023": "0 1023\n",
    "index-1024": "0 1\n0 1024\n",
    "index-1024-late": "0 1\n1 2\n1024 3\n0 1\n",
    # tokens that are not str(i) for a vertex index i below the cap
    "leading-zeros": "007 1\n00 1\n",
    "leading-zeros-repeat": "7 1\n1 007\n",
    "leading-zeros-1023": "0 01023\n",
    "leading-zeros-1024": "0 1\n0 001024\n",
    "too-long-4301": "0 1\n0 " + "1" * 4301 + "\n",
    "arabic-indic-last": "0 1\n1 \u0662\n",
    # the work cap: n*m = 1024 * 5120 exactly, then one edge past it
    "work-at-cap": _CUBE_10,
    "work-past-cap": _CUBE_10 + "0 3\n",
    # graphs LabeledGraph refuses
    "loop": "0 1\n1 1\n",
    "duplicate": "0 1\n1 0\n",
    "duplicate-in-order": "0 1\n1 2\n0 1\n",
    "duplicate-before-loop": "0 1\n1 2\n1 0\n3 3\n",
    "loop-beyond-the-vertex-cap": "0 1\n1024 1024\n",
    "duplicate-after-a-comment": "# c\n3 1\n\n1 2\n1 3\n",
    # no edges
    "empty": "",
    "blank": "\n \n\t\n",
    "comments-only": "# nothing\n#\n",
}


@pytest.mark.parametrize("key", EDGE_TEXTS)
def test_parse_edge_list_matches_the_per_line_reader(key):
    text = EDGE_TEXTS[key]
    assert _graph_or_refusal(parse_edge_list, text) == _graph_or_refusal(
        per_line_parse_edge_list, text
    )


def test_valid_text_is_not_read_line_by_line(monkeypatch):
    def refuse(lines, rows, name):
        raise AssertionError("read line by line")

    monkeypatch.setattr(graphs, "_read_line_by_line", refuse)
    assert parse_edge_list("0 1\n1 2\n2 0\n").edges == ((0, 1), (0, 2), (1, 2))


@pytest.mark.parametrize("name", registry_names())
def test_zero_padded_indices_build_the_canonical_graph(name):
    edges = construct(name).edges
    canonical = parse_edge_list("".join(f"{u} {v}\n" for u, v in edges))
    padded = parse_edge_list("".join(f"{u:03} {v:04}\n" for u, v in edges))
    assert canonical.edges == edges
    assert (padded.n, padded.edges) == (canonical.n, canonical.edges)


@pytest.mark.parametrize(
    "text, refusal",
    [
        ("0 1\n1 2\n2 0\n", "expected exactly one ';'"),
        ("0 1\n1 x\n", "line 2: vertex indices must be ASCII digits"),
        ("0 1\n0 1024\n", "line 2: vertex 1024 is beyond the cap"),
        ("", "edge list is empty"),
        # LabeledGraph finds a loop or a repeated edge before the claim is read
        ("0 1\n1 0\n", "line 2: duplicate edge (0, 1)"),
        ("0 1\n1 1\n", "line 2: loop at vertex 1"),
    ],
    ids=("good-edges", "bad-token", "past-the-vertex-cap", "empty", "repeated-edge", "loop"),
)
def test_a_malformed_claim_is_read_after_every_edge_refusal(text, refusal):
    with pytest.raises(ValueError, match=re.escape(refusal)) as caught:
        parse_edge_list(text, claimed="3,2")
    assert isinstance(caught.value, ArrayFormatError) == refusal.startswith("expected")


@pytest.mark.parametrize(
    "g, claim",
    [
        (construct("petersen"), "3,2,1;1,2,3"),
        (construct("hypercube", 4), "4;1"),
        (cycle(9), "2,1,1;1,1,2"),
        (cycle(10), "2,1,1,1,1,1;1,1,1,1,1,2"),
    ],
    ids=("petersen", "cube4", "C9", "C10"),
)
def test_a_claim_of_another_diameter_gets_one_diameter_violation(g, claim):
    claimed = parse_array(claim)
    g = LabeledGraph(g.n, g.edges, name=g.name, claimed_array=claimed)
    distances = [deque_bfs(g, v) for v in range(g.n)]
    diameter = max(map(max, distances))
    assert verify_drg(g) == DistancePartitionReport(
        is_drg=False,
        observed_array=None,
        violations=(Violation(0, 0, "diameter", claimed.D, diameter),),
        diameter=diameter,
        distances=distances,
    )
