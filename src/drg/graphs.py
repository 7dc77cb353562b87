"""Explicit graph constructions and distance-regularity verification.

The registry holds small named graphs (plus three parameterized
families), each carrying the intersection array it is expected to
realize.  verify_drg checks distance-regularity from scratch by BFS, so
a registry entry's claim is never trusted, always re-derived.

No graph above MAX_VERTICES vertices is built: construct checks a
family's vertex count from its parameter and parse_edge_list checks
every vertex index as it reads it, before any edge list or n x n matrix
exists.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .arrays import IntersectionArray, parse_array

# The most vertices a constructed or parsed graph may have.  verify_drg
# and the oracle's check are O(n * m); GH(3,3), with 728 vertices, fits.
MAX_VERTICES = 1024


class LabeledGraph:
    """Simple undirected graph on vertices 0..n-1."""

    def __init__(
        self,
        n: int,
        edges,
        name: str = "",
        claimed_array: IntersectionArray | None = None,
    ):
        if n <= 0:
            raise ValueError("need at least one vertex")
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(seen))
        self.name = name
        self.claimed_array = claimed_array
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adjacency = tuple(tuple(sorted(nb)) for nb in adj)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def distances_from(self, source: int) -> list[int]:
        """BFS distances; -1 marks unreachable vertices."""
        dist = [-1] * self.n
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self.adjacency[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    def all_distances(self) -> list[list[int]]:
        return [self.distances_from(v) for v in range(self.n)]

    def is_connected(self) -> bool:
        return all(d >= 0 for d in self.distances_from(0))

    def __repr__(self) -> str:
        label = self.name or "graph"
        return f"<LabeledGraph {label}: n={self.n}, m={len(self.edges)}>"


@dataclass(frozen=True)
class Violation:
    """One counted neighborhood that broke distance-regularity."""

    base: int
    target: int
    kind: str  # e.g. "b2" or "c1"
    expected: int
    observed: int


@dataclass(frozen=True)
class DistancePartitionReport:
    is_drg: bool
    observed_array: IntersectionArray | None
    violations: tuple[Violation, ...]
    diameter: int
    distances: list[list[int]]  # distances[u][v], from one BFS per vertex


def verify_drg(g: LabeledGraph) -> DistancePartitionReport:
    """Check distance-regularity by counting neighbors over every vertex pair.

    For every ordered pair (x, y) at distance i, the number of neighbors
    of y at distance i-1 (resp. i+1) from x must be a constant c_i
    (resp. b_i).  If a claimed array is attached, its values are the
    expected constants; otherwise the first observed count is.

    For each base x one pass over the edges counts every vertex's down
    and up neighbors at once (an edge joins vertices whose distances from
    x differ by at most one), so the check is O(n * m).  Violations are
    listed in (x, y) order, c_i before b_i.
    """
    if not g.is_connected():
        raise ValueError("graph is disconnected")
    dist = g.all_distances()
    diameter = max(max(row) for row in dist)
    if diameter == 0:
        raise ValueError("graph has a single vertex")

    expected_b: list[int | None] = [None] * (diameter + 1)
    expected_c: list[int | None] = [None] * (diameter + 1)
    claimed = g.claimed_array
    if claimed is not None and claimed.D == diameter:
        for i in range(diameter):
            expected_b[i] = claimed.bi(i)
        expected_c[0] = 0
        for i in range(1, diameter + 1):
            expected_c[i] = claimed.ci(i)
    violations: list[Violation] = []

    n, edges = g.n, g.edges
    for x in range(n):
        row = dist[x]
        down = [0] * n
        up = [0] * n
        for u, v in edges:
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
            if i < diameter:  # nothing is at distance diameter + 1
                if expected_b[i] is None:
                    expected_b[i] = up[y]
                elif expected_b[i] != up[y]:
                    violations.append(Violation(x, y, f"b{i}", expected_b[i], up[y]))

    if claimed is not None and claimed.D != diameter:
        violations.append(Violation(0, 0, "diameter", claimed.D, diameter))

    observed = None
    if not violations:
        observed = IntersectionArray(
            tuple(expected_b[:diameter]), tuple(expected_c[1:])
        )
    return DistancePartitionReport(
        is_drg=not violations,
        observed_array=observed,
        violations=tuple(violations),
        diameter=diameter,
        distances=dist,
    )


# ----------------------------------------------------------------------
# constructions

def parse_edge_list(text: str, name: str = "", claimed: str | None = None) -> LabeledGraph:
    """Build a graph from `u v` lines (0-based); '#' comments and blanks allowed.

    A vertex index of MAX_VERTICES or more is refused on its line.
    """
    edges = []
    top = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer vertex in {raw!r}") from exc
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: negative vertex index")
        if max(u, v) >= MAX_VERTICES:
            raise ValueError(
                f"line {lineno}: vertex {max(u, v)} is beyond the cap of "
                f"{MAX_VERTICES} vertices"
            )
        edges.append((u, v))
        top = max(top, u, v)
    if not edges:
        raise ValueError("edge list is empty")
    arr = parse_array(claimed) if claimed else None
    return LabeledGraph(top + 1, edges, name=name, claimed_array=arr)


def _lcf(pattern: list[int], repeats: int) -> list[tuple[int, int]]:
    """Hamiltonian cycle plus LCF chords."""
    n = len(pattern) * repeats
    edges = {(i, (i + 1) % n) for i in range(n)}
    for i in range(n):
        j = (i + pattern[i % len(pattern)]) % n
        edges.add((i, j) if i < j else (j, i))
    return sorted((min(u, v), max(u, v)) for u, v in edges)


def complete_graph(m: int) -> LabeledGraph:
    if m < 2:
        raise ValueError("complete graph needs m >= 2")
    edges = list(combinations(range(m), 2))
    return LabeledGraph(m, edges, f"complete({m})", parse_array(f"{m - 1};1"))


def cocktail_party_graph(m: int) -> LabeledGraph:
    """K_{m x 2}: everyone adjacent except the m antipodal pairs."""
    if m < 2:
        raise ValueError("cocktail party graph needs m >= 2")
    n = 2 * m
    edges = [
        (u, v) for u, v in combinations(range(n), 2) if v - u != m
    ]
    claimed = parse_array(f"{n - 2},1;1,{n - 2}")
    return LabeledGraph(n, edges, f"cocktail_party({m})", claimed)


def hypercube_graph(d: int) -> LabeledGraph:
    if d < 2:
        raise ValueError("hypercube needs dimension >= 2")
    n = 1 << d
    edges = [(u, u ^ (1 << bit)) for u in range(n) for bit in range(d) if u < u ^ (1 << bit)]
    b = ",".join(str(d - i) for i in range(d))
    c = ",".join(str(i) for i in range(1, d + 1))
    return LabeledGraph(n, edges, f"hypercube({d})", parse_array(f"{b};{c}"))


def generalized_petersen(n: int, s: int, name: str, claimed: str) -> LabeledGraph:
    """GP(n, s): outer n-cycle, inner n-cycle with step s, plus spokes."""
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))  # outer cycle
        edges.append((i, n + i))  # spoke
        inner = (n + i, n + (i + s) % n)
        edges.append((min(inner), max(inner)))
    return LabeledGraph(2 * n, edges, name, parse_array(claimed))


def petersen_graph() -> LabeledGraph:
    return generalized_petersen(5, 2, "petersen", "3,2;1,1")


def dodecahedron_graph() -> LabeledGraph:
    return generalized_petersen(10, 2, "dodecahedron", "3,2,1,1,1;1,1,1,2,3")


def desargues_graph() -> LabeledGraph:
    return generalized_petersen(10, 3, "desargues", "3,2,2,1,1;1,1,2,2,3")


def heawood_graph() -> LabeledGraph:
    return LabeledGraph(
        14, _lcf([5, -5], 7), "heawood", parse_array("3,2,2;1,1,3")
    )


def pappus_graph() -> LabeledGraph:
    return LabeledGraph(
        18, _lcf([5, 7, -7, 7, -7, -5], 3), "pappus", parse_array("3,2,2,1;1,1,2,3")
    )


def line_of_petersen_graph() -> LabeledGraph:
    """Line graph of the Petersen graph: vertices are Petersen's edges."""
    base = petersen_graph()
    idx = {e: i for i, e in enumerate(base.edges)}
    edges = [
        (idx[e], idx[f])
        for e, f in combinations(base.edges, 2)
        if set(e) & set(f)
    ]
    return LabeledGraph(15, edges, "line_of_petersen", parse_array("4,2,1;1,1,4"))


def crown_5_graph() -> LabeledGraph:
    """K_{5,5} minus a perfect matching."""
    edges = [(i, 5 + jj) for i in range(5) for jj in range(5) if i != jj]
    return LabeledGraph(10, edges, "crown_5", parse_array("4,3,1;1,3,4"))


def nonincidence_pg22_graph() -> LabeledGraph:
    """Points vs lines of the Fano plane, joined when NOT incident."""
    lines = [{i, (i + 1) % 7, (i + 3) % 7} for i in range(7)]
    edges = [
        (p, 7 + li) for p in range(7) for li in range(7) if p not in lines[li]
    ]
    return LabeledGraph(14, edges, "nonincidence_pg22", parse_array("4,3,2;1,2,4"))


# The Coxeter graph is not Hamiltonian (no LCF form) and Tutte's 8-cage
# is large enough that a frozen edge list is the clearest source; both
# lists are in the same `u v` format accepted for user-supplied graphs.
_COXETER_EDGES = """
0 25   0 26   0 27   1 21   1 24   1 26   2 20
2 21   2 23   3 20   3 22   3 25   4 18   4 19
4 27   5 16   5 17   5 26   6 15   6 17   6 19
7 13   7 14   7 24   8 14   8 19   8 23   9 13
9 18   9 22   10 12  10 13  10 16  11 12  11 15
11 20  12 27  14 25  15 24  16 23  17 22  18 21
"""

_TUTTE_8CAGE_EDGES = """
0 1    0 17   0 29   1 2    1 22   2 3    2 9
3 4    3 26   4 5    4 13   5 6    5 18   6 7
6 23   7 8    7 28   8 9    8 15   9 10   10 11
10 19  11 12  11 24  12 13  12 29  13 14  14 15
14 21  15 16  16 17  16 25  17 18  18 19  19 20
20 21  20 27  21 22  22 23  23 24  24 25  25 26
26 27  27 28  28 29
"""


def _multi_pair_lines(blob: str) -> str:
    """Several `u v` pairs per physical line back into one pair per line."""
    tokens = blob.split()
    return "\n".join(
        f"{tokens[i]} {tokens[i + 1]}" for i in range(0, len(tokens), 2)
    )


def coxeter_graph() -> LabeledGraph:
    return parse_edge_list(
        _multi_pair_lines(_COXETER_EDGES), "coxeter", "3,2,2,1;1,1,1,2"
    )


def tutte_8cage_graph() -> LabeledGraph:
    return parse_edge_list(
        _multi_pair_lines(_TUTTE_8CAGE_EDGES), "tutte_8cage", "3,2,2,2;1,1,1,3"
    )


# name -> (builder, default_param, order): a parameterized family has a
# default parameter and order(param), its vertex count, which is never
# less than param; a fixed graph has neither.
REGISTRY: dict[str, tuple] = {
    "complete": (complete_graph, 4, lambda m: m),
    "cocktail_party": (cocktail_party_graph, 3, lambda m: 2 * m),
    "hypercube": (hypercube_graph, 3, lambda d: 2**d),
    "petersen": (petersen_graph, None, None),
    "line_of_petersen": (line_of_petersen_graph, None, None),
    "heawood": (heawood_graph, None, None),
    "pappus": (pappus_graph, None, None),
    "coxeter": (coxeter_graph, None, None),
    "tutte_8cage": (tutte_8cage_graph, None, None),
    "dodecahedron": (dodecahedron_graph, None, None),
    "desargues": (desargues_graph, None, None),
    "crown_5": (crown_5_graph, None, None),
    "nonincidence_pg22": (nonincidence_pg22_graph, None, None),
}


def registry_names() -> tuple[str, ...]:
    return tuple(REGISTRY)


def construct(name: str, param: int | None = None) -> LabeledGraph:
    """Build a registry graph; parameterized families take `param`.

    A family member above MAX_VERTICES vertices is refused before it is
    built.
    """
    try:
        builder, default, order = REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown construction {name!r}") from None
    if order is None:
        if param is not None:
            raise ValueError(f"construction {name!r} takes no parameter")
        return builder()
    if param is None:
        param = default
    # order(param) >= param, so a huge param is refused without computing it
    if param > MAX_VERTICES or order(param) > MAX_VERTICES:
        raise ValueError(
            f"{name}({param}) has more than the cap of {MAX_VERTICES} vertices"
        )
    return builder(param)
