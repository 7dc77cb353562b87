"""Explicit graph constructions and distance-regularity verification.

The registry holds small named graphs (plus three parameterized
families), each carrying the intersection array it is expected to
realize.  A fixed graph is one FIXED row, name -> edge builder, and
claims the array of the drg.catalog entry whose construction key is
its name, so the catalog's own array is what the oracle checks; a family
is one FAMILIES row, whose size, claim and edges are formulas in the
member's parameter.  verify_drg checks distance-regularity from
scratch, so a registry entry's claim is never trusted, always
re-derived: one BFS from all sources at once on packed rows (_certify)
makes every count and accepts when each is constant, and only a graph
it does not accept, or whose claim differs, is scanned by one BFS per
vertex over neighbourhood bitmasks (_bfs, also behind distances_from)
to list its violations.

verify_drg counts each graph object once: it keeps its report on the
graph and returns that same report while g.adjacency is the same object
and g.claimed_array is equal to the one it counted against.  Replacing
either makes the next call count again; an exception is never kept.

The fixed graphs come from three edge builders, each returning
(n, edges): LCF notation (_lcf), a graph on a set system with an
adjacency rule (_graph_on) and a bipartite incidence graph with a
relation (_incidence).  The complete and cocktail-party graphs take
their edges from itertools.combinations, with no rule called per pair.

No graph above MAX_VERTICES vertices or MAX_WORK = n * m is built:
construct checks a family's n and m from its parameter, and
parse_edge_list checks them before any edge list or n x n matrix
exists.  It splits the text once and takes one of two paths: a fast
one that checks all the rows at once, reads canonical indices through
a table and builds the graph, and a line reader for any other text,
which builds the graph or refuses the first bad line by its number.
Only an empty list is refused with no line.  The claim is read last.
"""

from __future__ import annotations

import operator
import sys
from array import array
from itertools import chain, combinations, count, repeat

from ._record import Record, set_field
from .arrays import IntersectionArray, parse_array
from .catalog import catalog_list

# The most vertices a constructed or parsed graph may have, and the most
# work n * m: once per distance level, verify_drg adds a packed row of n
# fields for every (vertex, neighbour) incidence, 2m rows, or on a graph
# with 4m > n(n - 1) one row per vertex and per (vertex, non-neighbour)
# pair, n + n^2 - 2m rows, which is fewer (neighbour_sums); the oracle's
# check does the same once.  GH(3,3), with 728 vertices, fits; so does the
# 10-cube, the largest graph at both caps at once (n * m = 1024 * 5120).
MAX_VERTICES = 1024
MAX_WORK = 1024 * 5120


class LabeledGraph:
    """Simple undirected graph on vertices 0..n-1.

    Each edge (u, v), u < v, is checked in input order (its range, a
    loop, a repeat) and kept as the integer u * n + v, so the set of
    edges holds ints and sorts as ints; `edges` is that sorted set back
    as (u, v) pairs.  Against tuple keys this took one build of
    cocktail_party(16) (n = 32, m = 480) from 221 to 150 us and of K_128
    from 5.1 to 2.3 ms (medians of 10 processes, BENCH_dense_intake.json).
    """

    def __init__(
        self,
        n: int,
        edges,
        name: str = "",
        claimed_array: IntersectionArray | None = None,
    ):
        if n <= 0:
            raise ValueError("need at least one vertex")
        seen: set[int] = set()  # the edge (u, v), u < v, as u * n + v
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            key = u * n + v if u < v else v * n + u
            if key in seen:
                raise ValueError(f"duplicate edge {divmod(key, n)}")
            seen.add(key)
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(map(divmod, sorted(seen), repeat(n)))
        self.name = name
        self.claimed_array = claimed_array
        adj: list[list[int]] = [[] for _ in range(n)]
        # the edges (u, v), u < v, come sorted, so each list is built sorted:
        # w's lower neighbours (edges (u, w)) all come before its higher ones
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adjacency = tuple(map(tuple, adj))
        # verify_drg's (adjacency, claimed_array, report) for this graph, once counted
        self._drg_report: tuple | None = None
        # neighbour_sums' (adjacency, closed non-neighbourhoods) of a dense graph, once listed
        self._closed_non_neighbours: tuple | None = None

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def distances_from(self, source: int) -> list[int]:
        """BFS distances; -1 marks unreachable vertices."""
        return _bfs(_neighbour_masks(self), source)[0]

    def is_connected(self) -> bool:
        return all(d >= 0 for d in self.distances_from(0))

    def __repr__(self) -> str:
        label = self.name or "graph"
        return f"<LabeledGraph {label}: n={self.n}, m={len(self.edges)}>"


class Violation(Record):
    """One counted neighborhood that broke distance-regularity."""

    __slots__ = _fields = ("base", "target", "kind", "expected", "observed")

    def __init__(
        self,
        base: int,
        target: int,
        kind: str,  # e.g. "b2" or "c1"
        expected: int,
        observed: int,
    ) -> None:
        set_field(self, "base", base)
        set_field(self, "target", target)
        set_field(self, "kind", kind)
        set_field(self, "expected", expected)
        set_field(self, "observed", observed)


class DistancePartitionReport(Record):
    """verify_drg's result.  The report is kept on its graph and shared by
    every later verify_drg and cross_validate of it, so it must not be
    mutated (distances included)."""

    __slots__ = _fields = ("is_drg", "observed_array", "violations", "diameter", "distances")

    def __init__(
        self,
        is_drg: bool,
        observed_array: IntersectionArray | None,
        violations: tuple[Violation, ...],
        diameter: int,
        distances: list[list[int]],  # distances[u][v]
    ) -> None:
        set_field(self, "is_drg", is_drg)
        set_field(self, "observed_array", observed_array)
        set_field(self, "violations", violations)
        set_field(self, "diameter", diameter)
        set_field(self, "distances", distances)


def _neighbour_masks(g: LabeledGraph) -> list[int]:
    """Each vertex's neighbourhood as an int with bit w set for each neighbour w."""
    return neighbour_sums(g, [1 << v for v in range(g.n)])


def _bfs(masks: list[int], source: int) -> tuple[list[int], list[int], list[int]]:
    """BFS from source over neighbourhood bitmasks, one distance layer at a time.

    Returns (dist, down, up): dist[y] = d(source, y), or -1 when y is
    unreachable, and down[y] and up[y] count y's neighbours at distance
    dist[y] - 1 and dist[y] + 1 (both 0 for an unreachable y).  A
    neighbour of a vertex in layer i lies in layer i-1, i or i+1, so the
    neighbours not yet seen while layer i is scanned are exactly those
    in layer i+1.
    """
    n = len(masks)
    dist, down, up = [-1] * n, [0] * n, [0] * n
    prev, layer = 0, 1 << source
    unseen = ((1 << n) - 1) ^ layer
    i = 0
    while layer:
        ahead_all = 0
        rest = layer
        while rest:
            y = rest.bit_length() - 1
            rest ^= 1 << y
            nb = masks[y]
            ahead = nb & unseen
            dist[y] = i
            down[y] = (nb & prev).bit_count()
            up[y] = ahead.bit_count()
            ahead_all |= ahead
        unseen ^= ahead_all
        prev, layer, i = layer, ahead_all, i + 1
    return dist, down, up


def neighbour_sums(g: LabeledGraph, rows: list[int]) -> list[int]:
    """[sum(rows[w] for w ~ x) for x in range(n)]: each vertex's sum of its neighbours' rows.

    The one place where rows are summed over neighbours: verify_drg's
    kernel (_certify) per level, the oracle's Kirchhoff check and the
    neighbourhood bitmasks of _bfs (rows 1 << v).  When
    the average degree is above (n - 1) / 2, that is 4m > n(n - 1), each
    sum is taken instead as sum(rows) less the rows of x's closed
    non-neighbourhood (x and its non-neighbours), the shorter list:
    n + n^2 - 2m additions in all against 2m.  Both forms are one integer
    sum regrouped, so they return the same integers.

    Only g.adjacency is read.  The closed non-neighbourhoods are listed
    once per graph and kept on it while g.adjacency is the same object,
    as verify_drg keeps its report: one kernel level or one Kirchhoff
    check of a dense graph then costs its additions alone.
    """
    adjacency = g.adjacency
    n = len(adjacency)
    pick = rows.__getitem__
    if 2 * sum(map(len, adjacency)) <= n * (n - 1):
        return [sum(map(pick, nb)) for nb in adjacency]
    kept = g._closed_non_neighbours
    if kept is None or kept[0] is not adjacency:
        everyone = set(range(n))
        kept = (adjacency, [tuple(everyone.difference(nb)) for nb in adjacency])
        g._closed_non_neighbours = kept
    total = sum(rows)
    return [total - sum(map(pick, others)) for others in kept[1]]


def _unpack16(row: int, n: int) -> list[int]:
    """The n 16-bit fields of a packed row, least significant first, on either byte order."""
    fields = array("H", row.to_bytes(2 * n, "little"))
    if sys.byteorder == "big":
        fields.byteswap()
    return fields.tolist()


def _certify(g: LabeledGraph) -> tuple[list[list[int]], list[int], list[int]] | None:
    """(distances, b, c) when every count verify_drg makes is constant, else None.

    One BFS from all sources at once, a level at a time, on packed rows:
    row A_i[x] is an int with a w-bit field per vertex y, 1 when
    d(x, y) = i and 0 otherwise.  Each level takes one sum per vertex,

        T_x = sum(A_i[w] for w ~ x),  field y of T_x = |N(x) & S_i(y)|,

    from neighbour_sums, which on a graph with 4m > n(n - 1) takes it as
    sum(A_i) less the rows of x's closed non-neighbourhood: the same
    integer, so the width argument below holds for both.  The whole run
    is O(n * D) Python steps on n*w-bit ints, where a BFS per base is
    O(n^2).  For y with d(x, y) = i + 1 that field is
    c_{i+1}(y, x), the neighbours of x one step nearer to y, and it is
    at least 1 (the first step of a shortest path from x to y); for
    d(x, y) > i + 1 it is 0.  So the next row is the nonzero fields of
    T_x among the vertices not yet seen,

        A_{i+1}[x] = ((T_x + half) >> (w - 1)) & unseen_x,

    half holding 2^(w-1) - 1 in every field.  For y with d(x, y) = i - 1
    the field is b_{i-1}(y, x).  Both checks are one comparison per
    (x, i):

        T_x & mask(A_{i+1}[x] | A_{i-1}[x]) == c_{i+1} A_{i+1}[x] + b_{i-1} A_{i-1}[x],

    mask(A) = (A << w) - A filling each 1-field with ones.  Over the
    levels i = 0..D this covers every ordered pair (y, x), base y and
    target x: c_j at level j - 1 and b_j (j < D) at level j + 1.  The
    constants are those of base 0 and the first y of each class, as
    the first-observed rule takes them.

    Width.  w = 8 when n <= 128, else 16 (n <= MAX_VERTICES).  Every
    degree, count and distance is then at most n - 1 < 2^(w-1): a field
    of T_x + half stays below 2^w, so no carry crosses a field, and it
    reaches 2^(w-1) exactly when the count is nonzero.  The distance
    rows add 1 per level at which y is still unseen and are unpacked
    once, at the end.

    None also when the graph is disconnected, when base 0 runs out of
    vertices before another base does, or when n = 1.
    """
    n = g.n
    size = 1 if n <= 128 else 2  # bytes per field
    width = 8 * size
    shift = width - 1
    ones = int.from_bytes((b"\1" + bytes(size - 1)) * n, "little")
    half = ones * ((1 << shift) - 1)
    low = (1 << width) - 1  # field 0, which holds base 0's counts
    level = [1 << (width * x) for x in range(n)]  # A_0[x] = {x}
    behind = [0] * n
    unseen = [ones ^ row for row in level]
    dist = unseen  # field y of dist[x] adds 1 for each i >= 0 with d(x, y) > i
    first = [0]  # base 0's first y at each distance
    b: list[int] = []
    c: list[int] = []
    for i in count():
        sums = neighbour_sums(g, level)
        ahead = [((t + half) >> shift) & u for t, u in zip(sums, unseen)]
        if ahead[0]:
            first.append(((ahead[0] & -ahead[0]).bit_length() - 1) // width)
        elif any(ahead):
            return None
        c_next = sums[first[i + 1]] & low if ahead[0] else 0
        b_prev = sums[first[i - 1]] & low if i else 0
        if any(
            t & (((s := a | p) << width) - s) != c_next * a + b_prev * p
            for t, a, p in zip(sums, ahead, behind)
        ):
            return None
        if i:
            b.append(b_prev)
        if not ahead[0]:
            break
        c.append(c_next)
        unseen = list(map(operator.xor, unseen, ahead))
        dist = list(map(operator.add, dist, unseen))
        behind, level = level, ahead
    if not c or any(unseen):
        return None
    if size == 1:
        return [list(row.to_bytes(n, "little")) for row in dist], b, c
    return [_unpack16(row, n) for row in dist], b, c


def verify_drg(g: LabeledGraph) -> DistancePartitionReport:
    """Check distance-regularity by counting neighbors over every vertex pair.

    For every ordered pair (x, y) at distance i, the number of neighbors
    of y at distance i-1 (resp. i+1) from x must be a constant c_i
    (resp. b_i).  If a claimed array is attached, its values are the
    expected constants; otherwise the first observed count is.

    _certify makes every count at once, level by level on packed rows,
    and accepts when each is constant.  Only a graph that _certify does
    not accept, or whose claim differs from the counts, is scanned base
    by base (_diagnose) to list its violations in order; a claim of
    another diameter gets its one `diameter` violation there.

    The report is computed once per graph object and kept on it: a later
    call returns the same report while g.adjacency is the same object and
    g.claimed_array is equal, and counts again when either was replaced.
    A report that fails is kept too; an exception (a disconnected graph,
    a single vertex) is not.
    """
    kept = g._drg_report
    if kept is not None and kept[0] is g.adjacency and kept[1] == g.claimed_array:
        return kept[2]
    certified = _certify(g)  # (distances, b, c), or None
    observed = None if certified is None else IntersectionArray(*certified[1:])
    if observed is None or g.claimed_array not in (None, observed):
        report = _diagnose(g)
    else:
        report = DistancePartitionReport(
            is_drg=True, observed_array=observed, violations=(), diameter=observed.D,
            distances=certified[0],
        )
    g._drg_report = (g.adjacency, g.claimed_array, report)
    return report


def _diagnose(g: LabeledGraph) -> DistancePartitionReport:
    """verify_drg by one BFS per base x, listing every violation.

    Each vertex's neighbourhood is an int bitmask and _bfs counts every
    y's down and up neighbours as the popcounts of N(y) & (layer i-1)
    and N(y) & (not yet seen).  Every base is scanned y by y, which
    keeps the first-observed rule and the order of the violations:
    (x, y) order, c_i before b_i.
    """
    masks = _neighbour_masks(g)
    first = _bfs(masks, 0)
    if -1 in first[0]:
        raise ValueError("graph is disconnected")
    counted = [first, *(_bfs(masks, x) for x in range(1, g.n))]
    dist = [row for row, _, _ in counted]
    diameter = max(map(max, dist))
    if diameter == 0:
        raise ValueError("graph has a single vertex")

    # b at the diameter is 0, as is every up count there: nothing lies farther out
    expected_b: list[int | None] = [None] * diameter + [0]
    expected_c: list[int | None] = [None] * (diameter + 1)
    claimed = g.claimed_array
    if claimed is not None and claimed.D == diameter:
        expected_b[:diameter] = claimed.b
        expected_c[:] = (0, *claimed.c)
    violations: list[Violation] = []

    for x, (row, down, up) in enumerate(counted):
        for y, i in enumerate(row):
            if expected_c[i] is None:
                expected_c[i] = down[y]
            elif expected_c[i] != down[y]:
                violations.append(Violation(x, y, f"c{i}", expected_c[i], down[y]))
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

# str(i) -> i for every vertex index below the cap: parse_edge_list's fast
# path converts an edge list of canonical indices by dict lookups alone.
_INDICES = {str(i): i for i in range(MAX_VERTICES)}


def parse_edge_list(text: str, name: str = "", claimed: str | None = None) -> LabeledGraph:
    """Build a graph from `u v` lines of ASCII digits (0-based); '#' comments and blanks allowed.

    A line ends at each "\n" (with a "\r" just before it), so the other
    characters that str.splitlines breaks at are whitespace in a line.

    A vertex index of MAX_VERTICES or more is refused on its line, and
    so is the line whose edge takes (largest index + 1) * (edges so far)
    above MAX_WORK.

    The text is split into lines and tokens once.  The fast path checks
    the rows at once: every line has 0 or 2 tokens, every token is in
    _INDICES, and the caps hold for the final largest index and edge
    count, which pass on every line when they pass at the end, as both
    only grow; LabeledGraph then builds the graph.  Any other text (a
    token not in the table, a failed cap, a loop or a repeated edge that
    LabeledGraph refuses, no edge at all) goes to _read_line_by_line,
    which returns the graph or raises the refusal of the first bad line.
    The claim is read last, so every refusal of the edges comes before
    one of the claim.
    """
    lines = text.split("\n")
    rows = list(map(str.split, [line.split("#", 1)[0] for line in lines] if "#" in text else lines))
    g = None
    if set(map(len, rows)) <= {0, 2}:
        try:
            numbers = list(map(_INDICES.__getitem__, chain.from_iterable(rows)))
            top = max(numbers, default=MAX_VERTICES)
            if top < MAX_VERTICES and (top + 1) * (len(numbers) // 2) <= MAX_WORK:
                pairs = iter(numbers)
                g = LabeledGraph(top + 1, zip(pairs, pairs), name=name)
        except (KeyError, ValueError):  # a token not in the table; a loop or a repeated edge
            pass
    if g is None:
        g = _read_line_by_line(lines, rows, name)
    # a fresh graph has no kept report, so the claim may be set now
    g.claimed_array = parse_array(claimed) if claimed else None
    return g


def _read_line_by_line(lines: list[str], rows: list[list[str]], name: str) -> LabeledGraph:
    """The graph of an edge list read line by line, every check on every
    line in order, or the refusal of its first bad line: lines[i] as split
    at "\n", rows[i] its tokens before any '#'."""
    seen: set[int] = set()  # the edge (u, v), u < v, as u * MAX_VERTICES + v
    top = -1
    for lineno, (raw, parts) in enumerate(zip(lines, rows), start=1):
        if not parts:
            continue
        raw = raw.removesuffix("\r")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        if not all(part.isascii() and part.isdigit() for part in parts):
            raise ValueError(f"line {lineno}: vertex indices must be ASCII digits, got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:  # beyond sys.get_int_max_str_digits()
            raise ValueError(f"line {lineno}: vertex index too long to convert") from exc
        if max(u, v) >= MAX_VERTICES:
            raise ValueError(
                f"line {lineno}: vertex {max(u, v)} is beyond the cap of "
                f"{MAX_VERTICES} vertices"
            )
        if u == v:
            raise ValueError(f"line {lineno}: loop at vertex {u}")
        key = u * MAX_VERTICES + v if u < v else v * MAX_VERTICES + u
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate edge {divmod(key, MAX_VERTICES)}")
        seen.add(key)
        top = max(top, u, v)
        if (top + 1) * len(seen) > MAX_WORK:
            raise ValueError(
                f"line {lineno}: n*m = {top + 1}*{len(seen)} is beyond the "
                f"work cap of {MAX_WORK}"
            )
    if not seen:
        raise ValueError("edge list is empty")
    return LabeledGraph(top + 1, (divmod(key, MAX_VERTICES) for key in seen), name=name)


def _lcf(pattern: list[int], repeats: int) -> tuple[int, set[tuple[int, int]]]:
    """LCF notation: the cycle 0..n-1 plus the chords i ~ i + pattern[i mod len]."""
    n = len(pattern) * repeats
    edges = {(i, (i + 1) % n) for i in range(n)}
    for i in range(n):
        j = (i + pattern[i % len(pattern)]) % n
        edges.add((i, j) if i < j else (j, i))
    return n, edges


def _graph_on(vertices, adjacent) -> tuple[int, list[tuple[int, int]]]:
    """The graph on `vertices`, numbered in the order given, with u ~ v iff adjacent(u, v)."""
    vertices = tuple(vertices)
    edges = [
        (i, j) for j, v in enumerate(vertices) for i in range(j) if adjacent(vertices[i], v)
    ]
    return len(vertices), edges


def _incidence(left, right, related) -> tuple[int, list[tuple[int, int]]]:
    """The bipartite graph joining left[i] to right[j] iff related(left[i], right[j])."""
    left, right = tuple(left), tuple(right)
    edges = [
        (i, len(left) + j)
        for i, p in enumerate(left)
        for j, q in enumerate(right)
        if related(p, q)
    ]
    return len(left) + len(right), edges


# Vertex sets are built once, at import: construct runs on every oracle call.
_PAIRS = tuple(map(frozenset, combinations(range(5), 2)))
_TRIPLES = tuple(map(frozenset, combinations(range(5), 3)))
_FANO_LINES = tuple(frozenset({i, (i + 1) % 7, (i + 3) % 7}) for i in range(7))
_NON_LINES = tuple(
    t for t in map(frozenset, combinations(range(7), 3)) if t not in _FANO_LINES
)
_PETERSEN_EDGES = tuple(map(frozenset, sorted(_graph_on(_PAIRS, frozenset.isdisjoint)[1])))

# name -> (least, default, size, claim, edges) of a parameterized family,
# whose members take a parameter p >= least, default when none is given:
# size(p) = (n, m), the vertex and edge counts, with n never less than p;
# claim(p) = (b, c), the member's intersection array; edges(p) = (n, edges).
FAMILIES: dict[str, tuple] = {
    "complete": (
        2, 4, lambda m: (m, m * (m - 1) // 2), lambda m: ((m - 1,), (1,)),
        lambda m: (m, combinations(range(m), 2)),
    ),
    # K_{m x 2}: everyone adjacent except the m antipodal pairs
    "cocktail_party": (
        2, 3, lambda m: (2 * m, 2 * m * (m - 1)), lambda m: ((2 * m - 2, 1), (1, 2 * m - 2)),
        lambda m: (2 * m, [(u, v) for u, v in combinations(range(2 * m), 2) if v - u != m]),
    ),
    # the d-bit words, adjacent when one bit apart: n*d bit flips, not _graph_on's n^2 tests
    "hypercube": (
        2, 3, lambda d: (2**d, d * 2 ** (d - 1)), lambda d: (range(d, 0, -1), range(1, d + 1)),
        lambda d: (1 << d, [
            (u, u ^ (1 << bit)) for u in range(1 << d) for bit in range(d) if u < u ^ (1 << bit)
        ]),
    ),
}

# name -> (edge builder, *its arguments) of a fixed graph; the builder
# returns (n, edges).  The graph's claim is the array of the one
# catalog entry whose construction key is the name.
FIXED: dict[str, tuple] = {
    # the 2-subsets of a 5-set, adjacent when disjoint
    "petersen": (_graph_on, _PAIRS, frozenset.isdisjoint),
    # Petersen's edges, adjacent when they meet
    "line_of_petersen": (_graph_on, _PETERSEN_EDGES, lambda e, f: not e.isdisjoint(f)),
    # the points and lines of the Fano plane, joined by incidence
    "heawood": (_incidence, range(7), _FANO_LINES, lambda p, line: p in line),
    "pappus": (_lcf, [5, 7, -7, 7, -7, -5], 3),
    # the 28 triples of a 7-set that are not Fano lines, adjacent when disjoint
    "coxeter": (_graph_on, _NON_LINES, frozenset.isdisjoint),
    "tutte_8cage": (_lcf, [-13, -9, 7, -7, 9, 13], 5),
    "dodecahedron": (_lcf, [10, 7, 4, -4, -7, 10, -4, 7, -7, 4], 2),
    # the 2-subsets and the 3-subsets of a 5-set, joined by inclusion
    "desargues": (_incidence, _PAIRS, _TRIPLES, frozenset.issubset),
    # K_{5,5} minus a perfect matching
    "crown_5": (_incidence, range(5), range(5), operator.ne),
    # the points and lines of the Fano plane, joined when NOT incident
    "nonincidence_pg22": (_incidence, range(7), _FANO_LINES, lambda p, line: p not in line),
}


def registry_names() -> tuple[str, ...]:
    return (*FAMILIES, *FIXED)


def construct(name: str, param: int | None = None) -> LabeledGraph:
    """Build a registry graph; parameterized families take `param`.

    A fixed graph claims its catalog row's array.  Every family member is
    built from its FAMILIES row by one path: a parameter below the row's
    least, and then a member above MAX_VERTICES vertices or MAX_WORK =
    n * m, is refused before it is built.
    """
    if name in FIXED:
        if param is not None:
            raise ValueError(f"construction {name!r} takes no parameter")
        builder, *args = FIXED[name]
        claim = next(e.array for e in catalog_list() if e.constructible == name)
        return LabeledGraph(*builder(*args), name, claim)
    try:
        least, default, size, claim, edges = FAMILIES[name]
    except KeyError:
        known = ", ".join(registry_names())
        raise ValueError(f"unknown construction {name!r}; known: {known}") from None
    if param is None:
        param = default
    if param < least:
        raise ValueError(f"{name} needs a parameter >= {least}, got {param}")
    # n >= param, so a huge param is refused without computing size(param)
    n, m = size(param) if param <= MAX_VERTICES else (param, 0)
    if n > MAX_VERTICES:
        raise ValueError(
            f"{name}({param}) has more than the cap of {MAX_VERTICES} vertices"
        )
    if n * m > MAX_WORK:
        raise ValueError(
            f"{name}({param}) has n*m = {n}*{m}, beyond the work cap of {MAX_WORK}"
        )
    return LabeledGraph(*edges(param), f"{name}({param})", IntersectionArray(*claim(param)))
