"""Independent resistance oracle: exact Laplacian checks on explicit graphs.

cross_validate builds the candidate resistance matrix from the
potential-based formula r_j = 2*(phi_0+...+phi_{j-1})/(nk), one value
per distance class, and certifies it exactly with Kirchhoff's law
(kirchhoff_certifies), in O(n + min(m, n^2 - 2m)) operations on rows
packed into one integer each.  It builds no n x n matrix of values:
each row is packed straight from verify_drg's distance row through a
table of D + 1 byte fields, one per distance class, and the
certificate's premises (n rows of n, a zero diagonal, the array's n is
g.n) are checked on the distance rows.  Only when the certificate fails
does it solve for the resistances by fraction-free integer elimination
on the grounded Laplacian (resistance_matrix), the O(n^3) diagnostic
that lists every mismatching pair.  fraction_free_solve is that elimination
(Bareiss): every update is an exact integer division, so no gcd is taken
and every entry stays a minor of the input.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement

from ._record import Record, set_field
from .arrays import derive
from .graphs import DistancePartitionReport, LabeledGraph, neighbour_sums, verify_drg
from .potentials import compute_resistances

Matrix = list[list[int]]


def resistance_matrix(g: LabeledGraph) -> list[list[Fraction]]:
    """All-pairs resistances from one fraction-free elimination on [L0 | I].

    L0 is L with vertex 0's row and column removed.  The elimination
    returns tau = det L0, the number of spanning trees, and
    A = adj L0 = tau * L0^-1, bordered here by zeros for vertex 0; then
    r(u,v) = (A_uu + A_vv - 2 A_uv) / tau.  A disconnected g is refused
    after one BFS, before the O(n^3) elimination.
    """
    if not g.is_connected():
        raise ValueError("graph is disconnected")
    n = g.n
    # L0 built directly: row and column v - 1 are vertex v's
    grounded = [[0] * (n - 1) for _ in range(n - 1)]
    for v in range(1, n):
        grounded[v - 1][v - 1] = g.degree(v)
    for u, v in g.edges:
        if u:  # u < v, so an edge at vertex 0 has u = 0 and no entry in L0
            grounded[u - 1][v - 1] = grounded[v - 1][u - 1] = -1
    identity = [[int(r == c) for c in range(1, n)] for r in range(1, n)]
    tau, adj = fraction_free_solve(grounded, identity)
    a = [[0] * n] + [[0] + row for row in adj]
    nums = [[a[u][u] + a[v][v] - 2 * a[u][v] for v in range(n)] for u in range(n)]
    # Few distinct values (D on a distance-regular graph): reduce each once.
    values = {num: Fraction(num, tau) for num in set().union(*nums)}
    return [[values[num] for num in row] for row in nums]


def fraction_free_solve(a: Matrix, b: Matrix) -> tuple[int, Matrix]:
    """Return (det A, det A * A^-1 B) for a square integer A and integer B.

    Gauss-Jordan on [A | B]: step k replaces each row i != k by
    (p * row_i - row_i[k] * row_k) // prev, p being the pivot and prev
    the previous one.  The last pivot is det(PA) for the row swaps P, and
    the right block det(PA) (PA)^-1 PB; the swap parity fixes the sign.
    Raises ValueError("singular matrix") when a pivot column is zero.
    """
    n = len(a)
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    sign, prev = 1, 1
    for k in range(n):
        p = next((r for r in range(k, n) if rows[r][k]), None)
        if p is None:
            raise ValueError("singular matrix")
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        pivot = rows[k][k]
        tail = rows[k][k + 1 :]
        # Columns <= k are never read again, so only the tail is updated.
        for i, row in enumerate(rows):
            if i == k:
                continue
            f = row[k]
            if f:
                pairs = zip(row[k + 1 :], tail)
                row[k + 1 :] = [(pivot * x - f * y) // prev for x, y in pairs]
            elif pivot != prev:
                row[k + 1 :] = [pivot * x // prev for x in row[k + 1 :]]
        prev = pivot
    return sign * prev, [[sign * x for x in row[n:]] for row in rows]


def kirchhoff_certifies(g: LabeledGraph, scaled: list[list[int]], scale: int) -> bool:
    """True iff scaled[u][v] / scale is the effective resistance of u, v in g.

    g must be connected and `scale` positive (ValueError otherwise);
    S = `scaled` is an integer n x n matrix.  S / scale is accepted iff
    S is symmetric with a zero diagonal and, for every vertex u, the row

        deg(u) * S[u] - sum(S[w] for w ~ u) + 2 * scale * e_u

    (row u of L S + 2 scale I, L = D - A the Laplacian) is constant.
    Symmetry is not checked on its own: each row is compared with its
    entry at column 0 as computed from row 0 of S, which (see Proof) a
    matrix with a zero diagonal passes only if it is symmetric.

    Each row of S is packed into one integer with a w-bit field per
    vertex, P[u] = sum over v of (S[u][v] - low) * 2^(w v), low the least
    value that S may hold, so row u of L S + 2 scale I is the integer

        K_u = deg(u) * P[u] - sum(P[w] for w ~ u) + (2 scale << w u)

    exactly, with no bias left, as its coefficients sum to
    deg(u) - deg(u) = 0.  It passes iff K_u equals k_0 * ones,
    ones = 1 + 2^w + ... + 2^(w (n-1)) and k_0 its entry at vertex 0
    with row 0 of S read as column 0.  The sums over w ~ u, of the P[w]
    and of the k_0 terms alike, come from graphs.neighbour_sums: 2m
    additions, or on a graph with 4m > n(n - 1) the sum of all rows less
    each closed non-neighbourhood, n + n^2 - 2m, which gives the same
    integers.  That is O(n + min(m, n^2 - 2m)) operations on n * w-bit
    integers, with no list of n entries built per row.

    Width.  Let S hold values from low to low + spread (at most D + 1
    values when S is cross_validate's candidate), so max S - min S is
    at most spread.  Leaving out the 2 scale term, the entry k_v of
    row u combines column v of S with coefficients that sum to 0 and
    whose positive ones sum to deg(u), so it lies within
    deg(u) * spread of 0, as k_0 does; the 2 scale term, in k_v at
    v = u and in k_0 at u = 0, moves k_v - k_0 by at most 2 |scale|.
    Hence |k_v - k_0| <= 2 * maxdeg * spread + 2 |scale| = bound, and w
    is the least multiple of 8 with 2^(w-1) > bound, so a biased entry
    (at most spread) fits in its field.  Now
    K_u - k_0 * ones = sum_v d_v 2^(w v) with d_v = k_v - k_0 and
    |d_v| < 2^(w-1).  Were some d_v nonzero, take the least such v: the
    sum is d_v 2^(w v) plus a multiple of 2^(w (v+1)), which is zero only
    if 2^w divides d_v, impossible for 0 < |d_v| < 2^w.  So
    K_u = k_0 * ones iff every entry of row u is k_0.

    Proof.  Let R be the resistance matrix and L+ the pseudoinverse of L,
    with d = diag(L+).  Then R = d 1^T + 1 d^T - 2 L+, and since L 1 = 0
    and L L+ = I - J/n,

        L R + 2 I = (L d + (2/n) 1) 1^T,

    whose rows are constant; R is symmetric, so it passes.  Conversely
    let R' = S / scale pass with a zero diagonal, x its row 0 and y its
    column 0.  Row u of L R' + 2 I is constant at (L x)_u + 2 [u = 0],
    and its column-0 entry is (L y)_u + 2 [u = 0], so L (y - x) = 0; as
    g is connected, ker L = span(1), and y_0 = x_0 gives y = x.  Put
    E = R' - R.  Then L E = f 1^T with f = (L x + 2 e_0) - (L d + (2/n) 1).
    Summing the rows gives 1^T f = 0 (1^T L = 0), so every column of E
    solves L z = f, and E = h 1^T + 1 a^T with h = L+ f.  The zero
    diagonal gives a = -h, so E_uv = h_u - h_v; column 0 of E is its
    row 0, as for R' and R, so h_u - h_0 = h_0 - h_u: h is constant and
    E = 0.  Scaling R' by `scale` scales both sides alike.
    """
    if not scale > 0:
        raise ValueError(f"scale must be positive, not {scale}")
    if not g.is_connected():
        raise ValueError("graph is disconnected")
    return _certifies(g, scaled, {x: x for x in set().union(*scaled)}, scale)


def _certifies(g: LabeledGraph, rows: list[list], values: dict, scale: int) -> bool:
    """kirchhoff_certifies on S[u][v] = values[rows[u][v]], g connected.

    kirchhoff_certifies passes S itself and the identity on its entries;
    cross_validate passes the distance rows and the D + 1 class values,
    so no n x n matrix of values is built.  The premises are checked on
    `rows`: n rows of n entries (S is square) and values[rows[u][u]] = 0
    (S has a zero diagonal); the loop itself proves S symmetric, as the
    proof in kirchhoff_certifies shows.  The spread of `values` bounds
    the spread of S, so the width proof holds with it.
    """
    n = g.n
    if len(rows) != n or any(len(row) != n for row in rows):
        return False
    if any(values[row[u]] for u, row in enumerate(rows)):
        return False
    low = min(values.values())
    spread = max(values.values()) - low
    bound = 2 * max(map(len, g.adjacency)) * spread + 2 * abs(scale)
    size = bound.bit_length() // 8 + 1  # bytes per field: 2^(w-1) > bound, w = 8 * size
    field = {key: (x - low).to_bytes(size, "little") for key, x in values.items()}
    packed = [int.from_bytes(b"".join(map(field.__getitem__, row)), "little") for row in rows]
    ones = int.from_bytes((b"\1" + bytes(size - 1)) * n, "little")
    first = list(map(values.__getitem__, rows[0]))  # row 0, read as column 0
    sums = neighbour_sums(g, packed)
    first_sums = neighbour_sums(g, first)
    for u, nb in enumerate(g.adjacency):
        kirchhoff = len(nb) * packed[u] - sums[u] + ((2 * scale) << (8 * size * u))
        k0 = len(nb) * first[u] - first_sums[u] + (2 * scale if u == 0 else 0)
        if kirchhoff != k0 * ones:
            return False
    return True


class ClassCheck(Record):
    """The formula's check for one distance class.

    mismatches is empty when the Kirchhoff certificate holds; otherwise
    it lists each pair (u, v, solved resistance) that differs from
    `expected`.
    """

    __slots__ = _fields = ("distance", "expected", "pairs_checked", "mismatches")

    def __init__(
        self,
        distance: int,
        expected: Fraction,
        pairs_checked: int,
        mismatches: tuple[tuple[int, int, Fraction], ...],
    ) -> None:
        set_field(self, "distance", distance)
        set_field(self, "expected", expected)
        set_field(self, "pairs_checked", pairs_checked)
        set_field(self, "mismatches", mismatches)

    @property
    def ok(self) -> bool:
        return not self.mismatches


class NotDistanceRegular(ValueError):
    """cross_validate's refusal of a graph; `report` holds verify_drg's violations."""

    def __init__(self, name: str, report: DistancePartitionReport):
        super().__init__(
            f"{name} is not distance-regular ({len(report.violations)} violation(s))"
        )
        self.report = report


class CrossValidation(Record):
    __slots__ = _fields = ("graph_name", "drg_report", "classes")

    def __init__(
        self,
        graph_name: str,
        drg_report: DistancePartitionReport,
        classes: tuple[ClassCheck, ...],
    ) -> None:
        set_field(self, "graph_name", graph_name)
        set_field(self, "drg_report", drg_report)
        set_field(self, "classes", classes)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.classes)


def cross_validate(g: LabeledGraph) -> CrossValidation:
    """Assert exact equality of the graph's resistances with the potential formula.

    The candidate R[u][v] = r_{d(u,v)} (r_0 = 0), scaled to integers by
    the lcm N of the formula's denominators, is certified at every pair
    at once by kirchhoff_certifies' packed loop.  Each row is packed
    from report.distances[u] through the D + 1 class values, never
    built as a row of values, and the premises are checked on the
    distance rows: there are n rows of n, their diagonal is zero, and
    the array's n is g.n (symmetry needs no check of its own; see
    kirchhoff_certifies).  If a premise or the certificate fails,
    resistance_matrix solves for every pair and each pair whose
    resistance differs from its class's formula value is listed as a
    mismatch.

    pairs_checked is n * k_d / 2, k_d the array's sphere size: verify_drg
    has certified that every c_i and b_i is constant, so every vertex
    has k_d vertices at distance d, and no pass over the distances
    counts them.

    A graph that verify_drg rejects raises NotDistanceRegular.  A claimed
    array is never contradicted silently: verify_drg counts against it,
    so a graph it passes realises the claim.  The report is verify_drg's
    kept one, so after verify_drg(g) the graph is not counted again; the
    Kirchhoff certificate runs on every call.
    """
    report = verify_drg(g)
    if not report.is_drg:
        raise NotDistanceRegular(g.name or "graph", report)

    params = derive(report.observed_array)
    resistances = compute_resistances(params)
    scale = math.lcm(*(r.denominator for r in resistances))
    per_class = [0] + [r.numerator * (scale // r.denominator) for r in resistances]
    # verify_drg has refused a disconnected g
    if params.n == g.n and _certifies(g, report.distances, dict(enumerate(per_class)), scale):
        mismatches = {}
    else:
        mismatches = _solver_mismatches(g, report.distances, resistances)
    classes = tuple(
        ClassCheck(
            distance=d,
            expected=expected,
            pairs_checked=g.n * size // 2,
            mismatches=tuple(mismatches.get(d, ())),
        )
        for d, (expected, size) in enumerate(zip(resistances, params.sphere_sizes[1:]), start=1)
    )
    return CrossValidation(
        graph_name=g.name or "graph", drg_report=report, classes=classes
    )


def _solver_mismatches(
    g: LabeledGraph, distances: list[list[int]], resistances: tuple[Fraction, ...]
) -> dict[int, list[tuple[int, int, Fraction]]]:
    """Every pair u <= v whose solved resistance is not r_{d(u,v)}, by distance.

    r_0 = 0, so a diagonal entry is listed only when its distance is not 0.
    """
    rmat = resistance_matrix(g)
    per_class = (0, *resistances)
    found: dict[int, list[tuple[int, int, Fraction]]] = {}
    for u, v in combinations_with_replacement(range(g.n), 2):
        d = distances[u][v]
        if rmat[u][v] != per_class[d]:
            found.setdefault(d, []).append((u, v, rmat[u][v]))
    return found
