"""Independent resistance oracle: exact Laplacian solves on explicit graphs.

Effective resistances come from fraction-free integer elimination on the
grounded Laplacian (see resistance_matrix) and are compared, at every
pair, against the potential-based formula r_j = 2*(phi_0+...+phi_{j-1})/(nk).
Agreement must be exact, not approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import linalg
from .arrays import derive
from .graphs import DistancePartitionReport, LabeledGraph, verify_drg
from .potentials import compute_profile


def _laplacian(g: LabeledGraph) -> linalg.Matrix:
    """The integer Laplacian L = D - A."""
    m = [[0] * g.n for _ in range(g.n)]
    for v in range(g.n):
        m[v][v] = g.degree(v)
    for u, v in g.edges:
        m[u][v] = m[v][u] = -1
    return m


def laplacian_resistance(
    g: LabeledGraph, u: int, v: int, method: str = "ones"
) -> Fraction:
    """Exact effective resistance between u and v with unit-resistance edges.

    method="ones" solves (nL + J) x = n(e_u - e_v), the system
    (L + J/n) x = e_u - e_v scaled to integers; method="grounded" pins
    vertex 0 and solves the reduced system.  Both give the same x_u - x_v
    because any solution of L x = e_u - e_v does.
    """
    if u == v:
        raise ValueError("resistance between a vertex and itself is not computed")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError("vertex index out of range")
    if not g.is_connected():
        raise ValueError("graph is disconnected")
    n, lap = g.n, _laplacian(g)
    e = [(w == u) - (w == v) for w in range(n)]
    if method == "ones":
        system = [[n * entry + 1 for entry in row] for row in lap]
        det, x = linalg.fraction_free_solve(system, [[n * c] for c in e])
    elif method == "grounded":
        grounded = [row[1:] for row in lap[1:]]
        det, x = linalg.fraction_free_solve(grounded, [[c] for c in e[1:]])
        x = [[0]] + x
    else:
        raise ValueError(f"unknown method {method!r}")
    return Fraction(x[u][0] - x[v][0], det)


def resistance_matrix(g: LabeledGraph) -> list[list[Fraction]]:
    """All-pairs resistances from one fraction-free elimination on [L0 | I].

    L0 is L with vertex 0's row and column removed.  The elimination
    returns tau = det L0, the number of spanning trees, and
    A = adj L0 = tau * L0^-1, bordered here by zeros for vertex 0; then
    r(u,v) = (A_uu + A_vv - 2 A_uv) / tau.
    """
    if not g.is_connected():
        raise ValueError("graph is disconnected")
    n = g.n
    grounded = [row[1:] for row in _laplacian(g)[1:]]
    identity = [[int(r == c) for c in range(1, n)] for r in range(1, n)]
    tau, adj = linalg.fraction_free_solve(grounded, identity)
    a = [[0] * n] + [[0] + row for row in adj]
    nums = [[a[u][u] + a[v][v] - 2 * a[u][v] for v in range(n)] for u in range(n)]
    # Few distinct values (D on a distance-regular graph): reduce each once.
    values = {num: Fraction(num, tau) for num in set().union(*nums)}
    return [[values[num] for num in row] for row in nums]


@dataclass(frozen=True)
class ClassCheck:
    """Formula-vs-solver comparison for one distance class."""

    distance: int
    expected: Fraction
    pairs_checked: int
    mismatches: tuple[tuple[int, int, Fraction], ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


@dataclass(frozen=True)
class CrossValidation:
    graph_name: str
    drg_report: DistancePartitionReport
    classes: tuple[ClassCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.classes)


def cross_validate(g: LabeledGraph) -> CrossValidation:
    """Assert exact equality of solver resistances with the potential formula.

    Every pair of each distance class is checked.  Constancy within a
    class follows from equality with the single per-class formula value.
    """
    report = verify_drg(g)
    if not report.is_drg:
        raise ValueError(
            f"{g.name or 'graph'} is not distance-regular "
            f"({len(report.violations)} violation(s))"
        )
    if g.claimed_array is not None and report.observed_array != g.claimed_array:
        raise ValueError("observed intersection array differs from the claimed one")

    params = derive(report.observed_array)
    profile = compute_profile(params)
    rmat = resistance_matrix(g)

    pairs: list[list[tuple[int, int]]] = [[] for _ in range(report.diameter + 1)]
    for u, v in combinations(range(g.n), 2):
        pairs[report.distances[u][v]].append((u, v))
    classes = tuple(
        ClassCheck(
            distance=d,
            expected=expected,
            pairs_checked=len(pairs[d]),
            mismatches=tuple(
                (u, v, rmat[u][v]) for u, v in pairs[d] if rmat[u][v] != expected
            ),
        )
        for d, expected in enumerate(profile.resistances, start=1)
    )
    return CrossValidation(
        graph_name=g.name or "graph", drg_report=report, classes=classes
    )
