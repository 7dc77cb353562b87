"""Independent reference values for checking drg's results.

Nothing here imports drg.  Every expected value is recomputed from the
intersection array (or, for graphs, from the edge list) by a route other
than the one the program takes:

* sphere sizes by exact integer division, not cumulative fractions;
* potentials in cut form, phi_i = k * |{vertices beyond distance i}| /
  |edges from K_i to K_{i+1}|, which is the recursion
  phi_i = (c_i phi_{i-1} - k) / b_i solved in closed form;
* rho = r_D / r_1 - 1 rather than (phi_1 + ... + phi_{D-1}) / phi_0;
* intersection arrays of explicit graphs by a separate BFS count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

TARGET_K3 = Fraction(2)
TARGET_OPTIMAL = Fraction(93, 100)
BIGGS_SMITH = ((3, 2, 2, 2, 1, 1, 1), (1, 1, 1, 1, 1, 1, 3))
BIGGS_SMITH_RATIO = Fraction(94, 101)

Array = tuple[tuple[int, ...], tuple[int, ...]]


def array_text(arr: Array) -> str:
    b, c = arr
    return ",".join(map(str, b)) + ";" + ",".join(map(str, c))


def sphere_sizes(arr: Array) -> list[int] | None:
    """k_0, ..., k_D from k_{i+1} = k_i b_i / c_{i+1}; None if one is fractional."""
    sizes = [1]
    for b_i, c_next in zip(*arr):
        q, r = divmod(sizes[-1] * b_i, c_next)
        if r:
            return None
        sizes.append(q)
    return sizes


def feasible(arr: Array) -> bool:
    """The standard necessary conditions, as drg.arrays.validate states them."""
    b, c = arr
    D, k = len(b), b[0]
    if D > 1 and not (b[0] > b[1] and all(b[i] >= b[i + 1] for i in range(1, D - 1))):
        return False
    if any(c[i] > c[i + 1] for i in range(D - 1)):
        return False
    if any(b[i] < c[j - 1] for i in range(D) for j in range(1, D - i + 1)):
        return False
    sizes = sphere_sizes(arr)
    if sizes is None:
        return False
    if any(k - (b[i] if i < D else 0) - c[i - 1] < 0 for i in range(1, D + 1)):
        return False
    return sum(sizes) * k % 2 == 0


@dataclass(frozen=True)
class Profile:
    """Expected analysis of one feasible array."""

    arr: Array
    n: int
    phi: tuple[Fraction, ...]
    resistances: tuple[Fraction, ...]
    rho: Fraction
    verdict_k3: bool
    verdict_optimal: bool


def profile(arr: Array) -> Profile:
    b, c = arr
    k = b[0]
    sizes = sphere_sizes(arr)
    n = sum(sizes)
    beyond = n - 1  # vertices at distance > i, starting at i = 0
    phi = []
    for i, b_i in enumerate(b):
        phi.append(Fraction(k * beyond, sizes[i] * b_i))
        beyond -= sizes[i + 1]
    resistances = []
    total = Fraction(0)
    for p in phi:
        total += p
        resistances.append(2 * total / (n * k))
    rho = resistances[-1] / resistances[0] - 1
    if arr == BIGGS_SMITH:
        # the unique extremal array: the optimal bound holds with equality
        verdict_optimal = rho == BIGGS_SMITH_RATIO
    else:
        verdict_optimal = rho < TARGET_OPTIMAL
    return Profile(
        arr=arr,
        n=n,
        phi=tuple(phi),
        resistances=tuple(resistances),
        rho=rho,
        verdict_k3=rho < TARGET_K3,
        verdict_optimal=verdict_optimal,
    )


# ----------------------------------------------------------------------
# classical families

def hamming(d: int, q: int) -> Array:
    """H(d, q): b_i = (d - i)(q - 1), c_i = i."""
    return tuple((d - i) * (q - 1) for i in range(d)), tuple(range(1, d + 1))


def johnson(v: int, e: int) -> Array:
    """J(v, e): b_i = (e - i)(v - e - i), c_i = i^2, diameter min(e, v - e)."""
    D = min(e, v - e)
    return (
        tuple((e - i) * (v - e - i) for i in range(D)),
        tuple(i * i for i in range(1, D + 1)),
    )


def odd(m: int) -> Array:
    """Odd graph O_m: b = (m, m-1, m-1, m-2, m-2, ...), c = (1, 1, 2, 2, ...)."""
    D = m - 1
    return (
        tuple(m - (i + 1) // 2 for i in range(D)),
        tuple((i + 1) // 2 for i in range(1, D + 1)),
    )


def complete(m: int) -> Array:
    return (m - 1,), (1,)


def cocktail_party(m: int) -> Array:
    return (2 * m - 2, 1), (1, 2 * m - 2)


# ----------------------------------------------------------------------
# explicit graphs

def intersection_array_of(n: int, edges) -> Array | None:
    """The array of a distance-regular graph on 0..n-1, or None if it is not one."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    up: dict[int, int] = {}
    down: dict[int, int] = {}
    for x in range(n):
        dist = [-1] * n
        dist[x] = 0
        frontier = [x]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if dist[w] < 0:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        if min(dist) < 0:
            return None
        for y in range(n):
            i = dist[y]
            b_i = sum(1 for w in adj[y] if dist[w] == i + 1)
            c_i = sum(1 for w in adj[y] if dist[w] == i - 1)
            if up.setdefault(i, b_i) != b_i or down.setdefault(i, c_i) != c_i:
                return None
    D = max(up)
    return tuple(up[i] for i in range(D)), tuple(down[i] for i in range(1, D + 1))
