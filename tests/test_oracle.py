"""Laplacian resistance oracle and cross-validation against the formula."""

from __future__ import annotations

import copy
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations
from operator import sub

import pytest

from drg import (
    DerivedParams,
    LabeledGraph,
    PotentialProfile,
    compute_profile,
    compute_resistances,
    construct,
    cross_validate,
    derive,
    kirchhoff_certifies,
    parse_array,
    registry_names,
    resistance_matrix,
    verify_drg,
)
from drg import graphs, oracle
from test_graphs import johnson_5_2


def test_complete_graph_resistance():
    rmat = resistance_matrix(construct("complete", 4))
    for u, v in combinations(range(4), 2):
        assert rmat[u][v] == Fraction(1, 2)


def test_cube_adjacent_and_antipodal():
    rmat = resistance_matrix(construct("hypercube", 3))
    assert rmat[0][1] == Fraction(7, 12)
    assert rmat[0][7] == Fraction(5, 6)  # antipodal 000 vs 111


def test_petersen_adjacent():
    g = construct("petersen")
    u, v = g.edges[0]
    assert resistance_matrix(g)[u][v] == Fraction(3, 5)


def test_octahedron_adjacent():
    g = construct("cocktail_party", 3)
    u, v = g.edges[0]
    assert resistance_matrix(g)[u][v] == Fraction(5, 12)


def test_resistance_matrix_symmetric_and_consistent():
    g = construct("petersen")
    rmat = resistance_matrix(g)
    for u in range(g.n):
        assert rmat[u][u] == 0
        for v in range(u + 1, g.n):
            assert rmat[u][v] == rmat[v][u]
            adjacent = v in g.adjacency[u]
            assert rmat[u][v] == (Fraction(3, 5) if adjacent else Fraction(4, 5))


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


def test_cross_validate_rejects_wrong_claim_of_the_same_diameter():
    base = construct("petersen")
    g = LabeledGraph(base.n, base.edges, name="petersen-mislabelled",
                     claimed_array=parse_array("3,2;1,2"))
    with pytest.raises(oracle.NotDistanceRegular, match="not distance-regular") as exc:
        cross_validate(g)
    assert exc.value.report == verify_drg(g)
    assert {v.kind for v in exc.value.report.violations} == {"c2"}


@pytest.mark.parametrize("d", (3, 4, 5))
def test_hypercube_adjacent_resistance_matches_formula(d):
    g = construct("hypercube", d)
    b = ",".join(str(d - i) for i in range(d))
    c = ",".join(str(i + 1) for i in range(d))
    profile = compute_profile(derive(parse_array(f"{b};{c}")))
    assert resistance_matrix(g)[0][1] == profile.resistances[0]


def _with_n(params: DerivedParams, n: int) -> DerivedParams:
    """`params` with its vertex count replaced."""
    return DerivedParams(params.array, params.k, n, params.a, params.sphere_sizes, params.j)


def wrong_r1(params):
    """The formula's resistances with r_1 moved by 1/1000, so the certificate fails."""
    rs = compute_resistances(params)
    return (rs[0] + Fraction(1, 1000), *rs[1:])


def _count_traversals(monkeypatch) -> dict[str, list]:
    """Record each graph passed to graphs._certify (all sources at once) and
    each source passed to graphs._bfs (one source): the last argument of each."""
    calls = {"_certify": [], "_bfs": []}
    for name, record in calls.items():
        original = getattr(graphs, name)

        def counted(*args, original=original, record=record):
            record.append(args[-1])
            return original(*args)

        monkeypatch.setattr(graphs, name, counted)
    return calls


def test_cross_validate_runs_one_bfs_per_vertex(monkeypatch):
    # the n BFS run at once, level by level, in one call of graphs._certify
    calls = _count_traversals(monkeypatch)
    # certified, and solved for the mismatches that the wrong r_1 leaves:
    # resistance_matrix checks its own premise, g connected, by one BFS from 0
    for formula, ok, solver_bfs in ((compute_resistances, True, []), (wrong_r1, False, [0])):
        monkeypatch.setattr(oracle, "compute_resistances", formula)
        for record in calls.values():
            record.clear()
        g = construct("petersen")  # a fresh graph, which verify_drg has not counted
        assert cross_validate(g).ok is ok
        # one kernel run gives the distance matrix and shows g connected; no per-base BFS
        assert calls == {"_certify": [g], "_bfs": solver_bfs}


def test_cross_validate_builds_no_potential_profile(monkeypatch):
    # it reads the resistances alone, which compute_resistances gives without the profile
    def refuse(self, *args, **kwargs):
        raise AssertionError("a PotentialProfile was built")

    monkeypatch.setattr(PotentialProfile, "__init__", refuse)
    for name in registry_names():
        assert cross_validate(construct(name)).ok
    # the failure path, where the solver lists the mismatches, reads them too
    monkeypatch.setattr(oracle, "compute_resistances", wrong_r1)
    assert not cross_validate(construct("petersen")).ok


def test_cross_validate_scans_a_non_drg_graph_base_by_base(monkeypatch):
    calls = _count_traversals(monkeypatch)
    g = LabeledGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], name="k4-minus-edge")
    with pytest.raises(oracle.NotDistanceRegular):
        cross_validate(g)
    assert calls["_certify"] == [g]
    assert calls["_bfs"] == list(range(g.n))


def test_verify_drg_then_cross_validate_certifies_once(monkeypatch):
    calls = _count_traversals(monkeypatch)
    g = construct("petersen")
    report = verify_drg(g)
    result = cross_validate(g)
    assert calls == {"_certify": [g], "_bfs": []}
    assert result.drg_report is verify_drg(g) is report
    assert calls == {"_certify": [g], "_bfs": []}


def test_a_failing_report_is_kept_with_its_violations(monkeypatch):
    calls = _count_traversals(monkeypatch)
    g = LabeledGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], name="k4-minus-edge")
    report = verify_drg(g)
    with pytest.raises(oracle.NotDistanceRegular) as exc:
        cross_validate(g)
    assert exc.value.report is report
    assert calls == {"_certify": [g], "_bfs": list(range(g.n))}


def test_a_refusal_is_not_kept(monkeypatch):
    calls = _count_traversals(monkeypatch)
    g = LabeledGraph(4, [(0, 1), (2, 3)])
    for _ in range(2):
        with pytest.raises(ValueError, match="disconnected"):
            verify_drg(g)
    assert calls["_certify"] == [g, g]


def test_a_new_claim_or_adjacency_is_counted_again(monkeypatch):
    calls = _count_traversals(monkeypatch)
    g = construct("petersen")
    assert verify_drg(g).is_drg

    def counted_again(claim) -> graphs.DistancePartitionReport:
        for record in calls.values():
            record.clear()
        if claim is not None:
            g.claimed_array = parse_array(claim)
        report = verify_drg(g)
        assert calls["_certify"] == [g]
        return report

    # another diameter: the one diameter violation
    report = counted_again("3,2,1;1,2,3")
    assert [(v.kind, v.expected, v.observed) for v in report.violations] == [("diameter", 3, 2)]
    # the same diameter, other counts: every c_2 pair, from the per-base scan
    report = counted_again("3,2;1,2")
    assert {v.kind for v in report.violations} == {"c2"}
    assert calls["_bfs"] == list(range(g.n))
    # an equal claim in a new object is the claim counted against: kept
    report = counted_again("3,2;1,1")
    assert report.is_drg
    g.claimed_array = parse_array("3,2;1,1")
    assert verify_drg(g) is report
    assert calls["_certify"] == [g]
    # the same adjacency lists in a new tuple
    g.adjacency = tuple(list(g.adjacency))
    again = counted_again(None)
    assert again is not report and again == report


def test_cross_validate_leaves_the_kept_distances_alone():
    g = construct("heawood")
    report = verify_drg(g)
    before = copy.deepcopy(report.distances)
    assert cross_validate(g).ok
    assert report.distances == before
    assert verify_drg(g) is report


# ----------------------------------------------------------------------
# the Kirchhoff certificate that cross_validate relies on

CERTIFIED = [(name, None) for name in registry_names()] + [
    ("hypercube", d) for d in range(4, 9)
] + [("cocktail_party", 16), ("complete", 24)]


def scaled_candidate(g):
    """The formula's candidate R[u][v] = r_{d(u,v)}, scaled to integers.

    Returns (S, N, per_class) with S[u][v] = N * r_{d(u,v)} and N the lcm
    of the formula's denominators.
    """
    report = verify_drg(g)
    resistances = compute_profile(derive(report.observed_array)).resistances
    scale = math.lcm(*(r.denominator for r in resistances))
    per_class = [0] + [int(r * scale) for r in resistances]
    return [[per_class[d] for d in row] for row in report.distances], scale, per_class


@pytest.mark.parametrize("name, param", CERTIFIED)
def test_certificate_accepts_the_formula(name, param):
    g = construct(name, param)
    scaled, scale, _ = scaled_candidate(g)
    assert kirchhoff_certifies(g, scaled, scale)


@pytest.mark.parametrize("name", registry_names())
def test_certificate_rejects_each_class_moved_by_one_step(name):
    g = construct(name)
    distances = verify_drg(g).distances
    _, scale, per_class = scaled_candidate(g)
    for d in range(1, len(per_class)):
        for step in (1, -1):
            moved = list(per_class)
            moved[d] += step  # r_d moved by 1/N
            candidate = [[moved[e] for e in row] for row in distances]
            assert not kirchhoff_certifies(g, candidate, scale), (d, step)


@pytest.mark.parametrize("name", ("petersen", "hypercube", "coxeter"))
def test_certificate_rejects_one_changed_pair(name):
    g = construct(name)
    scaled, scale, _ = scaled_candidate(g)
    u, v = 1, g.n - 1
    scaled[u][v] += 1
    assert not kirchhoff_certifies(g, scaled, scale)  # not symmetric
    scaled[v][u] += 1
    assert not kirchhoff_certifies(g, scaled, scale)  # symmetric, still wrong


def test_certificate_needs_symmetry_and_a_zero_diagonal():
    # S + h 1^T + 1 a^T keeps every row of L S + 2N I constant; only the
    # zero-diagonal test and the loop's reading of row 0 as column 0,
    # which fails unless the candidate is symmetric, tell them apart.
    g = construct("petersen")
    scaled, scale, _ = scaled_candidate(g)
    skew = [[x + (u == 0) - (v == 0) for v, x in enumerate(row)] for u, row in enumerate(scaled)]
    assert not kirchhoff_certifies(g, skew, scale)  # zero diagonal, not symmetric
    shifted = [[x + 1 for x in row] for row in scaled]
    assert not kirchhoff_certifies(g, shifted, scale)  # symmetric, diagonal 1
    assert not kirchhoff_certifies(g, scaled[:-1], scale)


def kirchhoff_rows(g, scaled, scale):
    """The rows of L S + 2 scale I, each as a list of n integers."""
    return [
        [
            len(g.adjacency[u]) * x - sum(scaled[w][v] for w in g.adjacency[u])
            + 2 * scale * (u == v)
            for v, x in enumerate(row)
        ]
        for u, row in enumerate(scaled)
    ]


@pytest.mark.parametrize("name", ("petersen", "hypercube", "coxeter", "complete", "crown_5"))
def test_a_skew_shift_with_a_zero_diagonal_is_refused_by_both_rules(name):
    # S + h 1^T - 1 h^T, h not constant: a zero diagonal and every row of
    # L S + 2N I constant, so only symmetry tells it from S
    g = construct(name)
    scaled, scale, _ = scaled_candidate(g)
    rng = random.Random(name)
    h = [rng.randint(-50, 50) for _ in range(g.n)]
    h[1] = h[0] + 1
    for mult in (1, 7, -3):  # at the scales N, 7N and -3N
        s = [[mult * x for x in row] for row in scaled]
        assert both_certificates(g, s, mult * scale) == (True, True)
        skew = [[x + h[u] - h[v] for v, x in enumerate(row)] for u, row in enumerate(s)]
        assert not any(skew[u][u] for u in range(g.n))
        assert all(len(set(row)) == 1 for row in kirchhoff_rows(g, skew, mult * scale))
        assert both_certificates(g, skew, mult * scale) == (False, False)


def test_certificate_refuses_rows_that_are_not_n_long():
    g = construct("petersen")
    scaled, scale, _ = scaled_candidate(g)
    short = [list(row) for row in scaled]
    short[3].pop()
    long = [list(row) for row in scaled]
    long[3].append(0)
    for rows in (short, long, [*scaled, scaled[0]]):
        assert not kirchhoff_certifies(g, rows, scale)


def test_certificate_refuses_a_disconnected_graph():
    # no candidate passes on a disconnected graph; the public check says why
    g = LabeledGraph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="graph is disconnected"):
        kirchhoff_certifies(g, [[0] * 4] * 4, 1)


@pytest.mark.parametrize("scale", (0, -1))
def test_certificate_refuses_a_scale_that_is_not_positive(scale):
    g = construct("petersen")
    zeros = [[0] * g.n for _ in range(g.n)]
    # every row of L 0 + 0 I is constant: the packed loop alone would take 0/0
    assert oracle._certifies(g, zeros, {0: 0}, 0)
    with pytest.raises(ValueError, match="scale must be positive"):
        kirchhoff_certifies(g, zeros, scale)


def test_certificate_scale_must_match():
    g = construct("hypercube", 3)
    scaled, scale, _ = scaled_candidate(g)
    assert not kirchhoff_certifies(g, scaled, 2 * scale)
    assert kirchhoff_certifies(g, [[3 * x for x in row] for row in scaled], 3 * scale)


# ----------------------------------------------------------------------
# the packed certificate against the row-by-row rule it replaced


def row_by_row_certifies(g, scaled, scale):
    """Each row of L S + 2 scale I built as a list of n integers, then tested for constancy."""
    n = g.n
    if len(scaled) != n or [list(col) for col in zip(*scaled)] != scaled:
        return False
    if any(scaled[u][u] for u in range(n)):
        return False
    for u, row in enumerate(scaled):
        kirchhoff = [len(g.adjacency[u]) * x for x in row]
        for w in g.adjacency[u]:
            kirchhoff = list(map(sub, kirchhoff, scaled[w]))
        kirchhoff[u] += 2 * scale
        if kirchhoff.count(kirchhoff[0]) != n:
            return False
    return True


def field_bits(g, scaled, scale):
    """The packed certificate's field width w, by the rule in kirchhoff_certifies."""
    spread = max(map(max, scaled)) - min(map(min, scaled))
    bound = 2 * max(map(len, g.adjacency)) * spread + 2 * abs(scale)
    return 8 * (bound.bit_length() // 8 + 1)


def packed_certifies(g, scaled, scale):
    """kirchhoff_certifies' packed loop at any scale: the public check
    refuses a scale that is not positive, the loop itself does not."""
    if scale > 0:
        return kirchhoff_certifies(g, scaled, scale)
    with pytest.raises(ValueError, match="scale must be positive"):
        kirchhoff_certifies(g, scaled, scale)
    return oracle._certifies(g, scaled, {x: x for x in set().union(*scaled)}, scale)


def both_certificates(g, scaled, scale):
    """(packed, row by row); the public check refuses a disconnected g for both."""
    return packed_certifies(g, scaled, scale), row_by_row_certifies(g, scaled, scale)


@pytest.mark.parametrize("name, param", CERTIFIED)
def test_packed_certificate_matches_the_row_rule(name, param):
    g = construct(name, param)
    scaled, scale, _ = scaled_candidate(g)
    assert both_certificates(g, scaled, scale) == (True, True)
    report = verify_drg(g)
    rs = wrong_r1(derive(report.observed_array))
    wrong_scale = math.lcm(*(r.denominator for r in rs))
    per_class = [0] + [int(r * wrong_scale) for r in rs]
    wrong = [[per_class[d] for d in row] for row in report.distances]
    assert both_certificates(g, wrong, wrong_scale) == (False, False)


@pytest.mark.parametrize("name", ("petersen", "hypercube", "heawood", "complete", "cocktail_party"))
def test_packed_certificate_matches_the_row_rule_on_perturbed_matrices(name):
    g = construct(name)
    scaled, scale, _ = scaled_candidate(g)
    w = field_bits(g, scaled, scale)
    rng = random.Random(name)
    for step in (1, -1, 2 ** (w - 1), -(2 ** (w - 1)), 2**w, 1 - 2 ** (w - 1)):
        u, v = rng.sample(range(g.n), 2)
        for pairs in (((u, v),), ((u, v), (v, u))):  # one entry, then the symmetric pair
            moved = [list(row) for row in scaled]
            for a, b in pairs:
                moved[a][b] += step
            assert both_certificates(g, moved, scale) == (False, False), (step, pairs)
        moved = [list(row) for row in scaled]
        moved[u][u] += step
        assert both_certificates(g, moved, scale) == (False, False), (step, "diagonal")
    # every row of L S + 2 scale I moved by the same amount at field 0 and field 1
    for step in (2 ** (w - 1), 2**w):
        moved = [list(row) for row in scaled]
        for u in range(1, g.n):
            moved[u][0] += step
            moved[0][u] += step
        assert both_certificates(g, moved, scale) == (False, False), step


def test_packed_certificate_matches_the_row_rule_on_random_matrices():
    rng = random.Random(14)
    for name in ("petersen", "hypercube", "complete", "coxeter"):
        g = construct(name)
        for span in (1, 3, 2**40):
            for _ in range(20):
                s = [[0] * g.n for _ in range(g.n)]
                for u, v in combinations(range(g.n), 2):
                    s[u][v] = s[v][u] = rng.randint(-span, span)
                for scale in (1, 7, -3):
                    assert both_certificates(g, s, scale) == (False, False)


def test_packed_certificate_on_asymmetric_diagonal_and_negative_input():
    g = construct("petersen")
    scaled, scale, _ = scaled_candidate(g)
    asymmetric = [list(row) for row in scaled]
    asymmetric[0][1] += 5
    assert both_certificates(g, asymmetric, scale) == (False, False)
    diagonal = [[x + (u == v) for v, x in enumerate(row)] for u, row in enumerate(scaled)]
    assert both_certificates(g, diagonal, scale) == (False, False)
    # -S with scale -N still gives constant rows of L S + 2 scale I: both rules accept it
    negated = [[-x for x in row] for row in scaled]
    assert both_certificates(g, negated, -scale) == (True, True)
    assert both_certificates(g, negated, scale) == (False, False)
    # every off-diagonal entry shifted below zero
    shifted = [[x - 10**6 * (u != v) for v, x in enumerate(row)] for u, row in enumerate(scaled)]
    assert both_certificates(g, shifted, scale) == (False, False)
    # a single edge: R = [[0, 1], [1, 0]], scaled by N = 1 and by N = 5
    edge = LabeledGraph(2, [(0, 1)])
    assert both_certificates(edge, [[0, 1], [1, 0]], 1) == (True, True)
    assert both_certificates(edge, [[0, 5], [5, 0]], 5) == (True, True)
    assert both_certificates(edge, [[0, -1], [-1, 0]], 1) == (False, False)
    assert both_certificates(LabeledGraph(1, []), [[0]], 1) == (True, True)


def reference_mismatches(g, resistances):
    """Every pair u < v with a solved resistance other than r_{d(u,v)}, by class."""
    rmat = resistance_matrix(g)
    distances = [g.distances_from(v) for v in range(g.n)]
    return [
        tuple(
            (u, v, rmat[u][v])
            for u, v in combinations(range(g.n), 2)
            if distances[u][v] == d and rmat[u][v] != expected
        )
        for d, expected in enumerate(resistances, start=1)
    ]


@pytest.mark.parametrize("name", ("complete", "petersen", "hypercube", "heawood"))
@pytest.mark.parametrize("wrong_class", (0, -1), ids=("r_1", "r_D"))
def test_wrong_formula_lists_the_solver_mismatches(monkeypatch, name, wrong_class):
    formula = oracle.compute_resistances

    def wrong(params):
        rs = list(formula(params))
        rs[wrong_class] += Fraction(1, 1000)
        return tuple(rs)

    monkeypatch.setattr(oracle, "compute_resistances", wrong)
    g = construct(name)
    result = cross_validate(g)
    assert not result.ok
    wrong_rs = wrong(derive(g.claimed_array))
    assert [c.mismatches for c in result.classes] == reference_mismatches(g, wrong_rs)
    assert [c.expected for c in result.classes] == list(wrong_rs)
    assert sum(c.pairs_checked for c in result.classes) == g.n * (g.n - 1) // 2


def test_wrong_formula_mismatches_on_k4_are_every_pair(monkeypatch):
    monkeypatch.setattr(
        oracle,
        "compute_resistances",
        lambda params: (Fraction(1, 3),),
    )
    (cls,) = cross_validate(construct("complete", 4)).classes
    assert cls.mismatches == tuple(
        (u, v, Fraction(1, 2)) for u, v in combinations(range(4), 2)
    )


@pytest.mark.parametrize("name, param", [(name, None) for name in registry_names()] + [("hypercube", 6)])
def test_cross_validate_never_solves_when_certified(monkeypatch, name, param):
    def refuse(g):
        raise AssertionError("the solver was called")

    monkeypatch.setattr(oracle, "resistance_matrix", refuse)
    result = cross_validate(construct(name, param))
    assert result.ok
    n = len(result.drg_report.distances)
    assert sum(c.pairs_checked for c in result.classes) == n * (n - 1) // 2


@pytest.mark.parametrize("name", registry_names())
def test_resistance_matrix_equals_the_formula_at_every_pair(name):
    g = construct(name)
    report = verify_drg(g)
    resistances = (0, *compute_profile(derive(report.observed_array)).resistances)
    rmat = resistance_matrix(g)
    assert all(
        rmat[u][v] == resistances[report.distances[u][v]]
        for u in range(g.n)
        for v in range(g.n)
    )


# ----------------------------------------------------------------------
# cross_validate's certificate on the distance rows


@pytest.mark.parametrize("name", registry_names())
def test_distance_rows_and_the_matrix_give_one_verdict(name):
    g = construct(name)
    distances = verify_drg(g).distances
    _, scale, per_class = scaled_candidate(g)
    candidates = [per_class]
    for d in range(len(per_class)):
        bumped = list(per_class)
        bumped[d] += 1
        candidates.append(bumped)
    for values in candidates:
        matrix = [[values[d] for d in row] for row in distances]
        verdict = kirchhoff_certifies(g, matrix, scale)
        assert verdict is (values == per_class), values
        assert oracle._certifies(g, distances, dict(enumerate(values)), scale) is verdict


@pytest.mark.parametrize(
    "name, param", [(name, None) for name in registry_names()] + [("hypercube", d) for d in range(4, 9)]
)
def test_pairs_checked_counts_the_pairs_at_each_distance(name, param):
    result = cross_validate(construct(name, param))
    ordered_pairs = Counter(chain.from_iterable(result.drg_report.distances))
    assert [c.pairs_checked for c in result.classes] == [
        ordered_pairs[c.distance] // 2 for c in result.classes
    ]
    assert sorted(ordered_pairs) == list(range(len(result.classes) + 1))


def _solver_calls(monkeypatch) -> list:
    """Record each graph that cross_validate's solver fallback solves."""
    calls = []
    solve = oracle.resistance_matrix

    def counted(g):
        calls.append(g)
        return solve(g)

    monkeypatch.setattr(oracle, "resistance_matrix", counted)
    return calls


def _mutated(mutate, name="petersen"):
    """A fresh registry graph (of diameter 2) whose kept report's distances
    `mutate` has changed, with (v, w): a neighbour of vertex 0 and a vertex
    at distance 2 from it."""
    g = construct(name)
    distances = verify_drg(g).distances
    v = distances[0].index(1)
    w = distances[0].index(2)
    mutate(distances, v, w)
    return g, v, w


def _asymmetric(distances, v, w):
    distances[0][v] = 2  # d(v, 0) stays 1


def _diagonal(distances, v, w):
    distances[3][3] = 1


def _swapped(distances, v, w):
    # each class keeps its size: only the Kirchhoff rows tell the pairs apart
    distances[0][v] = distances[v][0] = 2
    distances[0][w] = distances[w][0] = 1


_MUTATIONS = pytest.mark.parametrize(
    "mutate, expected",
    [
        (_asymmetric, lambda v, w, r1, r2: ((), ((0, v, r1),))),
        (_diagonal, lambda v, w, r1, r2: (((3, 3, 0),), ())),
        (_swapped, lambda v, w, r1, r2: (((0, w, r2),), ((0, v, r1),))),
    ],
    ids=("asymmetric", "diagonal", "swapped"),
)


def _check_mutated(monkeypatch, mutate, expected, name, pairs_checked):
    calls = _solver_calls(monkeypatch)
    g, v, w = _mutated(mutate, name)
    result = cross_validate(g)
    assert calls == [g]
    assert not result.ok
    r1, r2 = (c.expected for c in result.classes)
    assert [c.mismatches for c in result.classes] == list(expected(v, w, r1, r2))
    assert [c.pairs_checked for c in result.classes] == pairs_checked


@_MUTATIONS
def test_a_mutated_report_reaches_the_solver(monkeypatch, mutate, expected):
    _check_mutated(monkeypatch, mutate, expected, "petersen", [15, 30])


@_MUTATIONS
def test_a_mutated_dense_report_reaches_the_solver(monkeypatch, mutate, expected):
    # the octahedron, 4m = 48 > n(n-1) = 30: the certificate sums non-neighbourhoods
    _check_mutated(monkeypatch, mutate, expected, "cocktail_party", [12, 3])


def _asymmetric_below(distances, v, w):
    distances[v][0] = 2  # d(0, v) stays 1


def _check_asymmetric_below(monkeypatch, name):
    # the solver lists pairs u <= v, so it reads d(v, 0) only through the premise
    calls = _solver_calls(monkeypatch)
    g, v, w = _mutated(_asymmetric_below, name)
    cross_validate(g)
    assert calls == [g]


def test_an_asymmetric_lower_triangle_reaches_the_solver(monkeypatch):
    _check_asymmetric_below(monkeypatch, "petersen")


def test_an_asymmetric_lower_triangle_of_a_dense_graph_reaches_the_solver(monkeypatch):
    _check_asymmetric_below(monkeypatch, "cocktail_party")


def test_johnson_5_2_passes_the_oracle_at_every_pair(monkeypatch):
    # J(5,2), the complement of Petersen and outside the registry, is dense:
    # 4m = 120 > n(n-1) = 90, so both packed kernels sum non-neighbourhoods
    calls = _solver_calls(monkeypatch)
    g = johnson_5_2(parse_array("6,2;1,4"))
    report = verify_drg(g)
    assert report.is_drg and report.observed_array == parse_array("6,2;1,4")
    result = cross_validate(g)
    assert calls == [] and result.ok and result.drg_report is report
    assert [c.pairs_checked for c in result.classes] == [30, 15]
    per_class = (0, *(c.expected for c in result.classes))
    rmat = resistance_matrix(g)
    assert all(
        rmat[u][v] == per_class[d]
        for u, row in enumerate(report.distances)
        for v, d in enumerate(row)
    )


def test_an_array_of_another_order_reaches_the_solver(monkeypatch):
    # params.n is off by one while the formula still sees the true n, so
    # the certificate would pass: only the premise n == g.n stops it
    calls = _solver_calls(monkeypatch)
    g = construct("heawood")

    def other_n(array):
        params = derive(array)
        return _with_n(params, params.n + 1)

    monkeypatch.setattr(oracle, "derive", other_n)
    monkeypatch.setattr(
        oracle, "compute_resistances", lambda params: compute_resistances(_with_n(params, g.n))
    )
    result = cross_validate(g)
    assert calls == [g]
    assert result.ok  # the solver finds the formula's values at every pair
    assert [c.pairs_checked for c in result.classes] == [21, 42, 28]
