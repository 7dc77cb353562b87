"""Potentials, resistances and the per-array inequality checks."""

from __future__ import annotations

from fractions import Fraction

import pytest

from drg import (
    IntersectionArray,
    catalog_list,
    check_resistance_cap,
    compute_potentials_explicit,
    compute_profile,
    compute_ratio,
    compute_resistances,
    construct,
    derive,
    parse_array,
    registry_names,
    step_inequalities,
    tail_sum_check,
    validate,
)
from drg.graphs import FAMILIES
from test_array_layer import _hamming, _johnson


def profile_of(text: str):
    return compute_profile(derive(parse_array(text)))


def test_recursion_cube():
    phi = profile_of("3,2,1;1,2,3").phi
    assert phi == (7, 2, 1)


def test_recursion_complete_graph():
    phi = profile_of("3;1").phi
    assert phi == (3,)


def test_recursion_heawood():
    phi = profile_of("3,2,2;1,1,3").phi
    assert phi == (13, 5, 1)


def test_recursion_dodecahedron():
    phi = profile_of("3,2,1,1,1;1,1,1,2,3").phi
    assert phi == (19, 8, 5, 2, 1)


def test_explicit_cube_terms():
    p = derive(parse_array("3,2,1;1,2,3"))
    phi = compute_potentials_explicit(p)
    assert phi[2] == 1  # 3 * (1/3)
    assert phi[0] == 7  # 3 * (1 + 1 + 1/3)


def test_explicit_petersen():
    p = derive(parse_array("3,2;1,1"))
    assert compute_potentials_explicit(p)[1] == 3


def test_recursion_equals_explicit_on_corpus(corpus):
    for arr in corpus:
        p = derive(arr)
        assert compute_profile(p).phi == compute_potentials_explicit(p)


def _assert_one_rho(arr: IntersectionArray) -> None:
    """compute_ratio is the profile's ratio, and both are the closed form's
    (phi_1 + ... + phi_{D-1})/phi_0, which shares no code with them."""
    p = derive(arr)
    phi = compute_potentials_explicit(p)
    rho = compute_ratio(p)
    assert type(rho) is Fraction
    assert rho == compute_profile(p).ratio == sum(phi[1:]) / phi[0], arr


def test_compute_ratio_is_the_profile_ratio_on_corpus_and_catalog(corpus):
    for arr in corpus:
        _assert_one_rho(arr)
    rows = catalog_list()
    assert len(rows) == 26
    for entry in rows:
        _assert_one_rho(entry.array)
        assert entry.ratio == compute_profile(derive(entry.array)).ratio


def test_compute_ratio_is_the_profile_ratio_on_families_to_diameter_60():
    for d in range(1, 61):
        for q in (2, 3, 7):
            _assert_one_rho(_hamming(d, q))
        for v in (2 * d, 2 * d + 1, 2 * d + 5):
            _assert_one_rho(_johnson(v, d))


def _assert_resistances(arr: IntersectionArray) -> None:
    """compute_resistances is the profile's resistances, and both are
    r_j = 2*(phi_0 + ... + phi_{j-1})/(nk) from the closed form."""
    p = derive(arr)
    phi = compute_potentials_explicit(p)
    rs = compute_resistances(p)
    assert type(rs) is tuple and {type(r) for r in rs} == {Fraction}
    assert rs == compute_profile(p).resistances, arr
    assert rs == tuple(2 * sum(phi[:j]) / (p.n * p.k) for j in range(1, arr.D + 1)), arr


def test_compute_resistances_are_the_profile_resistances(corpus):
    for arr in corpus:
        _assert_resistances(arr)
    for entry in catalog_list():
        _assert_resistances(entry.array)
    for name in registry_names():
        _assert_resistances(construct(name).claimed_array)
    for _, _, _, claim, _ in FAMILIES.values():
        for p in range(2, 41):
            _assert_resistances(IntersectionArray(*claim(p)))


def test_compute_ratio_at_the_edges():
    assert compute_ratio(derive(parse_array("5;1"))) == 0  # D = 1: an empty sum
    cocktail = parse_array("6,1;1,6")  # K_{4x2}, b_1 = 1
    assert compute_ratio(derive(cocktail)) == Fraction(1, 7)
    _assert_one_rho(cocktail)
    _assert_one_rho(_hamming(16, 10**1000))  # entries of 1000 digits


def test_phi0_is_n_minus_1_on_corpus(corpus):
    for arr in corpus:
        p = derive(arr)
        assert compute_profile(p).phi[0] == p.n - 1


def telescoped_groups(params, i):
    """Grouped terms of the telescoped expansion of (phi_{i-1} - phi_i)/k, 1 <= i <= D-1.

    With A_m = (b_i...b_{i+m-1})/(c_i...c_{i+m}) and B_m the same shifted
    one index right, the groups are A_m - B_m for 0 <= m < D-i, followed by
    the trailing term A_{D-i-1} * b_{D-1}/c_D.  Conditions (i)/(ii) make
    every group >= 0 and the trailing term > 0: the strict-decrease lemma.
    """
    b, c = params.array.b, params.array.c
    D = len(b)
    a_num, a_den = 1, c[i - 1]
    b_num, b_den = 1, c[i]
    groups = []
    for m in range(D - i):
        if m > 0:
            a_num *= b[i + m - 1]
            a_den *= c[i + m - 1]
            b_num *= b[i + m]
            b_den *= c[i + m]
        groups.append(Fraction(a_num, a_den) - Fraction(b_num, b_den))
    return (*groups, Fraction(a_num * b[D - 1], a_den * c[D - 1]))


def test_telescoping_cube():
    p = derive(parse_array("3,2,1;1,2,3"))
    assert p.k * sum(telescoped_groups(p, 1)) == 5  # phi_0 - phi_1 = 7 - 2
    assert p.k * sum(telescoped_groups(p, 2)) == 1  # phi_1 - phi_2 = 2 - 1


def test_telescoping_heawood():
    p = derive(parse_array("3,2,2;1,1,3"))
    assert p.k * sum(telescoped_groups(p, 2)) == 4  # 5 - 1


def test_telescoping_structure_on_corpus(corpus):
    for arr in corpus:
        if arr.D < 2:
            continue
        p = derive(arr)
        phi = compute_profile(p).phi
        for i in range(1, arr.D):
            terms = telescoped_groups(p, i)
            assert all(t >= 0 for t in terms[:-1])
            assert terms[-1] > 0
            assert p.k * sum(terms) == phi[i - 1] - phi[i]


def test_strict_decrease_and_positivity_on_corpus(corpus):
    for arr in corpus:
        phi = compute_profile(derive(arr)).phi
        assert phi[-1] > 0
        for i in range(arr.D - 1):
            assert phi[i] > phi[i + 1]


def test_resistances_cube():
    prof = profile_of("3,2,1;1,2,3")
    assert prof.resistances == (Fraction(7, 12), Fraction(3, 4), Fraction(5, 6))


def test_resistances_complete_and_petersen():
    assert profile_of("3;1").resistances == (Fraction(1, 2),)
    assert profile_of("3,2;1,1").resistances == (Fraction(3, 5), Fraction(4, 5))


def test_resistances_strictly_increasing_on_corpus(corpus):
    for arr in corpus:
        res = compute_profile(derive(arr)).resistances
        assert all(res[i] < res[i + 1] for i in range(len(res) - 1))


def test_k_effective_identity_on_corpus(corpus):
    for arr in corpus:
        prof = compute_profile(derive(arr))
        assert prof.k_effective == 1 + prof.ratio
        assert prof.k_effective == prof.resistances[-1] / prof.resistances[0]


def test_resistance_cap_examples():
    cap = check_resistance_cap(profile_of("3,2,1;1,2,3"))
    assert cap.label == "resistance_cap"
    assert (cap.lhs, cap.relation, cap.rhs) == (Fraction(5, 6), "<", Fraction(4, 3))
    assert cap.holds
    cap = check_resistance_cap(profile_of("3;1"))
    assert (cap.lhs, cap.relation, cap.rhs) == (Fraction(1, 2), "<", Fraction(4, 3))
    assert cap.holds


def test_resistance_cap_biggs_smith():
    prof = profile_of("3,2,2,2,1,1,1;1,1,1,1,1,1,3")
    assert prof.resistances[-1] == Fraction(65, 51)
    cap = check_resistance_cap(prof)
    assert cap.lhs == prof.resistances[-1]
    assert cap.holds and prof.resistances[-1] < cap.rhs


def test_resistance_cap_on_corpus(corpus):
    for arr in corpus:
        assert check_resistance_cap(compute_profile(derive(arr))).holds, arr


def test_tail_bound_cube():
    prof = profile_of("3,2,1;1,2,3")
    check = tail_sum_check(prof)
    assert prof.params.j == 2
    assert (check.label, check.lhs, check.relation, check.rhs) == ("tail_bound", 1, "<=", 3)
    assert check.holds


def test_tail_bound_petersen_empty_tail():
    prof = profile_of("3,2;1,1")
    check = tail_sum_check(prof)
    assert prof.params.j == 2
    assert check.label == "tail_bound"
    assert check.lhs == 0
    assert check.relation == "<="
    assert check.rhs == Fraction(9, 2)
    assert check.holds


def test_tail_bound_dodecahedron():
    # split at j = 2: phi_2 + phi_3 + phi_4 = 8 against (3/2) * phi_1 = 12
    prof = profile_of("3,2,1,1,1;1,1,1,2,3")
    check = tail_sum_check(prof)
    assert prof.params.j == 2
    assert (check.label, check.lhs, check.relation, check.rhs) == ("tail_bound", 8, "<=", 12)
    assert check.holds


def test_tail_bound_on_corpus(corpus):
    for arr in corpus:
        assert tail_sum_check(compute_profile(derive(arr))).holds, arr


def test_ratio_below_two_on_corpus(corpus):
    for arr in corpus:
        assert compute_profile(derive(arr)).ratio < 2, arr


def test_step_inequalities_cube():
    steps = step_inequalities(profile_of("3,2,1;1,2,3"))
    by_label = {s.label: s for s in steps}
    assert len(by_label) == len(steps)
    s = by_label["recursion_ratio[1]"]
    assert (s.lhs, s.relation, s.rhs) == (2, "<", Fraction(7, 2))
    s = by_label["initial_drop[1]"]
    assert (s.lhs, s.relation, s.rhs) == (2, "<", Fraction(7, 2))
    # c_2 >= b_2, so no head contraction at i = 2
    assert "head_contraction[2]" not in by_label
    s = by_label["recursion_ratio[2]"]
    assert (s.lhs, s.relation, s.rhs) == (1, "<", 4)
    assert all(s.holds for s in steps)


def test_step_inequalities_heawood():
    steps = step_inequalities(profile_of("3,2,2;1,1,3"))
    drop = next(s for s in steps if s.label == "initial_drop[1]")
    assert (drop.lhs, drop.relation, drop.rhs) == (5, "<", Fraction(13, 2))
    assert all(s.holds for s in steps)


def test_step_inequalities_preconditions():
    with pytest.raises(ValueError):
        step_inequalities(profile_of("3;1"))
    with pytest.raises(ValueError):
        step_inequalities(profile_of("4,1;1,4"))


def test_step_inequalities_on_corpus(corpus):
    for arr in corpus:
        if arr.D < 2 or arr.b[1] < 2:
            continue
        assert all(s.holds for s in step_inequalities(compute_profile(derive(arr))))


# ----------------------------------------------------------------------
# boundary: the bounds are theorems about realizable graphs, and fail for
# some feasible-but-unrealizable arrays once D >= 5

def test_unrealizable_array_can_break_resistance_cap():
    arr = parse_array("3,2,1,1,1;1,1,1,1,1")
    assert validate(arr).passed
    prof = compute_profile(derive(arr))
    assert prof.resistances[-1] == Fraction(19, 14) > Fraction(4, 3)
    assert not check_resistance_cap(prof).holds


def test_unrealizable_array_can_break_tail_bound():
    arr = parse_array("3,2,1,1,1,1;1,1,1,1,1,3")
    assert validate(arr).passed
    assert not tail_sum_check(compute_profile(derive(arr))).holds


def test_unrealizable_array_can_reach_ratio_two():
    arr = parse_array("3,1,1,1,1;1,1,1,1,1")
    assert validate(arr).passed
    assert compute_profile(derive(arr)).ratio == 2
