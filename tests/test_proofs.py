"""Case classification, bound traces and f-unimodality."""

from __future__ import annotations

from fractions import Fraction

import pytest

from drg import (
    BIGGS_SMITH_RATIO,
    CaseId,
    classify_case,
    compute_profile,
    derive,
    f_unimodality,
    f_value,
    parse_array,
    prove_k3,
    prove_optimal,
)
from drg.proofs import K3_MAX_B1, _deep_head

OPTIMAL = Fraction(93, 100)


def profile_of(text: str):
    return compute_profile(derive(parse_array(text)))


def steps_by_label(trace):
    out = {}
    for s in trace.steps:
        out.setdefault(s.label, s)
    return out


# ----------------------------------------------------------------------
# f unimodality

def test_f_value_small():
    assert f_value(2, 1) == Fraction(1, 8)  # (1/2) * (1/2) / 2


def test_f_rejects_b1_below_2():
    with pytest.raises(ValueError):
        f_value(1, 3)
    with pytest.raises(ValueError):
        f_unimodality(1)


@pytest.mark.parametrize("b1", range(2, 13))
def test_f_unimodality_rises_then_falls(b1):
    steps = f_unimodality(b1)
    assert len(steps) == 3 * b1
    for s in steps:
        assert s.rising == (s.i <= b1 - 1)
        assert s.holds, (b1, s.i, s.ratio)


def test_f_peak_at_b1():
    b1 = 5
    values = [f_value(b1, i) for i in range(1, 3 * b1 + 1)]
    assert max(values) == f_value(b1, b1)


# ----------------------------------------------------------------------
# classifier

@pytest.mark.parametrize(
    "text,expected",
    [
        ("3;1", CaseId.D1_TRIVIAL),
        ("4,1;1,4", CaseId.COCKTAIL),
        ("3,2;1,1", CaseId.CASE1_D2),
        ("3,2,1;1,2,3", CaseId.CASE2_SMALL_VALENCY),
        ("4,2,2,2;1,1,1,2", CaseId.CASE2_SMALL_VALENCY),
        ("5,3,1;1,1,5", CaseId.CASE3_C2_EQ_1),
        ("6,3,2;1,1,6", CaseId.CASE3_C2_EQ_1),
        ("8,6,4,2;1,2,3,4", CaseId.CASE4_J3),  # Hamming H(4,3)
        ("15,6,1;1,6,15", CaseId.CASE5_QUADRANGLE),  # halved 6-cube
        ("10,8,6,4,2;1,2,3,4,5", CaseId.CASE6_TERWILLIGER),  # Hamming H(5,3)
        ("100,60,60,60;1,2,2,2", CaseId.CASE6_TERWILLIGER),
    ],
)
def test_classify(text, expected):
    assert classify_case(derive(parse_array(text))) == expected


# ----------------------------------------------------------------------
# rho < 2 traces

def test_k3_requires_valency_3():
    with pytest.raises(ValueError):
        prove_k3(profile_of("2,1;1,2"))


def test_k3_trivial_diameter_one():
    trace = prove_k3(profile_of("3;1"))
    assert trace.case_id == CaseId.D1_TRIVIAL
    assert trace.rho == 0
    assert trace.verdict and trace.all_steps_hold


def test_k3_trivial_cocktail():
    trace = prove_k3(profile_of("4,1;1,4"))
    assert trace.case_id == CaseId.COCKTAIL
    assert trace.rho == Fraction(1, 5)
    assert trace.verdict and trace.all_steps_hold


def test_k3_cube_head_tail_values():
    trace = prove_k3(profile_of("3,2,1;1,2,3"))
    steps = steps_by_label(trace)
    # b_1 = 2, j = 2: head 1/2, tail (3/2)*(1/2)^0*(1/2) = 3/4
    assert steps["head_tail_bound"].rhs == Fraction(5, 4)
    assert steps["geometric_head"].lhs == 1
    assert trace.verdict and trace.all_steps_hold


def test_k3_biggs_smith():
    trace = prove_k3(profile_of("3,2,2,2,1,1,1;1,1,1,1,1,1,3"))
    assert trace.rho == BIGGS_SMITH_RATIO
    assert trace.verdict and trace.all_steps_hold


def test_k3_foster():
    trace = prove_k3(profile_of("3,2,2,2,2,1,1,1;1,1,1,1,2,2,2,3"))
    assert trace.rho == Fraction(319, 356)
    assert trace.verdict and trace.all_steps_hold


def test_k3_petersen_full_trace():
    trace = prove_k3(profile_of("3,2;1,1"))
    assert trace.rho == Fraction(1, 3)
    assert trace.verdict and trace.all_steps_hold


# ----------------------------------------------------------------------
# rho < 93/100 traces, case by case

def test_optimal_requires_valency_3():
    with pytest.raises(ValueError):
        prove_optimal(profile_of("2,1;1,2"))


def test_optimal_biggs_smith_extremal():
    trace = prove_optimal(profile_of("3,2,2,2,1,1,1;1,1,1,1,1,1,3"))
    assert trace.case_id == CaseId.CASE2_SMALL_VALENCY
    assert trace.extremal
    assert trace.rho == BIGGS_SMITH_RATIO
    assert trace.verdict and trace.all_steps_hold
    assert not trace.rho < OPTIMAL  # genuinely at the boundary


def test_optimal_tutte_12cage():
    trace = prove_optimal(profile_of("3,2,2,2,2,2;1,1,1,1,1,3"))
    assert trace.rho == Fraction(109, 125)  # 0.872 exactly
    assert trace.verdict and not trace.extremal


def test_optimal_gh33():
    trace = prove_optimal(profile_of("4,3,3,3,3,3;1,1,1,1,1,4"))
    assert trace.rho == Fraction(353, 727)
    assert trace.verdict


def test_optimal_case1_petersen():
    trace = prove_optimal(profile_of("3,2;1,1"))
    assert trace.case_id == CaseId.CASE1_D2
    assert trace.verdict and trace.all_steps_hold


def test_optimal_cocktail_direct():
    trace = prove_optimal(profile_of("4,1;1,4"))
    assert trace.case_id == CaseId.COCKTAIL
    assert trace.verdict and trace.all_steps_hold


def test_optimal_case2_unclassified_for_unknown_small_valency():
    # passes the feasibility conditions but is not a real cubic DRG
    trace = prove_optimal(profile_of("3,2,2;1,1,2"))
    assert trace.case_id == CaseId.UNCLASSIFIED
    assert not trace.proof_path_available
    assert trace.verdict  # rho = 1/2 < 93/100, computed directly


def test_optimal_case3_j2():
    trace = prove_optimal(profile_of("5,3,1;1,1,5"))
    assert trace.case_id == CaseId.CASE3_C2_EQ_1
    assert trace.branch == "j2"
    assert trace.rho == Fraction(7, 23)
    assert trace.verdict and trace.all_steps_hold


def test_optimal_case3_j3():
    trace = prove_optimal(profile_of("6,3,2;1,1,6"))
    assert trace.branch == "j3"
    assert trace.rho == Fraction(9, 30)
    assert trace.verdict and trace.all_steps_hold


def test_optimal_case3_subcase1():
    trace = prove_optimal(profile_of("7,6,5,4;1,1,1,7"))
    assert trace.branch == "subcase1_ratio3"
    assert trace.alpha == Fraction(4, 5)
    assert trace.verdict and trace.all_steps_hold


def test_optimal_case3_subcase1_b1_3():
    # b_1 = 3 takes the j = 4 peak variant; k = 6 avoids the valency table
    trace = prove_optimal(profile_of("6,3,3,3;1,1,1,6"))
    assert trace.branch == "subcase1_ratio3"
    assert trace.alpha == Fraction(1, 2)
    assert trace.rho == Fraction(43, 105)
    assert trace.verdict and trace.all_steps_hold


def test_optimal_case3_subcase2_j4():
    trace = prove_optimal(profile_of("7,6,2,2;1,1,1,7"))
    assert trace.branch == "subcase2_product4"
    assert trace.verdict and trace.all_steps_hold


def test_optimal_case3_subcase2_deep_b1_6():
    trace = prove_optimal(profile_of("7,6,2,2,2;1,1,1,1,7"))
    assert trace.branch == "subcase2_product4"
    assert trace.verdict and trace.all_steps_hold


def test_optimal_case3_subcase2_deep_b1_5():
    trace = prove_optimal(profile_of("6,5,2,2,2;1,1,1,1,6"))
    assert trace.branch == "subcase2_product4"
    assert trace.verdict and trace.all_steps_hold


def test_optimal_case3_subcase2_deep_b1_3():
    trace = prove_optimal(profile_of("6,3,2,2,2;1,1,1,1,6"))
    assert trace.branch == "subcase2_product4"
    assert trace.verdict and trace.all_steps_hold


def test_optimal_case4_branch_deep_c3_real_hamming():
    trace = prove_optimal(profile_of("8,6,4,2;1,2,3,4"))
    assert trace.case_id == CaseId.CASE4_J3
    assert trace.branch == "c3_gt_b3"
    assert trace.rho == Fraction(18, 80)
    assert trace.verdict and trace.all_steps_hold


def test_optimal_case4_branch_deep_c3_at_diameter():
    # j = 3 = D, so b_3 is the empty sphere count 0 and c_3 > b_3
    trace = prove_optimal(profile_of("10,3,3;1,2,3"))
    assert trace.branch == "c3_gt_b3"
    assert trace.assumption_dependent  # b_1 = 3 with c_2 > 1 is vacuous for real graphs
    assert trace.verdict


def test_optimal_case4_branch_flat_c3_half():
    trace = prove_optimal(profile_of("9,4,4,3;1,2,3,3"))
    assert trace.branch == "c3_eq_b3_half"
    assert trace.rho == Fraction(17, 50)
    assert trace.verdict and trace.all_steps_hold


def test_optimal_case4_branch_flat_c3_quadrangle_synthetic():
    # not realizable: the trusted diameter bound D <= 2k/(k+1-b_1) fails
    # honestly while the verdict still comes from the exact ratio
    trace = prove_optimal(profile_of("8,4,3,3;1,2,3,3"))
    assert trace.branch == "c3_eq_b3_quadrangle"
    steps = steps_by_label(trace)
    assert steps["quad_cond"].holds
    assert not steps["diameter_quad"].holds
    assert trace.verdict
    assert not trace.all_steps_hold


def test_optimal_case5_split_j2_real_halved_cube():
    trace = prove_optimal(profile_of("15,6,1;1,6,15"))
    assert trace.case_id == CaseId.CASE5_QUADRANGLE
    assert trace.branch == "split_j2"
    assert trace.rho == Fraction(11, 93)
    assert trace.verdict and trace.all_steps_hold


def test_optimal_case5_quadrangle_synthetic():
    trace = prove_optimal(profile_of("8,3,3,3;1,2,2,3"))
    assert trace.branch == "quadrangle"
    assert trace.assumption_dependent
    assert trace.verdict  # rho = 5/14
    steps = steps_by_label(trace)
    assert steps["quad_cond"].holds
    assert not steps["diameter_quad"].holds  # unrealizable shape, flagged honestly


def test_optimal_case6_all_preconditions_met():
    trace = prove_optimal(profile_of("100,60,60,60;1,2,2,2"))
    assert trace.case_id == CaseId.CASE6_TERWILLIGER
    assert trace.assumption_dependent
    assert trace.verdict and trace.all_steps_hold


@pytest.mark.parametrize("s, lead", [(3, 2), (4, 3)])
def test_deep_head_closed_form_matches_the_sum_term_by_term(s, lead):
    # chain = lead/(2 b1) + (1 + alpha2 + ... + alpha2^(j-s) + (j - 1/2) alpha2^(j-s))/(s b1);
    # the geometric limit replaces the finite sum by 1/(1 - alpha2)
    for b1 in range(3, 31):
        alpha2 = Fraction(b1 - 2, b1 - 1)
        for j in range(s, s + 26):
            weight = (j - Fraction(1, 2)) * alpha2 ** (j - s)
            head = sum((alpha2**i for i in range(j - s + 1)), Fraction(0))
            chain = Fraction(lead, 2 * b1) + (head + weight) / (s * b1)
            limit = Fraction(lead, 2 * b1) + (1 / (1 - alpha2) + weight) / (s * b1)
            assert _deep_head(b1, j, s) == (chain, limit), (b1, j)


def test_optimal_case6_real_hamming_fails_preconditions():
    # H(5,3) contains quadrangles; the array-level sufficient condition
    # cannot see them, and the Terwilliger preconditions fail loudly
    trace = prove_optimal(profile_of("10,8,6,4,2;1,2,3,4,5"))
    assert trace.case_id == CaseId.CASE6_TERWILLIGER
    steps = steps_by_label(trace)
    assert not steps["k_cap"].holds
    assert not steps["b1_large"].holds
    assert trace.verdict  # rho ~ 0.176 still far below the target


def test_trace_rho_matches_profile_on_corpus(corpus):
    for arr in corpus:
        if arr.k < 3:
            continue
        prof = compute_profile(derive(arr))
        trace = prove_optimal(prof)
        assert trace.rho == prof.ratio
        if trace.extremal:
            assert trace.verdict == (trace.rho == BIGGS_SMITH_RATIO)
        else:
            assert trace.verdict == (trace.rho < OPTIMAL)
        k3 = prove_k3(prof)
        assert k3.verdict == (prof.ratio < 2)


def test_trace_render_format():
    trace = prove_k3(profile_of("3,2,1;1,2,3"))
    text = trace.render()
    assert "head_tail_bound: 3/7 (≈ 0.428571) <= 5/4 (≈ 1.250000) [OK]" in text
    assert text.splitlines()[-1] == "verdict: OK"


def complete_bipartite(m: int) -> str:
    """K_{m,m}: valency m, diameter 2, b_1 = m - 1."""
    return f"{m},{m - 1};1,{m}"


def test_prove_k3_proves_at_the_b1_cap():
    trace = prove_k3(profile_of(complete_bipartite(K3_MAX_B1 + 1)))
    assert trace.alpha == Fraction(K3_MAX_B1 - 1, K3_MAX_B1)
    assert trace.verdict and trace.all_steps_hold


def test_prove_k3_refuses_b1_above_the_cap():
    profile = profile_of(complete_bipartite(K3_MAX_B1 + 2))
    with pytest.raises(ValueError, match=f"b_1 = {K3_MAX_B1 + 1} is above {K3_MAX_B1}"):
        prove_k3(profile)
