"""Case classification, bound traces and f-unimodality."""

from __future__ import annotations

import json
import re
from fractions import Fraction

import pytest

from drg import (
    BIGGS_SMITH_RATIO,
    CaseId,
    classify_case,
    compute_profile,
    derive,
    format_array,
    parse_array,
    proofs,
    prove_k3,
    prove_optimal,
    step_inequalities,
    tail_sum_check,
)
from drg.arrays import is_cocktail_party
from drg.proofs import (
    CASES,
    TraceStep,
    _alpha,
    _deep_head,
    _deep_lemma,
    _ending,
    _k3_lemma,
    f_ratio,
)
from test_array_layer import (
    TRACES,
    _johnson,
    _named_or_parsed,
    f_value,
    feasible_arrays,
)
from test_golden import PROOF_ARRAYS

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

@pytest.mark.parametrize("b1", range(2, 13))
def test_f_unimodality_rises_then_falls(b1):
    for i in range(1, b1):
        assert f_ratio(b1, i) > 1, (b1, i)
    for i in range(b1, 3 * b1 + 1):
        assert f_ratio(b1, i) < 1, (b1, i)


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


def classify_reference(params) -> CaseId:
    """The if-chain that routed the cases before the `CASES` table."""
    arr = params.array
    D = arr.D
    if D == 1:
        return CaseId.D1_TRIVIAL
    if is_cocktail_party(arr):
        return CaseId.COCKTAIL
    if D <= 2:
        return CaseId.CASE1_D2
    if params.k in (3, 4):
        return CaseId.CASE2_SMALL_VALENCY
    b1 = arr.b[1]
    c2 = arr.c[1]
    if b1 >= 3 and c2 == 1:
        return CaseId.CASE3_C2_EQ_1
    if b1 >= 3 and params.j == 3 and c2 > 1:
        return CaseId.CASE4_J3
    if 2 * c2 > arr.b[2]:
        return CaseId.CASE5_QUADRANGLE
    return CaseId.CASE6_TERWILLIGER


def test_case_table_routes_as_the_if_chain(corpus):
    """Every derivable corpus, catalog and traces.json array, and every row used."""
    pinned = json.loads(TRACES.read_text(encoding="utf-8"))
    selected = set()
    for arr in dict.fromkeys(corpus + [parse_array(text) for text in pinned]):
        try:
            params = derive(arr)
        except ValueError:
            continue
        case = classify_case(params)
        assert case == classify_reference(params), arr
        selected.add(case)
    assert [row.case for row in CASES if row.case not in selected] == []


def test_trace_step_rejects_an_unknown_relation():
    with pytest.raises(ValueError, match="unknown relation '!='"):
        TraceStep("phi_differs", Fraction(1), "!=", Fraction(2))


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


# the proof caches: steps that read only b_1, (b_1, j) or (b_1, j, s), built once per key

LEMMA = slice(1, 7)  # geometric_head .. total_lt_target
PROOF_CACHES = (_alpha, _ending, _deep_lemma, _k3_lemma)


def _clear_proof_caches() -> None:
    for cache in PROOF_CACHES:
        cache.cache_clear()


def _warm_equals_cold(prover, caches) -> None:
    """Over the corpus, the catalog and PROOF_ARRAYS, a trace built with filled
    caches equals the one built from empty caches."""
    profiles = [compute_profile(derive(arr)) for arr in feasible_arrays() if arr.k >= 3]
    _clear_proof_caches()
    warm = [repr(prover(prof)) for prof in profiles]
    for cache in caches:  # arrays sharing a key with an earlier one
        assert cache.cache_info().hits > 0, cache.__name__
    for prof, want in zip(profiles, warm):
        _clear_proof_caches()
        assert repr(prover(prof)) == want, format_array(prof.params.array)


def test_k3_lemma_warm_equals_cold():
    _warm_equals_cold(prove_k3, (_k3_lemma,))


def test_optimal_caches_warm_equal_cold():
    _warm_equals_cold(prove_optimal, (_alpha, _ending, _deep_lemma))


def test_k3_lemma_steps_are_shared():
    """Petersen and the cube both have (b_1, j) = (2, 2): one lemma, the same objects."""
    petersen, cube = prove_k3(profile_of("3,2;1,1")), prove_k3(profile_of("3,2,1;1,2,3"))
    assert [s.label for s in petersen.steps[LEMMA]] == [
        "geometric_head", "f_falling", "tail_peak", "peak_drop", "peak_lt_1", "total_lt_target"
    ]
    assert all(a is b for a, b in zip(petersen.steps[LEMMA], cube.steps[LEMMA], strict=True))
    assert petersen.alpha is cube.alpha
    assert petersen.steps[0] is not cube.steps[0]  # head_tail_bound reads rho


# Two arrays with one key of `_ending` (ending, b_1) or `_deep_lemma` (b_1, j, s),
# across cases where a row has two, and the labels of the steps that key builds.
SHARED = {
    "case1": (("3,2;1,1", "4,2;1,1"), ["half_cap", "target_gap"]),
    "j2": (("5,4,1;1,1,1", "5,4,1;1,2,5"), ["cap_value", "target_gap"]),  # case 3, case 5
    "j3": (("5,4,2;1,1,1", "5,4,2;1,1,2"), ["cap_value", "target_gap"]),
    "c3_gt_b3": (("5,4,3;1,2,3", "6,4,3;1,2,2"), ["cap_value", "target_gap"]),
    "quadrangle": (("5,4,3,2;1,2,2,2", "5,4,3,3;1,2,2,3"), ["final_value", "target_gap"]),
    "ratio3": (
        ("5,4,3,2;1,1,1,1", "5,4,3,2;1,1,1,2"),
        ["geometric_head", "tail_peak", "peak_cap", "final_value", "target_gap"],
    ),
    "product4_j4": (
        ("5,4,2,2;1,1,1,1", "5,4,2,2;1,1,1,2"), ["j4_value", "cap_value", "target_gap"]
    ),
    "product4_j5": (
        ("7,6,2,2,2;1,1,1,1,1", "7,6,2,2,2;1,1,1,1,7"),
        ["tail_peak", "half_cap", "final_value", "target_gap"],
    ),
}
READ_RHO = ("rho_cap", "chain", "bound_peak")


@pytest.mark.parametrize("key", SHARED)
def test_optimal_key_steps_are_shared(key):
    """Two arrays with one key hold the same step objects for what the key builds."""
    texts, shared = SHARED[key]
    traces = [prove_optimal(profile_of(text)) for text in texts]
    assert traces[0].alpha is traces[1].alpha  # alpha or alpha2, built once per key too
    one, two = (steps_by_label(trace) for trace in traces)
    assert all(one[label] is two[label] for label in shared)
    assert all(one[label] is not two[label] for label in READ_RHO if label in one)


def test_k3_lemma_is_keyed_by_j():
    """Petersen (j = 2) then Heawood (j = 3), both b_1 = 2: the tail peaks differ."""
    petersen, heawood = profile_of("3,2;1,1"), profile_of("3,2,2;1,1,3")
    assert (petersen.params.j, heawood.params.j) == (2, 3)
    tail_peaks = [steps_by_label(prove_k3(prof))["tail_peak"] for prof in (petersen, heawood)]
    assert [s.lhs for s in tail_peaks] == [Fraction(3, 4), Fraction(5, 8)]


@pytest.mark.parametrize(
    "texts, keys",
    [
        # b_1 = 6, s = 3: j = 4 then j = 6
        (("7,6,5,4;1,1,1,7", "7,6,6,5,5,4;1,1,2,2,3,3"), [(6, 4, 3), (6, 6, 3)]),
        # b_1 = 5, j = 5: s = 3 then s = 4
        (("6,5,5,4,4;1,1,2,2,3", "6,5,2,2,2;1,1,1,1,6"), [(5, 5, 3), (5, 5, 4)]),
    ],
    ids=("j", "s"),
)
def test_deep_lemma_is_keyed_by_j_and_s(texts, keys):
    """Two deep keys with one b_1, built in a row: the tail peaks differ."""
    _clear_proof_caches()
    profiles = [profile_of(text) for text in texts]
    traces = [prove_optimal(prof) for prof in profiles]
    s_of = {"subcase1_ratio3": 3, "subcase2_product4": 4}
    got = [(p.params.array.b[1], p.params.j, s_of[t.branch]) for p, t in zip(profiles, traces)]
    assert got == keys
    one, two = (steps_by_label(t)["tail_peak"] for t in traces)
    assert one.lhs != two.lhs


@pytest.mark.parametrize("cache", PROOF_CACHES, ids=lambda cache: cache.__name__)
def test_proof_cache_bound_is_documented(cache):
    """Each cache is bounded, and the module docstring's item for it gives the bound."""
    maxsize = cache.cache_info().maxsize
    assert maxsize == 256
    item = re.search(rf"^\* `{cache.__name__}\(.*?(?=^\S|^\* |\Z)", proofs.__doc__, re.M | re.S)
    assert item is not None, cache.__name__
    assert f"maxsize={maxsize}" in item.group()


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


def test_chains_cite_the_analysis_steps(corpus):
    """A trace step under an analysis label equals that analysis step; the old labels are gone."""
    cited = set()
    for arr in [*corpus, *map(_named_or_parsed, PROOF_ARRAYS.values())]:
        if arr.k < 3:
            continue
        prof = compute_profile(derive(arr))
        has_steps = arr.D >= 2 and arr.b[1] >= 2
        analysis = {s.label: s for s in step_inequalities(prof)} if has_steps else {}
        analysis["tail_bound"] = tail_sum_check(prof)
        for prover in (prove_k3, prove_optimal):
            for step in prover(prof).steps:
                assert step.label not in ("initial_drop", "tail_split", "head_contraction_2"), arr
                if step.label in analysis:
                    assert step == analysis[step.label], (arr, step)
                    cited.add(step.label)
    assert cited >= {"initial_drop[1]", "tail_bound", "head_contraction[2]"}


def test_trace_render_format():
    trace = prove_k3(profile_of("3,2,1;1,2,3"))
    text = trace.render()
    assert "head_tail_bound: 3/7 (≈ 0.428571) <= 5/4 (≈ 1.250000) [OK]" in text
    assert text.splitlines()[-1] == "verdict: OK"


def complete_bipartite(m: int) -> str:
    """K_{m,m}: valency m, diameter 2, b_1 = m - 1."""
    return f"{m},{m - 1};1,{m}"


def test_prove_k3_tail_peak_is_exact_when_j_is_at_most_b1():
    trace = prove_k3(profile_of(complete_bipartite(2002)))  # b_1 = 2001, j = 2
    assert trace.alpha == Fraction(2000, 2001)
    assert trace.verdict and trace.all_steps_hold
    tail_peak = steps_by_label(trace)["tail_peak"]
    assert tail_peak.lhs == tail_peak.rhs == Fraction(3, 2 * 2001)


def test_prove_k3_closes_at_any_b1():
    arrays = [parse_array("2002,2001;1,1")] + [_johnson(2 * e, e) for e in range(2, 120)]
    for arr in arrays:
        trace = prove_k3(compute_profile(derive(arr)))
        assert trace.verdict and trace.all_steps_hold, arr


def _side_bits(value: Fraction) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


@pytest.mark.parametrize(
    "text, optimal_branch",
    (
        ("{k},{b1};1,{k}", None),  # K_{k,k}
        ("{k},{b1},{b1},{b1},{b1};1,1,1,1,1", "subcase1_ratio3"),
        ("{k},{b1},2,2,2,2;1,1,1,1,1,1", "subcase2_product4"),
    ),
    ids=("complete_bipartite", "ratio3", "product4"),
)
def test_bound_traces_have_no_power_of_b1(text, optimal_branch):
    b1 = 10**4
    params = derive(parse_array(text.format(k=b1 + 1, b1=b1)))
    profile = compute_profile(params)
    limit = 2 * params.D * params.k.bit_length()
    assert prove_optimal(profile).branch == optimal_branch
    for prover in (prove_k3, prove_optimal):
        trace = prover(profile)
        assert trace.verdict and trace.all_steps_hold
        for s in trace.steps:
            assert max(_side_bits(s.lhs), _side_bits(s.rhs)) <= limit, (prover.__name__, s.label)
