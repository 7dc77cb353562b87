"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

from __future__ import annotations

import time
from fractions import Fraction

from drg import (
    CaseId,
    check_resistance_cap,
    compute_potentials_explicit,
    compute_profile,
    construct,
    cross_validate,
    derive,
    parse_array,
    prove_k3,
    prove_optimal,
    registry_names,
    step_inequalities,
    tail_sum_check,
    verify_drg,
)
from drg.catalog import catalog_list
from drg.fmt import decimal_places, decimal_str
from drg.proofs import f_ratio
from test_potentials import telescoped_groups

OPTIMAL = Fraction(93, 100)


def _criterion(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{description}]: {status}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_table_reproduction(paper_rows):
    started = time.perf_counter()
    mismatches = []
    for e in paper_rows:
        profile = compute_profile(derive(e.array))
        rendered = decimal_str(profile.ratio, decimal_places(e.paper_ratio))
        if rendered != e.paper_ratio:
            mismatches.append((e.name, rendered, e.paper_ratio))
    elapsed = time.perf_counter() - started
    spot = {e.name: e for e in paper_rows}
    spot_ok = (
        decimal_str(spot["Cube"].ratio, 6) == "0.428571"
        and decimal_str(spot["Heawood graph"].ratio, 6) == "0.461538"
        and decimal_str(spot["Biggs-Smith graph"].ratio, 6) == "0.930693"
        and decimal_str(spot["Foster graph"].ratio, 6) == "0.896067"
        and decimal_str(spot["Incidence graph of GH(3,3)"].ratio, 6) == "0.485557"
    )
    _criterion(
        1,
        "table reproduction at printed precision",
        not mismatches and spot_ok and len(paper_rows) == 23 and elapsed < 1.0,
        f"23 rows, {elapsed * 1000:.0f} ms",
    )


def test_criterion_2_extremality(paper_rows):
    biggs = next(e for e in paper_rows if e.name == "Biggs-Smith graph")
    profile = compute_profile(derive(biggs.array))
    ok = profile.ratio == Fraction(94, 101)
    ok = ok and profile.k_effective == Fraction(195, 101)
    others_ok = all(
        e.ratio < OPTIMAL for e in paper_rows if e.name != "Biggs-Smith graph"
    )
    _criterion(
        2,
        "Biggs-Smith equality, every other row strictly below 93/100",
        ok and others_ok,
        "rho = 94/101, k_effective = 195/101",
    )


def test_criterion_3_oracle_equivalence():
    started = time.perf_counter()
    names = registry_names()
    failures = []
    for name in names:
        g = construct(name)
        report = verify_drg(g)
        if not report.is_drg or report.observed_array != g.claimed_array:
            failures.append(f"{name}: not distance-regular as claimed")
            continue
        result = cross_validate(g)
        if not result.ok:
            failures.append(f"{name}: solver/formula mismatch")
    elapsed = time.perf_counter() - started

    cube = cross_validate(construct("hypercube", 3))
    cube_ok = [c.expected for c in cube.classes] == [
        Fraction(7, 12), Fraction(3, 4), Fraction(5, 6),
    ]
    petersen = cross_validate(construct("petersen"))
    petersen_ok = [c.expected for c in petersen.classes] == [
        Fraction(3, 5), Fraction(4, 5),
    ]
    k4 = cross_validate(construct("complete", 4))
    k4_ok = [c.expected for c in k4.classes] == [Fraction(1, 2)]

    _criterion(
        3,
        "oracle equivalence over the construction registry",
        not failures
        and len(names) >= 12
        and cube_ok
        and petersen_ok
        and k4_ok
        and elapsed < 10.0,
        f"{len(names)} graphs, {elapsed:.2f} s",
    )


def test_criterion_4_property_suite(corpus):
    failures = []
    for arr in corpus:
        label = str(arr)
        params = derive(arr)
        profile = compute_profile(params)
        if profile.phi != compute_potentials_explicit(params):
            failures.append(f"{label}: recursion != closed form")
        if profile.phi[0] != params.n - 1:
            failures.append(f"{label}: phi_0 != n-1")
        for i in range(arr.D - 1):
            if not profile.phi[i] > profile.phi[i + 1] > 0:
                failures.append(f"{label}: not strictly decreasing at {i}")
        for i in range(1, arr.D):
            terms = telescoped_groups(params, i)
            if any(t < 0 for t in terms[:-1]) or terms[-1] <= 0:
                failures.append(f"{label}: telescoped group negative at {i}")
        if not check_resistance_cap(profile).holds:
            failures.append(f"{label}: r_D >= 4/k")
        if not tail_sum_check(profile).holds:
            failures.append(f"{label}: tail bound fails")
        if not profile.ratio < 2:
            failures.append(f"{label}: rho >= 2")
        if arr.D >= 2 and arr.b[1] >= 2:
            if not all(s.holds for s in step_inequalities(profile)):
                failures.append(f"{label}: step inequality fails")
    _criterion(
        4,
        "property suite over the generated corpus",
        len(corpus) >= 200 and not failures,
        f"{len(corpus)} arrays, {len(failures)} failure(s)",
    )


def test_criterion_5_proof_trace_integrity(paper_rows):
    problems = []
    for e in paper_rows:
        profile = compute_profile(derive(e.array))
        k3 = prove_k3(profile)
        if not k3.all_steps_hold:
            problems.append(f"{e.name}: a K=3 trace step fails")
        by_label = {s.label: s for s in k3.steps}
        head = by_label.get("geometric_head")
        if head is None or head.lhs != 1 or not head.holds:
            problems.append(f"{e.name}: geometric head bound is not exactly 1")
        tail = by_label.get("tail_peak")
        if tail is None or not tail.lhs < 1:
            problems.append(f"{e.name}: tail bound not < 1")

        optimal = prove_optimal(profile)
        if optimal.case_id == CaseId.UNCLASSIFIED:
            problems.append(f"{e.name}: unclassified")
        expected_verdict = (
            profile.ratio == Fraction(94, 101)
            if optimal.extremal
            else profile.ratio < OPTIMAL
        )
        if optimal.verdict != expected_verdict or not optimal.verdict:
            problems.append(f"{e.name}: verdict disagrees with direct computation")

    for e in catalog_list():
        if not e.supplementary:
            continue
        profile = compute_profile(derive(e.array))
        if not prove_k3(profile).all_steps_hold:
            problems.append(f"{e.name}: supplementary K=3 trace fails")
        optimal = prove_optimal(profile)
        if optimal.case_id == CaseId.UNCLASSIFIED or not optimal.verdict:
            problems.append(f"{e.name}: supplementary optimal trace fails")

    _criterion(
        5,
        "proof-trace integrity on every catalog array",
        not problems,
        "; ".join(problems) if problems else "26 arrays traced",
    )


def test_criterion_6_f_unimodality():
    bad = []
    for b1 in range(2, 13):
        for i in range(1, 3 * b1 + 1):
            ratio = f_ratio(b1, i)
            if not (ratio > 1 if i < b1 else ratio < 1):
                bad.append((b1, i))
    _criterion(
        6,
        "f rises up to b_1 and falls through 3*b_1, for b_1 in 2..12",
        not bad,
        "exact ratio comparisons" if not bad else str(bad[:5]),
    )


def test_acceptance_example_values():
    # spot values quoted across the criteria, asserted exactly
    cube = compute_profile(derive(parse_array("3,2,1;1,2,3")))
    assert cube.resistances == (Fraction(7, 12), Fraction(3, 4), Fraction(5, 6))
    petersen = compute_profile(derive(parse_array("3,2;1,1")))
    assert petersen.resistances == (Fraction(3, 5), Fraction(4, 5))
    k4 = compute_profile(derive(parse_array("3;1")))
    assert k4.resistances == (Fraction(1, 2),)
