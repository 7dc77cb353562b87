"""Bound traces: exact, step-by-step verification of the resistance-ratio bounds.

Two ratio targets are traced for rho = (phi_1 + ... + phi_{D-1})/phi_0:

* prove_k3: rho < 2, by splitting the potential sequence into a
  geometrically decaying head and a short tail (gives r_D <= 3*r_1).
* prove_optimal: rho < 93/100 (equality 94/101 only for the Biggs-Smith
  array), by a case analysis over the array shape (gives the optimal
  constant r_D <= (1 + 94/101)*r_1).

Each trace records every intermediate inequality with both sides
evaluated exactly, so a reader can audit the whole chain.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .arrays import DerivedParams, is_cocktail_party
from .fmt import approx_str
from .potentials import PotentialProfile
from .tables import BIGGS_SMITH_NAME, VALENCY_34_MEMBERSHIP

TARGET_K3 = Fraction(2)
TARGET_OPTIMAL = Fraction(93, 100)
BIGGS_SMITH_RATIO = Fraction(94, 101)

# prove_k3 refuses b_1 above this before raising anything to a power, so its
# work stays bounded (near b_1 = 10^8 a power holds billions of bits).  Its
# trace holds ((b_1-1)/b_1)^(b_1-2)/b_1, about (b_1-1)*log10(b_1) digits:
# past b_1 = 1371 that is over Python's 4300-digit str() limit, but J(80,40)
# (b_1 = 1521) must still get a verdict, so the cap sits above both.
K3_MAX_B1 = 2000

_RELATIONS = {
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    ">": operator.gt,
    ">=": operator.ge,
}


class CaseId(str, Enum):
    D1_TRIVIAL = "D1_TRIVIAL"
    COCKTAIL = "COCKTAIL"
    CASE1_D2 = "CASE1_D2"
    CASE2_SMALL_VALENCY = "CASE2_SMALL_VALENCY"
    CASE3_C2_EQ_1 = "CASE3_C2_EQ_1"
    CASE4_J3 = "CASE4_J3"
    CASE5_QUADRANGLE = "CASE5_QUADRANGLE"
    CASE6_TERWILLIGER = "CASE6_TERWILLIGER"
    UNCLASSIFIED = "UNCLASSIFIED"


@dataclass(frozen=True)
class TraceStep:
    """One audited inequality; `holds` is always the exact comparison."""

    label: str
    lhs: Fraction
    relation: str
    rhs: Fraction

    def __post_init__(self) -> None:
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")
        # a side that is already a Fraction skips the numbers.Rational check
        if type(self.lhs) is not Fraction:
            object.__setattr__(self, "lhs", Fraction(self.lhs))
        if type(self.rhs) is not Fraction:
            object.__setattr__(self, "rhs", Fraction(self.rhs))

    @property
    def holds(self) -> bool:
        return _RELATIONS[self.relation](self.lhs, self.rhs)

    def render(self) -> str:
        mark = "OK" if self.holds else "FAIL"
        return f"{self.label}: {approx_str(self.lhs)} {self.relation} {approx_str(self.rhs)} [{mark}]"


@dataclass(frozen=True)
class BoundTrace:
    """A complete audited chain for one ratio bound on one array."""

    case_id: CaseId
    target: Fraction
    rho: Fraction
    steps: tuple[TraceStep, ...]
    verdict: bool
    alpha: Fraction | None = None
    branch: str | None = None
    extremal: bool = False
    proof_path_available: bool = True
    assumption_dependent: bool = False
    notes: tuple[str, ...] = ()

    @property
    def all_steps_hold(self) -> bool:
        return all(s.holds for s in self.steps)

    def render(self) -> str:
        head = f"case: {self.case_id.value}"
        if self.branch:
            head += f" [{self.branch}]"
        lines = [head, f"target: rho < {approx_str(self.target)}"]
        if self.extremal:
            lines[-1] = f"target: rho == {approx_str(BIGGS_SMITH_RATIO)} (extremal case)"
        if self.alpha is not None:
            lines.append(f"alpha: {approx_str(self.alpha)}")
        lines.extend(step.render() for step in self.steps)
        lines.append(f"verdict: {'OK' if self.verdict else 'FAIL'}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


_step = TraceStep  # a short name for the many steps below; it converts both sides to Fraction


def _trace(
    profile: PotentialProfile, case_id: CaseId, steps, target: Fraction = TARGET_OPTIMAL, **fields
) -> BoundTrace:
    """A trace for `profile`; the verdict is rho < target unless given."""
    rho = profile.ratio
    fields.setdefault("verdict", rho < target)
    return BoundTrace(case_id=case_id, target=target, rho=rho, steps=tuple(steps), **fields)


def _direct(
    profile: PotentialProfile,
    case_id: CaseId,
    note: str,
    target: Fraction = TARGET_OPTIMAL,
    **fields,
) -> BoundTrace:
    """The one-step trace rho < target, checked on the exact ratio alone."""
    step = _step("rho_lt_target", profile.ratio, "<", target)
    return _trace(profile, case_id, (step,), target, notes=(note,), **fields)


# Shapes that both provers settle by the direct comparison, with their notes.
_DIRECT_NOTES = {
    CaseId.D1_TRIVIAL: "diameter 1: no interior potentials, rho = 0",
    CaseId.COCKTAIL: "b_1 = 1 (cocktail-party shape): verified by direct computation",
}
_QUADRANGLE_NOTE = (
    "quadrangle presence inferred from c_2/b_2 > 1/2 (sufficient condition only)"
)


# ----------------------------------------------------------------------
# unimodality of the tail-weight function f

def f_value(b1: int, i: int) -> Fraction:
    """f(i) = (i - 1/2) * ((b1-1)/b1)^i / b1, the tail-term weight."""
    if b1 < 2:
        raise ValueError("f is defined for b1 >= 2")
    alpha = Fraction(b1 - 1, b1)
    return (i - Fraction(1, 2)) * alpha**i / b1


def f_ratio(b1: int, i: int) -> Fraction:
    """f(i+1)/f(i) = ((2i+1)(b1-1))/((2i-1)b1), with no power of alpha."""
    return Fraction((2 * i + 1) * (b1 - 1), (2 * i - 1) * b1)


@dataclass(frozen=True)
class UnimodalityStep:
    i: int
    ratio: Fraction  # f(i+1) / f(i)
    rising: bool  # expected direction: rising for i <= b1-1, falling after

    @property
    def holds(self) -> bool:
        return self.ratio > 1 if self.rising else self.ratio < 1


def f_unimodality(b1: int, hi: int | None = None) -> tuple[UnimodalityStep, ...]:
    """Check f rises up to i = b1 and falls after it, over i in [1, hi].

    f(i+1)/f(i) > 1 must hold for i <= b1-1 and < 1 for i >= b1; the peak
    of f therefore sits at i = b1.
    """
    if b1 < 2:
        raise ValueError("f unimodality is defined for b1 >= 2")
    if hi is None:
        hi = 3 * b1
    out = []
    for i in range(1, hi + 1):
        out.append(UnimodalityStep(i=i, ratio=f_ratio(b1, i), rising=i <= b1 - 1))
    return tuple(out)


# ----------------------------------------------------------------------
# case classifier

def classify_case(params: DerivedParams) -> CaseId:
    """First matching case for the optimal-bound analysis, in fixed order."""
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
    b1 = arr.bi(1)
    c2 = arr.ci(2)
    if b1 >= 3 and c2 == 1:
        return CaseId.CASE3_C2_EQ_1
    if b1 >= 3 and params.j == 3 and c2 > 1:
        return CaseId.CASE4_J3
    # quadrangle detection from the array alone: sufficient condition only
    if 2 * c2 > arr.bi(2):  # c_2/b_2 > 1/2
        return CaseId.CASE5_QUADRANGLE
    return CaseId.CASE6_TERWILLIGER


# ----------------------------------------------------------------------
# rho < 2 (the simple K = 3 bound)

def prove_k3(profile: PotentialProfile) -> BoundTrace:
    """Audit the head/tail argument for rho < 2.

    The head phi_1..phi_{j-1} is dominated by the geometric series
    summing to 1; the tail obeys phi_j+...+phi_{D-1} <= (j-1/2) phi_{j-1},
    whose weight never exceeds the peak of f, itself below 1.
    Raises ValueError for k < 3 or b_1 > K3_MAX_B1.
    """
    params = profile.params
    rho = profile.ratio
    if params.k < 3:
        raise ValueError("the ratio bounds assume valency k >= 3")
    case = classify_case(params)
    if case in _DIRECT_NOTES:
        return _direct(profile, case, _DIRECT_NOTES[case], TARGET_K3)

    b1 = params.array.bi(1)
    if b1 > K3_MAX_B1:
        raise ValueError(
            f"b_1 = {b1} is above {K3_MAX_B1}, the largest b_1 whose K = 3 trace is computed"
        )
    j = params.j  # >= 2 whenever b_1 >= 2
    alpha = Fraction(b1 - 1, b1)
    # with alpha = (b1-1)/b1: head = (1 + ... + alpha^(j-2))/b1 = 1 - alpha^(j-1),
    # tail = (j - 1/2) alpha^(j-2)/b1 and peak_tail is tail at j = b1
    top, bottom = (b1 - 1) ** (j - 2), b1 ** (j - 1)
    head_num = bottom - top * (b1 - 1)
    tail_num = (2 * j - 1) * top
    tail = Fraction(tail_num, 2 * bottom)
    # alpha^(b1-2) is already reduced, so this product takes gcds of small
    # factors only; Fraction(num, den) would take one of two numbers of
    # thousands of digits near b1 = K3_MAX_B1
    peak_tail = Fraction(2 * b1 - 1, 2 * b1) * alpha ** (b1 - 2)

    steps = (
        _step("head_tail_bound", rho, "<=", Fraction(2 * head_num + tail_num, 2 * bottom)),
        _step("geometric_head", Fraction(1, b1) / (1 - alpha), "==", 1),
        _step("f_rising", f_ratio(b1, b1 - 1), ">", 1),
        _step("f_falling", f_ratio(b1, b1), "<", 1),
        _step("tail_peak", tail, "<=", peak_tail),
        _step("peak_drop", peak_tail, "<=", Fraction(2 * b1 - 1, 2 * b1)),
        _step("peak_lt_1", Fraction(2 * b1 - 1, 2 * b1), "<", 1),
        _step("total_lt_target", Fraction(2 * bottom + tail_num, 2 * bottom), "<", TARGET_K3),
        _step("rho_lt_target", rho, "<", TARGET_K3),
    )
    return _trace(profile, case, steps, TARGET_K3, alpha=alpha)


# ----------------------------------------------------------------------
# rho < 93/100 (the optimal bound), case by case

def prove_optimal(profile: PotentialProfile) -> BoundTrace:
    """Audit the per-case chain for rho < 93/100 (94/101 only for Biggs-Smith)."""
    params = profile.params
    if params.k < 3:
        raise ValueError("the ratio bounds assume valency k >= 3")
    case = classify_case(params)
    if case in _DIRECT_NOTES:
        return _direct(profile, case, _DIRECT_NOTES[case])
    builder = {
        CaseId.CASE1_D2: _optimal_case1,
        CaseId.CASE2_SMALL_VALENCY: _optimal_case2,
        CaseId.CASE3_C2_EQ_1: _optimal_case3,
        CaseId.CASE4_J3: _optimal_case4,
        CaseId.CASE5_QUADRANGLE: _optimal_case5,
        CaseId.CASE6_TERWILLIGER: _optimal_case6,
    }[case]
    return builder(profile)


def _optimal_case1(profile: PotentialProfile) -> BoundTrace:
    params = profile.params
    b1 = params.array.bi(1)
    rho = profile.ratio
    phi = profile.phi
    steps = (
        _step("initial_drop", phi[1], "<", phi[0] / b1),
        _step("rho_cap", rho, "<", Fraction(1, b1)),
        _step("half_cap", Fraction(1, b1), "<=", Fraction(1, 2)),
        _step("target_gap", Fraction(1, 2), "<", TARGET_OPTIMAL),
    )
    return _trace(profile, CaseId.CASE1_D2, steps, alpha=Fraction(b1 - 1, b1))


def _optimal_case2(profile: PotentialProfile) -> BoundTrace:
    params = profile.params
    arr = params.array
    rho = profile.ratio
    alpha = Fraction(arr.bi(1) - 1, arr.bi(1))
    name = VALENCY_34_MEMBERSHIP.get(arr)
    if name is None:
        return _direct(
            profile,
            CaseId.UNCLASSIFIED,
            "valency-3/4 array with D >= 3 not found in the embedded "
            "classification table; verdict computed directly from rho",
            alpha=alpha,
            proof_path_available=False,
        )
    if name == BIGGS_SMITH_NAME:
        return _trace(
            profile,
            CaseId.CASE2_SMALL_VALENCY,
            (_step("extremal_equality", rho, "==", BIGGS_SMITH_RATIO),),
            verdict=rho == BIGGS_SMITH_RATIO,
            alpha=alpha,
            extremal=True,
            notes=(f"matched classification row: {name} (the unique extremal array)",),
        )
    return _direct(
        profile,
        CaseId.CASE2_SMALL_VALENCY,
        f"matched classification row: {name}",
        alpha=alpha,
    )


def _split_j2_steps(profile: PotentialProfile) -> tuple[TraceStep, ...]:
    """Shared j = 2 chain: tail bound plus the initial drop give rho <= (5/2)/b1."""
    phi = profile.phi
    b1 = profile.params.array.bi(1)
    rho = profile.ratio
    return (
        _step("tail_split", profile.phi_sum(2), "<=", Fraction(3, 2) * phi[1]),
        _step("sum_cap", profile.phi_sum(1), "<=", Fraction(5, 2) * phi[1]),
        _step("initial_drop", phi[1], "<", phi[0] / b1),
        _step("rho_cap", rho, "<", Fraction(5, 2) / b1),
        _step("cap_value", Fraction(5, 2) / b1, "<=", Fraction(5, 6)),
        _step("target_gap", Fraction(5, 6), "<", TARGET_OPTIMAL),
    )


def _optimal_case3(profile: PotentialProfile) -> BoundTrace:
    params = profile.params
    arr = params.array
    phi = profile.phi
    rho = profile.ratio
    b1 = arr.bi(1)
    j = params.j

    if j == 2:
        return _trace(
            profile,
            CaseId.CASE3_C2_EQ_1,
            _split_j2_steps(profile),
            alpha=Fraction(b1 - 1, b1),
            branch="j2",
        )

    if j == 3:
        b2 = arr.bi(2)
        steps = (
            _step("b2_ge_2", b2, ">=", 2),
            _step("half_drop", phi[2], "<", phi[1] / 2),
            _step("tail_split", profile.phi_sum(3), "<=", Fraction(5, 2) * phi[2]),
            _step("sum_cap", profile.phi_sum(1), "<=", phi[1] + Fraction(7, 2) * phi[2]),
            _step("rho_cap", rho, "<", Fraction(11, 4) / b1),
            _step("cap_value", Fraction(11, 4) / b1, "<=", Fraction(11, 12)),
            _step("target_gap", Fraction(11, 12), "<", TARGET_OPTIMAL),
        )
        return _trace(
            profile, CaseId.CASE3_C2_EQ_1, steps, alpha=Fraction(b1 - 1, b1), branch="j3"
        )

    # j >= 4: two deep-head subcases, both contracting by alpha2 = (b1-2)/(b1-1)
    alpha2 = Fraction(b1 - 2, b1 - 1)
    b2, c2 = arr.bi(2), arr.ci(2)
    if Fraction(b2, c2) >= 3:
        return _case3_subcase_ratio3(profile, alpha2)
    b3, c3 = arr.bi(3), arr.ci(3)
    if Fraction(b2 * b3, c2 * c3) >= 4:
        return _case3_subcase_product4(profile, alpha2)
    return _direct(  # unreachable for c2 = 1, kept as a guard
        profile,
        CaseId.UNCLASSIFIED,
        "neither deep-head subcase condition holds",
        alpha=alpha2,
        proof_path_available=False,
    )


def _head_ratio_cap(arr, lo: int, hi: int, alpha2: Fraction) -> TraceStep | None:
    """max of c_i/b_i over lo <= i <= hi, compared against alpha2."""
    if lo > hi:
        return None
    top, bottom = arr.c[lo - 1], arr.b[lo]
    for i in range(lo + 1, hi + 1):
        if arr.c[i - 1] * bottom > top * arr.b[i]:
            top, bottom = arr.c[i - 1], arr.b[i]
    return _step("head_ratio_cap", Fraction(top, bottom), "<=", alpha2)


def _case3_subcase_ratio3(profile: PotentialProfile, alpha2: Fraction) -> BoundTrace:
    params = profile.params
    arr = params.array
    rho = profile.ratio
    b1 = arr.bi(1)
    j = params.j

    # chain = 1/b1 + (1 + alpha2 + ... + alpha2^(j-3) + (j - 1/2) alpha2^(j-3))/(3 b1)
    # and the geometric sum is w (1 - alpha2^(j-2)) with alpha2 = u/w: over 6 b1 w^(j-3)
    u, w = b1 - 2, b1 - 1
    u_pow, w_pow = u ** (j - 3), w ** (j - 3)
    weight = (2 * j - 1) * u_pow
    chain = Fraction(6 * w_pow + 2 * (w * w_pow - u * u_pow) + weight, 6 * b1 * w_pow)
    geo = Fraction(6 * w_pow + 2 * w * w_pow + weight, 6 * b1 * w_pow)
    steps = [_step("sub_cond", Fraction(arr.bi(2), arr.ci(2)), ">=", 3)]
    cap = _head_ratio_cap(arr, 3, j - 1, alpha2)
    if cap is not None:
        steps.append(cap)
    steps.append(_step("chain", rho, "<=", chain))
    steps.append(_step("geometric_head", chain, "<", geo))
    if b1 >= 4:
        peak = (b1 - Fraction(3, 2)) * alpha2 ** (b1 - 4)
        final = Fraction(1, b1) + Fraction(b1 - 1, 3 * b1) + Fraction(1, 3)
        steps += [
            _step("tail_peak", (j - Fraction(1, 2)) * alpha2 ** (j - 3), "<=", peak),
            _step("peak_cap", peak / (3 * b1), "<=", Fraction(1, 3)),
            _step("final_value", final, "==", Fraction(2 * b1 + 2, 3 * b1)),
            _step("target_gap", Fraction(2 * b1 + 2, 3 * b1), "<", TARGET_OPTIMAL),
        ]
    else:  # b1 == 3: the peak sits at i = 2, so j = 4 dominates
        final = Fraction(1, b1) + Fraction(b1 - 1, 3 * b1) + Fraction(7, 2) * alpha2 / (3 * b1)
        steps += [
            _step(
                "tail_peak",
                (j - Fraction(1, 2)) * alpha2 ** (j - 3),
                "<=",
                Fraction(7, 2) * alpha2,
            ),
            _step("final_value", final, "==", Fraction(3, 4)),
            _step("target_gap", Fraction(3, 4), "<", TARGET_OPTIMAL),
        ]
    return _trace(profile, CaseId.CASE3_C2_EQ_1, steps, alpha=alpha2, branch="subcase1_ratio3")


def _case3_subcase_product4(profile: PotentialProfile, alpha2: Fraction) -> BoundTrace:
    params = profile.params
    arr = params.array
    rho = profile.ratio
    b1 = arr.bi(1)
    j = params.j
    b2, c2 = arr.bi(2), arr.ci(2)
    b3, c3 = arr.bi(3), arr.ci(3)

    # chain = 3/(2 b1) + (1 + ... + alpha2^(j-4) + (j - 1/2) alpha2^(j-4))/(4 b1),
    # over 8 b1 w^(j-4) as in the ratio-3 subcase
    u, w = b1 - 2, b1 - 1
    u_pow, w_pow = u ** (j - 4), w ** (j - 4)
    chain = Fraction(
        12 * w_pow + 2 * (w * w_pow - u * u_pow) + (2 * j - 1) * u_pow, 8 * b1 * w_pow
    )
    steps = [
        _step("sub_cond", Fraction(b2 * b3, c2 * c3), ">=", 4),
        _step("half_cond", Fraction(b2, c2), ">=", 2),
    ]
    cap = _head_ratio_cap(arr, 4, j - 1, alpha2)
    if cap is not None:
        steps.append(cap)
    steps.append(_step("chain", rho, "<=", chain))
    if j == 4:
        steps += [
            _step("j4_value", chain, "==", Fraction(21, 2) / (4 * b1)),
            _step("cap_value", Fraction(21, 2) / (4 * b1), "<=", Fraction(7, 8)),
            _step("target_gap", Fraction(7, 8), "<", TARGET_OPTIMAL),
        ]
    elif b1 <= 5:
        geo5 = (
            Fraction(3, 2 * b1)
            + Fraction(b1 - 1, 4 * b1)
            + Fraction(9, 2) * alpha2 / (4 * b1)
        )
        steps += [
            _step(
                "tail_peak",
                (j - Fraction(1, 2)) * alpha2 ** (j - 4),
                "<=",
                Fraction(9, 2) * alpha2,
            ),
            _step("bound_j5", rho, "<", geo5),
        ]
        if b1 == 3:  # alpha2 = 1/2 exactly
            steps += [
                _step("final_value", geo5, "==", Fraction(41, 48)),
                _step("target_gap", Fraction(41, 48), "<", TARGET_OPTIMAL),
            ]
        else:
            at_one = Fraction(3, 2 * b1) + Fraction(b1 - 1, 4 * b1) + Fraction(9, 2) / (4 * b1)
            steps += [
                _step("alpha_cap", geo5, "<", at_one),
                _step("target_gap", at_one, "<", TARGET_OPTIMAL),
            ]
    else:  # b1 >= 6: the peak of the tail weight sits at i = b1 - 1
        peak = (b1 - Fraction(3, 2)) * alpha2 ** (b1 - 5)
        bound_peak = Fraction(3, 2 * b1) + Fraction(b1 - 1, 4 * b1) + peak / (4 * b1)
        steps += [
            _step("tail_peak", (j - Fraction(1, 2)) * alpha2 ** (j - 4), "<=", peak),
            _step("bound_peak", rho, "<", bound_peak),
            _step(
                "half_cap",
                Fraction(b1 - 1, 4 * b1) + peak / (4 * b1),
                "<",
                Fraction(1, 2),
            ),
            _step("final_value", Fraction(3, 2 * b1) + Fraction(1, 2), "<=", Fraction(3, 4)),
            _step("target_gap", Fraction(3, 4), "<", TARGET_OPTIMAL),
        ]
    return _trace(profile, CaseId.CASE3_C2_EQ_1, steps, alpha=alpha2, branch="subcase2_product4")


def _optimal_case4(profile: PotentialProfile) -> BoundTrace:
    params = profile.params
    arr = params.array
    phi = profile.phi
    rho = profile.ratio
    D = arr.D
    b1 = arr.bi(1)
    c2, b2 = arr.ci(2), arr.bi(2)
    c3 = arr.ci(3)
    b3 = arr.bi(3) if D >= 4 else 0  # K_{D+1} is empty, so b_D = 0
    alpha = Fraction(b1 - 1, b1)
    interior = profile.phi_sum(2)

    steps = [_step("c2_vs_c3", c2, "<=", Fraction(2, 3) * c3)]
    notes: tuple[str, ...] = ()
    assumption_dependent = False

    if c3 > b3:
        branch = "c3_gt_b3"
        steps += [
            _step("diameter_cap", D, "<=", 5),
            _step("head_contraction_2", phi[2], "<", alpha * phi[1]),
            _step("phi2_cap", phi[2], "<", alpha / b1 * phi[0]),
            _step("interior_count", interior, "<=", 3 * phi[2]),
            _step("rho_cap", rho, "<", Fraction(4 * b1 - 3, b1 * b1)),
        ]
        if b1 >= 4:
            steps += [
                _step("cap_value", Fraction(4 * b1 - 3, b1 * b1), "<=", Fraction(13, 16)),
                _step("target_gap", Fraction(13, 16), "<", TARGET_OPTIMAL),
            ]
        else:
            # b1 = 3 with c2 > 1 contradicts the classification facts for
            # real graphs; the stated 5/6 cap is still evaluated here.
            steps += [
                _step("stated_cap", rho, "<", Fraction(5, 6)),
                _step("target_gap", Fraction(5, 6), "<", TARGET_OPTIMAL),
            ]
            assumption_dependent = True
            notes = (
                "b_1 = 3 with c_2 > 1 cannot occur for an actual graph in "
                "this case; the cap is evaluated as stated",
            )
    elif Fraction(c2, b2) <= Fraction(1, 2):
        branch = "c3_eq_b3_half"
        steps += [
            _step("ratio_half", Fraction(c2, b2), "<=", Fraction(1, 2)),
            _step("tail_split", profile.phi_sum(3), "<=", Fraction(5, 2) * phi[2]),
            _step("half_drop", phi[2], "<", phi[1] / 2),
            _step("sum_cap", profile.phi_sum(1), "<=", phi[1] + Fraction(7, 2) * phi[2]),
            _step("rho_cap", rho, "<", Fraction(11, 4) / b1),
            _step("cap_value", Fraction(11, 4) / b1, "<=", Fraction(11, 12)),
            _step("target_gap", Fraction(11, 12), "<", TARGET_OPTIMAL),
        ]
    else:
        branch = "c3_eq_b3_quadrangle"
        steps += _quadrangle_chain(profile)
        assumption_dependent = True
        notes = (_QUADRANGLE_NOTE,)

    return _trace(
        profile,
        CaseId.CASE4_J3,
        steps,
        alpha=alpha,
        branch=branch,
        assumption_dependent=assumption_dependent,
        notes=notes,
    )


def _quadrangle_chain(profile: PotentialProfile) -> list[TraceStep]:
    """Shared quadrangle chain: D <= b1+1 and c2/b2 <= 2/3 give (2b1+1)/(3b1)."""
    params = profile.params
    arr = params.array
    phi = profile.phi
    rho = profile.ratio
    D = arr.D
    k = params.k
    b1 = arr.bi(1)
    c2, b2 = arr.ci(2), arr.bi(2)
    final = Fraction(1, b1) + Fraction(2, 3) * Fraction(b1 - 1, b1)
    return [
        _step("quad_cond", Fraction(c2, b2), ">", Fraction(1, 2)),
        _step("diameter_quad", D, "<=", Fraction(2 * k, k + 1 - b1)),
        _step("quad_diameter_cap", Fraction(2 * k, k + 1 - b1), "<=", b1 + 1),
        _step("c3_growth", arr.ci(3), ">=", Fraction(3, 2) * c2),
        _step("ratio_23", Fraction(c2, b2), "<=", Fraction(2, 3)),
        _step("interior_count", profile.phi_sum(2), "<=", (b1 - 1) * phi[2]),
        _step("initial_drop", phi[1], "<", phi[0] / b1),
        _step("phi2_cap", phi[2], "<", Fraction(2, 3) * phi[1]),
        _step("rho_cap", rho, "<", final),
        _step("final_value", final, "==", Fraction(2 * b1 + 1, 3 * b1)),
        _step("target_gap", Fraction(2 * b1 + 1, 3 * b1), "<", TARGET_OPTIMAL),
    ]


def _optimal_case5(profile: PotentialProfile) -> BoundTrace:
    b1 = profile.params.array.bi(1)
    alpha = Fraction(b1 - 1, b1)
    if profile.params.j == 2:
        # a short tail needs no quadrangle machinery at all
        return _trace(
            profile,
            CaseId.CASE5_QUADRANGLE,
            _split_j2_steps(profile),
            alpha=alpha,
            branch="split_j2",
            notes=("head/tail split at j = 2: the tail bound alone suffices",),
        )
    return _trace(
        profile,
        CaseId.CASE5_QUADRANGLE,
        _quadrangle_chain(profile),
        alpha=alpha,
        branch="quadrangle",
        assumption_dependent=True,
        notes=(_QUADRANGLE_NOTE,),
    )


def _optimal_case6(profile: PotentialProfile) -> BoundTrace:
    params = profile.params
    arr = params.array
    phi = profile.phi
    rho = profile.ratio
    k = params.k
    b1 = arr.bi(1)
    c2 = arr.ci(2)
    interior = profile.phi_sum(2)
    ten_ratio = 10 * phi[1] / phi[0]
    steps = (
        _step("k_cap", k, ">=", 50 * (c2 - 1)),
        _step("b1_large", b1, ">", 20),
        _step("interior_tail_cap", interior, "<", 9 * phi[1]),
        _step("initial_drop", phi[1], "<", phi[0] / b1),
        _step("rho_ten", rho, "<", ten_ratio),
        _step("ten_half", ten_ratio, "<", Fraction(1, 2)),
        _step("target_gap", Fraction(1, 2), "<", TARGET_OPTIMAL),
    )
    return _trace(
        profile,
        CaseId.CASE6_TERWILLIGER,
        steps,
        alpha=Fraction(b1 - 1, b1),
        assumption_dependent=True,
        notes=(
            "quadrangle-freeness is a structural property not decidable "
            "from the array; preconditions are reported, not assumed",
        ),
    )
