"""Bound traces: exact, step-by-step verification of the resistance-ratio bounds.

Two ratio targets are traced for rho = (phi_1 + ... + phi_{D-1})/phi_0:

* prove_k3: rho < 2, by splitting the potential sequence into a
  geometrically decaying head and a short tail (gives r_D <= 3*r_1).
* prove_optimal: rho < 93/100 (equality 94/101 only for the Biggs-Smith
  array), by a case analysis over the array shape (gives the optimal
  constant r_D <= (1 + 94/101)*r_1).

`BOUNDS` is the one table of these bounds (name, target, prover); the
CLI takes its `--prove` choices, its dispatch and its batch counts from it.
`CASES` is the one table of the case analysis: each row holds a case,
the array test that selects it, and its optimal chain or the note of its
direct trace.  `classify_case` and `_prove`, which starts both provers,
take the first row whose test holds.

Each trace records every intermediate inequality with both sides
evaluated exactly, so a reader can audit the whole chain.

A chain takes `(profile, case)`, so only case 2 names a case itself (its
`UNCLASSIFIED` fallback), and is put together from shared pieces.
`_trace` builds every BoundTrace with alpha = (b_1-1)/b_1 (None when D =
1 or b_1 = 1); only the deep case-3 subcases give alpha2 =
(b_1-2)/(b_1-1) instead.  An optimal chain ends in `_target_gap` (value <
93/100), most of them through `_cap_ending` (rho < cap <= value).
`_deep_head` gives the case-3 deep-head sum and its geometric limit for
both deep subcases.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from enum import Enum
from fractions import Fraction

from ._record import Record, set_field
from .arrays import DerivedParams, is_cocktail_party
from .catalog import table_entries
from .fmt import approx_str
from .potentials import PotentialProfile

BIGGS_SMITH_RATIO = Fraction(94, 101)

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


class TraceStep(Record):
    """One audited inequality; `holds` is always the exact comparison."""

    __slots__ = _fields = ("label", "lhs", "relation", "rhs")

    def __init__(self, label: str, lhs: Fraction, relation: str, rhs: Fraction) -> None:
        if relation not in _RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
        # a side that is already a Fraction skips the numbers.Rational check
        if type(lhs) is not Fraction:
            lhs = Fraction(lhs)
        if type(rhs) is not Fraction:
            rhs = Fraction(rhs)
        set_field(self, "label", label)
        set_field(self, "lhs", lhs)
        set_field(self, "relation", relation)
        set_field(self, "rhs", rhs)

    @property
    def holds(self) -> bool:
        return _RELATIONS[self.relation](self.lhs, self.rhs)

    def render(self) -> str:
        mark = "OK" if self.holds else "FAIL"
        return f"{self.label}: {approx_str(self.lhs)} {self.relation} {approx_str(self.rhs)} [{mark}]"


class BoundTrace(Record):
    """A complete audited chain for one ratio bound on one array."""

    __slots__ = _fields = (
        "case_id",
        "target",
        "rho",
        "steps",
        "verdict",
        "alpha",
        "branch",
        "extremal",
        "proof_path_available",
        "assumption_dependent",
        "notes",
    )

    def __init__(
        self,
        case_id: CaseId,
        target: Fraction,
        rho: Fraction,
        steps: tuple[TraceStep, ...],
        verdict: bool,
        alpha: Fraction | None = None,
        branch: str | None = None,
        extremal: bool = False,
        proof_path_available: bool = True,
        assumption_dependent: bool = False,
        notes: tuple[str, ...] = (),
    ) -> None:
        set_field(self, "case_id", case_id)
        set_field(self, "target", target)
        set_field(self, "rho", rho)
        set_field(self, "steps", steps)
        set_field(self, "verdict", verdict)
        set_field(self, "alpha", alpha)
        set_field(self, "branch", branch)
        set_field(self, "extremal", extremal)
        set_field(self, "proof_path_available", proof_path_available)
        set_field(self, "assumption_dependent", assumption_dependent)
        set_field(self, "notes", notes)

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


class RatioBound(Record):
    """The bound rho < target, traced by the function of this module named `prover`."""

    __slots__ = _fields = ("name", "target", "prover")

    def __init__(self, name: str, target: Fraction, prover: str) -> None:
        set_field(self, "name", name)
        set_field(self, "target", target)
        set_field(self, "prover", prover)

    def prove(self, profile: PotentialProfile) -> BoundTrace:
        # looked up at call time, so a wrapper later set on the module is what runs
        return globals()[self.prover](profile)


# Tightest target first: `drg batch` lists a line as extremal when it misses
# the first target and fails the run when it misses the last.
BOUNDS = (
    RatioBound("optimal", Fraction(93, 100), "prove_optimal"),
    RatioBound("k3", Fraction(2), "prove_k3"),
)
_OPTIMAL, _K3 = BOUNDS


class CaseRow(Record):
    """A row of `CASES`; a row with a note is settled directly by both provers."""

    __slots__ = _fields = ("case", "test", "chain", "note")

    def __init__(
        self,
        case: CaseId,
        test: Callable[[DerivedParams], bool],
        chain: Callable[[PotentialProfile, CaseId], BoundTrace] | None = None,
        note: str | None = None,
    ) -> None:
        set_field(self, "case", case)
        set_field(self, "test", test)
        set_field(self, "chain", chain)
        set_field(self, "note", note)


_step = TraceStep  # a short name for the many steps below; it converts both sides to Fraction


def _trace(
    profile: PotentialProfile, case: CaseId, steps, target: Fraction = _OPTIMAL.target, **fields
) -> BoundTrace:
    """A trace for `profile`; verdict rho < target and alpha (b_1-1)/b_1 unless given."""
    rho = profile.ratio
    fields.setdefault("verdict", rho < target)
    if "alpha" not in fields:
        b = profile.params.array.b
        fields["alpha"] = Fraction(b[1] - 1, b[1]) if len(b) > 1 and b[1] > 1 else None
    return BoundTrace(case_id=case, target=target, rho=rho, steps=tuple(steps), **fields)


def _target_gap(label: str, lhs: Fraction, relation: str, value: Fraction) -> list[TraceStep]:
    """lhs relation value, then value < 93/100: the last two steps of an optimal chain."""
    return [_step(label, lhs, relation, value), _step("target_gap", value, "<", _OPTIMAL.target)]


def _cap_ending(
    rho: Fraction, cap: Fraction, value: Fraction, label: str = "cap_value", relation: str = "<="
) -> list[TraceStep]:
    """rho < cap, then the target gap of cap: the close of most optimal-bound chains."""
    return [_step("rho_cap", rho, "<", cap), *_target_gap(label, cap, relation, value)]


def _direct(
    profile: PotentialProfile, case: CaseId, note: str, target: Fraction = _OPTIMAL.target, **fields
) -> BoundTrace:
    """The one-step trace rho < target, checked on the exact ratio alone."""
    step = _step("rho_lt_target", profile.ratio, "<", target)
    return _trace(profile, case, (step,), target, notes=(note,), **fields)


_QUADRANGLE_NOTE = "quadrangle presence inferred from c_2/b_2 > 1/2 (sufficient condition only)"


def _prove(profile: PotentialProfile, target: Fraction, chain=None) -> BoundTrace:
    """Refuse k < 3; settle the first row that holds by its note, else chain or its own."""
    if profile.params.k < 3:
        raise ValueError("the ratio bounds assume valency k >= 3")
    row = _row(profile.params)
    if row.note is not None:
        return _direct(profile, row.case, row.note, target)
    return (chain or row.chain)(profile, row.case)


# ----------------------------------------------------------------------
# the tail-weight function f(i) = (i - 1/2) * ((b1-1)/b1)^i / b1

def f_ratio(b1: int, i: int) -> Fraction:
    """f(i+1)/f(i) = ((2i+1)(b1-1))/((2i-1)b1), with no power of alpha.

    It is > 1 for i <= b1-1 and < 1 for i >= b1, so f peaks at i = b1.
    """
    return Fraction((2 * i + 1) * (b1 - 1), (2 * i - 1) * b1)


# ----------------------------------------------------------------------
# rho < 2 (the simple K = 3 bound)

def prove_k3(profile: PotentialProfile) -> BoundTrace:
    """Audit the head/tail argument for rho < 2.

    The head phi_1..phi_{j-1} is dominated by the geometric series
    summing to 1; the tail obeys phi_j+...+phi_{D-1} <= (j-1/2) phi_{j-1},
    whose weight f rises up to i = b_1 and falls after it, so it is at most
    its value at m = min(j, b_1), itself below 1.  Every power in the trace
    has an exponent of at most j <= D.
    Raises ValueError for k < 3.
    """
    return _prove(profile, _K3.target, _k3_chain)


def _k3_chain(profile: PotentialProfile, case: CaseId) -> BoundTrace:
    params = profile.params
    rho = profile.ratio
    b1 = params.array.b[1]
    j = params.j  # >= 2 whenever b_1 >= 2
    m = min(j, b1)
    alpha = Fraction(b1 - 1, b1)
    # with alpha = (b1-1)/b1: head = (1 + ... + alpha^(j-2))/b1 = 1 - alpha^(j-1),
    # tail = (j - 1/2) alpha^(j-2)/b1 and peak_tail is tail at j = m (equal when j <= b1)
    top, bottom = (b1 - 1) ** (j - 2), b1 ** (j - 1)
    head_num = bottom - top * (b1 - 1)
    tail_num = (2 * j - 1) * top
    tail = Fraction(tail_num, 2 * bottom)
    peak_cap = Fraction(2 * m - 1, 2 * b1)
    peak_tail = peak_cap * alpha ** (m - 2)

    steps = (
        _step("head_tail_bound", rho, "<=", Fraction(2 * head_num + tail_num, 2 * bottom)),
        _step("geometric_head", Fraction(1, b1) / (1 - alpha), "==", 1),
        _step("f_falling", f_ratio(b1, b1), "<", 1),
        _step("tail_peak", tail, "<=", peak_tail),
        _step("peak_drop", peak_tail, "<=", peak_cap),
        _step("peak_lt_1", peak_cap, "<", 1),
        _step("total_lt_target", Fraction(2 * bottom + tail_num, 2 * bottom), "<", _K3.target),
        _step("rho_lt_target", rho, "<", _K3.target),
    )
    return _trace(profile, case, steps, _K3.target)


# ----------------------------------------------------------------------
# rho < 93/100 (the optimal bound), case by case

def prove_optimal(profile: PotentialProfile) -> BoundTrace:
    """Audit the per-case chain for rho < 93/100 (94/101 only for Biggs-Smith)."""
    return _prove(profile, _OPTIMAL.target)


def _optimal_case1(profile: PotentialProfile, case: CaseId) -> BoundTrace:
    b1 = profile.params.array.b[1]
    phi = profile.phi
    steps = (
        _step("initial_drop", phi[1], "<", phi[0] / b1),
        *_cap_ending(profile.ratio, Fraction(1, b1), Fraction(1, 2), "half_cap"),
    )
    return _trace(profile, case, steps)


def _optimal_case2(profile: PotentialProfile, case: CaseId) -> BoundTrace:
    rho = profile.ratio
    entry = table_entries().get(profile.params.array)
    if entry is None:
        return _direct(
            profile,
            CaseId.UNCLASSIFIED,
            "valency-3/4 array with D >= 3 not found in the embedded "
            "classification table; verdict computed directly from rho",
            proof_path_available=False,
        )
    if entry.extremal:
        return _trace(
            profile,
            case,
            (_step("extremal_equality", rho, "==", BIGGS_SMITH_RATIO),),
            verdict=rho == BIGGS_SMITH_RATIO,
            extremal=True,
            notes=(f"matched classification row: {entry.name} (the unique extremal array)",),
        )
    return _direct(profile, case, f"matched classification row: {entry.name}")


def _split_j2_steps(profile: PotentialProfile) -> tuple[TraceStep, ...]:
    """Shared j = 2 chain: tail bound plus the initial drop give rho <= (5/2)/b1."""
    phi = profile.phi
    b1 = profile.params.array.b[1]
    return (
        _step("tail_split", profile.phi_sum(2), "<=", Fraction(3, 2) * phi[1]),
        _step("sum_cap", profile.phi_sum(1), "<=", Fraction(5, 2) * phi[1]),
        _step("initial_drop", phi[1], "<", phi[0] / b1),
        *_cap_ending(profile.ratio, Fraction(5, 2) / b1, Fraction(5, 6)),
    )


def _j3_sum_cap(profile: PotentialProfile) -> list[TraceStep]:
    """Shared j = 3 close: the tail split and phi_2 < phi_1/2 give rho < (11/4)/b1."""
    phi = profile.phi
    b1 = profile.params.array.b[1]
    return [
        _step("sum_cap", profile.phi_sum(1), "<=", phi[1] + Fraction(7, 2) * phi[2]),
        *_cap_ending(profile.ratio, Fraction(11, 4) / b1, Fraction(11, 12)),
    ]


def _optimal_case3(profile: PotentialProfile, case: CaseId) -> BoundTrace:
    params = profile.params
    b = params.array.b
    phi = profile.phi
    j = params.j

    if j == 2:
        return _trace(profile, case, _split_j2_steps(profile), branch="j2")

    if j == 3:
        steps = (
            _step("b2_ge_2", b[2], ">=", 2),
            _step("half_drop", phi[2], "<", phi[1] / 2),
            _step("tail_split", profile.phi_sum(3), "<=", Fraction(5, 2) * phi[2]),
            *_j3_sum_cap(profile),
        )
        return _trace(profile, case, steps, branch="j3")

    # j >= 4: two deep-head subcases, both contracting by alpha2 = (b1-2)/(b1-1).
    # One of them always applies.  With c_2 = 1 and c_i < b_i for i <= 3 (as
    # j >= 4), b_2 < 3 forces b_2 = 2; then c_2 <= c_3 < b_3 <= b_2 forces
    # b_3 = 2 and c_3 = 1, so b_2 b_3/(c_2 c_3) = 4.
    alpha2 = Fraction(b[1] - 2, b[1] - 1)
    if b[2] >= 3:  # b_2/c_2 >= 3, as c_2 = 1
        steps, branch = _ratio3_steps(profile, alpha2), "subcase1_ratio3"
    else:
        steps, branch = _product4_steps(profile, alpha2), "subcase2_product4"
    return _trace(profile, case, steps, alpha=alpha2, branch=branch)


def _head_ratio_cap(arr, lo: int, hi: int, alpha2: Fraction) -> list[TraceStep]:
    """max of c_i/b_i over lo <= i <= hi, compared against alpha2 (no step if empty)."""
    if lo > hi:
        return []
    top, bottom = arr.c[lo - 1], arr.b[lo]
    for i in range(lo + 1, hi + 1):
        if arr.c[i - 1] * bottom > top * arr.b[i]:
            top, bottom = arr.c[i - 1], arr.b[i]
    return [_step("head_ratio_cap", Fraction(top, bottom), "<=", alpha2)]


def _deep_head(b1: int, j: int, s: int) -> tuple[Fraction, Fraction]:
    """The case-3 deep-head chain for s = 3 or 4, and its geometric limit.

    chain = lead/(2 b1) + (1 + alpha2 + ... + alpha2^(j-s) + (j - 1/2) alpha2^(j-s))/(s b1)
    with lead = s - 1 and alpha2 = u/w = (b1-2)/(b1-1).  The geometric sum is
    w (1 - alpha2^(j-s+1)) and its limit w, so both values are exact
    fractions over 2 s b1 w^(j-s).
    """
    lead = s - 1
    u, w = b1 - 2, b1 - 1
    u_pow, w_pow = u ** (j - s), w ** (j - s)
    rest = lead * s * w_pow + (2 * j - 1) * u_pow
    den = 2 * s * b1 * w_pow
    return Fraction(rest + 2 * (w * w_pow - u * u_pow), den), Fraction(rest + 2 * w * w_pow, den)


def _ratio3_steps(profile: PotentialProfile, alpha2: Fraction) -> list[TraceStep]:
    params = profile.params
    arr = params.array
    b1 = arr.b[1]
    j = params.j
    chain, geo = _deep_head(b1, j, 3)
    # the tail weight rises up to i = b1 - 1 and falls after it, so it is at most its
    # value at m = min(j, b1 - 1); for b1 = 3 the peak is below j >= 4, so j = 4 dominates
    m = min(j, b1 - 1)
    peak = (m - Fraction(1, 2)) * alpha2 ** (m - 3) if b1 >= 4 else Fraction(7, 2) * alpha2
    head = Fraction(1, b1) + Fraction(b1 - 1, 3 * b1)  # geo less its tail term
    steps = [
        _step("sub_cond", Fraction(arr.b[2], arr.c[1]), ">=", 3),
        *_head_ratio_cap(arr, 3, j - 1, alpha2),
        _step("chain", profile.ratio, "<=", chain),
        _step("geometric_head", chain, "<", geo),
        _step("tail_peak", (j - Fraction(1, 2)) * alpha2 ** (j - 3), "<=", peak),
    ]
    if b1 >= 4:
        steps += [
            _step("peak_cap", peak / (3 * b1), "<=", Fraction(1, 3)),
            *_target_gap("final_value", head + Fraction(1, 3), "==", Fraction(2 * b1 + 2, 3 * b1)),
        ]
    else:
        steps += _target_gap("final_value", head + peak / (3 * b1), "==", Fraction(3, 4))
    return steps


def _product4_steps(profile: PotentialProfile, alpha2: Fraction) -> list[TraceStep]:
    params = profile.params
    arr = params.array
    b, c = arr.b, arr.c
    rho = profile.ratio
    b1 = b[1]
    j = params.j
    chain, _ = _deep_head(b1, j, 4)
    steps = [
        _step("sub_cond", Fraction(b[2] * b[3], c[1] * c[2]), ">=", 4),
        _step("half_cond", Fraction(b[2], c[1]), ">=", 2),
        *_head_ratio_cap(arr, 4, j - 1, alpha2),
        _step("chain", rho, "<=", chain),
    ]
    if j == 4:
        return steps + [
            _step("j4_value", chain, "==", Fraction(21, 2) / (4 * b1)),
            *_target_gap("cap_value", Fraction(21, 2) / (4 * b1), "<=", Fraction(7, 8)),
        ]

    # the tail weight rises up to i = b1 - 1 and falls after it, so it is at most its
    # value at m = min(j, b1 - 1); for b1 <= 5 the peak is below j >= 5, so j = 5 dominates
    m = min(j, b1 - 1)
    peak = (m - Fraction(1, 2)) * alpha2 ** (m - 4) if b1 >= 6 else Fraction(9, 2) * alpha2
    head = Fraction(3, 2 * b1) + Fraction(b1 - 1, 4 * b1)  # the geometric limit less its tail term
    bound = head + peak / (4 * b1)
    steps += [
        _step("tail_peak", (j - Fraction(1, 2)) * alpha2 ** (j - 4), "<=", peak),
        _step("bound_peak" if b1 >= 6 else "bound_j5", rho, "<", bound),
    ]
    if b1 == 3:  # alpha2 = 1/2 exactly
        steps += _target_gap("final_value", bound, "==", Fraction(41, 48))
    elif b1 <= 5:
        steps += _target_gap("alpha_cap", bound, "<", head + Fraction(9, 2) / (4 * b1))
    else:
        steps += [
            _step(
                "half_cap",
                Fraction(b1 - 1, 4 * b1) + peak / (4 * b1),
                "<",
                Fraction(1, 2),
            ),
            *_target_gap("final_value", Fraction(3, 2 * b1) + Fraction(1, 2), "<=", Fraction(3, 4)),
        ]
    return steps


def _optimal_case4(profile: PotentialProfile, case: CaseId) -> BoundTrace:
    params = profile.params
    arr = params.array
    phi = profile.phi
    rho = profile.ratio
    D = arr.D
    b1, b2 = arr.b[1], arr.b[2]
    c2, c3 = arr.c[1], arr.c[2]
    b3 = arr.b[3] if D >= 4 else 0  # K_{D+1} is empty, so b_D = 0

    steps = [_step("c2_vs_c3", c2, "<=", Fraction(2, 3) * c3)]
    notes: tuple[str, ...] = ()  # each note names an assumption the branch rests on

    if c3 > b3:
        branch = "c3_gt_b3"
        alpha = Fraction(b1 - 1, b1)
        cap = Fraction(4 * b1 - 3, b1 * b1)
        steps += [
            _step("diameter_cap", D, "<=", 5),
            _step("head_contraction_2", phi[2], "<", alpha * phi[1]),
            _step("phi2_cap", phi[2], "<", alpha / b1 * phi[0]),
            _step("interior_count", profile.phi_sum(2), "<=", 3 * phi[2]),
        ]
        if b1 >= 4:
            steps += _cap_ending(rho, cap, Fraction(13, 16))
        else:
            # b1 = 3 with c2 > 1 contradicts the classification facts for
            # real graphs; the stated 5/6 cap is still evaluated here.
            steps += [
                _step("rho_cap", rho, "<", cap),
                *_target_gap("stated_cap", rho, "<", Fraction(5, 6)),
            ]
            notes = (
                "b_1 = 3 with c_2 > 1 cannot occur for an actual graph in "
                "this case; the cap is evaluated as stated",
            )
    elif 2 * c2 <= b2:  # c_2/b_2 <= 1/2
        branch = "c3_eq_b3_half"
        steps += [
            _step("ratio_half", Fraction(c2, b2), "<=", Fraction(1, 2)),
            _step("tail_split", profile.phi_sum(3), "<=", Fraction(5, 2) * phi[2]),
            _step("half_drop", phi[2], "<", phi[1] / 2),
            *_j3_sum_cap(profile),
        ]
    else:
        branch = "c3_eq_b3_quadrangle"
        steps += _quadrangle_chain(profile)
        notes = (_QUADRANGLE_NOTE,)

    return _trace(
        profile, case, steps, branch=branch, assumption_dependent=bool(notes), notes=notes
    )


def _quadrangle_chain(profile: PotentialProfile) -> list[TraceStep]:
    """Shared quadrangle chain: D <= b1+1 and c2/b2 <= 2/3 give (2b1+1)/(3b1)."""
    params = profile.params
    arr = params.array
    phi = profile.phi
    k = params.k
    b1, b2 = arr.b[1], arr.b[2]
    c2 = arr.c[1]
    final = Fraction(1, b1) + Fraction(2, 3) * Fraction(b1 - 1, b1)
    return [
        _step("quad_cond", Fraction(c2, b2), ">", Fraction(1, 2)),
        _step("diameter_quad", arr.D, "<=", Fraction(2 * k, k + 1 - b1)),
        _step("quad_diameter_cap", Fraction(2 * k, k + 1 - b1), "<=", b1 + 1),
        _step("c3_growth", arr.c[2], ">=", Fraction(3, 2) * c2),
        _step("ratio_23", Fraction(c2, b2), "<=", Fraction(2, 3)),
        _step("interior_count", profile.phi_sum(2), "<=", (b1 - 1) * phi[2]),
        _step("initial_drop", phi[1], "<", phi[0] / b1),
        _step("phi2_cap", phi[2], "<", Fraction(2, 3) * phi[1]),
        *_cap_ending(profile.ratio, final, Fraction(2 * b1 + 1, 3 * b1), "final_value", "=="),
    ]


def _optimal_case5(profile: PotentialProfile, case: CaseId) -> BoundTrace:
    if profile.params.j == 2:
        # a short tail needs no quadrangle machinery at all
        return _trace(
            profile,
            case,
            _split_j2_steps(profile),
            branch="split_j2",
            notes=("head/tail split at j = 2: the tail bound alone suffices",),
        )
    return _trace(
        profile,
        case,
        _quadrangle_chain(profile),
        branch="quadrangle",
        assumption_dependent=True,
        notes=(_QUADRANGLE_NOTE,),
    )


def _optimal_case6(profile: PotentialProfile, case: CaseId) -> BoundTrace:
    params = profile.params
    phi = profile.phi
    b1 = params.array.b[1]
    c2 = params.array.c[1]
    ten_ratio = 10 * phi[1] / phi[0]
    steps = (
        _step("k_cap", params.k, ">=", 50 * (c2 - 1)),
        _step("b1_large", b1, ">", 20),
        _step("interior_tail_cap", profile.phi_sum(2), "<", 9 * phi[1]),
        _step("initial_drop", phi[1], "<", phi[0] / b1),
        _step("rho_ten", profile.ratio, "<", ten_ratio),
        *_target_gap("ten_half", ten_ratio, "<", Fraction(1, 2)),
    )
    return _trace(
        profile,
        case,
        steps,
        assumption_dependent=True,
        notes=(
            "quadrangle-freeness is a structural property not decidable "
            "from the array; preconditions are reported, not assumed",
        ),
    )


# Tested in order: a test may assume every earlier test failed (so D >= 3 from case 2 on).
CASES = (
    CaseRow(
        CaseId.D1_TRIVIAL, lambda p: p.D == 1, note="diameter 1: no interior potentials, rho = 0"
    ),
    CaseRow(
        CaseId.COCKTAIL,
        lambda p: is_cocktail_party(p.array),
        note="b_1 = 1 (cocktail-party shape): verified by direct computation",
    ),
    CaseRow(CaseId.CASE1_D2, lambda p: p.D <= 2, _optimal_case1),
    CaseRow(CaseId.CASE2_SMALL_VALENCY, lambda p: p.k in (3, 4), _optimal_case2),
    CaseRow(
        CaseId.CASE3_C2_EQ_1, lambda p: p.array.b[1] >= 3 and p.array.c[1] == 1, _optimal_case3
    ),
    CaseRow(
        CaseId.CASE4_J3, lambda p: p.array.b[1] >= 3 and p.j == 3 and p.array.c[1] > 1, _optimal_case4
    ),
    # quadrangle detection from the array alone, c_2/b_2 > 1/2: sufficient condition only
    CaseRow(CaseId.CASE5_QUADRANGLE, lambda p: 2 * p.array.c[1] > p.array.b[2], _optimal_case5),
    CaseRow(CaseId.CASE6_TERWILLIGER, lambda p: True, _optimal_case6),
)


def _row(params: DerivedParams) -> CaseRow:
    """The first row of `CASES` whose test holds; the last one holds for every array."""
    for row in CASES:
        if row.test(params):
            return row


def classify_case(params: DerivedParams) -> CaseId:
    """First matching case for the optimal-bound analysis, in fixed order."""
    return _row(params).case
