"""Biggs potentials and exact effective resistances from an intersection array.

The potential sequence phi_0,...,phi_{D-1} is defined by phi_0 = n-1 and
phi_i = (c_i*phi_{i-1} - k)/b_i.  Every resistance between vertices at
distance j follows as r_j = 2*(phi_0+...+phi_{j-1})/(nk).  Everything in
this module is exact rational arithmetic.

The recursion runs on integers.  With B_i = b_1...b_i (B_0 = 1) write
phi_i = P_i/B_i; then P_0 = n-1 and P_i = c_i*P_{i-1} - k*B_{i-1}.
Scaled to the common denominator B = B_{D-1}, phi_i = Q_i/B with
Q_i = P_i*b_{i+1}...b_{D-1}, so the resistances and the ratio
rho = (phi_1+...+phi_{D-1})/phi_0 come from integer prefix sums of the
Q_i, and a Fraction is built once per returned value.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from ._record import Record, set_field
from .arrays import DerivedParams


def _numerators(params: DerivedParams) -> list[tuple[int, int]]:
    """(P_i, B_i) for 0 <= i <= D-1: phi_i = P_i/B_i with B_i = b_1...b_i."""
    arr = params.array
    b, c = arr.b, arr.c
    k = params.k
    p, b_prod = params.n - 1, 1
    out = [(p, b_prod)]
    for i in range(1, len(b)):
        p = c[i - 1] * p - k * b_prod
        b_prod *= b[i]
        out.append((p, b_prod))
    return out


def compute_potentials_explicit(params: DerivedParams) -> tuple[Fraction, ...]:
    """Closed form: phi_i = k * sum_{t=i+1}^{D} (b_{i+1}...b_{t-1})/(c_{i+1}...c_t).

    Independent of n and of the recursion: the sum is evaluated from the
    far end by Horner's rule, S_i = (1 + b_{i+1}*S_{i+1})/c_{i+1} with
    S_D = 0, kept as S_i = N_i/C_i with C_i = c_{i+1}...c_D.
    """
    arr = params.array
    b, c = arr.b, arr.c
    num, den = 0, 1
    out = []
    for i in range(arr.D - 1, -1, -1):
        b_next = b[i + 1] if i + 1 < arr.D else 0  # b_D = 0 never multiplies a term
        num, den = den + b_next * num, c[i] * den
        out.append(Fraction(params.k * num, den))
    return tuple(reversed(out))


class PotentialProfile(Record):
    """Potentials and everything derived from them for one array."""

    __slots__ = _fields = ("params", "phi", "resistances", "ratio", "k_effective")

    def __init__(
        self,
        params: DerivedParams,
        phi: tuple[Fraction, ...],
        resistances: tuple[Fraction, ...],
        ratio: Fraction,  # rho = (phi_1 + ... + phi_{D-1}) / phi_0
        k_effective: Fraction,  # r_D / r_1 = 1 + rho
    ) -> None:
        set_field(self, "params", params)
        set_field(self, "phi", phi)
        set_field(self, "resistances", resistances)
        set_field(self, "ratio", ratio)
        set_field(self, "k_effective", k_effective)

    def phi_sum(self, start: int) -> Fraction:
        """phi_start + ... + phi_{D-1} (0 for an empty sum), built as one Fraction.

        Every phi_i has a denominator dividing B = b_1...b_{D-1}, so the sum
        is an integer sum over B.
        """
        common = prod(self.params.array.b[1:])
        total = sum(p.numerator * (common // p.denominator) for p in self.phi[start:])
        return Fraction(total, common)


def compute_profile(params: DerivedParams) -> PotentialProfile:
    """Build the full profile from the integer recursion (see the module docstring)."""
    numerators = _numerators(params)
    common = numerators[-1][1]  # B = b_1...b_{D-1}
    phi = []
    scaled = []  # Q_i = phi_i * B
    for p, b_prod in numerators:
        phi.append(Fraction(p, b_prod))
        scaled.append(p * (common // b_prod))
    nk_common = params.n * params.k * common
    prefix = 0
    resistances = []
    for q in scaled:
        prefix += q
        resistances.append(Fraction(2 * prefix, nk_common))
    q0 = scaled[0]
    return PotentialProfile(
        params=params,
        phi=tuple(phi),
        resistances=tuple(resistances),
        ratio=Fraction(prefix - q0, q0),
        k_effective=Fraction(prefix, q0),
    )


def check_resistance_cap(profile: PotentialProfile) -> tuple[Fraction, bool]:
    """The 4/k cap on the maximal resistance: returns (4/k, r_D < 4/k)."""
    bound = Fraction(4, profile.params.k)
    return bound, profile.resistances[-1] < bound


class TailSumCheck(Record):
    """Tail bound phi_j + ... + phi_{D-1} <= (j - 1/2) * phi_{j-1}."""

    __slots__ = _fields = ("j", "lhs", "rhs")

    def __init__(self, j: int, lhs: Fraction, rhs: Fraction) -> None:
        set_field(self, "j", j)
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


def tail_sum_check(profile: PotentialProfile) -> TailSumCheck:
    """Evaluate the tail bound at the head/tail split index j (empty sum if j = D)."""
    j = profile.params.j
    lhs = profile.phi_sum(j)
    rhs = (j - Fraction(1, 2)) * profile.phi[j - 1]
    return TailSumCheck(j=j, lhs=lhs, rhs=rhs)


class StepBound(Record):
    """One per-index decay inequality phi_i < bound."""

    __slots__ = _fields = ("kind", "i", "phi_i", "bound")

    def __init__(
        self,
        kind: str,  # recursion_ratio | head_contraction | initial_drop
        i: int,
        phi_i: Fraction,
        bound: Fraction,
    ) -> None:
        set_field(self, "kind", kind)
        set_field(self, "i", i)
        set_field(self, "phi_i", phi_i)
        set_field(self, "bound", bound)

    @property
    def holds(self) -> bool:
        return self.phi_i < self.bound


def step_inequalities(profile: PotentialProfile) -> tuple[StepBound, ...]:
    """Per-step decay bounds on the potential sequence.

    recursion_ratio: phi_i < (c_i/b_i) phi_{i-1}     for 1 <= i <= D-1
    head_contraction: phi_i < ((b_1-1)/b_1) phi_{i-1} where b_i > c_i
    initial_drop:    phi_1 < phi_0 / b_1
    Requires D >= 2 and b_1 >= 2.
    """
    b, c = profile.params.array.b, profile.params.array.c
    if len(b) < 2:
        raise ValueError("step inequalities need D >= 2")
    b1 = b[1]
    if b1 < 2:
        raise ValueError("step inequalities need b_1 >= 2")
    alpha = Fraction(b1 - 1, b1)
    out: list[StepBound] = []
    for i in range(1, len(b)):
        prev = profile.phi[i - 1]
        here = profile.phi[i]
        out.append(StepBound("recursion_ratio", i, here, Fraction(c[i - 1], b[i]) * prev))
        if b[i] > c[i - 1]:
            out.append(StepBound("head_contraction", i, here, alpha * prev))
        if i == 1:
            out.append(StepBound("initial_drop", i, here, prev / b1))
    return tuple(out)
