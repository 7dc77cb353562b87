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

Where only rho is read (the audit of each `drg batch` line against the
ratio targets, the catalog's check of its printed ratios),
`compute_ratio` takes it from the same integer sums as one Fraction,
without building the potentials and resistances of `compute_profile`.
Where only the resistances are read (the oracle's check of a graph),
`compute_resistances` builds them from those sums without the
potentials, rho and k_effective.
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


def _scaled(numerators: list[tuple[int, int]]) -> list[int]:
    """Q_i = phi_i * B = P_i * (B/B_i) for each (P_i, B_i), with B = b_1...b_{D-1}."""
    common = numerators[-1][1]
    scaled = []  # a loop: a comprehension costs a call more before Python 3.12
    for p, b_prod in numerators:
        scaled.append(p * (common // b_prod))
    return scaled


def _ratio(q0: int, total: int) -> Fraction:
    """rho = (phi_1 + ... + phi_{D-1})/phi_0 from Q_0 and Q_0 + ... + Q_{D-1}."""
    return Fraction(total - q0, q0)


def compute_ratio(params: DerivedParams) -> Fraction:
    """rho alone, equal to compute_profile(params).ratio: the same integer sums, one Fraction."""
    scaled = _scaled(_numerators(params))
    return _ratio(scaled[0], sum(scaled))


def _resistances(
    params: DerivedParams, numerators: list[tuple[int, int]], scaled: list[int]
) -> tuple[tuple[Fraction, ...], int]:
    """(r_1, ..., r_D), r_j = 2*(Q_0 + ... + Q_{j-1})/(n*k*B), and Q_0 + ... + Q_{D-1}."""
    nk_common = params.n * params.k * numerators[-1][1]
    prefix = 0
    resistances = []
    for q in scaled:
        prefix += q
        resistances.append(Fraction(2 * prefix, nk_common))
    return tuple(resistances), prefix


def compute_resistances(params: DerivedParams) -> tuple[Fraction, ...]:
    """The resistances alone, equal to compute_profile(params).resistances, from the same sums."""
    numerators = _numerators(params)
    return _resistances(params, numerators, _scaled(numerators))[0]


def compute_profile(params: DerivedParams) -> PotentialProfile:
    """Build the full profile from the integer recursion (see the module docstring)."""
    numerators = _numerators(params)
    phi = []
    for p, b_prod in numerators:
        phi.append(Fraction(p, b_prod))
    scaled = _scaled(numerators)
    resistances, total = _resistances(params, numerators, scaled)
    q0 = scaled[0]
    return PotentialProfile(
        params=params,
        phi=tuple(phi),
        resistances=resistances,
        ratio=_ratio(q0, total),
        k_effective=Fraction(total, q0),
    )

