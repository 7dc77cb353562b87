"""Intersection arrays: parsing, feasibility checking, derived parameters.

An intersection array (b_0,...,b_{D-1}; c_1,...,c_D) describes the
distance combinatorics of a distance-regular graph.  Parsing and
validation are deliberately separate so that infeasible arrays can be
reported on instead of rejected outright.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd

_INT_TOKEN = re.compile(r"^[ ]*([0-9]+)[ ]*$")

# parse_array refuses an array of larger diameter before converting an entry:
# validate() lists up to D^2/2 pairs for an array failing condition (iii).
MAX_DIAMETER = 1024

# failure_messages() prints this many condition-(iii) pairs and counts the rest.
_LISTED_III_PAIRS = 10


class ArrayFormatError(ValueError):
    """Input text does not match the `b0,...,b_{D-1};c1,...,cD` grammar."""


@dataclass(frozen=True)
class IntersectionArray:
    """The sequences (b_0,...,b_{D-1}; c_1,...,c_D), all entries positive."""

    b: tuple[int, ...]
    c: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", tuple(self.b))
        object.__setattr__(self, "c", tuple(self.c))
        if not self.b or not self.c:
            raise ValueError("both sequences must be non-empty")
        if len(self.b) != len(self.c):
            raise ValueError(
                f"unequal sequence lengths: {len(self.b)} vs {len(self.c)}"
            )
        for v in (*self.b, *self.c):
            if not isinstance(v, int) or isinstance(v, bool) or v <= 0:
                raise ValueError(f"entries must be positive integers, got {v!r}")
        if self.c[0] != 1:
            raise ValueError(f"c_1 must equal 1, got {self.c[0]}")

    @property
    def D(self) -> int:
        """Diameter: common length of both sequences."""
        return len(self.b)

    @property
    def k(self) -> int:
        """Valency k = b_0."""
        return self.b[0]

    def bi(self, i: int) -> int:
        """b_i for 0 <= i <= D-1 (mathematical indexing)."""
        if not 0 <= i < self.D:
            raise IndexError(f"b_{i} undefined for D={self.D}")
        return self.b[i]

    def ci(self, i: int) -> int:
        """c_i for 1 <= i <= D (mathematical indexing)."""
        if not 1 <= i <= self.D:
            raise IndexError(f"c_{i} undefined for D={self.D}")
        return self.c[i - 1]

    def __str__(self) -> str:
        return format_array(self)


def parse_array(text: str) -> IntersectionArray:
    """Parse `b0,b1,...,b_{D-1};c1,...,cD` (optional spaces around tokens).

    Grammar only; feasibility is checked separately by validate().
    """
    if not isinstance(text, str):
        raise ArrayFormatError("expected a string")
    if text.count(";") != 1:
        raise ArrayFormatError(f"expected exactly one ';' in {text!r}")
    left, right = text.split(";")
    for side, label in ((left, "b"), (right, "c")):
        entries = side.count(",") + 1
        if entries > MAX_DIAMETER:
            raise ArrayFormatError(
                f"{entries} entries in the {label}-sequence, "
                f"above the largest diameter {MAX_DIAMETER}"
            )
    b = _parse_side(left, "b")
    c = _parse_side(right, "c")
    if len(b) != len(c):
        raise ArrayFormatError(
            f"unequal sequence lengths: {len(b)} vs {len(c)} in {text!r}"
        )
    if c[0] != 1:
        raise ArrayFormatError(f"c_1 must equal 1, got {c[0]}")
    try:
        return IntersectionArray(tuple(b), tuple(c))
    except ValueError as exc:  # positivity etc., re-labelled as a format error
        raise ArrayFormatError(str(exc)) from exc


def _parse_side(side: str, label: str) -> list[int]:
    values = []
    for token in side.split(","):
        digits = token
        if not (token.isascii() and token.isdigit()):  # not bare digits: use the grammar
            m = _INT_TOKEN.match(token)
            if m is None:
                raise ArrayFormatError(f"bad token {token!r} in {label}-sequence")
            digits = m.group(1)
        try:
            v = int(digits)
        except ValueError as exc:  # beyond sys.get_int_max_str_digits()
            raise ArrayFormatError(
                f"entry of {len(digits)} digits in {label}-sequence is too long to convert"
            ) from exc
        if v <= 0:
            raise ArrayFormatError(f"entries must be positive, got {v}")
        values.append(v)
    return values


def format_array(arr: IntersectionArray) -> str:
    """Canonical text form; parse_array(format_array(a)) == a."""
    return ",".join(map(str, arr.b)) + ";" + ",".join(map(str, arr.c))


def _sphere_pairs(b: tuple[int, ...], c: tuple[int, ...]) -> list[tuple[int, int]]:
    """|K_0|,...,|K_D| as reduced (numerator, denominator) pairs.

    |K_{i+1}| = |K_i| * b_i / c_{i+1}, kept reduced by one gcd per step.
    """
    num = den = 1
    out = [(1, 1)]
    for b_i, c_next in zip(b, c):
        num *= b_i
        den *= c_next
        g = gcd(num, den)
        num //= g
        den //= g
        out.append((num, den))
    return out


def _a_values(b: tuple[int, ...], c: tuple[int, ...]) -> list[int]:
    """a_1,...,a_D with a_i = k - b_i - c_i and b_D = 0."""
    k = b[0]
    return [k - b_i - c_i for b_i, c_i in zip((*b[1:], 0), c)]


def sphere_sizes_exact(arr: IntersectionArray) -> tuple[Fraction, ...]:
    """|K_0|,...,|K_D| as exact rationals: |K_i| = (b_0...b_{i-1})/(c_1...c_i).

    Rational-valued so non-integral (infeasible) sizes can be reported.
    """
    return tuple(Fraction(num, den) for num, den in _sphere_pairs(arr.b, arr.c))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of every feasibility check, plus the standing-assumption flags.

    `passed` covers the feasibility checks only; k >= 3 and b_1 >= 2 are
    informational flags (arrays may be analyzed without them).
    """

    array: IntersectionArray
    condition_i: bool
    condition_ii: bool
    condition_iii: bool
    condition_iii_failures: tuple[tuple[int, int], ...]
    integral_spheres: bool
    non_integral_at: tuple[int, ...]
    nonnegative_a: bool
    negative_a_at: tuple[int, ...]
    handshake_even: bool
    k_ge_3: bool
    b1_ge_2: bool

    @property
    def passed(self) -> bool:
        return (
            self.condition_i
            and self.condition_ii
            and self.condition_iii
            and self.integral_spheres
            and self.nonnegative_a
            and self.handshake_even
        )

    def failure_messages(self) -> tuple[str, ...]:
        arr = self.array
        out = []
        if not self.condition_i:
            out.append(f"condition (i) fails: b = {arr.b} is not k > b_1 >= ... >= b_(D-1)")
        if not self.condition_ii:
            out.append(f"condition (ii) fails: c = {arr.c} is not 1 = c_1 <= ... <= c_D")
        if not self.condition_iii:
            failures = self.condition_iii_failures
            listed = failures[:_LISTED_III_PAIRS]
            pairs = ", ".join(f"b_{i}={arr.bi(i)} < c_{j}={arr.ci(j)}" for i, j in listed)
            if len(failures) > len(listed):
                pairs += f", … and {len(failures) - len(listed)} more"
            out.append(f"condition (iii) fails: {pairs}")
        if not self.integral_spheres:
            sizes = sphere_sizes_exact(arr)
            vals = ", ".join(f"|K_{i}| = {sizes[i]}" for i in self.non_integral_at)
            out.append(f"non-integral sphere sizes: {vals}")
        if not self.nonnegative_a:
            idx = ", ".join(f"a_{i}" for i in self.negative_a_at)
            out.append(f"negative intersection numbers: {idx} < 0")
        if not self.handshake_even:
            out.append("handshake fails: n*k is odd, so the edge count nk/2 is not an integer")
        return tuple(out)


def validate(arr: IntersectionArray) -> ValidationReport:
    """Check the feasibility conditions; failures are reported, never raised."""
    b, c = arr.b, arr.c
    D = len(b)
    k = b[0]

    cond_i = D < 2 or (b[0] > b[1] and all(x >= y for x, y in zip(b[1:], b[2:])))
    cond_ii = all(x <= y for x, y in zip(c, c[1:]))

    # (iii) b_i >= c_j for i + j <= D: row i can fail only if the largest of
    # c_1..c_{D-i} exceeds b_i, so only such rows are scanned pair by pair
    c_max = list(accumulate(c, max))  # c_max[m - 1] = max(c_1, ..., c_m)
    iii_failures = tuple(
        (i, j)
        for i in range(D)
        if c_max[D - i - 1] > b[i]
        for j in range(1, D - i + 1)
        if b[i] < c[j - 1]
    )

    sizes = _sphere_pairs(b, c)
    non_integral = tuple(i for i, (_, den) in enumerate(sizes) if den != 1)
    neg_a = tuple(i for i, a_i in enumerate(_a_values(b, c), start=1) if a_i < 0)

    if non_integral:
        handshake = True  # vacuous: n is not even well-defined
    else:
        n = sum(num for num, _ in sizes)
        handshake = (n * k) % 2 == 0

    return ValidationReport(
        array=arr,
        condition_i=cond_i,
        condition_ii=cond_ii,
        condition_iii=not iii_failures,
        condition_iii_failures=iii_failures,
        integral_spheres=not non_integral,
        non_integral_at=non_integral,
        nonnegative_a=not neg_a,
        negative_a_at=neg_a,
        handshake_even=handshake,
        k_ge_3=k >= 3,
        b1_ge_2=D >= 2 and b[1] >= 2,
    )


@dataclass(frozen=True)
class DerivedParams:
    """Parameters derived from a feasible array.

    a holds a_1,...,a_D (a_i = k - b_i - c_i, with a_D = k - c_D);
    sphere_sizes holds |K_0|,...,|K_D|; j is the head/tail split index:
    the least i in [1, D-1] with c_i >= b_i, or D if there is none.
    """

    array: IntersectionArray
    k: int
    n: int
    a: tuple[int, ...]
    sphere_sizes: tuple[int, ...]
    j: int

    @property
    def D(self) -> int:
        return self.array.D


def derive(arr: IntersectionArray) -> DerivedParams:
    """Compute k, n, a_i, sphere sizes and the split index j.

    Raises ValueError if the array fails validation.
    """
    return derive_from(validate(arr))


def derive_from(report: ValidationReport) -> DerivedParams:
    """derive() for the array of a validation report already at hand.

    Raises ValueError if the report did not pass.
    """
    if not report.passed:
        raise ValueError("array failed validation: " + "; ".join(report.failure_messages()))
    arr = report.array
    b, c = arr.b, arr.c
    sizes = tuple(num for num, _ in _sphere_pairs(b, c))  # integral: the report passed
    j = next((i for i in range(1, len(b)) if c[i - 1] >= b[i]), len(b))
    return DerivedParams(
        array=arr, k=b[0], n=sum(sizes), a=tuple(_a_values(b, c)), sphere_sizes=sizes, j=j
    )


def is_cocktail_party(arr: IntersectionArray) -> bool:
    """True iff b_1 = 1 (D >= 2): the cocktail-party graphs K_{m x 2}."""
    return arr.D >= 2 and arr.bi(1) == 1
