"""Intersection arrays: parsing, feasibility checking, derived parameters.

An intersection array (b_0,...,b_{D-1}; c_1,...,c_D) describes the
distance combinatorics of a distance-regular graph.  Parsing and
validation are deliberately separate so that infeasible arrays can be
reported on instead of rejected outright.

The IntersectionArray constructor owns the shape rules and parse_array
the text grammar; b_i is arr.b[i] and c_i is arr.c[i - 1] everywhere.

An array object is checked once: validate() keeps its report on the
array, with the sphere sizes and a-values it computed, and derive()
builds its parameters from those, so validate() then derive() on one
array, or a second call of either, runs the checks once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, islice
from math import gcd
from operator import attrgetter

from ._record import Record, set_field

# parse_array refuses an array of larger diameter before converting an entry:
# validate() counts up to D^2/2 pairs for an array failing condition (iii).
MAX_DIAMETER = 1024

# validate() keeps this many condition-(iii) pairs, and failure_messages()
# lists this many pairs or sphere sizes, then how many more there are.
_LISTED = 10


class ArrayFormatError(ValueError):
    """Input text does not match the `b0,...,b_{D-1};c1,...,cD` grammar."""


class IntersectionArray(Record):
    """The sequences (b_0,...,b_{D-1}; c_1,...,c_D), all entries positive."""

    _fields = ("b", "c")
    # _validation is validate()'s kept tuple (see _checked), not a field
    __slots__ = (*_fields, "_validation")

    def __init__(self, b: tuple[int, ...], c: tuple[int, ...]) -> None:
        b, c = tuple(b), tuple(c)
        if not b or not c:
            raise ValueError("both sequences must be non-empty")
        if len(b) != len(c):
            raise ValueError(f"unequal sequence lengths: {len(b)} vs {len(c)}")
        for v in (*b, *c):
            if not isinstance(v, int) or isinstance(v, bool) or v <= 0:
                raise ValueError(f"entries must be positive integers, got {v!r}")
        if c[0] != 1:
            raise ValueError(f"c_1 must equal 1, got {c[0]}")
        set_field(self, "b", b)
        set_field(self, "c", c)
        set_field(self, "_validation", None)

    @property
    def D(self) -> int:
        """Diameter: common length of both sequences."""
        return len(self.b)

    @property
    def k(self) -> int:
        """Valency k = b_0."""
        return self.b[0]

    def __str__(self) -> str:
        return format_array(self)


def parse_array(text: str) -> IntersectionArray:
    """Parse `b0,...,b_{D-1};c1,...,cD`: ASCII digits, spaces around, one final newline.

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
    try:
        return IntersectionArray(b, c)
    except ValueError as exc:  # a shape rule, re-labelled as a format error
        raise ArrayFormatError(str(exc)) from exc


def _parse_side(side: str, label: str) -> list[int]:
    values = []
    for token in side.split(","):
        digits = token.removesuffix("\n").strip(" ")
        if not (digits.isascii() and digits.isdigit()):
            raise ArrayFormatError(f"bad token {token!r} in {label}-sequence")
        try:
            values.append(int(digits))
        except ValueError as exc:  # beyond sys.get_int_max_str_digits()
            raise ArrayFormatError(
                f"entry of {len(digits)} digits in {label}-sequence is too long to convert"
            ) from exc
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


def _a_values(b: tuple[int, ...], c: tuple[int, ...]) -> tuple[int, ...]:
    """a_1,...,a_D with a_i = k - b_i - c_i and b_D = 0."""
    k = b[0]
    return tuple([k - b_i - c_i for b_i, c_i in zip((*b[1:], 0), c)])


def sphere_sizes_exact(arr: IntersectionArray) -> tuple[Fraction, ...]:
    """|K_0|,...,|K_D| as exact rationals: |K_i| = (b_0...b_{i-1})/(c_1...c_i).

    Rational-valued so non-integral (infeasible) sizes can be reported.
    """
    return tuple(Fraction(num, den) for num, den in _sphere_pairs(arr.b, arr.c))


# The feasibility checks, in report order: (ValidationReport field, text label).
# ValidationReport.failure_messages() holds each one's failure text.
CHECKS = (
    ("condition_i", "condition (i)  b-sequence strictly then weakly decreasing"),
    ("condition_ii", "condition (ii) c-sequence weakly increasing from 1"),
    ("condition_iii", "condition (iii) b_i >= c_j for i+j <= D"),
    ("integral_spheres", "integral sphere sizes"),
    ("nonnegative_a", "nonnegative a_i"),
    ("handshake_even", "handshake (n*k even)"),
)
_CHECKED = attrgetter(*(field for field, _ in CHECKS))


class ValidationReport(Record):
    """Outcome of every feasibility check, plus the standing-assumption flags.

    validate() makes one report per array object and returns it on every
    call, so a report is shared, like graphs.DistancePartitionReport.

    `passed` covers the feasibility checks (CHECKS) only; k >= 3 and
    b_1 >= 2 are informational flags (arrays may be analyzed without them).
    condition_iii_failures holds the first _LISTED failing pairs (i, j)
    in (i, j) order and condition_iii_count how many there are in all.
    """

    __slots__ = _fields = (
        "array",
        "condition_i",
        "condition_ii",
        "condition_iii",
        "condition_iii_failures",
        "condition_iii_count",
        "integral_spheres",
        "non_integral_at",
        "nonnegative_a",
        "negative_a_at",
        "handshake_even",
        "k_ge_3",
        "b1_ge_2",
    )

    def __init__(
        self,
        array: IntersectionArray,
        condition_i: bool,
        condition_ii: bool,
        condition_iii: bool,
        condition_iii_failures: tuple[tuple[int, int], ...],
        condition_iii_count: int,
        integral_spheres: bool,
        non_integral_at: tuple[int, ...],
        nonnegative_a: bool,
        negative_a_at: tuple[int, ...],
        handshake_even: bool,
        k_ge_3: bool,
        b1_ge_2: bool,
    ) -> None:
        set_field(self, "array", array)
        set_field(self, "condition_i", condition_i)
        set_field(self, "condition_ii", condition_ii)
        set_field(self, "condition_iii", condition_iii)
        set_field(self, "condition_iii_failures", condition_iii_failures)
        set_field(self, "condition_iii_count", condition_iii_count)
        set_field(self, "integral_spheres", integral_spheres)
        set_field(self, "non_integral_at", non_integral_at)
        set_field(self, "nonnegative_a", nonnegative_a)
        set_field(self, "negative_a_at", negative_a_at)
        set_field(self, "handshake_even", handshake_even)
        set_field(self, "k_ge_3", k_ge_3)
        set_field(self, "b1_ge_2", b1_ge_2)

    @property
    def passed(self) -> bool:
        return all(_CHECKED(self))

    def failure_messages(self) -> tuple[str, ...]:
        b, c = self.array.b, self.array.c
        out = []
        if not self.condition_i:
            out.append(f"condition (i) fails: b = {b} is not k > b_1 >= ... >= b_(D-1)")
        if not self.condition_ii:
            out.append(f"condition (ii) fails: c = {c} is not 1 = c_1 <= ... <= c_D")
        if not self.condition_iii:
            pair = lambda ij: f"b_{ij[0]}={b[ij[0]]} < c_{ij[1]}={c[ij[1] - 1]}"
            pairs = _listed(self.condition_iii_failures, pair, self.condition_iii_count)
            out.append(f"condition (iii) fails: {pairs}")
        if not self.integral_spheres:
            sizes = sphere_sizes_exact(self.array)
            at = self.non_integral_at
            vals = _listed(at, lambda i: f"|K_{i}| = {sizes[i]}", len(at))
            out.append(f"non-integral sphere sizes: {vals}")
        if not self.nonnegative_a:
            idx = ", ".join(f"a_{i}" for i in self.negative_a_at)
            out.append(f"negative intersection numbers: {idx} < 0")
        if not self.handshake_even:
            out.append("handshake fails: n*k is odd, so the edge count nk/2 is not an integer")
        return tuple(out)


def _listed(items: tuple, render, total: int) -> str:
    """render(item) for the first _LISTED items, then how many more of `total` there are."""
    more = f", … and {total - _LISTED} more" if total > _LISTED else ""
    return ", ".join(map(render, items[:_LISTED])) + more


def validate(arr: IntersectionArray) -> ValidationReport:
    """Check the feasibility conditions; failures are reported, never raised.

    The report is computed once per array object and kept on it, so a
    later call returns the same report.  An equal array in another object
    is checked again and gets its own report, whose .array is that object.
    """
    return _checked(arr)[0]


def _checked(arr: IntersectionArray) -> tuple[ValidationReport, list, tuple]:
    """(report, sphere-size pairs, a-values) of `arr`, computed once and kept on it.

    The tuple is in a slot outside the array's fields, so ==, hash, repr,
    copies and pickles ignore it.
    """
    kept = arr._validation
    if kept is None:
        kept = _validate(arr)
        set_field(arr, "_validation", kept)
    return kept


def _validate(arr: IntersectionArray) -> tuple[ValidationReport, list, tuple]:
    """validate() from scratch, with the integers derive() reuses."""
    b, c = arr.b, arr.c
    D = len(b)
    k = b[0]

    cond_i = D < 2 or (b[0] > b[1] and all(x >= y for x, y in zip(b[1:], b[2:])))
    cond_ii = all(x <= y for x, y in zip(c, c[1:]))

    # (iii) b_i >= c_j for i + j <= D: row i can fail only if the largest of
    # c_1..c_{D-i} exceeds b_i, so only such rows are counted, and scanned
    # pair by pair until _LISTED pairs are found
    c_max = list(accumulate(c, max))  # c_max[m - 1] = max(c_1, ..., c_m)
    rows = [i for i in range(D) if c_max[D - i - 1] > b[i]]
    iii_failures, iii_count = (), 0
    if rows:
        iii_count = sum(sum(map(b[i].__lt__, c[: D - i])) for i in rows)
        pairs = ((i, j) for i in rows for j in range(1, D - i + 1) if b[i] < c[j - 1])
        iii_failures = tuple(islice(pairs, _LISTED))

    sizes = _sphere_pairs(b, c)
    a = _a_values(b, c)
    non_integral = tuple(i for i, (_, den) in enumerate(sizes) if den != 1)
    neg_a = tuple(i for i, a_i in enumerate(a, start=1) if a_i < 0)

    if non_integral:
        handshake = True  # vacuous: n is not even well-defined
    else:
        n = sum(num for num, _ in sizes)
        handshake = (n * k) % 2 == 0

    report = ValidationReport(
        array=arr,
        condition_i=cond_i,
        condition_ii=cond_ii,
        condition_iii=not iii_count,
        condition_iii_failures=iii_failures,
        condition_iii_count=iii_count,
        integral_spheres=not non_integral,
        non_integral_at=non_integral,
        nonnegative_a=not neg_a,
        negative_a_at=neg_a,
        handshake_even=handshake,
        k_ge_3=k >= 3,
        b1_ge_2=D >= 2 and b[1] >= 2,
    )
    return report, sizes, a


class DerivedParams(Record):
    """Parameters derived from a feasible array.

    a holds a_1,...,a_D (a_i = k - b_i - c_i, with a_D = k - c_D);
    sphere_sizes holds |K_0|,...,|K_D|; j is the head/tail split index:
    the least i in [1, D-1] with c_i >= b_i, or D if there is none.
    """

    _fields = ("array", "k", "n", "a", "sphere_sizes", "j")
    # _case_row is the CASES row proofs._row found for these params, not a field
    __slots__ = (*_fields, "_case_row")

    def __init__(
        self,
        array: IntersectionArray,
        k: int,
        n: int,
        a: tuple[int, ...],
        sphere_sizes: tuple[int, ...],
        j: int,
    ) -> None:
        set_field(self, "array", array)
        set_field(self, "k", k)
        set_field(self, "n", n)
        set_field(self, "a", a)
        set_field(self, "sphere_sizes", sphere_sizes)
        set_field(self, "j", j)
        set_field(self, "_case_row", None)

    @property
    def D(self) -> int:
        return self.array.D


def derive(arr: IntersectionArray) -> DerivedParams:
    """Compute k, n, a_i, sphere sizes and the split index j.

    Raises ValueError if the array fails validation.  The sizes and
    a-values are the integers validate() kept on `arr`, so an array
    already validated is not checked again.
    """
    report, sizes, a = _checked(arr)
    if not report.passed:
        raise ValueError("array failed validation: " + "; ".join(report.failure_messages()))
    b, c = arr.b, arr.c
    sphere_sizes = tuple(num for num, _ in sizes)  # integral: the report passed
    j = next((i for i in range(1, len(b)) if c[i - 1] >= b[i]), len(b))
    return DerivedParams(
        array=arr, k=b[0], n=sum(sphere_sizes), a=a, sphere_sizes=sphere_sizes, j=j
    )


def is_cocktail_party(arr: IntersectionArray) -> bool:
    """True iff b_1 = 1 (D >= 2): the cocktail-party graphs K_{m x 2}."""
    return arr.D >= 2 and arr.b[1] == 1
