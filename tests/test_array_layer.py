"""The integer array layer, pinned two ways.

1. Trace digests: tests/golden/traces.json maps each array text to the
   sha256 of `repr` of its validation report and, for a feasible array,
   of its potential profile and of both bound traces (or of the error a
   prover raises).  The file was generated from the Fraction-based
   array layer, so any change to a returned value, its type or a trace
   step shows here.  The golden proof arrays at the end of the feasible
   set were pinned later, before the proof chains were rebuilt from
   shared pieces.  To regenerate after an intended change:

       PYTHONPATH=src python tests/test_array_layer.py

2. Reference equivalence: the Fraction code that validate, derive_from,
   sphere_sizes_exact and the potentials replaced is kept below, and the
   integer code must match it field for field, types included.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import small_feasible_arrays
from drg import (
    IntersectionArray,
    ValidationReport,
    catalog_list,
    compute_potentials_explicit,
    compute_potentials_recursive,
    compute_profile,
    f_value,
    format_array,
    lookup,
    parse_array,
    prove_k3,
    prove_optimal,
    validate,
)
from drg.arrays import DerivedParams, derive_from, sphere_sizes_exact
from drg.potentials import PotentialProfile
from drg.proofs import f_ratio
from test_golden import PROOF_ARRAYS

TRACES = Path(__file__).parent / "golden" / "traces.json"


# ----------------------------------------------------------------------
# the pinned arrays


def _hamming(d: int, q: int) -> IntersectionArray:
    return IntersectionArray(tuple((d - i) * (q - 1) for i in range(d)), tuple(range(1, d + 1)))


def _johnson(v: int, e: int) -> IntersectionArray:
    D = min(e, v - e)
    return IntersectionArray(
        tuple((e - i) * (v - e - i) for i in range(D)), tuple(i * i for i in range(1, D + 1))
    )


def _odd(m: int) -> IntersectionArray:
    D = m - 1
    return IntersectionArray(
        tuple(m - (i + 1) // 2 for i in range(D)), tuple((i + 1) // 2 for i in range(1, D + 1))
    )


def _corpus_arrays() -> list[IntersectionArray]:
    """The D <= 4 corpus, the catalog rows and family members up to D = 60.

    J(80,40) has b_1 = 1521, the largest proved; H(3,1002) has b_1 = 2002,
    which prove_k3 refuses.  Members with k < 3 pin the provers' refusal.
    """
    out = small_feasible_arrays()
    out += [entry.array for entry in catalog_list(include_env=False)]
    out += [_hamming(d, q) for d in range(1, 61) for q in (2, 3, 7)]
    out += [_hamming(4, 500), _hamming(3, 1002)]
    out += [_johnson(v, e) for e in range(2, 41) for v in (2 * e, 2 * e + 3)]
    out += [_odd(m) for m in range(2, 62)]
    return list(dict.fromkeys(out))


def feasible_arrays() -> list[IntersectionArray]:
    """The corpus, then the golden proof arrays: one per prover case and branch.

    The corpus reaches the deep case-3 subcases only at j = 4; the proof
    arrays pin the j >= 5 branches by `repr`, not only by rendered text.
    """
    proof = [_named_or_parsed(text) for text in PROOF_ARRAYS.values()]
    return list(dict.fromkeys(_corpus_arrays() + proof))


def _named_or_parsed(text: str) -> IntersectionArray:
    entry = lookup(text, include_env=False)
    return entry.array if entry else parse_array(text)


def perturbed_arrays(count: int = 60) -> list[IntersectionArray]:
    """Infeasible arrays: one entry of a feasible array (not c_1) moved by one or two."""
    rng = random.Random(20130)
    pool = _corpus_arrays()  # the pool the pinned perturbations were drawn from
    out: dict[IntersectionArray, None] = {}
    while len(out) < count:
        arr = rng.choice(pool)
        b, c = list(arr.b), list(arr.c)
        pos = rng.randrange(len(b) + len(c) - 1)
        side, idx = (b, pos) if pos < len(b) else (c, pos - len(b) + 1)
        side[idx] += rng.choice((-2, -1, 1, 2))
        if side[idx] > 0:
            moved = IntersectionArray(tuple(b), tuple(c))
            if not validate_reference(moved).passed:
                out[moved] = None
    return list(out)


@contextlib.contextmanager
def _unlimited_int_str():
    """repr of a trace at b_1 = 1521 holds integers past the 4300-digit str() limit."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _proved(prover, profile) -> str:
    try:
        return _sha(prover(profile))
    except ValueError as exc:
        return _sha(f"ValueError: {exc}")


def digests(arr: IntersectionArray) -> dict[str, str]:
    with _unlimited_int_str():
        report = validate(arr)
        out = {"validate": _sha(report)}
        if report.passed:
            profile = compute_profile(derive_from(report))
            out["profile"] = _sha(profile)
            out["k3"] = _proved(prove_k3, profile)
            out["optimal"] = _proved(prove_optimal, profile)
    return out


def regenerate() -> None:
    table = {format_array(a): digests(a) for a in feasible_arrays() + perturbed_arrays()}
    lines = [f"  {json.dumps(text)}: {json.dumps(d)}" for text, d in table.items()]
    TRACES.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


@pytest.fixture(scope="module")
def feasible() -> list[IntersectionArray]:
    return feasible_arrays()


@pytest.fixture(scope="module")
def perturbed() -> list[IntersectionArray]:
    return perturbed_arrays()


@pytest.fixture(scope="module")
def pinned() -> dict[str, dict[str, str]]:
    return json.loads(TRACES.read_text(encoding="utf-8"))


def test_pinned_set_is_the_generated_set(pinned, feasible, perturbed):
    assert list(pinned) == [format_array(a) for a in feasible + perturbed]
    assert format_array(_johnson(80, 40)) in pinned
    assert sum("k3" in d for d in pinned.values()) == len(feasible)


def test_trace_digests_match(pinned, feasible, perturbed):
    changed = [
        format_array(a) for a in feasible + perturbed if digests(a) != pinned.get(format_array(a))
    ]
    assert changed == []


# ----------------------------------------------------------------------
# the reference: the Fraction code the integer layer replaced


def sphere_sizes_reference(arr: IntersectionArray) -> tuple[Fraction, ...]:
    sizes = [Fraction(1)]
    for i in range(arr.D):
        sizes.append(sizes[-1] * arr.bi(i) / arr.ci(i + 1))
    return tuple(sizes)


def validate_reference(arr: IntersectionArray) -> ValidationReport:
    D = arr.D
    k = arr.k
    cond_i = all(
        arr.bi(i) > arr.bi(i + 1) if i == 0 else arr.bi(i) >= arr.bi(i + 1)
        for i in range(D - 1)
    )
    cond_ii = all(arr.ci(i) <= arr.ci(i + 1) for i in range(1, D))
    iii_failures = tuple(
        (i, j)
        for i in range(D)
        for j in range(1, D + 1)
        if i + j <= D and arr.bi(i) < arr.ci(j)
    )
    sizes = sphere_sizes_reference(arr)
    non_integral = tuple(i for i, s in enumerate(sizes) if s.denominator != 1)
    neg_a = tuple(
        i
        for i in range(1, D + 1)
        if (k - (arr.bi(i) if i < D else 0) - arr.ci(i)) < 0
    )
    if non_integral:
        handshake = True
    else:
        n = sum(int(s) for s in sizes)
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
        b1_ge_2=D >= 2 and arr.bi(1) >= 2,
    )


def derive_reference(report: ValidationReport) -> DerivedParams:
    arr = report.array
    D = arr.D
    k = arr.k
    sizes = tuple(int(s) for s in sphere_sizes_reference(arr))
    a = tuple(k - (arr.bi(i) if i < D else 0) - arr.ci(i) for i in range(1, D + 1))
    j = next((i for i in range(1, D) if arr.ci(i) >= arr.bi(i)), D)
    return DerivedParams(array=arr, k=k, n=sum(sizes), a=a, sphere_sizes=sizes, j=j)


def potentials_recursive_reference(params: DerivedParams) -> tuple[Fraction, ...]:
    arr = params.array
    phi = [Fraction(params.n - 1)]
    for i in range(1, arr.D):
        phi.append((arr.ci(i) * phi[-1] - params.k) / arr.bi(i))
    return tuple(phi)


def potentials_explicit_reference(params: DerivedParams) -> tuple[Fraction, ...]:
    arr = params.array
    out = []
    for i in range(arr.D):
        total = Fraction(0)
        num = den = 1
        for t in range(i + 1, arr.D + 1):
            if t > i + 1:
                num *= arr.bi(t - 1)
            den *= arr.ci(t)
            total += Fraction(num, den)
        out.append(params.k * total)
    return tuple(out)


def profile_reference(params: DerivedParams) -> PotentialProfile:
    phi = potentials_recursive_reference(params)
    res = []
    acc = Fraction(0)
    for value in phi:
        acc += value
        res.append(2 * acc / (params.n * params.k))
    rho = sum(phi[1:], Fraction(0)) / phi[0]
    return PotentialProfile(
        params=params, phi=phi, resistances=tuple(res), ratio=rho, k_effective=1 + rho
    )


def _same(got, want) -> bool:
    """Equal values of equal types: repr tells Fraction(3, 1) from 3."""
    with _unlimited_int_str():
        return repr(got) == repr(want)


def test_perturbations_fail_every_kind_of_check(perturbed):
    reports = [validate_reference(a) for a in perturbed]
    for check in (
        "condition_i",
        "condition_ii",
        "condition_iii",
        "integral_spheres",
        "nonnegative_a",
        "handshake_even",
    ):
        assert any(not getattr(r, check) for r in reports), check


def test_validate_matches_reference(feasible, perturbed):
    for arr in feasible + perturbed:
        report = validate(arr)
        want = validate_reference(arr)
        assert _same(report, want), format_array(arr)
        assert _same(sphere_sizes_exact(arr), sphere_sizes_reference(arr)), format_array(arr)
        assert report.failure_messages() == want.failure_messages()


def test_derive_and_profile_match_reference(feasible, perturbed):
    reports = [r for r in map(validate, feasible + perturbed) if r.passed]
    assert [r.array for r in reports] == feasible
    for report in reports:
        params = derive_from(report)
        assert _same(params, derive_reference(report)), format_array(report.array)
        profile = compute_profile(params)
        assert _same(profile, profile_reference(params))
        for start in range(params.D + 1):
            assert _same(profile.phi_sum(start), sum(profile.phi[start:], Fraction(0)))
        assert _same(compute_potentials_recursive(params), potentials_recursive_reference(params))
        assert _same(compute_potentials_explicit(params), potentials_explicit_reference(params))


@pytest.mark.parametrize("b1", range(2, 41))
def test_f_ratio_is_the_quotient_of_f_values(b1):
    for i in range(1, 3 * b1 + 1):
        assert f_ratio(b1, i) == f_value(b1, i + 1) / f_value(b1, i)


if __name__ == "__main__":
    regenerate()
