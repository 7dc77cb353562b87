"""The value records every module returns: one instance of each, checked
against the frozen-dataclass contract that callers rely on (repr, ==,
hash, immutability, copies and pickles, keyword construction)."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from drg import (
    IntersectionArray,
    catalog_list,
    compute_profile,
    construct,
    cross_validate,
    derive,
    parse_array,
    proofs,
    validate,
    verify_drg,
)
from drg._record import Record
from drg.graphs import Violation
from drg.proofs import BoundTrace, CaseId, CaseRow, TraceStep

K4 = "IntersectionArray(b=(3,), c=(1,))"
K4_PARAMS = f"DerivedParams(array={K4}, k=3, n=4, a=(2,), sphere_sizes=(1, 3), j=1)"
K3_REPORT = (
    "DistancePartitionReport(is_drg=True, observed_array=IntersectionArray(b=(2,), c=(1,)), "
    "violations=(), diameter=1, distances=[[0, 1, 1], [1, 0, 1], [1, 1, 0]])"
)
K3_CLASS = "ClassCheck(distance=1, expected=Fraction(2, 3), pairs_checked=3, mismatches=())"


# (build one instance, its repr as the frozen dataclasses printed it)
RECORDS = {
    "IntersectionArray": (lambda: parse_array("3;1"), K4),
    "ValidationReport": (
        lambda: validate(parse_array("3;1")),
        f"ValidationReport(array={K4}, condition_i=True, condition_ii=True, "
        "condition_iii=True, condition_iii_failures=(), condition_iii_count=0, "
        "integral_spheres=True, non_integral_at=(), nonnegative_a=True, negative_a_at=(), "
        "handshake_even=True, k_ge_3=True, b1_ge_2=False)",
    ),
    "DerivedParams": (lambda: derive(parse_array("3;1")), K4_PARAMS),
    "PotentialProfile": (
        lambda: compute_profile(derive(parse_array("3;1"))),
        f"PotentialProfile(params={K4_PARAMS}, phi=(Fraction(3, 1),), "
        "resistances=(Fraction(1, 2),), ratio=Fraction(0, 1), k_effective=Fraction(1, 1))",
    ),
    "TraceStep": (
        lambda: TraceStep("x", 1, "<", Fraction(3, 2)),
        "TraceStep(label='x', lhs=Fraction(1, 1), relation='<', rhs=Fraction(3, 2))",
    ),
    "BoundTrace": (
        lambda: proofs.prove_k3(compute_profile(derive(parse_array("3;1")))),
        "BoundTrace(case_id=<CaseId.D1_TRIVIAL: 'D1_TRIVIAL'>, target=Fraction(2, 1), "
        "rho=Fraction(0, 1), steps=(TraceStep(label='rho_lt_target', lhs=Fraction(0, 1), "
        "relation='<', rhs=Fraction(2, 1)),), verdict=True, alpha=None, branch=None, "
        "extremal=False, proof_path_available=True, assumption_dependent=False, "
        "notes=('diameter 1: no interior potentials, rho = 0',))",
    ),
    "RatioBound": (
        lambda: proofs.BOUNDS[1],
        "RatioBound(name='k3', target=Fraction(2, 1), prover='prove_k3')",
    ),
    "CaseRow": (
        lambda: CaseRow(CaseId.D1_TRIVIAL, bool, note="direct"),
        "CaseRow(case=<CaseId.D1_TRIVIAL: 'D1_TRIVIAL'>, test=<class 'bool'>, chain=None, "
        "note='direct')",
    ),
    "CatalogEntry": (
        lambda: next(e for e in catalog_list() if e.name == "Complete graph K_4"),
        "CatalogEntry(name='Complete graph K_4', slug='complete-graph-k-4', vertices=4, "
        f"array={K4}, paper_ratio=None, constructible='complete:4', supplementary=True, "
        "ratio=Fraction(0, 1))",
    ),
    "Violation": (
        lambda: Violation(0, 1, "c1", 1, 2),
        "Violation(base=0, target=1, kind='c1', expected=1, observed=2)",
    ),
    "DistancePartitionReport": (lambda: verify_drg(construct("complete", 3)), K3_REPORT),
    "ClassCheck": (lambda: cross_validate(construct("complete", 3)).classes[0], K3_CLASS),
    "CrossValidation": (
        lambda: cross_validate(construct("complete", 3)),
        f"CrossValidation(graph_name='complete(3)', drg_report={K3_REPORT}, "
        f"classes=({K3_CLASS},))",
    ),
}

# a list among the fields (the report's distances) makes a record unhashable
UNHASHABLE = {"DistancePartitionReport", "CrossValidation"}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    build, text = RECORDS[request.param]
    return request.param, build, text


def test_the_repr_names_every_field_in_order(record):
    name, build, text = record
    obj = build()
    assert type(obj).__name__ == name
    assert repr(obj) == text


def test_equality_and_hash_read_the_fields(record):
    name, build, _ = record
    obj, again = build(), build()
    assert obj == again and not obj != again
    values = tuple(getattr(obj, field) for field in type(obj)._fields)
    assert obj != values
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)
    else:
        assert hash(obj) == hash(again) == hash(values)


def test_a_field_can_be_neither_assigned_nor_deleted(record):
    _, build, text = record
    obj = build()
    for field in type(obj)._fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(obj, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert repr(obj) == text


def test_copies_and_pickles_equal_the_original(record):
    _, build, text = record
    obj = build()
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is type(obj)
        assert twin == obj and repr(twin) == text


def test_the_kept_report_is_not_part_of_the_array_value():
    arr = parse_array("3,2;1,1")
    report = validate(arr)
    fresh = IntersectionArray(arr.b, arr.c)
    assert arr._validation[0] is report and fresh._validation is None
    assert arr == fresh and hash(arr) == hash(fresh) and repr(arr) == repr(fresh)


def test_keyword_construction_takes_the_defaults():
    profile = compute_profile(derive(parse_array("3;1")))
    given = dict(case_id=CaseId.D1_TRIVIAL, target=Fraction(2), rho=Fraction(0), steps=())
    full = BoundTrace(
        **given,
        verdict=True,
        alpha=None,
        branch=None,
        extremal=False,
        proof_path_available=True,
        assumption_dependent=False,
        notes=(),
    )
    assert BoundTrace(**given, verdict=True) == full
    # _trace fills verdict and alpha and passes every other field by keyword
    trace = proofs._trace(profile, CaseId.D1_TRIVIAL, (), Fraction(2), notes=("n",))
    assert trace == BoundTrace(**given, verdict=True, notes=("n",))
    row = CaseRow(CaseId.CASE1_D2, bool, chain=proofs.prove_k3)
    assert (row.chain, row.note) == (proofs.prove_k3, None)


def test_a_record_needs_two_fields():
    with pytest.raises(TypeError, match="needs at least two fields"):

        class One(Record):
            __slots__ = _fields = ("x",)
