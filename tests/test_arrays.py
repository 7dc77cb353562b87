"""Parsing, validation and derived parameters."""

from __future__ import annotations

import copy
import pickle
import re
from fractions import Fraction
from itertools import product

import pytest

from drg import (
    ArrayFormatError,
    arrays,
    IntersectionArray,
    derive,
    format_array,
    is_cocktail_party,
    parse_array,
    validate,
)
from drg.arrays import sphere_sizes_exact


def test_parse_basic():
    arr = parse_array("3,2,1;1,2,3")
    assert arr.b == (3, 2, 1)
    assert arr.c == (1, 2, 3)
    assert arr.D == 3
    assert arr.k == 3


def test_parse_diameter_one():
    arr = parse_array("3;1")
    assert arr.b == (3,)
    assert arr.c == (1,)
    assert arr.D == 1


def test_parse_allows_spaces():
    arr = parse_array(" 3 , 2 ; 1 , 1 ")
    assert arr.b == (3, 2)
    assert arr.c == (1, 1)
    assert parse_array("3\n,2;1,1").b == (3, 2)  # the token grammar allows one final newline


@pytest.mark.parametrize(
    "text",
    [
        "3,2;1",  # unequal lengths
        "3,2",  # no semicolon
        "3,2;1,1;2",  # two semicolons
        "3,2;2,3",  # c_1 != 1
        "a,2;1,2",  # non-integer
        "3,,2;1,2,2",  # empty token
        "0,2;1,2",  # zero entry
        "-3;1",  # negative
        "3,2,;1,2,3",  # trailing separator
        "",
        # outside the grammar, though str.isdigit() or int() accepts some of them
        "\u00b2,2;1,1",
        "\u0663,2;1,1",
        "+3,2;1,1",
        "3_0,2;1,1",
        "3 3,2;1,1",
        "3\n\n,2;1,1",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ArrayFormatError):
        parse_array(text)


@pytest.mark.parametrize("value", [b"3;1", None, 3])
def test_parse_rejects_a_non_string(value):
    with pytest.raises(ArrayFormatError, match="^expected a string$"):
        parse_array(value)


def test_token_grammar_matches_the_reference_regex():
    """Every token of length <= 4 over a mixed alphabet, against ^[ ]*([0-9]+)[ ]*$."""
    reference = re.compile(r"^[ ]*([0-9]+)[ ]*$")
    alphabet = " \n\r\t03x+_\u00b2\u0663"
    for length in range(5):
        for chars in product(alphabet, repeat=length):
            token = "".join(chars)
            m = reference.match(token)
            try:
                got = parse_array(f"{token};1").b
            except ArrayFormatError as exc:
                got = str(exc)
            if m is None:
                assert got == f"bad token {token!r} in b-sequence", token
            elif int(m.group(1)) > 0:
                assert got == (int(m.group(1)),), token
            else:  # in the grammar, refused by the positivity rule
                assert "positive" in got, token


def _hypercube_text(d: int) -> str:
    return ",".join(str(d - i) for i in range(d)) + ";" + ",".join(map(str, range(1, d + 1)))


def test_diameter_cap_boundary(monkeypatch):
    monkeypatch.setattr(arrays, "MAX_DIAMETER", 4)
    assert parse_array(_hypercube_text(4)).D == 4
    for text, label in (
        (_hypercube_text(5), "b"),
        ("4,3,2,1;1,2,3,4,5", "c"),
        ("4,3,2,1,x;1", "b"),
    ):
        with pytest.raises(ArrayFormatError) as exc:
            parse_array(text)
        assert str(exc.value) == f"5 entries in the {label}-sequence, above the largest diameter 4"


def test_diameter_cap_refuses_before_converting(monkeypatch):
    def refuse(*args):
        raise AssertionError("an entry was converted")

    monkeypatch.setattr(arrays, "_parse_side", refuse)
    with pytest.raises(ArrayFormatError, match="above the largest diameter"):
        parse_array(_hypercube_text(arrays.MAX_DIAMETER + 1))


def test_diameter_cap_at_the_default():
    assert arrays.MAX_DIAMETER == 1024
    arr = parse_array(_hypercube_text(1024))
    assert arr.D == 1024 and validate(arr).passed
    with pytest.raises(ArrayFormatError, match="1025 entries in the b-sequence"):
        parse_array(_hypercube_text(1025))


def test_constructor_rejects_bad_structure():
    with pytest.raises(ValueError):
        IntersectionArray((3, 2), (1,))
    with pytest.raises(ValueError):
        IntersectionArray((3,), (2,))
    with pytest.raises(ValueError):
        IntersectionArray((), ())


def test_format_round_trip(corpus):
    for arr in corpus:
        assert parse_array(format_array(arr)) == arr


def test_validate_cube_passes():
    rep = validate(parse_array("3,2,1;1,2,3"))
    assert rep.passed
    assert rep.k_ge_3 and rep.b1_ge_2


def test_validate_condition_i_failure():
    rep = validate(parse_array("3,3;1,1"))
    assert not rep.condition_i
    assert not rep.passed
    assert any("condition (i)" in m for m in rep.failure_messages())


def test_validate_integrality_failure():
    # |K_2| = (4*2)/(1*3) = 8/3
    arr = parse_array("4,2;1,3")
    rep = validate(arr)
    assert not rep.integral_spheres
    assert rep.non_integral_at == (2,)
    assert sphere_sizes_exact(arr)[2] == Fraction(8, 3)
    assert not rep.passed


def test_validate_condition_iii_failure():
    # b_1 = 1 < c_2 = 3 with 1 + 2 <= 3
    rep = validate(parse_array("4,1,1;1,3,4"))
    assert not rep.condition_iii
    assert (1, 2) in rep.condition_iii_failures


@pytest.mark.parametrize(
    "text, count, more",
    [("4,1,1,1,1,1;1,2,2,2,2,2", 10, ""), ("3,1,1,1,1,1;1,2,2,2,2,4", 11, ", … and 1 more")],
)
def test_condition_iii_message_lists_at_most_ten_pairs(text, count, more):
    rep = validate(parse_array(text))
    b, c = rep.array.b, rep.array.c
    # the report keeps the first ten pairs and counts them all
    assert (rep.condition_iii_count, len(rep.condition_iii_failures)) == (count, 10)
    pairs = [f"b_{i}={b[i]} < c_{j}={c[j - 1]}" for i, j in rep.condition_iii_failures]
    assert "condition (iii) fails: " + ", ".join(pairs) + more in rep.failure_messages()


@pytest.mark.parametrize("D, more", [(11, ""), (12, ", … and 1 more")])
def test_sphere_size_message_lists_at_most_ten_sizes(D, more):
    # |K_i| = 3/2^(i-1) is non-integral for 2 <= i <= D
    rep = validate(parse_array("3" + ",1" * (D - 1) + ";1" + ",2" * (D - 1)))
    assert rep.non_integral_at == tuple(range(2, D + 1))  # the report keeps every index
    sizes = ", ".join(f"|K_{i}| = 3/{2 ** (i - 1)}" for i in range(2, 12))
    assert "non-integral sphere sizes: " + sizes + more in rep.failure_messages()


def test_validate_handshake_failure():
    # n = 11, k = 5: nk odd, no graph can realize it
    rep = validate(parse_array("5,4;1,4"))
    assert rep.condition_i and rep.condition_ii and rep.condition_iii
    assert rep.integral_spheres
    assert not rep.handshake_even
    assert not rep.passed


def test_validate_negative_a_failure():
    # a_2 = 4 - 3 - 2 = -1
    rep = validate(parse_array("4,3,3;1,2,3"))
    assert not rep.nonnegative_a
    assert 2 in rep.negative_a_at
    assert not rep.passed


def test_validate_reports_all_failures_not_first():
    # n = 13 and k = 3 also break the handshake, alongside condition (i)
    rep = validate(parse_array("3,3;1,1"))
    assert not rep.condition_i
    assert not rep.handshake_even
    assert len(rep.failure_messages()) >= 2


def test_derive_cube():
    p = derive(parse_array("3,2,1;1,2,3"))
    assert (p.k, p.n) == (3, 8)
    assert p.sphere_sizes == (1, 3, 3, 1)
    assert p.a == (0, 0, 0)
    assert p.j == 2  # c_2 = 2 >= b_2 = 1


def test_derive_petersen_split_at_diameter():
    p = derive(parse_array("3,2;1,1"))
    assert (p.k, p.n) == (3, 10)
    assert p.sphere_sizes == (1, 3, 6)
    assert p.j == 2  # no i in [1, D-1] has c_i >= b_i, so j = D


def test_derive_complete_graph():
    p = derive(parse_array("3;1"))
    assert (p.k, p.n, p.j) == (3, 4, 1)
    assert p.sphere_sizes == (1, 3)


def test_derive_dodecahedron_split():
    # c_2 = 1 >= b_2 = 1 already, so the split sits at j = 2
    p = derive(parse_array("3,2,1,1,1;1,1,1,2,3"))
    assert p.n == 20
    assert p.j == 2


def test_derive_rejects_invalid():
    with pytest.raises(ValueError):
        derive(parse_array("3,3;1,1"))


def test_is_cocktail_party():
    assert is_cocktail_party(parse_array("4,1;1,4"))
    assert not is_cocktail_party(parse_array("3,2,1;1,2,3"))
    assert not is_cocktail_party(parse_array("3;1"))


def test_octahedron_is_valid_cocktail():
    p = derive(parse_array("4,1;1,4"))
    assert p.n == 6


def test_corpus_sphere_recurrence_and_handshake(corpus):
    for arr in corpus:
        p = derive(arr)
        sizes = p.sphere_sizes
        assert sum(sizes) == p.n
        assert sizes[0] == 1 and sizes[1] == p.k
        for i in range(arr.D):
            assert arr.c[i] * sizes[i + 1] == arr.b[i] * sizes[i]
        assert (p.n * p.k) % 2 == 0


def test_corpus_split_index_properties(corpus):
    for arr in corpus:
        p = derive(arr)
        assert 1 <= p.j <= arr.D
        for i in range(1, p.j):
            assert arr.c[i - 1] < arr.b[i]
        if p.j <= arr.D - 1:
            assert arr.c[p.j - 1] >= arr.b[p.j]


def test_corpus_nonnegative_a(corpus):
    for arr in corpus:
        assert all(v >= 0 for v in derive(arr).a)


# ----------------------------------------------------------------------
# validate keeps its report on the array object


def _count_bodies(monkeypatch):
    """The arrays passed to the validation body from now on, in order."""
    calls = []
    body = arrays._validate

    def counted(arr):
        calls.append(arr)
        return body(arr)

    monkeypatch.setattr(arrays, "_validate", counted)
    return calls


def test_validate_returns_the_kept_report(monkeypatch):
    calls = _count_bodies(monkeypatch)
    arr = parse_array("3,2,1;1,2,3")
    assert validate(arr) is validate(arr)
    assert calls == [arr]


def test_validate_then_derive_checks_each_corpus_array_once(monkeypatch, corpus):
    calls = _count_bodies(monkeypatch)
    for arr in corpus:
        fresh = IntersectionArray(arr.b, arr.c)  # the corpus was validated when built
        assert validate(fresh).passed
        assert derive(fresh) == derive(arr)
        assert calls[-1] is fresh
    assert len(calls) == len(corpus)


def test_failing_array_raises_the_same_message_and_is_checked_once(monkeypatch):
    calls = _count_bodies(monkeypatch)
    arr = parse_array("4,2;1,3")
    messages = set()
    for _ in range(3):
        with pytest.raises(ValueError, match="non-integral sphere sizes") as exc:
            derive(arr)
        messages.add(str(exc.value))
    assert len(messages) == 1
    assert not validate(arr).passed
    assert calls == [arr]


def test_equal_array_in_another_object_is_checked_again(monkeypatch):
    calls = _count_bodies(monkeypatch)
    first, second = parse_array("3,2;1,1"), parse_array("3,2;1,1")
    report, again = validate(first), validate(second)
    assert first == second and report == again and report is not again
    assert report.array is first and again.array is second
    assert calls == [first, second]


def test_kept_report_leaves_the_array_value_alone():
    arr = parse_array("3,2,1;1,2,3")
    before = (hash(arr), repr(arr), type(arr)._fields)
    report = validate(arr)
    assert (hash(arr), repr(arr), type(arr)._fields) == before
    assert arr == parse_array("3,2,1;1,2,3")
    for twin in (copy.deepcopy(arr), pickle.loads(pickle.dumps(arr))):
        assert twin == arr and twin is not arr
        assert validate(twin) == report and validate(twin).array is twin
    shallow = copy.copy(arr)  # a new array, with no kept report
    assert validate(shallow).array is shallow
