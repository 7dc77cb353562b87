"""CLI surface: commands, output shapes, exit codes."""

from __future__ import annotations

import json
import operator
import os
import subprocess
import sys
from enum import Enum
from fractions import Fraction
from pathlib import Path

import pytest

from drg import (
    arrays,
    catalog,
    catalog_list,
    cli,
    PotentialProfile,
    compute_profile,
    compute_resistances,
    derive,
    format_array,
    graphs,
    oracle,
    parse_array,
    proofs,
)
from drg.cli import main
from drg.fmt import approx_str
from drg.proofs import BoundTrace, CaseId, TraceStep, prove_k3

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_pass(capsys):
    code, out, _ = run(capsys, "validate", "3,2,1;1,2,3")
    assert code == 0
    assert "validation: PASS" in out


def test_validate_failure_exit_3(capsys):
    code, out, _ = run(capsys, "validate", "3,3;1,1")
    assert code == 3
    assert "validation: FAIL" in out
    assert "condition (i)" in out


def test_validate_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "validate", "3,,1;1,2")
    assert code == 2
    assert "error:" in err


def test_validate_unknown_name_exit_2(capsys):
    code, _, err = run(capsys, "validate", "not-a-graph")
    assert code == 2
    assert "unknown catalog name" in err


def test_analyze_cube_text(capsys):
    code, out, _ = run(capsys, "analyze", "3,2,1;1,2,3")
    assert code == 0
    assert "rho: 3/7 (≈ 0.428571)" in out
    assert "k_effective: 10/7" in out
    assert "r_1 = 7/12" in out
    assert "tail bound (j=2)" in out


def test_analyze_by_name_with_proof(capsys):
    code, out, _ = run(capsys, "analyze", "biggs-smith", "--prove", "optimal")
    assert code == 0
    assert "name: Biggs-Smith graph" in out
    assert "extremal_equality: 94/101" in out
    assert "verdict: OK" in out


def test_analyze_validation_failure_still_prints(capsys):
    code, out, _ = run(capsys, "analyze", "3,3;1,1")
    assert code == 3
    assert "validation: FAIL" in out
    assert "rho" not in out.split("validation")[0]


def test_analyze_json_shape(capsys):
    code, out, _ = run(capsys, "analyze", "3,2,1;1,2,3", "--json", "--prove", "k3")
    assert code == 0
    payload = json.loads(out)
    assert payload["array"] == "3,2,1;1,2,3"
    assert payload["validation"]["passed"] is True
    assert payload["derived"] == {
        "k": 3, "n": 8, "D": 3, "a": [0, 0, 0],
        "sphere_sizes": [1, 3, 3, 1], "j": 2,
    }
    assert payload["ratio"] == {"num": "3", "den": "7"}
    assert payload["potentials"]["phi"][0] == {"num": "7", "den": "1"}
    assert payload["potentials"]["methods_agree"] is True
    assert payload["resistances"][2] == {"num": "5", "den": "6"}
    assert payload["resistance_cap"] == {
        "label": "resistance_cap",
        "lhs": {"num": "5", "den": "6"},
        "relation": "<",
        "rhs": {"num": "4", "den": "3"},
        "holds": True,
    }
    assert payload["resistance_cap"]["holds"] is True
    assert payload["trace"]["case_id"] == "CASE2_SMALL_VALENCY"
    assert payload["trace"]["verdict"] is True
    assert all(step["holds"] for step in payload["trace"]["steps"])


def test_analyze_json_validation_failure(capsys):
    code, out, _ = run(capsys, "analyze", "4,2;1,3", "--json")
    assert code == 3
    payload = json.loads(out)
    assert payload["validation"]["passed"] is False
    assert "derived" not in payload


def test_analyze_low_valency_skips_proof(capsys):
    code, out, _ = run(capsys, "analyze", "2,1;1,2", "--prove", "k3")
    assert code == 0
    assert "proof trace: unavailable" in out


def test_table_reproduces_printed_ratios(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 24  # header + 23 rows
    assert "MISMATCH" not in out
    assert "0.428571" in out  # Cube
    assert "0.930693" in out  # Biggs-Smith
    bs_line = next(line for line in lines if line.startswith("Biggs-Smith"))
    assert "extremal" in bs_line and "94/101" in bs_line


def test_table_extras(capsys):
    code, out, _ = run(capsys, "table", "--extras")
    assert code == 0
    assert len(out.strip().splitlines()) == 27
    assert "Petersen graph" in out


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert "biggs-smith" in out
    assert "supplementary" in out
    assert "constructible" in out


def test_oracle_petersen(capsys):
    code, out, _ = run(capsys, "oracle", "petersen")
    assert code == 0
    assert "d=1: formula 3/5" in out
    assert "result: PASS" in out


def test_oracle_hypercube_param(capsys):
    code, out, _ = run(capsys, "oracle", "hypercube", "--param", "3")
    assert code == 0
    assert "formula 7/12" in out


def test_oracle_all_refuses_a_parameter_before_any_output(capsys):
    code, out, err = run(capsys, "oracle", "--all", "--param", "3")
    assert (code, out) == (2, "")
    assert err == "error: --param applies to one construction; it cannot be combined with --all\n"


@pytest.mark.parametrize(
    "argv, error",
    [
        (["petersen", "--all"], "one of NAME, --all and --graph-file; got NAME and --all"),
        (["--all", "--graph-file", "{k4}"], "got --all and --graph-file"),
        (["petersen", "--graph-file", "{k4}"], "got NAME and --graph-file"),
        (["--graph-file", "{k4}", "--all", "--param", "5"], "got --all and --graph-file"),
        (["--graph-file", "{k4}", "--param", "5"], "cannot be combined with --graph-file"),
        (["--param", "5"], "oracle needs a construction name, --all, or --graph-file"),
    ],
)
def test_oracle_refuses_conflicting_selectors_before_any_output(capsys, tmp_path, argv, error):
    path = tmp_path / "k4.txt"
    path.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, err = run(capsys, "oracle", *(arg.format(k4=path) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(error + "\n")


def test_oracle_unknown_name(capsys):
    code, _, err = run(capsys, "oracle", "zzz")
    assert code == 2
    assert "unknown construction" in err


def test_oracle_graph_file_pass(tmp_path, capsys):
    path = tmp_path / "k4.txt"
    path.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "oracle", "--graph-file", str(path))
    assert code == 0
    assert "formula 1/2" in out


def test_oracle_graph_file_failure(tmp_path, capsys):
    path = tmp_path / "path3.txt"
    path.write_text("0 1\n1 2\n")
    code, out, _ = run(capsys, "oracle", "--graph-file", str(path))
    assert code == 1
    assert "result: FAIL" in out


def test_oracle_graph_file_missing(capsys):
    code, _, err = run(capsys, "oracle", "--graph-file", "/no/such/file")
    assert code == 2


def test_oracle_counts_the_mismatches_it_does_not_print(monkeypatch, capsys):
    def wrong_r1(params):
        """The formula's resistances with r_1 moved by 1/1000, so every edge mismatches."""
        rs = compute_resistances(params)
        return (rs[0] + Fraction(1, 1000), *rs[1:])

    monkeypatch.setattr(oracle, "compute_resistances", wrong_r1)
    code, out, _ = run(capsys, "oracle", "petersen")
    assert code == 1
    assert out.splitlines()[3:] == [
        "   d=1: formula 601/1000 (≈ 0.601000), 15 pair(s) [FAIL]",
        *(
            f"      mismatch at ({u},{v}): solver 3/5 (≈ 0.600000)"
            for u, v in ((0, 7), (0, 8), (0, 9), (1, 5), (1, 6))
        ),
        "      ... 10 more mismatch(es)",
        "   d=2: formula 4/5 (≈ 0.800000), 30 pair(s) [OK]",
        "   result: FAIL",
        "oracle summary: 0/1 PASS",
    ]


def test_batch_mixed_file(tmp_path, capsys):
    path = tmp_path / "batch.txt"
    path.write_text(
        "# a comment line\n"
        "Cube | 3,2,1;1,2,3\n"
        "\n"
        "4,2;1,3\n"
        "Biggs-Smith | 3,2,2,2,1,1,1;1,1,1,1,1,1,3\n"
    )
    code, out, _ = run(capsys, "batch", str(path))
    assert code == 0
    assert "3 entries, 2 valid, 1 invalid" in out
    assert "rho < 93/100: 1" in out
    assert "rho < 2: 2" in out
    assert "extremal entries" in out and "Biggs-Smith" in out


def test_batch_detects_ratio_two(tmp_path, capsys):
    # feasible but unrealizable shape whose ratio reaches 2 exactly
    path = tmp_path / "edge.txt"
    path.write_text("3,1,1,1,1;1,1,1,1,1\n")
    code, out, _ = run(capsys, "batch", str(path))
    assert code == 1
    assert "[rho<2 NO]" in out


def test_batch_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("\n# nothing\n")
    code, out, _ = run(capsys, "batch", str(path))
    assert code == 0
    assert "0 entries" in out


def test_batch_unreadable_exit_2(capsys):
    code, _, err = run(capsys, "batch", "/no/such/file.txt")
    assert code == 2


def test_batch_paper_table(tmp_path, capsys, paper_rows):
    from drg import format_array

    path = tmp_path / "table.txt"
    path.write_text(
        "".join(f"{e.name} | {format_array(e.array)}\n" for e in paper_rows)
    )
    code, out, _ = run(capsys, "batch", str(path))
    assert code == 0
    assert "23 entries, 23 valid, 0 invalid" in out
    assert "rho < 93/100: 22" in out
    assert "rho < 2: 23" in out


def test_batch_non_utf8_exit_2(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"caf\xe9 | 3,2,1;1,2,3\n")
    code, _, err = run(capsys, "batch", str(path))
    assert code == 2
    assert "cannot read batch file" in err


@pytest.mark.parametrize("argv, what", ((("batch",), "batch file"), (("oracle", "--graph-file"), "graph file")))
@pytest.mark.parametrize("good_lines", (2, 20000), ids=("line_3", "line_20001"))
def test_non_utf8_file_names_path_and_line(tmp_path, capsys, argv, what, good_lines):
    # the line of the first bad byte counts every newline before it; a
    # second bad byte further on does not move it
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"0 1\n" * good_lines + b"# caf\xe9\n1 2\n\xe9\n")
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}:{good_lines + 1}: cannot read {what}: ")
    assert err.endswith(f"in position {4 * good_lines + 5}: invalid continuation byte\n")


# the characters other than "\n" and "\r" that str.splitlines breaks at
_INLINE_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@pytest.mark.parametrize("brk", ("\r\n", *(c + "\n" for c in _INLINE_BREAKS)), ids=ascii)
def test_graph_file_lines_end_at_each_newline(tmp_path, capsys, brk):
    # numbered like the line of a non-UTF-8 byte; a CRLF break keeps its "\r" out of the message
    path = tmp_path / "edges.txt"
    path.write_bytes(f"0 1{brk}2 x\r\n".encode())
    code, out, err = run(capsys, "oracle", "--graph-file", str(path))
    assert (code, out) == (2, "")
    assert err == "error: line 2: vertex indices must be ASCII digits, got '2 x'\n"


def test_batch_lines_end_at_each_newline(tmp_path, capsys):
    path = tmp_path / "batch.txt"
    path.write_bytes("a | 3;1\u2028b | 3,2;1\nc | 9;9\n".encode())
    code, out, _ = run(capsys, "batch", str(path))
    assert out.splitlines()[:3] == [
        "line 1: a: parse error: expected exactly one ';' in '3;1\\u2028b | 3,2;1'",
        "line 2: c: parse error: c_1 must equal 1, got 9",
        "batch summary: 2 entries, 0 valid, 2 invalid",
    ]


def test_batch_labels_a_line_with_an_empty_name_by_its_array(tmp_path, capsys):
    # an empty name and a name of spaces only; a bare '|' is labelled by itself
    path = tmp_path / "batch.txt"
    path.write_text("| 3,2;1,1\n   |   3,2,1;1,2,3\n|\n")
    code, out, _ = run(capsys, "batch", str(path))
    assert code == 0
    assert out.splitlines()[:4] == [
        "line 1: 3,2;1,1: valid rho=1/3 (≈ 0.333333) [rho<0.93 yes] [rho<2 yes]",
        "line 2: 3,2,1;1,2,3: valid rho=3/7 (≈ 0.428571) [rho<0.93 yes] [rho<2 yes]",
        "line 3: |: parse error: expected exactly one ';' in ''",
        "batch summary: 3 entries, 2 valid, 1 invalid",
    ]


def test_batch_file_reads_past_a_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "batch.txt"
    results = []
    for bom in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(bom + b"3,2;1,1\nCube | 3,2,1;1,2,3\n")
        results.append(run(capsys, "batch", str(path)))
    # the mark is neither a token of the bare array nor a character of the name
    assert results[0] == results[1]
    assert results[1][1].splitlines()[:2] == [
        "line 1: 3,2;1,1: valid rho=1/3 (≈ 0.333333) [rho<0.93 yes] [rho<2 yes]",
        "line 2: Cube: valid rho=3/7 (≈ 0.428571) [rho<0.93 yes] [rho<2 yes]",
    ]


def test_graph_file_reads_past_a_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "edges.txt"
    path.write_bytes(b"\xef\xbb\xbf0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "oracle", "--graph-file", str(path))
    assert code == 0
    assert "formula 1/2" in out


@pytest.mark.parametrize("argv, what", ((("batch",), "batch file"), (("oracle", "--graph-file"), "graph file")))
def test_a_byte_order_mark_moves_no_line_number(tmp_path, capsys, argv, what):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"\xef\xbb\xbfab\n\xff\n")
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}:2: cannot read {what}: ")


def test_batch_crlf_file_prints_what_its_lf_form_prints(tmp_path, capsys):
    path = tmp_path / "batch.txt"
    results = []
    for brk in ("\n", "\r\n"):
        path.write_bytes(f"Cube | 3,2,1;1,2,3{brk}# c{brk}c | 9;9 # c{brk}3;1{brk}".encode())
        results.append(run(capsys, "batch", str(path)))
    assert results[0] == results[1]
    assert "line 3: c: parse error" in results[0][1]


@pytest.mark.parametrize("cmd", ("analyze", "validate"))
@pytest.mark.parametrize(
    "text", ("9" * 5000 + ";1", "3;" + "9" * 5000), ids=("long_b", "long_c")
)
def test_over_long_entry_exit_2(capsys, cmd, text):
    code, out, err = run(capsys, cmd, text)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "5000 digits" in err


def test_batch_over_long_entry_is_parse_error(tmp_path, capsys):
    path = tmp_path / "long.txt"
    path.write_text("long | " + "9" * 5000 + ";1\nCube | 3,2,1;1,2,3\n")
    code, out, _ = run(capsys, "batch", str(path))
    assert code == 0
    assert "line 1: long: parse error: " in out
    assert "2 entries, 1 valid, 1 invalid" in out


def _long_array_text(d: int) -> str:
    return ",".join(str(d - i) for i in range(d)) + ";" + ",".join(map(str, range(1, d + 1)))


@pytest.mark.parametrize("cmd", ("analyze", "validate"))
def test_array_above_the_diameter_cap_exit_2(monkeypatch, capsys, cmd):
    monkeypatch.setattr(arrays, "MAX_DIAMETER", 3)
    code, _, err = run(capsys, cmd, _long_array_text(3))
    assert (code, err) == (0, "")
    code, out, err = run(capsys, cmd, _long_array_text(4))
    assert (code, out) == (2, "")
    assert err == "error: 4 entries in the b-sequence, above the largest diameter 3\n"


def test_batch_array_above_the_diameter_cap_is_parse_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(arrays, "MAX_DIAMETER", 3)
    path = tmp_path / "long.txt"
    path.write_text(f"long | {_long_array_text(4)}\nCube | {_long_array_text(3)}\n")
    code, out, _ = run(capsys, "batch", str(path))
    assert code == 0
    assert "line 1: long: parse error: 4 entries in the b-sequence" in out
    assert "2 entries, 1 valid, 1 invalid" in out


# Feasible, with q = 10^2200: rho's denominator has about 4,400 digits,
# more than str() converts.
_Q = 10**2200
_UNPRINTABLE_RHO = f"{_Q + 8},{_Q + 1},{_Q - 3};1,1,1"


def test_batch_reports_numbers_too_long_to_print_and_goes_on(tmp_path, monkeypatch, capsys):
    path = tmp_path / "huge.txt"
    # W fails only on a non-integral sphere size of about 4,400 digits
    path.write_text(f"X | {_UNPRINTABLE_RHO}\nW | {_Q},{_Q - 1};1,7\nCube | 3,2,1;1,2,3\n")
    code, out, _ = run(capsys, "batch", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == [
        "line 1: X: valid rho=too long to print [rho<0.93 yes] [rho<2 yes]",
        "line 2: W: INVALID (too long to print)",
    ]
    assert lines[3:] == [
        "batch summary: 3 entries, 2 valid, 1 invalid",
        "  rho < 93/100: 2",
        "  rho < 2: 2",
    ]
    # with a tightest target of 0 every valid line is listed as extremal, with its rho
    tightest, *rest = proofs.BOUNDS
    zero = proofs.RatioBound(tightest.name, Fraction(0), tightest.prover)
    monkeypatch.setattr(proofs, "BOUNDS", (zero, *rest))
    code, out, _ = run(capsys, "batch", str(path))
    assert out.splitlines()[-1] == (
        "  extremal entries (rho >= 0): X (rho = too long to print); Cube (rho = 3/7)"
    )


def test_batch_cuts_a_label_longer_than_80_characters(tmp_path, monkeypatch, capsys):
    biggs = "3,2,2,2,1,1,1;1,1,1,1,1,1,3"  # rho = 94/101, an extremal entry
    cube30 = _long_array_text(30)  # a bare array line of 161 characters
    path = tmp_path / "labels.txt"
    path.write_text(f"{'A' * 80} | {biggs}\n{'B' * 81} | {biggs}\n{cube30}\n")
    code, out, _ = run(capsys, "batch", str(path))
    assert code == 0
    lines = out.splitlines()
    labels = ["A" * 80, "B" * 77 + "...", cube30[:77] + "..."]
    assert [line.split(": ")[1] for line in lines[:3]] == labels
    assert lines[-1] == (
        f"  extremal entries (rho >= 93/100): {labels[0]} (rho = 94/101); {labels[1]} (rho = 94/101)"
    )
    # with a tightest target of 0 the bare line is extremal too, under the same cut label
    tightest, *rest = proofs.BOUNDS
    zero = proofs.RatioBound(tightest.name, Fraction(0), tightest.prover)
    monkeypatch.setattr(proofs, "BOUNDS", (zero, *rest))
    _, out, _ = run(capsys, "batch", str(path))
    assert out.splitlines()[-1].endswith(
        f"; {labels[2]} (rho = 388393249044137669/10420170304546437435)"
    )


def test_a_bound_added_to_the_table_reaches_analyze_and_batch(
    tmp_path, monkeypatch, capsys, request
):
    def prove_stub(profile):
        step = TraceStep("rho_lt_target", profile.ratio, "<", Fraction(1))
        return BoundTrace(CaseId.UNCLASSIFIED, Fraction(1), profile.ratio, (step,), step.holds)

    tightest, loosest = proofs.BOUNDS
    stub = proofs.RatioBound("stub", Fraction(1), "prove_stub")
    monkeypatch.setattr(proofs, "prove_stub", prove_stub, raising=False)
    monkeypatch.setattr(proofs, "BOUNDS", (tightest, stub, loosest))
    cli.build_parser.cache_clear()  # the --prove choices are read when the parser is built
    request.addfinalizer(cli.build_parser.cache_clear)

    code, out, _ = run(capsys, "analyze", "cube", "--prove", "stub")
    assert code == 0
    assert out.split("proof trace (stub):\n", 1)[1] == (
        "  case: UNCLASSIFIED\n"
        "  target: rho < 1/1 (≈ 1.000000)\n"
        "  rho_lt_target: 3/7 (≈ 0.428571) < 1/1 (≈ 1.000000) [OK]\n"
        "  verdict: OK\n"
    )
    path = tmp_path / "arrays.txt"
    path.write_text("Cube | 3,2,1;1,2,3\nBiggs-Smith | 3,2,2,2,1,1,1;1,1,1,1,1,1,3\n")
    code, out, _ = run(capsys, "batch", str(path))
    assert code == 0
    assert out.splitlines() == [
        "line 1: Cube: valid rho=3/7 (≈ 0.428571) [rho<0.93 yes] [rho<1 yes] [rho<2 yes]",
        "line 2: Biggs-Smith: valid rho=94/101 (≈ 0.930693) "
        "[rho<0.93 NO] [rho<1 yes] [rho<2 yes]",
        "batch summary: 2 entries, 2 valid, 0 invalid",
        "  rho < 93/100: 1",
        "  rho < 1: 2",
        "  rho < 2: 2",
        "  extremal entries (rho >= 93/100): Biggs-Smith (rho = 94/101)",
    ]


@pytest.mark.parametrize(
    "python_flags, argv",
    ((["-u"], ("oracle", "--all")), ([], ("table",)), ([], ("--help",))),
    ids=("write-in-main", "flush-at-exit", "argparse-exit"),
)
def test_closed_stdout_exits_141_without_a_traceback(python_flags, argv):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    src = str(Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, *python_flags, "-m", "drg.cli", *argv],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()  # the reader is gone before the interpreter has started
    with proc.stderr:
        err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (141, b"")


def test_parser_reused_after_argparse_rejection(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "petersen", "--prove", "bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # the wording of the choices after this line differs between Python versions
    assert err.startswith("usage: drg analyze [-h] [--prove {k3,optimal}] [--json] target\n")
    assert "invalid choice: 'bogus'" in err
    expected = json.loads((GOLDEN / "analyze_by_name.json").read_text(encoding="utf-8"))
    assert expected["argv"] == ["analyze", "petersen"]
    code, out, err = run(capsys, *expected["argv"])
    assert (code, out, err) == (expected["code"], expected["stdout"], expected["stderr"])


@pytest.mark.parametrize(
    "argv",
    (
        ("analyze", "biggs-smith", "--prove", "optimal"),
        ("validate", "3,3;1,1", "--json"),
        ("analyze", "not-a-graph"),
        ("catalog", "list"),
        ("table", "--extras"),
    ),
)
def test_same_argv_twice_gives_identical_output(capsys, argv):
    first = run(capsys, *argv)
    assert run(capsys, *argv) == first


STR_LIMIT = "Exceeds the limit (4300 digits)"


def _str_limit_message() -> str:
    """This interpreter's message for str() of an over-long int, up to "conversion".

    Python 3.11 says "Exceeds the limit (4300 digits) for integer string
    conversion", 3.10 "Exceeds the limit (4300) for integer string conversion".
    """
    try:
        str(10**5000)
    except ValueError as exc:
        message = str(exc)
        return message[: message.index("conversion") + len("conversion")]
    raise AssertionError("str() printed a 5001-digit int")


def _long_numbers_cases():
    for b1 in (1371, 1372, 2000, 2001):
        yield pytest.param(f"{b1 + 1},{b1};1,{b1 + 1}", None, id=str(b1))  # K_{b1+1,b1+1}
    # j = D = 45, so the trace holds b_1^44: over 4300 digits at b_1 = 10^100
    b1 = 10**100
    array_text = f"{b1 + 1},{b1}{',2' * 43};1{',1' * 44}"
    yield pytest.param(array_text, STR_LIMIT, id="1e100-D45")


@pytest.mark.parametrize("as_json", (False, True), ids=("text", "json"))
@pytest.mark.parametrize("array_text, note", _long_numbers_cases())
def test_prove_k3_on_long_numbers_exits_normally(capsys, array_text, note, as_json):
    if note == STR_LIMIT:
        note = _str_limit_message()
    code, out, err = run(capsys, "analyze", array_text, "--prove", "k3", *(["--json"] * as_json))
    assert code == 0 and err == ""
    if as_json:
        record = json.loads(out)
        if note is None:
            assert record["trace"]["verdict"] and "trace_note" not in record
        else:
            assert record["trace"] is None and record["trace_note"].startswith(note)
    elif note is None:
        assert out.endswith("  verdict: OK\n")
    else:
        assert f"proof trace: unavailable ({note}" in out


# ----------------------------------------------------------------------
# oversized oracle requests are refused before any graph is built


def _cycle_file(tmp_path, n):
    path = tmp_path / f"cycle{n}.txt"
    path.write_text("".join(f"{i} {(i + 1) % n}\n" for i in range(n)), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "argv, n",
    (
        (("complete", "--param", "16"), 16),
        (("cocktail_party", "--param", "8"), 16),
        (("hypercube", "--param", "4"), 16),
    ),
)
def test_oracle_cap_boundary(monkeypatch, capsys, argv, n):
    monkeypatch.setattr(graphs, "MAX_VERTICES", 16)
    code, out, err = run(capsys, "oracle", *argv)
    assert (code, err) == (0, "")
    assert f"[n={n}, " in out
    name, flag, param = argv
    code, out, err = run(capsys, "oracle", name, flag, str(int(param) + 1))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "cap of 16 vertices" in err


def test_oracle_graph_file_cap_boundary(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(graphs, "MAX_VERTICES", 16)
    code, out, err = run(capsys, "oracle", "--graph-file", _cycle_file(tmp_path, 16))
    assert (code, err) == (0, "")
    assert "[n=16, m=16]" in out and "result: PASS" in out
    code, out, err = run(capsys, "oracle", "--graph-file", _cycle_file(tmp_path, 17))
    assert (code, out) == (2, "")
    assert err == "error: line 16: vertex 16 is beyond the cap of 16 vertices\n"


@pytest.mark.parametrize(
    "argv",
    (
        ("hypercube", "--param", "40"),
        ("hypercube", "--param", str(10**30)),
        ("complete", "--param", "1025"),
        ("cocktail_party", "--param", "513"),
    ),
)
def test_oracle_refuses_oversized_parameters_without_building(monkeypatch, capsys, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(graphs, "LabeledGraph", refuse)
    code, out, err = run(capsys, "oracle", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and f"cap of {graphs.MAX_VERTICES} vertices" in err


def test_oracle_refuses_an_oversized_vertex_index(capsys, tmp_path):
    path = tmp_path / "big.txt"
    path.write_text(f"0 1\n1 {10**12}\n", encoding="utf-8")
    code, out, err = run(capsys, "oracle", "--graph-file", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: line 2: vertex {10**12} is beyond the cap of 1024 vertices\n"


@pytest.mark.parametrize("line", ("0 1_0", "+0 1", "0 \u0663"))
def test_oracle_refuses_an_edge_token_that_is_not_ascii_digits(capsys, tmp_path, line):
    path = tmp_path / "edges.txt"
    path.write_text(line + "\n", encoding="utf-8")
    code, out, err = run(capsys, "oracle", "--graph-file", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: line 1: vertex indices must be ASCII digits, got {line!r}\n"


def test_hypercube_at_the_default_cap():
    assert graphs.MAX_VERTICES == 1024
    assert graphs.construct("hypercube", 10).n == 1024
    with pytest.raises(ValueError, match="cap of 1024 vertices"):
        graphs.construct("hypercube", 11)
    with pytest.raises(ValueError, match="hypercube needs a parameter >= 2, got -3"):
        graphs.construct("hypercube", -3)


# ----------------------------------------------------------------------
# reports holding an integer too long for str() exit 2


Q = 10**2200
LONG_NUMBER_CASES = (
    # H(2, Q): n = Q**2 has 4401 digits
    ("analyze", f"{2 * (Q - 1)},{Q - 1};1,2"),
    # |K_2| = Q (Q - 1) / 7 is not an integer and its numerator has 4400 digits
    ("validate", f"{Q},{Q - 1};1,7"),
)


@pytest.mark.parametrize("as_json", (False, True), ids=("text", "json"))
@pytest.mark.parametrize("command, array_text", LONG_NUMBER_CASES, ids=("analyze", "validate"))
def test_report_too_long_to_print_exits_2(capsys, command, array_text, as_json):
    code, out, err = run(capsys, command, array_text, *(["--json"] * as_json))
    assert (code, out) == (2, "")
    assert err.startswith("error: the report cannot be printed: ")
    assert err.count("\n") == 1


# ----------------------------------------------------------------------
# each analysed array is validated once


def _count_validations(monkeypatch):
    calls = []
    body = arrays._validate

    def counted(arr):
        calls.append(arr)
        return body(arr)

    monkeypatch.setattr(arrays, "_validate", counted)
    return calls


def test_analyze_validates_once(monkeypatch, capsys):
    calls = _count_validations(monkeypatch)
    code, _, _ = run(capsys, "analyze", "3,2,1;1,2,3")
    assert code == 0 and len(calls) == 1


def test_batch_validates_each_line_once(monkeypatch, capsys):
    calls = _count_validations(monkeypatch)
    path = GOLDEN / "inputs" / "batch_mixed.txt"
    run(capsys, "batch", str(path))
    assert len(calls) == 5  # six lines, one of them unparseable


def test_batch_and_the_catalog_build_no_potential_profile(monkeypatch, capsys):
    # both read rho alone, which compute_ratio gives without the profile
    def refuse(self, *args, **kwargs):
        raise AssertionError("a PotentialProfile was built")

    monkeypatch.setattr(PotentialProfile, "__init__", refuse)
    expected = json.loads((GOLDEN / "batch_mixed.json").read_text(encoding="utf-8"))
    monkeypatch.chdir(GOLDEN)
    assert run(capsys, *expected["argv"]) == (
        expected["code"], expected["stdout"], expected["stderr"]
    )
    rows = catalog.catalog_list.__wrapped__()
    assert len(rows) == 26 and rows == catalog_list()


def test_analyze_by_name_uses_the_catalog_rows_report(monkeypatch, capsys):
    catalog_list()  # builds the rows, validating each
    calls = _count_validations(monkeypatch)
    code, _, _ = run(capsys, "analyze", "cube")
    assert code == 0 and calls == []


@pytest.mark.parametrize("prove", (None, *(bound.name for bound in proofs.BOUNDS)))
def test_analyze_by_name_is_its_name_line_then_analyze_by_array(capsys, prove):
    # the array form carries the whole report: a row's name adds only the first line
    flags = ("--prove", prove) if prove else ()
    for entry in catalog_list():
        code, out, err = run(capsys, "analyze", format_array(entry.array), *flags)
        expected = (code, f"name: {entry.name}\n{out}", err)
        assert run(capsys, "analyze", entry.slug, *flags) == expected, entry.slug


# ----------------------------------------------------------------------
# a failed oracle call runs verify_drg once


def test_failed_graph_file_runs_verify_drg_once(monkeypatch, capsys):
    calls = []
    verify_drg = graphs.verify_drg

    def counted(g):
        calls.append(g)
        return verify_drg(g)

    for module in (graphs, oracle, cli):
        if getattr(module, "verify_drg", None) is verify_drg:
            monkeypatch.setattr(module, "verify_drg", counted)
    monkeypatch.chdir(GOLDEN)
    code, out, _ = run(capsys, "oracle", "--graph-file", "inputs/path3.txt")
    assert code == 1 and "violation: base=1 target=1 b0" in out
    assert len(calls) == 1


# ----------------------------------------------------------------------
# the work cap n * m


def test_oracle_work_cap_boundary(monkeypatch, capsys):
    monkeypatch.setattr(graphs, "MAX_WORK", 16 * 120)  # n * m of complete(16)
    code, out, err = run(capsys, "oracle", "complete", "--param", "16")
    assert (code, err) == (0, "")
    assert "[n=16, m=120]" in out and "result: PASS" in out
    code, out, err = run(capsys, "oracle", "complete", "--param", "17")
    assert (code, out) == (2, "")
    assert err == "error: complete(17) has n*m = 17*136, beyond the work cap of 1920\n"


def test_oracle_graph_file_work_cap_boundary(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(graphs, "MAX_WORK", 16 * 16)  # n * m of a 16-cycle
    code, out, err = run(capsys, "oracle", "--graph-file", _cycle_file(tmp_path, 16))
    assert (code, err) == (0, "")
    assert "[n=16, m=16]" in out and "result: PASS" in out
    code, out, err = run(capsys, "oracle", "--graph-file", _cycle_file(tmp_path, 17))
    assert (code, out) == (2, "")
    assert err == "error: line 16: n*m = 17*16 is beyond the work cap of 256\n"


@pytest.mark.parametrize(
    "name, largest, refusal",
    (
        ("complete", 219, "work cap"),
        ("cocktail_party", 109, "work cap"),
        ("hypercube", 10, "cap of 1024 vertices"),
    ),
)
def test_work_cap_at_the_defaults(monkeypatch, name, largest, refusal):
    assert graphs.MAX_WORK == 1024 * 5120
    g = graphs.construct(name, largest)
    assert g.n * len(g.edges) <= graphs.MAX_WORK

    def refuse(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(graphs, "LabeledGraph", refuse)
    with pytest.raises(ValueError, match=refusal):
        graphs.construct(name, largest + 1)


def test_edge_list_refused_on_the_line_past_the_work_cap():
    cube = graphs.construct("hypercube", 10)
    lines = [f"{u} {v}" for u, v in cube.edges]
    assert graphs.parse_edge_list("\n".join(lines)).n * len(lines) == graphs.MAX_WORK
    extra = next(f"0 {v}" for v in range(2, 1024) if v not in cube.adjacency[0])
    with pytest.raises(ValueError) as exc:
        graphs.parse_edge_list("\n".join(lines + [extra, "junk"]))
    assert str(exc.value) == "line 5121: n*m = 1024*5121 is beyond the work cap of 5242880"


# ----------------------------------------------------------------------
# the JSON writer writes what json.dumps(indent=2) would


def _dumps(record) -> str:
    """The reference: the standard library's encoder with the writer's hook."""
    return json.dumps(record, indent=2, default=cli._json_default)


@pytest.mark.parametrize(
    "analyze, prove",
    (
        pytest.param(False, None, id="validate"),
        pytest.param(True, None, id="analyze"),
        *(pytest.param(True, bound.name, id=bound.name) for bound in proofs.BOUNDS),
    ),
)
def test_to_json_matches_json_dumps_on_the_corpus(corpus, capsys, analyze, prove):
    for arr in corpus:
        record, _ = cli._record(arr, None, analyze, prove)
        assert cli._to_json(record) == _dumps(record), format_array(arr)
    # each catalog entry by its slug, as `drg validate|analyze SLUG [--prove P] --json`
    # prints it: its record, name included, as canonical JSON of itself
    argv = ["analyze", "--prove", prove] if prove else ["analyze" if analyze else "validate"]
    for entry in catalog_list():
        record, _ = cli._record(entry.array, entry, analyze, prove)
        code, out, err = run(capsys, *argv, entry.slug, "--json")
        assert (code, err) == (0, ""), entry.slug
        assert out == _dumps(record) + "\n", entry.slug
        assert out == json.dumps(json.loads(out), indent=2) + "\n", entry.slug


class _Colour(str, Enum):
    RED = "réd"


def test_to_json_matches_json_dumps_on_a_synthetic_record():
    trace = prove_k3(compute_profile(derive(parse_array("3,2,1;1,2,3"))))
    record = {
        "text": 'naïve — ∞ "quoted" \\ \n\t\x00 \U0001d11e',
        "enum": _Colour.RED,
        "empty_dict": {},
        "empty_list": [],
        "nested": ((1, (2, Fraction(-3, 4))), [(), {}], {"k": [None]}),
        "none": None,
        "flags": [True, False],
        "ints": [0, -7, 10**4299 - 1],
        "fractions": [Fraction(0), Fraction(-10**40, 3)],
        "trace": trace,
        "ümläut key": "ü",
    }
    assert cli._to_json(record) == _dumps(record)
    assert cli._to_json([]) == _dumps([]) and cli._to_json({}) == _dumps({})


@pytest.mark.parametrize(
    "value", (10**4300, -(10**4300), Fraction(10**4300, 7)), ids=("int", "negative", "fraction")
)
def test_to_json_refuses_an_int_past_the_digit_limit_like_json_dumps(value):
    record = {"a": [1, {"b": value}]}
    with pytest.raises(ValueError):
        _dumps(record)
    with pytest.raises(ValueError):
        cli._to_json(record)


def test_to_json_refuses_a_float():
    with pytest.raises(TypeError, match="float is not JSON serializable"):
        cli._to_json({"ratio": [0.5]})


# ----------------------------------------------------------------------
# every audited inequality, an analysis check or a trace step, in one shape

STEP_KEYS = ["label", "lhs", "relation", "rhs", "holds"]
RELATIONS = {
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    ">": operator.gt,
    ">=": operator.ge,
}


def _decoded(step: dict) -> tuple[Fraction, Fraction]:
    return tuple(Fraction(int(step[side]["num"]), int(step[side]["den"])) for side in ("lhs", "rhs"))


def _line(step: dict, between: str = "") -> str:
    """The text form's `lhs relation [between]rhs [mark]`, from the JSON step alone."""
    lhs, rhs = _decoded(step)
    mark = "OK" if step["holds"] else "FAIL"
    return f"{approx_str(lhs)} {step['relation']} {between}{approx_str(rhs)} [{mark}]"


def test_analysis_checks_and_trace_steps_share_one_shape(corpus, capsys):
    targets = [entry.slug for entry in catalog_list()]
    targets += [format_array(arr) for arr in corpus[::4]]
    for target in targets:
        code, out, _ = run(capsys, "analyze", target, "--json", "--prove", "optimal")
        assert code == 0, target
        payload = json.loads(out)
        cap, tail = payload["resistance_cap"], payload["tail_bound"]
        assert (cap["label"], tail["label"]) == ("resistance_cap", "tail_bound")
        checks = [cap, tail, *(payload["step_inequalities"] or ())]
        trace = payload["trace"]
        for step in checks + (trace["steps"] if trace else []):
            assert list(step) == STEP_KEYS, (target, step)
            assert step["holds"] is RELATIONS[step["relation"]](*_decoded(step)), (target, step)

        code, text, _ = run(capsys, "analyze", target, "--prove", "optimal")
        assert code == 0, target
        lines = text.splitlines()
        assert f"max-resistance cap: r_D = {_line(cap, '4/k = ')}" in lines, target
        j = payload["derived"]["j"]
        assert f"tail bound (j={j}): {_line(tail)}" in lines, target
        for step in payload["step_inequalities"] or ():
            assert f"  {step['label']}: {_line(step)}" in lines, (target, step)


# ----------------------------------------------------------------------
# each proof trace is rendered once


@pytest.mark.parametrize("as_json", (False, True), ids=("text", "json"))
def test_analyze_renders_the_trace_once(monkeypatch, capsys, as_json):
    calls = []
    render = BoundTrace.render

    def counted(self):
        calls.append(self)
        return render(self)

    monkeypatch.setattr(BoundTrace, "render", counted)
    code, out, _ = run(capsys, "analyze", "3,2,1;1,2,3", "--prove", "k3", *(["--json"] * as_json))
    assert code == 0 and len(calls) == 1
    assert ('"verdict": true' if as_json else "  verdict: OK") in out
