"""CLI surface: commands, output shapes, exit codes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from drg import arrays, cli, graphs, oracle
from drg.cli import main
from drg.proofs import K3_MAX_B1

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


@pytest.mark.parametrize("argv", (("analyze", "cube"), ("table",)))
def test_malformed_env_catalog_exit_2(tmp_path, monkeypatch, capsys, argv):
    path = tmp_path / "bad.txt"
    path.write_text("# extras\nbroken | 3,3;1,1\n")
    monkeypatch.setenv("DRG_CATALOG", str(path))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"{path}:2: " in err


@pytest.mark.parametrize("argv", (("analyze", "cube"), ("table",)))
def test_missing_env_catalog_exit_2(tmp_path, monkeypatch, capsys, argv):
    path = tmp_path / "missing.txt"
    monkeypatch.setenv("DRG_CATALOG", str(path))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert str(path) in err


@pytest.mark.parametrize("argv", (("analyze", "cube"), ("table",)))
def test_non_utf8_env_catalog_exit_2(tmp_path, monkeypatch, capsys, argv):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"caf\xe9 | 3,2,1;1,2,3\n")
    monkeypatch.setenv("DRG_CATALOG", str(path))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert str(path) in err


def test_batch_non_utf8_exit_2(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"caf\xe9 | 3,2,1;1,2,3\n")
    code, _, err = run(capsys, "batch", str(path))
    assert code == 2
    assert "cannot read batch file" in err


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


def test_parser_reused_after_argparse_rejection(monkeypatch, capsys):
    monkeypatch.delenv("DRG_CATALOG", raising=False)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "petersen", "--prove", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
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


@pytest.mark.parametrize("as_json", (False, True), ids=("text", "json"))
@pytest.mark.parametrize(
    "b1, note",
    (
        (1371, None),  # the largest b_1 whose K = 3 trace str() can print
        (1372, STR_LIMIT),
        (K3_MAX_B1, STR_LIMIT),
        (K3_MAX_B1 + 1, f"b_1 = {K3_MAX_B1 + 1} is above {K3_MAX_B1}"),
    ),
)
def test_prove_k3_on_long_numbers_exits_normally(capsys, b1, note, as_json):
    array_text = f"{b1 + 1},{b1};1,{b1 + 1}"  # K_{b1+1,b1+1}
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


def test_hypercube_at_the_default_cap():
    assert graphs.MAX_VERTICES == 1024
    assert graphs.construct("hypercube", 10).n == 1024
    with pytest.raises(ValueError, match="cap of 1024 vertices"):
        graphs.construct("hypercube", 11)
    with pytest.raises(ValueError, match="needs dimension >= 2"):
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
    validate = arrays.validate

    def counted(arr):
        calls.append(arr)
        return validate(arr)

    monkeypatch.setattr(arrays, "validate", counted)
    monkeypatch.setattr(cli, "validate", counted)
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
