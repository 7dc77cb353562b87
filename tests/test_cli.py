"""CLI surface: commands, output shapes, exit codes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

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
