"""The package's public surface: `drg.__all__`, the submodules each use
loads, and the README's library snippets."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import drg

README = Path(__file__).parent.parent / "README.md"
SRC = Path(__file__).parent.parent / "src"


def test_every_exported_name_resolves_once():
    assert len(set(drg.__all__)) == len(drg.__all__)
    # every exported name resolves (the package binds it on first access),
    # and nothing public goes unexported
    for name in drg.__all__:
        getattr(drg, name)
    public = {
        name
        for name, value in vars(drg).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(drg.__all__)
    assert set(drg.__all__) <= set(dir(drg))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        drg.no_such_name


def _fresh_interpreter(code: str, *flags: str) -> dict:
    """The JSON that `code` prints last, run in a new isolated interpreter
    (given extra `flags`) that finds drg in this checkout's src; `loaded()`
    lists the drg submodules imported so far."""
    prelude = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "def loaded():\n"
        "    return sorted(m[4:] for m in sys.modules if m.startswith('drg.'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", *flags, "-c", prelude + code, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_the_catalog_loads_no_graph_proof_or_cli_module():
    loaded = _fresh_interpreter(
        "import drg\n"
        "rows = len(drg.catalog_list())\n"
        "print(json.dumps({'rows': rows, 'loaded': loaded()}))\n"
    )
    assert loaded["rows"] > 0
    assert {"graphs", "oracle", "proofs", "cli"}.isdisjoint(loaded["loaded"])


def test_the_proofs_load_no_graph_or_cli_module():
    loaded = _fresh_interpreter(
        "import drg.proofs\n"
        "print(json.dumps(loaded()))\n"
    )
    assert "catalog" in loaded
    assert {"graphs", "oracle", "cli"}.isdisjoint(loaded)


def test_analyze_loads_no_graph_module():
    run = _fresh_interpreter(
        "import contextlib, io, drg.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = drg.cli.main(['analyze', 'petersen'])\n"
        "print(json.dumps({'code': code, 'out': out.getvalue(), 'loaded': loaded()}))\n"
    )
    assert run["code"] == 0 and "name: Petersen" in run["out"]
    assert {"graphs", "oracle"}.isdisjoint(run["loaded"])


def test_no_command_loads_dataclasses_inspect_or_typing():
    # -S: no site module, so no .pth hook of the installation imports them first
    run = _fresh_interpreter(
        "import contextlib, io\n"
        "def heavy():\n"
        "    return sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules))\n"
        "seen = {'start': heavy()}\n"
        "import drg\n"
        "drg.catalog_list()\n"
        "seen['catalog_list'] = heavy()\n"
        "import drg.cli\n"
        "for command in ('analyze', 'oracle'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        seen[command] = drg.cli.main([command, 'petersen']), heavy()\n"
        "print(json.dumps(seen))\n",
        "-S",
    )
    assert run == {
        "start": [],
        "catalog_list": [],
        "analyze": [0, []],
        "oracle": [0, []],
    }


def test_submodules_resolve_before_anything_imports_them():
    run = _fresh_interpreter(
        "import drg\n"
        "g = drg.graphs.construct('petersen')\n"
        "print(json.dumps({'n': g.n, 'ok': drg.oracle.cross_validate(g).ok}))\n"
    )
    assert run == {"n": 10, "ok": True}


def _library_snippets() -> list[str]:
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def test_readme_library_snippets_give_the_values_their_comments_state(capsys):
    heawood, hypercube = _library_snippets()

    scope: dict = {}
    exec(heawood, scope)
    profile = scope["profile"]
    assert profile.phi == (13, 5, 1)
    assert profile.resistances == (Fraction(13, 21), Fraction(6, 7), Fraction(19, 21))
    assert profile.ratio == Fraction(6, 13)
    assert scope["rho"] == profile.ratio and scope["compute_ratio"] is drg.compute_ratio
    assert scope["resistances"] == profile.resistances
    assert capsys.readouterr().out == scope["trace"].render() + "\n"

    scope = {}
    exec(hypercube, scope)
    g = scope["g"]
    assert scope["verify_drg"](g).observed_array == drg.parse_array("3,2,1;1,2,3")
    assert scope["resistance_matrix"](g)[0][7] == Fraction(5, 6)
    assert scope["cross_validate"](g).ok
    # cross_validate reuses the report verify_drg kept on the graph
    assert scope["cross_validate"](g).drg_report is scope["verify_drg"](g)
