"""The package's public surface: `drg.__all__` and the README's library snippets."""

from __future__ import annotations

import re
import types
from fractions import Fraction
from pathlib import Path

import drg

README = Path(__file__).parent.parent / "README.md"


def test_every_exported_name_resolves_once():
    assert len(set(drg.__all__)) == len(drg.__all__)
    # every exported name resolves, and nothing public goes unexported
    public = {
        name
        for name, value in vars(drg).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(drg.__all__)


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
    assert capsys.readouterr().out == scope["trace"].render() + "\n"

    scope = {}
    exec(hypercube, scope)
    g = scope["g"]
    assert scope["verify_drg"](g).observed_array == drg.parse_array("3,2,1;1,2,3")
    assert scope["resistance_matrix"](g)[0][7] == Fraction(5, 6)
    assert scope["cross_validate"](g).ok
    # cross_validate reuses the report verify_drg kept on the graph
    assert scope["cross_validate"](g).drg_report is scope["verify_drg"](g)
