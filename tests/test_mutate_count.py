"""The mutation gate's own tables stay in step with the code they name.

Running the gate starts one pytest per mutant and stays outside the suite;
these checks read the tables and the sources only.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutate_count", ROOT / "tools" / "mutate_count.py")
mutate_count = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate_count)


@pytest.mark.parametrize("module", list(mutate_count.GATE), ids=str)
def test_gate_names_top_level_definitions(module):
    """Every GATE name is a top-level def or class of its module, so none
    is skipped for want of a definition to mutate."""
    source = (ROOT / module).read_text(encoding="utf-8")
    assert mutate_count.missing_definitions(module, source) == []


def test_missing_definition_exits_2(monkeypatch, capsys):
    module = Path("src/rcv_forensics/profiles.py")
    monkeypatch.setitem(mutate_count.GATE, module, (("PreferenceProfile", "NoSuchDef"), ()))
    assert mutate_count.main(["--list", "--module", str(module)]) == 2
    assert "NoSuchDef" in capsys.readouterr().out


def test_stale_equivalent_key_exits_2(monkeypatch, capsys):
    """A key naming a definition of the rows run that no mutant has is
    listed; a key naming a definition outside them is not."""
    module = Path("src/rcv_forensics/scan.py")
    monkeypatch.setitem(mutate_count.GATE, module, (("_steady",), ()))
    stale = "_steady: no such line [col 0: 1->2]"
    monkeypatch.setitem(mutate_count.EQUIVALENT, stale, "stale")
    assert mutate_count.main(["--list", "--module", str(module)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("EQUIVALENT")] == [
        f"EQUIVALENT key matches no mutant: {stale}"
    ]


def test_mutant_builds_one_change():
    """A mutant's source is built on demand, and each build is valid Python
    differing from the unmutated module and from every other mutant's."""
    source = (ROOT / "src/rcv_forensics/scan.py").read_text(encoding="utf-8")
    found = mutate_count.mutants(source, ("_steady",))
    built = [build() for _, _, build in found]
    assert len(found) > 5
    assert ast.unparse(ast.parse(source)) not in built
    assert len(set(built)) == len(built)
    for text in built:
        ast.parse(text)
