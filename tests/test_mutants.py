"""The mutation table of ``scripts/mutants.py`` still fits the source: each
mutation's text occurs exactly once in its file, and each killer names a
test function of its file.  No Tier-1 runs here."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


def test_mutant_names_are_unique():
    names = [mutant.name for mutant in mutants.MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_each_mutation_text_occurs_once(mutant):
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert mutant.old != mutant.new
    assert text.count(mutant.old) == 1


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_each_killer_names_a_test_function_of_its_file(mutant):
    path, *scopes, test = mutant.killer.split("::")
    assert path.startswith("tests/") and not path.endswith("test_mutants.py")
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    for scope in scopes:
        (tree,) = [node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == scope]
    name = test.partition("[")[0]
    assert [node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == name]
