"""The mutation table of ``scripts/mutants.py`` still fits the source: each
mutation's text occurs exactly once in its file.  No Tier-1 runs here."""

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
