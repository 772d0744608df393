"""The package has no runtime dependency: every module it imports by
absolute name, at any depth in the source, comes with Python."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "plantchart").glob("*.py"))


def outside_stdlib(tree: ast.AST) -> list[str]:
    """The dotted names of the absolute imports in ``tree`` whose
    top-level module is not in the standard library."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.partition(".")[0] not in sys.stdlib_module_names]


def test_the_package_has_sources():
    assert len(SOURCES) > 1


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_absolute_import_is_in_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert outside_stdlib(tree) == []


def test_a_third_party_import_is_caught():
    tree = ast.parse("import json\nfrom numpy.linalg import norm\n"
                     "def f():\n    import yaml\nfrom . import motion\n")
    assert outside_stdlib(tree) == ["numpy.linalg", "yaml"]
