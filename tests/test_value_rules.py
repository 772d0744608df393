"""One module owns the package's value rules: only ``plantchart._checks``
decides what counts as a number, an int or a bool, and what "finite"
means.  Every other module asks it."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "plantchart").glob("*.py"))
VOCABULARY = "_checks.py"
NUMBER_TYPES = {"bool", "int", "float"}


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _is_isfinite(node: ast.AST) -> bool:
    func = getattr(node, "func", None)
    return isinstance(node, ast.Call) and (
        isinstance(func, ast.Name) and func.id == "isfinite"
        or isinstance(func, ast.Attribute) and func.attr == "isfinite")


def own_rules(tree: ast.AST) -> list[str]:
    """The source of each place in ``tree`` that decides a value rule itself:
    an ``isinstance`` test against ``bool``, ``int`` or ``float``; a
    ``type(x) is bool`` test; and a function or lambda that returns an
    ``isfinite`` call, that is, a finiteness predicate."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "isinstance" and len(node.args) == 2 \
                    and _names(node.args[1]) & NUMBER_TYPES:
                found.append(node)
        elif isinstance(node, ast.Compare) and "bool" in _names(node) \
                and any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "type"
                        for n in ast.walk(node)):
            found.append(node)
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            returned = [node.body] if isinstance(node, ast.Lambda) else [
                r.value for r in ast.walk(node) if isinstance(r, ast.Return) and r.value]
            if any(_is_isfinite(n) for value in returned for n in ast.walk(value)):
                found.append(node)
    return [ast.unparse(node).partition("\n")[0] for node in found]


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != VOCABULARY],
                         ids=lambda p: p.name)
def test_no_module_but_the_vocabulary_decides_a_value_rule(path):
    assert own_rules(_tree(path)) == []


def test_the_vocabulary_is_where_the_rules_are():
    (path,) = [p for p in SOURCES if p.name == VOCABULARY]
    assert len(own_rules(_tree(path))) >= 3


def test_a_local_value_rule_is_caught():
    tree = ast.parse(
        "import math\n"
        "from math import isfinite\n"
        "def is_number(v):\n    return isinstance(v, (int, float)) and not isinstance(v, bool)\n"
        "def finite(v):\n    return math.isfinite(v)\n"
        "ok = lambda v: isfinite(v)\n"
        "def flag(v):\n    if type(v) is not bool:\n        raise ValueError(v)\n"
        "def size(v):\n    return len(v) if isinstance(v, str) else math.inf\n"
    )
    assert sorted(own_rules(tree)) == [
        "def finite(v):",
        "isinstance(v, (int, float))",
        "isinstance(v, bool)",
        "lambda v: isfinite(v)",
        "type(v) is not bool",
    ]
