"""One module owns the package's value rules: only ``plantchart._checks``
decides what counts as a number, an int or a bool, and what "finite"
means.  Every other module asks it."""

import ast
import json
from pathlib import Path

import pytest

from plantchart._checks import QUOTE_LIMIT
from plantchart.encoder import check_mode
from plantchart.fixtures import get_fixture
from plantchart.motion import (
    PLANTFORM,
    DeviceProfile,
    plan_for_profile,
    plan_from_json,
    plan_to_json,
    profile_from_json,
)
from plantchart.render import ChartDimensions, layout, parse_style
from plantchart.svg import GALLERY_STYLES

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


def repr_quotes_in_raises(tree: ast.AST) -> list[str]:
    """The source of each f-string in a ``raise`` of ``tree`` that quotes a
    value with a ``!r`` conversion, whose length nothing bounds."""
    return [ast.unparse(node) for statement in ast.walk(tree) if isinstance(statement, ast.Raise)
            for node in ast.walk(statement) if isinstance(node, ast.JoinedStr)
            and any(isinstance(part, ast.FormattedValue) and part.conversion == ord("r")
                    for part in node.values)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_rejection_quotes_a_value_with_repr(path):
    assert repr_quotes_in_raises(_tree(path)) == []


def test_a_repr_quote_in_a_rejection_is_caught():
    tree = ast.parse(
        "def check(v):\n"
        "    if v:\n        raise ValueError(f'bad {v!r}')\n"
        "    raise KeyError(\n        f'{v}: ' f'unknown {v!r}') from None\n"
        "shown = f'{check!r}'\n"
        "def fine(v):\n    raise ValueError(f'bad {quote(v)} {v!s}')\n"
    )
    assert sorted(repr_quotes_in_raises(tree)) == ["f'bad {v!r}'", "f'{v}: unknown {v!r}'"]


HUGE = 100_000


def _plan_with_a_huge_target():
    document = json.loads(plan_to_json(plan_for_profile([3], [0], PLANTFORM)))
    document["commands"][0]["to"] = list(range(HUGE))
    plan_from_json(json.dumps(document))


HUGE_BAD_VALUES = {
    "plan-target-list": _plan_with_a_huge_target,
    "layout-position-string": lambda: layout([0, "x" * HUGE, 0], [8, 9, 10], GALLERY_STYLES[0]),
    "dimensions-extent-string": lambda: ChartDimensions(10.0, "y" * HUGE, 3.0),
    "profile-name-list": lambda: profile_from_json(json.dumps({"name": ["a"] * HUGE})),
    "profile-modality-string": lambda: profile_from_json(
        json.dumps({"name": "x", "modality": "m" * HUGE})),
    "profile-modality-object": lambda: DeviceProfile("x", "m" * HUGE),
    "encoding-mode-string": lambda: check_mode("r" * HUGE),
    "style-string": lambda: parse_style("s" * HUGE),
}


@pytest.mark.parametrize("call", HUGE_BAD_VALUES.values(), ids=HUGE_BAD_VALUES.keys())
def test_a_huge_bad_value_is_quoted_in_part(call):
    with pytest.raises(ValueError) as info:
        call()
    message = str(info.value)
    assert "..." in message and len(message) < QUOTE_LIMIT + 80


def test_a_huge_style_component_is_quoted_in_part_with_its_style():
    with pytest.raises(ValueError) as info:
        parse_style("leaf," + "a" * HUGE + ",curvy")
    message = str(info.value)
    assert message.startswith("unknown style component in 'leaf,aaa")
    assert message.endswith("... is not a valid Anchoring")
    assert len(message) < 2 * QUOTE_LIMIT + 80


def test_an_unknown_huge_fixture_name_is_quoted_in_part():
    with pytest.raises(KeyError) as info:
        get_fixture("f" * HUGE)
    message = info.value.args[0]
    assert message.startswith("unknown fixture 'fff") and "...; available: " in message
    assert len(message) < QUOTE_LIMIT + 1000
