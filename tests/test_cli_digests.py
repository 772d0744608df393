"""CLI output bytes pinned by sha256: plan, simulate, render --frames and
segment on the fixtures, the fixtures listing, plus a two-variation CSV day
at --variation-index 1.

After an intentional output change, regenerate the table with
``python scripts/generate_golden.py`` and review the diff.
"""

import json

import pytest

from cli_digests import TABLE, cases, digest_group

CASES = cases()
PINNED = json.loads(TABLE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("group", sorted(CASES))
def test_cli_output_matches_pinned_digests(group):
    assert digest_group(CASES[group]) == PINNED[group]


def test_table_pins_every_case():
    assert {name: sorted(group) for name, group in PINNED.items()} == {
        name: sorted(group) for name, group in CASES.items()
    }
