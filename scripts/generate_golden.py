#!/usr/bin/env python3
"""Regenerate every golden file under tests/golden/: the gallery documents
and the table of CLI output digests.

Run after any intentional output change, then review the diff:

    python scripts/generate_golden.py
"""

import sys
from pathlib import Path

from plantchart.svg import design_space_gallery

TESTS_DIR = Path(__file__).resolve().parent.parent / "tests"
GOLDEN_DIR = TESTS_DIR / "golden"

sys.path.insert(0, str(TESTS_DIR))
import cli_digests  # noqa: E402  (lives beside the tests that read its table)


def main() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for style, document in design_space_gallery():
        path = GOLDEN_DIR / f"{style.label()}.svg"
        path.write_text(document, encoding="utf-8")
        print(f"wrote {path}")
    print(f"wrote {cli_digests.write_table()}")


if __name__ == "__main__":
    main()
