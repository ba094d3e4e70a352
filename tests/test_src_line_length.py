"""No line of the package is longer than 118 columns."""

from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "noisylab").glob("*.py"))
WIDEST = 118


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_line_is_wider_than_the_limit(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    wide = [(number, len(line)) for number, line in enumerate(lines, 1) if len(line) > WIDEST]
    assert wide == []
