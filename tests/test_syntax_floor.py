"""Every Python file parses with the grammar of the requires-python floor.

The suite may run on a newer interpreter than the floor in pyproject.toml,
so ast is asked for the floor's grammar (feature_version): syntax newer
than the floor, such as `except*` or a `match` statement under a 3.9
floor, fails here instead of only on an interpreter at the floor.  The
shipped files under src/ also hold no assert statement: an invariant
there is a raised exception, which `python -O` cannot strip.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = tuple(
    int(part)
    for part in re.search(
        r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()
    ).groups()
)
SOURCES = sorted(
    path
    for folder in ("src", "scripts", "tests", "perfbench")
    for path in (ROOT / folder).rglob("*.py")
    if not any(part.startswith(".") for part in path.relative_to(ROOT).parts)
)


def test_sources_found():
    assert FLOOR >= (3, 10)
    assert ROOT / "src" / "crossing_count" / "cli.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_at_requires_python_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)


@pytest.mark.parametrize(
    "path",
    [path for path in SOURCES if path.is_relative_to(ROOT / "src")],
    ids=lambda path: str(path.relative_to(ROOT)),
)
def test_shipped_code_has_no_assert(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"assert statements at lines {lines}"
