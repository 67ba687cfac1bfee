"""No invariant in src/altruns lives only in an assert.

``python -O`` strips assert statements, so each check in the package must
raise on its own (see exact_algebra._require). Each module is parsed and
scanned for assert statements.
"""
import ast
from pathlib import Path

import pytest

import altruns

SRC = Path(altruns.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))


def assert_lines(source: str) -> list:
    """Line numbers of the assert statements in source."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_assert(path):
    assert assert_lines(path.read_text()) == []


def test_scan_finds_nested_asserts():
    source = (
        "x = 'assert'  # assert in a string or comment is not a statement\n"
        "def f(a):\n"
        "    if a:\n"
        "        assert a > 0, 'positive'\n"
        "    return a\n"
        "assert x\n"
    )
    assert assert_lines(source) == [4, 6]
