"""Every module-level import in src/altruns is used by its module.

A stdlib stand-in for an unused-import lint: each module but __init__ (whose
imports are its public surface) is parsed, and a name its top-level imports
bind must appear as a name somewhere in the module, unless the import line
carries "# noqa".
"""
import ast
from pathlib import Path

import pytest

import altruns

SRC = Path(altruns.__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each top-level import binding that nothing reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# noqa" not in lines[alias.lineno - 1]:
                unused.append((alias.lineno, name))
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from math import gcd, lcm  # noqa: F401\n"
        "from .genfun import (\n"
        "    UsFunction,\n"
        "    build_us,\n"
        ")\n"
        "def f(u: UsFunction):\n"
        "    import json\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [(2, "sys"), (6, "build_us")]
