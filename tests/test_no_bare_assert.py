"""Tripwire: no ``assert`` statement in the package.  ``python -O`` strips
them, so a runtime invariant written as one would silently stop being
checked; raise an exception instead."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nclag"


def test_no_assert_statement_in_the_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, "assert statements: " + ", ".join(found)
