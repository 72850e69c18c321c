"""Properties of the package source itself."""

import ast
from pathlib import Path

import liejets

SOURCES = sorted(Path(liejets.__file__).resolve().parent.glob("*.py"))


def test_no_verdict_or_invariant_rests_on_assert():
    """``python -O`` strips ``assert`` statements, so the package raises
    explicitly wherever it checks a condition."""
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
