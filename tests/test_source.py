"""Checks on the library source itself."""

import ast
from pathlib import Path

import finspace


def test_no_assert_statements():
    """Invariants must hold under ``python -O``, which strips asserts."""
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(finspace.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []
