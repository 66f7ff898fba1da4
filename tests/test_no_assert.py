"""The package never uses ``assert``: ``python -O`` strips assert statements,
so every correctness check in ``src/quadrect`` must be an explicit raise."""

import ast
from pathlib import Path

import quadrect

SRC = Path(quadrect.__file__).resolve().parent


def test_no_assert_statements_in_package():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
