"""The package checks its invariants with explicit errors: ``python -O``
strips ``assert`` statements, so none may appear in ``src/fourfold``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fourfold"


def test_package_has_no_assert_statements():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules found under {PACKAGE}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
