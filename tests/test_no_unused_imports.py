"""Every name an import binds in a module of ``src/fourfold`` is read in
that module.  ``__init__`` re-exports its imports and ``from __future__``
binds nothing, so both are exempt."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fourfold"


def _unused_imports(tree: ast.Module) -> list[tuple[str, int]]:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``.
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    # ``a.b`` reads ``a`` through an ast.Name, so attributes need no case.
    return sorted((name, line) for name, line in bound.items() if name not in read)


def test_package_has_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules, f"no modules found under {PACKAGE}"
    found = [
        f"{path.name}:{line} {name}"
        for path in modules
        for name, line in _unused_imports(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert found == []
