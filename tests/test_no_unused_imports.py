"""Every name an import binds in a module of ``src/fourfold`` is read in
that module.  ``from __future__`` binds nothing, so it is exempt.  Every
absolute import names a standard-library module: the package is pure
stdlib."""

import ast
import sys
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


def _trees() -> list[tuple[str, ast.Module]]:
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules found under {PACKAGE}"
    return [
        (path.name, ast.parse(path.read_text(encoding="utf-8"), str(path))) for path in modules
    ]


def test_package_has_no_unused_imports():
    found = [
        f"{name}:{line} {bound}"
        for name, tree in _trees()
        for bound, line in _unused_imports(tree)
    ]
    assert found == []


def test_package_imports_only_the_standard_library():
    found = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [
                f"{name}:{node.lineno} {module}"
                for module in modules
                if module.split(".")[0] not in sys.stdlib_module_names
            ]
    assert found == []
