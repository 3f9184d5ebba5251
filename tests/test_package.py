"""Every public name has one import path, its module.  The package root
holds only its docstring, so ``fourfold.<name>`` is always the module
``fourfold/<name>.py``, and the README's Library snippet imports from
the modules."""

import ast
import importlib
import re
import sys
from pathlib import Path

import fourfold
from fourfold.bordism import SpinBordismClass

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fourfold"


def test_package_root_is_its_docstring():
    body = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body
    assert len(body) == 1
    assert isinstance(body[0], ast.Expr)
    assert isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)


def test_package_attribute_is_the_module():
    names = sorted(p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert "spinc" in names
    for name in names:
        importlib.import_module(f"fourfold.{name}")
        assert getattr(fourfold, name) is sys.modules[f"fourfold.{name}"], name


def test_readme_library_snippet_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (snippet,) = re.findall(r"```python\n(.*?)```", section, re.S)
    # Run the statements in order; collect the value of each bare expression.
    namespace, values = {}, []
    for stmt in ast.parse(snippet).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    assert values == [4, True, SpinBordismClass(dimension=1, group="Z/2", value="nontrivial")]


def test_no_package_function_reads_inertia():
    # The package reads a form's sign counts through ``signature`` and
    # ``is_negative_definite``; ``inertia`` stays only as the call counter
    # of the bench's trace mode.
    for path in sorted(PACKAGE.glob("*.py")):
        uses = [
            node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if (isinstance(node, ast.Name) and node.id == "inertia")
            or (isinstance(node, ast.Attribute) and node.attr == "inertia")
            or (isinstance(node, ast.alias) and node.name == "inertia")
        ]
        assert not uses, (path.name, uses)
