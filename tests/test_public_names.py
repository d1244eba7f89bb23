"""The package exports only names that its own code uses.

Each name that ``satscope/__init__.py`` imports into the package namespace
must be referenced by code in another module of ``src/satscope``, in
``scripts/`` or in ``perfbench/``. References are read from the syntax tree,
so a name that appears only in a docstring or a comment does not count. A
name that only tests read belongs in ``tests/helpers.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "satscope"


def _exports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _references(path: Path, modules: set[str]) -> set[str]:
    """Names loaded in ``path``, and attributes read off a satscope module (``solver.solve``)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            names.add(node.attr)
    return names


def test_every_export_is_used_by_the_package_scripts_or_benchmark():
    modules = {p.stem for p in PACKAGE.glob("*.py")} | {"satscope"}
    users = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    users += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    referenced = set().union(*(_references(p, modules) for p in users))
    exports = _exports()
    assert {"Solver", "run_experiment", "louvain"} <= exports
    assert sorted(exports - referenced) == []
