"""Every public name of the package is used by the package, its scripts or its benchmark.

Each module-level name without a leading underscore that a module of
``src/satscope`` defines (a function, a class or an assigned name) must be
read by code in ``src/satscope``, in ``scripts/`` or in ``perfbench/``.
References are read from the syntax tree, so a name that appears only in a
docstring, a comment or a string does not count. A name that only tests read
belongs in ``tests/helpers.py``.

The package root defines nothing: code imports the submodules, so importing
the solver loads no instrument.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "satscope"


def _definitions(path: Path) -> set[str]:
    """Public names bound by a def, a class or an assignment at module level of ``path``."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target)
                             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return {n for n in names if not n.startswith("_")}


def _references(path: Path) -> set[str]:
    """Names loaded in ``path``, and attributes read off a satscope module (``solver.Solver``).

    A module counts only where ``path`` imports it by name (``from satscope
    import solver``), so ``solver.stats`` on a local ``Solver`` is no read of
    a module-level ``stats``.
    """
    tree = ast.parse(path.read_text())
    modules = {alias.asname or alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "satscope"
               for alias in node.names}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            names.add(node.attr)
    return names


def test_every_public_name_is_used_by_the_package_scripts_or_benchmark():
    sources = sorted(PACKAGE.glob("*.py"))
    users = sources + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    referenced = set().union(*(_references(p) for p in users))
    defined = {f"{p.stem}.{name}" for p in sources for name in _definitions(p)}
    assert {"solver.Solver", "harness.run_experiment", "community.louvain"} <= defined
    assert sorted(d for d in defined if d.split(".", 1)[1] not in referenced) == []


def test_the_package_root_defines_nothing():
    body = ast.parse((PACKAGE / "__init__.py").read_text()).body
    assert len(body) == 1
    assert isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
    assert isinstance(body[0].value.value, str)


def test_importing_the_solver_loads_no_instrument():
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import json, satscope.solver; "
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'satscope')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert json.loads(out) == ["satscope", "satscope.cnf", "satscope.solver"]
