"""Every module of the package uses what it imports, every private helper has a caller,
every exception class has a raiser, and the package imports nothing from scipy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "centroaffine"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_flags_an_unused_import():
    source = "import math\nfrom os import path, sep\nimport numpy as np\nnp.zeros(sep)\n"
    assert unused_imports(source) == ["math", "path"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(tree: ast.Module) -> list[str]:
    """Module-level names with one leading underscore bound by def, class or assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def references(tree: ast.Module) -> set[str]:
    """Names read, attributes accessed and names imported anywhere in a module."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(a.name for a in node.names)
    return refs


def dead_helpers(module: str, others: list[str]) -> list[str]:
    """Private module-level names that neither their module nor the others refer to."""
    refs = set().union(*(references(ast.parse(s)) for s in [module, *others]))
    return sorted(set(private_definitions(ast.parse(module))) - refs)


def test_checker_flags_a_dead_helper():
    module = "_LIMIT = 3\n\ndef _used():\n    return _LIMIT\n\ndef _dead():\n    pass\n"
    module += "def _imported():\n    pass\n\ndef __dunder__():\n    pass\n_used()\n"
    other = "from pkg.mod import _imported\n"
    assert dead_helpers(module, [other]) == ["_dead"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_private_helpers(path):
    others = [p.read_text(encoding="utf-8") for p in SOURCES if p != path]
    assert dead_helpers(path.read_text(encoding="utf-8"), others) == []


def exception_names(source: str) -> set[str]:
    """Names a module raises (bare, called or as an attribute) or derives a class from."""

    def name(node):
        if isinstance(node, ast.Call):
            node = node.func
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            names.add(name(node.exc))
        elif isinstance(node, ast.ClassDef):
            names.update(name(base) for base in node.bases)
    return names


def orphaned_exceptions(errors: str, others: list[str]) -> list[str]:
    """Classes defined in the errors module that no other module raises or subclasses."""
    defined = {node.name for node in ast.parse(errors).body if isinstance(node, ast.ClassDef)}
    return sorted(defined - set().union(*(exception_names(s) for s in others)))


def test_checker_flags_an_orphaned_exception():
    errors = "class Base(ValueError):\n    pass\n\nclass Sub(Base):\n    pass\n\n"
    errors += "class Attr(ValueError):\n    pass\n\nclass Bare(ValueError):\n    pass\n\n"
    errors += "class Orphan(ValueError):\n    pass\n"
    module = "from .errors import Bare, Orphan, Sub\nfrom . import errors\n\n"
    module += "def f(x):\n    if x:\n        raise Sub('no')\n    raise errors.Attr(x)\n"
    module += "\ndef g():\n    raise Bare\n\nclass Local(Base):\n    pass\n"
    assert orphaned_exceptions(errors, [module]) == ["Orphan"]


def test_every_exception_is_raised_outside_errors():
    errors = PACKAGE / "errors.py"
    others = [p.read_text(encoding="utf-8") for p in MODULES if p != errors]
    assert orphaned_exceptions(errors.read_text(encoding="utf-8"), others) == []


def imported_modules(source: str) -> set[str]:
    """Top-level package of every module an import statement names, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_checker_finds_nested_imports():
    source = "import numpy as np\n\ndef f():\n    from scipy.spatial import ConvexHull\n"
    source += "from . import planar\n"
    assert imported_modules(source) == {"numpy", "scipy"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_import(path):
    assert "scipy" not in imported_modules(path.read_text(encoding="utf-8"))


def test_cli_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    probe = "import sys, centroaffine.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"
