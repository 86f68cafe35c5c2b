import ast
import subprocess
import sys
from pathlib import Path

import pytest

import sulcikit

TESTS = Path(__file__).parent
PACKAGE = sorted(Path(sulcikit.__file__).parent.glob("*.py"))
MODULES = PACKAGE + sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never referenced; ``__all__`` entries count as used."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_unused_and_exempts_future_and_all():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy as np\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "np.zeros(sys.maxsize)\n"
    )
    assert unused_imports(source) == ["os (line 2)", "dumps (line 4)"]


def _defined_names(stmt) -> set:
    """The names a module-level statement defines: a def, a class or assignment targets."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return set()
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _read_name(node):
    """The name a node reads, if any: a loaded name, an attribute or an imported name."""
    if isinstance(node, ast.Name):
        return node.id if isinstance(node.ctx, ast.Load) else None
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.name if isinstance(node, ast.alias) else None


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names that no module reads outside their own definition.

    A private name has one leading underscore; dunders such as ``__all__``
    are exempt. A read (``_name``), an attribute (``module._name``) and an
    import (``from .module import _name``) each count as a reference.
    """
    defined, referenced = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = _defined_names(stmt)
            private = sorted(n for n in own if n.startswith("_") and not n.startswith("__"))
            defined += [(module, name, stmt.lineno) for name in private]
            referenced |= {_read_name(node) for node in ast.walk(stmt)} - own
    return [f"{m}: {name} (line {line})" for m, name, line in defined if name not in referenced]


def test_no_dead_private_helpers():
    # references from the tests do not count: a helper only they call is dead code
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert unreferenced_private_names(sources) == []


def test_dead_helper_scan_flags_unread_and_self_reads():
    sources = {
        "a": (
            "__all__ = ['f']\n"
            "_LIMIT = 3\n"
            "_UNUSED = 4\n"
            "def _recurse(n):\n"
            "    return _recurse(n - 1)\n"
            "def f():\n"
            "    _UNUSED = 5\n"
            "    return _LIMIT\n"
            "class _Shared:\n"
            "    pass\n"
            "def _read():\n"
            "    pass\n"
        ),
        "b": "from .a import _Shared\nfrom . import a\nx = (_Shared, a._read)\n",
    }
    assert unreferenced_private_names(sources) == ["a: _UNUSED (line 3)", "a: _recurse (line 4)"]


def test_package_and_cli_import_without_scipy_ndimage():
    # SciPy (scipy.ndimage, scipy.spatial) is imported inside the functions
    # that call it, so commands such as ``generate`` start without loading it
    src = Path(sulcikit.__file__).parents[1]
    code = (
        "import sys, sulcikit, sulcikit.cli;"
        " print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_version_has_one_source():
    # the build reads the version from the package, so the two cannot disagree
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((TESTS.parent / "pyproject.toml").read_text())
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "sulcikit.__version__"
    }
