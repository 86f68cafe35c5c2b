import ast
import subprocess
import sys
from pathlib import Path

import pytest

import sulcikit

TESTS = Path(__file__).parent
MODULES = sorted(Path(sulcikit.__file__).parent.glob("*.py")) + sorted(TESTS.glob("*.py"))


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


def test_package_and_cli_import_without_scipy_ndimage():
    # scipy.ndimage is imported inside the functions that call it, so
    # commands such as ``generate`` start without paying for it
    src = Path(sulcikit.__file__).parents[1]
    code = "import sys, sulcikit, sulcikit.cli; print('scipy.ndimage' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
