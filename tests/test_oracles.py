import ast
from pathlib import Path

import sulcikit.oracles


def test_imports_no_sulcikit_module():
    # a reference that imports the library could quietly become the code it checks
    tree = ast.parse(Path(sulcikit.oracles.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported
    offending = [m for m in imported if m.startswith(".") or m.split(".")[0] == "sulcikit"]
    assert offending == []
