"""Every imported name is used: a stdlib-`ast` stand-in for a linter's
unused-import rule over the modules under src/, tests/ and scripts/.

A name counts as used when the module reads it anywhere (a bare name or
the root of an attribute chain) or lists it in `__all__`. `__future__`
imports and the re-exports of a package `__init__.py` are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_unused_names():
    source = ("from __future__ import annotations\nimport os, numpy as np\n"
              "import a.b\nfrom x import y, z as w\n__all__ = ['w']\nprint(a.b.c)\n")
    assert unused_imports(source) == [(2, "np"), (2, "os"), (4, "y")]


def test_no_unused_imports():
    found = []
    for top in ("src", "tests", "scripts"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            found += [f"{path.relative_to(ROOT)}:{line}: {name}"
                      for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)
