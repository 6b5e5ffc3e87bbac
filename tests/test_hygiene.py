"""Source hygiene of the package, checked with the standard library only."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ainfty"


def unused_imports(source: str) -> list:
    """Names bound by an import but never read as a name (which covers the
    base of an attribute) and not listed in a module-level __all__."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_sees_names_attributes_and_all():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from json import dumps, loads\n"
              "from .x import Exported\n"
              "__all__ = ['Exported']\n"
              "print(os.sep, loads)\n")
    assert unused_imports(source) == [(2, "system"), (3, "dumps")]
