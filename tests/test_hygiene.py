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


def hand_accumulates(source: str) -> list:
    """Lines of every call x.add(y.get(...), ...) or x.sub(y.get(...), ...):
    an accumulate into a sparse dict written out by hand, where
    sparse.add_into keeps the no-stored-zero rule."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("add", "sub") and node.args
                and isinstance(node.args[0], ast.Call)
                and isinstance(node.args[0].func, ast.Attribute)
                and node.args[0].func.attr == "get"):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "sparse.py"],
                         ids=lambda p: p.name)
def test_no_hand_written_sparse_accumulate(path):
    assert hand_accumulates(path.read_text(encoding="utf-8")) == []


def test_accumulate_scan_sees_add_and_sub_of_a_get():
    source = ("s = f.add(acc.get(k, f.zero()), c)\n"
              "row[k] = fld.sub(row.get(k, z), fld.mul(c, v))\n"
              "t = f.add(c, acc.get(k))\n"
              "u = f.mul(acc.get(k, z), c)\n"
              "v = add(acc.get(k), c)\n")
    assert hand_accumulates(source) == [1, 2]


def test_scan_sees_names_attributes_and_all():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from json import dumps, loads\n"
              "from .x import Exported\n"
              "__all__ = ['Exported']\n"
              "print(os.sep, loads)\n")
    assert unused_imports(source) == [(2, "system"), (3, "dumps")]


def sign_helpers(source: str) -> list:
    """Functions and methods named *_sign (which covers *_with_sign): a
    Koszul rule written outside signs.py, where each rule is defined once."""
    return sorted((node.lineno, node.name) for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name.endswith("_sign"))


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "signs.py"],
                         ids=lambda p: p.name)
def test_sign_rules_live_in_signs(path):
    assert sign_helpers(path.read_text(encoding="utf-8")) == []


def test_sign_scan_sees_functions_and_methods():
    source = ("def dual_sign(d):\n"
              "    return 1\n"
              "class C:\n"
              "    def prefix_sign(self, t, r):\n"
              "        def _rotations_with_sign(c):\n"
              "            return c\n"
              "def signature(x):\n"
              "    sign = 1\n"
              "    return sign\n")
    assert sign_helpers(source) == [(1, "dual_sign"), (4, "prefix_sign"),
                                    (5, "_rotations_with_sign")]
