"""Source hygiene of the package, checked with the standard library only."""

import ast
import os
import re
import subprocess
import sys
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



def definitions(source: str) -> list:
    """(line, name) of every non-dunder function, class and method."""
    return sorted((node.lineno, node.name) for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
                  and not (node.name.startswith("__") and node.name.endswith("__")))


def references(source: str) -> set:
    """Every name the source reads: names, attributes, imported names and
    the dotted components of string constants (the tracer names its
    callables by module and attribute strings).  A def or class statement
    binds its name without reading it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(node.value.split("."))
    return found


def unreferenced(defining: dict, reading: list, kept=()) -> list:
    """(file, line, name) of every definition in defining {file: source}
    that no source in reading names, leaving out the (file, name) pairs
    in kept."""
    names = set().union(*(references(text) for text in reading))
    return sorted((path, line, name) for path, text in defining.items()
                  for line, name in definitions(text)
                  if name not in names and (path, name) not in kept)


# Definitions of src/ainfty that only the tests name, kept on purpose: each
# is tagged with the ROADMAP item whose verdict will read it, or "fixture"
# for the constructors the tests build their inputs with.  Everything else
# that no code in src/ or perfbench/ names moves to tests/ or goes.
KEPT = {
    ("quiver.py", "symmetrized_euler_form"): "item 4",
    ("repmod.py", "isotypic_decompose"): "item 4",
    ("ratpoly.py", "poly_gcd"): "item 5",
    ("ratpoly.py", "poly_xgcd"): "item 5",
    ("quiver.py", "jordan_quiver"): "fixture",
    ("quiver.py", "a2_quiver"): "fixture",
    ("quiver.py", "two_loop_quiver"): "fixture",
    ("quiver.py", "random_quiver"): "fixture",
    ("repmod.py", "zero_rep"): "fixture",
    ("repmod.py", "random_rep"): "fixture",
}


def package_sources():
    """{file name: source} of src/ainfty, and the sources that count as its
    readers: src/ and perfbench/, not tests/."""
    root = SRC.parent.parent
    reading = [p.read_text(encoding="utf-8") for d in ("src", "perfbench")
               for p in sorted((root / d).rglob("*.py"))]
    defining = {p.name: p.read_text(encoding="utf-8")
                for p in sorted(SRC.glob("*.py"))}
    return defining, reading


def test_no_unreferenced_definitions():
    defining, reading = package_sources()
    assert unreferenced(defining, reading, KEPT) == []


def test_kept_definitions_are_tagged_and_still_unreferenced():
    # an entry whose definition went, or that src/ now reads, leaves the list
    defining, reading = package_sources()
    assert all(re.fullmatch(r"item \d+|fixture", tag) for tag in KEPT.values())
    assert {(path, name) for path, _, name
            in unreferenced(defining, reading)} == set(KEPT)


def test_definition_scan_sees_names_attributes_and_strings():
    lib = ("class Used:\n"
           "    def method(self):\n"
           "        return helper()\n"
           "    def orphan_method(self):\n"
           "        return 1\n"
           "def helper():\n"
           "    return Used().method()\n"
           "def traced():\n"
           "    return 0\n"
           "def dead():\n"
           "    return 0\n"
           "def __repr__():\n"
           "    return ''\n")
    user = 'SPANS = (("lib", "traced", "lib.traced"),)\n'
    assert unreferenced({"lib.py": lib}, [lib, user]) == [
        ("lib.py", 4, "orphan_method"), ("lib.py", 10, "dead")]


def test_definition_scan_flags_what_only_tests_name_unless_kept():
    lib = ("def verdict():\n"
           "    return 0\n"
           "def oracle():\n"
           "    return 0\n"
           "def planned():\n"
           "    return 0\n")
    cli = "from lib import verdict\n"
    test = "from lib import oracle, planned, verdict\n"
    assert unreferenced({"lib.py": lib}, [lib, cli, test]) == []
    assert unreferenced({"lib.py": lib}, [lib, cli]) == [
        ("lib.py", 3, "oracle"), ("lib.py", 5, "planned")]
    assert unreferenced({"lib.py": lib}, [lib, cli],
                        {("lib.py", "planned"): "item 4"}) == [
        ("lib.py", 3, "oracle")]


def dataclass_fields(source: str) -> list:
    """(line, class, field) of every annotated field of a class decorated
    with dataclass (bare, called, or as dataclasses.dataclass)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d
                      for d in node.decorator_list]
        if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
                   for d in decorators):
            continue
        out += [(stmt.lineno, node.name, stmt.target.id) for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)]
    return sorted(out)


def attribute_reads(source: str) -> set:
    """Every attribute name the source reads (stores and keywords do not
    count: a field only ever set is state nothing uses)."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_fields(defining: dict, reading: list) -> list:
    """(file, line, "Class.field") of every dataclass field in defining
    {file: source} that no source in reading reads as an attribute.

    Reads are matched by attribute name alone, whatever the object: a
    field escapes when any object anywhere has an attribute of that name
    that is read, such as a report's ok or a window's max_length."""
    reads = set().union(*(attribute_reads(text) for text in reading))
    return sorted((path, line, "%s.%s" % (cls, name))
                  for path, text in defining.items()
                  for line, cls, name in dataclass_fields(text)
                  if name not in reads)


# Dataclass fields of src/ainfty that only the tests read, kept on purpose
# and tagged as in KEPT.
KEPT_FIELDS = {
    ("repmod.py", "IsotypicBlock.endo_dim"): "item 4",
    ("repmod.py", "IsotypicBlock.min_poly"): "item 4",
}


def test_no_unread_dataclass_fields():
    # src/ and perfbench/ are the readers, as for definitions; an entry
    # whose field went, or that src/ now reads, leaves KEPT_FIELDS
    defining, reading = package_sources()
    assert all(re.fullmatch(r"item \d+|fixture", tag)
               for tag in KEPT_FIELDS.values())
    assert {(path, name) for path, _, name
            in unread_fields(defining, reading)} == set(KEPT_FIELDS)


def test_field_scan_sees_reads_not_stores_or_keywords():
    lib = ("from dataclasses import dataclass\n"
           "import dataclasses\n"
           "@dataclass(frozen=True)\n"
           "class Report:\n"
           "    read: int\n"
           "    stored: int\n"
           "    passed: int = 0\n"
           "    def total(self):\n"
           "        return self.read\n"
           "@dataclasses.dataclass\n"
           "class Other:\n"
           "    orphan: dict\n"
           "class Plain:\n"
           "    ignored: int\n")
    user = ("r = Report(1, 2, passed=3)\n"
            "r.stored = 4\n")
    assert unread_fields({"lib.py": lib}, [lib, user]) == [
        ("lib.py", 6, "Report.stored"), ("lib.py", 7, "Report.passed"),
        ("lib.py", 12, "Other.orphan")]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def self_referencing_closures(source: str) -> list:
    """outer.inner for every function defined inside a function whose body
    names itself: its closure cell holds the function, so each call of the
    outer function leaves a reference cycle for the collector."""
    found = []
    for outer in ast.walk(ast.parse(source)):
        if not isinstance(outer, FUNCTIONS):
            continue
        # the functions nested directly in outer, not inside a nested one
        todo, inner = list(ast.iter_child_nodes(outer)), []
        while todo:
            node = todo.pop()
            if isinstance(node, FUNCTIONS):
                inner.append(node)
            else:
                todo.extend(ast.iter_child_nodes(node))
        for fn in inner:
            if any(isinstance(n, ast.Name) and n.id == fn.name
                   for n in ast.walk(fn)):
                found.append((fn.lineno, "%s.%s" % (outer.name, fn.name)))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_self_referencing_closures(path):
    assert self_referencing_closures(path.read_text(encoding="utf-8")) == []


def test_closure_scan_sees_nested_self_reference_only():
    source = ("def walk(n):\n"
              "    def step(k):\n"
              "        return step(k - 1) if k else 0\n"
              "    def leaf(k):\n"
              "        return k\n"
              "    return step(n) + leaf(n)\n"
              "def top(n):\n"
              "    return top(n - 1) if n else 0\n"
              "class C:\n"
              "    def method(self):\n"
              "        def visit(x):\n"
              "            for y in x:\n"
              "                visit(y)\n"
              "        return self.method\n")
    assert self_referencing_closures(source) == [(2, "walk.step"),
                                                 (11, "method.visit")]


def local_imports(source: str, package: str) -> list:
    """(line, module) of every import inside a function, relative names
    resolved against package: `from .x import y` names package.x and
    `from . import y` names package.y."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, FUNCTIONS):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Import):
                found |= {(node.lineno, alias.name) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((node.lineno, node.module))
            elif isinstance(node, ast.ImportFrom) and node.module:
                found.add((node.lineno, package + "." + node.module))
            elif isinstance(node, ast.ImportFrom):
                found |= {(node.lineno, package + "." + alias.name)
                          for alias in node.names}
    return sorted(found)


def test_local_imports_name_only_modules_the_cli_does_not_load():
    # deferring an import pays only for a module that `import ainfty.cli`
    # leaves unloaded; any other one belongs at the top of its module
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get("PYTHONPATH")]))
    loaded = set(subprocess.run(
        [sys.executable, "-c", "import sys, ainfty.cli; print(*sys.modules)"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=path)).stdout.split())
    assert "ainfty.cli" in loaded
    assert [(p.name, line, module) for p in sorted(SRC.glob("*.py"))
            for line, module in local_imports(p.read_text(encoding="utf-8"),
                                              "ainfty")
            if module in loaded] == []


def test_local_import_scan_resolves_relative_names():
    source = ("import json\n"
              "def f():\n"
              "    import random as r, os.path\n"
              "    from .sparse import Echelon\n"
              "    from . import repmod, signs\n"
              "    def g():\n"
              "        from fractions import Fraction\n"
              "    return r\n")
    assert local_imports(source, "pkg") == [
        (3, "os.path"), (3, "random"), (4, "pkg.sparse"), (5, "pkg.repmod"),
        (5, "pkg.signs"), (7, "fractions")]


INPUT_ERRORS = {"StructureError", "HochschildError", "RepError"}


def input_error_catchers(source: str) -> list:
    """(line, function) of every except clause that names StructureError,
    HochschildError or RepError, bare or as a module attribute; function is
    the innermost def around the clause, or None at module level."""
    found, stack = [], [(ast.parse(source), None)]
    while stack:
        node, fn = stack.pop()
        if isinstance(node, FUNCTIONS):
            fn = node.name
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            named = {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(node.type)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if named & INPUT_ERRORS:
                found.append((node.lineno, fn))
        stack.extend((child, fn) for child in ast.iter_child_nodes(node))
    return sorted(found)


def test_only_run_one_maps_library_input_errors():
    # the CLI reports a library's input errors as exit 2 in one place
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert {fn for _, fn in input_error_catchers(source)} == {"run_one"}


def test_input_error_scan_sees_bare_attribute_and_tuple_names():
    source = ("def a():\n"
              "    try:\n"
              "        pass\n"
              "    except StructureError:\n"
              "        pass\n"
              "def b():\n"
              "    try:\n"
              "        pass\n"
              "    except (KeyError, repmod.RepError) as e:\n"
              "        pass\n"
              "    except ValueError:\n"
              "        pass\n"
              "try:\n"
              "    pass\n"
              "except HochschildError:\n"
              "    pass\n")
    assert input_error_catchers(source) == [(4, "a"), (9, "b"), (15, None)]
