"""The package is what the checks use: every public top-level function and
class of ``src/weylfluid``, and every public method and property of its
classes, is read by the library, a script or the benchmark, and no module
imports a name it never reads.

A name counts as read where it is loaded (``name`` or ``module.name``; a
member only as ``.name``) outside its own definition.
``weylfluid/__init__.py`` only re-exports, so its imports read nothing;
tests are not callers."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "weylfluid"
CALLER_DIRS = ("src", "scripts", "perfbench")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _reads(node, attributes_only=False):
    """How often each name is loaded under ``node``, as ``name`` or as
    ``.name``, or as ``.name`` alone."""
    out = Counter()
    for cur in ast.walk(node):
        if isinstance(cur, ast.Attribute) and isinstance(cur.ctx, ast.Load):
            out[cur.attr] += 1
        elif (isinstance(cur, ast.Name) and isinstance(cur.ctx, ast.Load)
              and not attributes_only):
            out[cur.id] += 1
    return out


def _caller_files():
    return sorted(p for d in CALLER_DIRS for p in (ROOT / d).rglob("*.py")
                  if p != PACKAGE / "__init__.py")


def test_every_public_name_has_a_caller():
    trees = {path: _tree(path) for path in _caller_files()}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees.get(path, _tree(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            # loads inside its own definition, as in a recursive call, do not count
            if reads[node.name] == _reads(node)[node.name]:
                unread.append(f"{path.stem}.{node.name}")
    assert unread == [], f"public names that only tests read: {unread}"


def test_every_public_method_has_a_caller():
    trees = {path: _tree(path) for path in _caller_files()}
    reads = sum((_reads(tree, attributes_only=True) for tree in trees.values()), Counter())
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in trees.get(path, _tree(path)).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                    continue
                if reads[node.name] == _reads(node, attributes_only=True)[node.name]:
                    unread.append(f"{path.stem}.{cls.name}.{node.name}")
    assert unread == [], f"public methods and properties that only tests read: {unread}"


def test_no_module_imports_a_name_it_never_reads():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _tree(path)
        read = _reads(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    unused.append(f"{path.stem}: {name}")
    assert unused == [], f"imports never read: {unused}"
