"""Static hygiene of the package source, read with the ast module.

Every module of ``src/liehermitian`` except ``__init__.py`` (whose
imports are the public re-exports) must use each of its module-level
imports, and each of its module-level functions, classes and assigned
names must be referenced somewhere in ``src/``, ``tests/``, ``demos/``
or ``bench/`` outside its own definition.  No module of the package reads a private
name (one with a leading underscore that is not a dunder) of another
package module.  No module of the package imports scipy, which is a
test-only dependency.  Every exception class of ``errors.py`` but the
base class is raised somewhere in ``src/``.  Every bound's constant is
one of the tolerance constants of ``algebra.py``.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liehermitian"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _names(node):
    """Identifiers a subtree refers to, one per occurrence: names,
    attribute names and imported names."""
    found = Counter()
    for item in ast.walk(node):
        if isinstance(item, ast.Name):
            found[item.id] += 1
        elif isinstance(item, ast.Attribute):
            found[item.attr] += 1
        elif isinstance(item, ast.alias):
            found[item.name.split(".")[-1]] += 1
    return found


def _sources():
    for folder in ("src", "tests", "demos", "bench"):
        yield from sorted((ROOT / folder).rglob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = _tree(path)
    bound = {alias.asname or alias.name.split(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names}
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = sorted(bound - loaded)
    assert not unused, "%s imports %s without using them" % (path.name, unused)


def test_module_level_definitions_are_referenced():
    everywhere = sum((_names(_tree(path)) for path in _sources()), Counter())
    unreferenced = ["%s.%s" % (path.stem, node.name)
                    for path in MODULES for node in _tree(path).body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and everywhere[node.name] <= _names(node)[node.name]]
    assert not unreferenced, "never referenced: %s" % unreferenced


def test_module_level_assignments_are_referenced():
    everywhere = sum((_names(_tree(path)) for path in _sources()), Counter())
    unreferenced = ["%s.%s" % (path.stem, target.id)
                    for path in MODULES for node in _tree(path).body
                    if isinstance(node, (ast.Assign, ast.AnnAssign))
                    for target in ast.walk(node)
                    if isinstance(target, ast.Name) and isinstance(target.ctx, ast.Store)
                    and not target.id.startswith("__")
                    and everywhere[target.id] <= _names(node)[target.id]]
    assert not unreferenced, "never referenced: %s" % unreferenced


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_modules_read_no_private_names_of_other_modules(path):
    # from .x import _y, and m._y for a package module m bound by
    # from . import m
    tree = _tree(path)
    relative = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    modules = {alias.asname or alias.name for node in relative if not node.module
               for alias in node.names}
    found = ["%d: %s" % (node.lineno, alias.name) for node in relative
             for alias in node.names if _private(alias.name)]
    found += ["%d: %s.%s" % (node.lineno, node.value.id, node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and _private(node.attr)]
    assert not found, "%s reads private names of other modules: %s" % (path.name, found)


def test_package_does_not_import_scipy():
    found = ["%s:%d" % (path.name, node.lineno)
             for path in sorted(PACKAGE.rglob("*.py")) for node in ast.walk(_tree(path))
             if isinstance(node, ast.Import)
             and any(alias.name.split(".")[0] == "scipy" for alias in node.names)
             or isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[0] == "scipy"]
    assert not found, "scipy imported at %s" % found


def test_every_error_class_is_raised():
    errors = PACKAGE / "errors.py"
    defined = {node.name for node in _tree(errors).body
               if isinstance(node, ast.ClassDef)} - {"LieHermitianError"}
    raised = {node.exc.func.id for path in sorted(PACKAGE.glob("*.py"))
              for node in ast.walk(_tree(path))
              if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
              and isinstance(node.exc.func, ast.Name)}
    assert not defined - raised, "never raised: %s" % sorted(defined - raised)


# The block of algebra.py that holds every constant a bound is built from.
TOLERANCE_CONSTANTS = {"TOL_FACTOR", "ROUND_CUT", "ASTHENO_CUT", "ZERO_CUT", "RANK_CUT",
                       "TOL_X10", "TOL_X100", "TOL_X1000"}


def _number(node):
    return (isinstance(node, ast.Constant) and not isinstance(node.value, bool)
            and isinstance(node.value, (int, float, complex)))


def _mentions_bound(node):
    """Whether an identifier or string key in the subtree names a
    tolerance or a bound."""
    words = [item.id if isinstance(item, ast.Name) else
             item.attr if isinstance(item, ast.Attribute) else item.value
             for item in ast.walk(node)
             if isinstance(item, (ast.Name, ast.Attribute))
             or isinstance(item, ast.Constant) and isinstance(item.value, str)]
    return any("tol" in w.lower() or "bound" in w.lower() for w in words)


def test_bounds_read_the_tolerance_constants():
    # no literal below 1e-3 outside the block, and no literal multiple
    # of a tolerance or bound anywhere
    trees = {path.name: _tree(path) for path in sorted(PACKAGE.glob("*.py"))}
    block = {id(node.value): node.targets[0].id for node in trees["algebra.py"].body
             if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
             and node.targets[0].id in TOLERANCE_CONSTANTS}
    found = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if _number(node) and 0 < abs(node.value) < 1e-3 and id(node) not in block:
                found.append("%s:%d %r" % (name, node.lineno, node.value))
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                found += ["%s:%d %s" % (name, node.lineno, ast.unparse(node))
                          for lit, other in ((node.left, node.right), (node.right, node.left))
                          if _number(lit) and _mentions_bound(other)]
    assert not found, "bound constants written outside algebra's block: %s" % found
    assert set(block.values()) == TOLERANCE_CONSTANTS
