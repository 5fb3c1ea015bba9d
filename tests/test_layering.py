"""Static checks on the layering of ``src/kvacert``, read from each module's syntax tree.

* ``Poly``'s storage -- its integer numerators ``num``, its denominator ``den``
  and any private constructor -- is known to ``exactmath`` alone; every other
  module builds a ``Poly`` through its public constructors.
* Every module-level private name is used somewhere in the package, so no
  helper survives only for the tests.
* The modules import one another without a cycle, and ``constants`` imports
  no package module but ``exactmath``: the order is ``exactmath`` <-
  ``hyperell``, ``constants`` <- ``blowup`` <- ``cli``.
* ``cli`` keeps no rule of its own: it raises ``UsageError`` only where the
  parser rejects an argument or the library rejects an input, and it does
  not import the ampleness predicate.
"""

import ast
from pathlib import Path

import pytest

import kvacert

PACKAGE = Path(kvacert.__file__).parent
TREES = {path.name: ast.parse(path.read_text(), str(path))
         for path in sorted(PACKAGE.glob("*.py"))}
POLY_STORAGE = {"num", "den", "_of"}


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def module_level_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports relatively, at any depth of its tree."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported |= {node.module} if node.module else {alias.name for alias in node.names}
    return imported


IMPORTS = {name.removesuffix(".py"): package_imports(tree) for name, tree in TREES.items()}


def references() -> set[str]:
    """Every name read, and every attribute taken, anywhere in the package."""
    used = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


@pytest.mark.parametrize("module", [name for name in TREES if name != "exactmath.py"])
def test_poly_storage_stays_inside_exactmath(module):
    touches = [f"{module}:{node.lineno}: .{node.attr}" for node in ast.walk(TREES[module])
               if isinstance(node, ast.Attribute) and node.attr in POLY_STORAGE]
    assert touches == []


def test_every_private_module_name_is_used_in_the_package():
    used = references()
    unused = [f"{module}: {name}" for module, tree in TREES.items()
              for name in module_level_names(tree) if is_private(name) and name not in used]
    assert unused == []


def test_constants_imports_only_exactmath():
    assert IMPORTS["constants"] == {"exactmath"}


def test_import_graph_has_no_cycle():
    # strip the modules whose package imports are all stripped already; a cycle is what stays
    left = dict(IMPORTS)
    while leaves := [module for module, imported in left.items() if not imported & left.keys()]:
        for module in leaves:
            del left[module]
    assert left == {}


def usage_error_raisers(node: ast.AST, scope: str = "<module>") -> list[str]:
    """The qualified name of the definition around each ``raise UsageError`` under ``node``."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            found += usage_error_raisers(child, inner)
        elif isinstance(child, ast.Raise) and any(
                isinstance(n, ast.Name) and n.id == "UsageError" for n in ast.walk(child)):
            found.append(scope)
        else:
            found += usage_error_raisers(child, scope)
    return found


def test_cli_keeps_no_rule_of_its_own():
    tree = TREES["cli.py"]
    assert set(usage_error_raisers(tree)) == {"_Parser.error", "_library"}
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "is_ample" not in imported
