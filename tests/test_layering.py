"""Static checks on the layering of ``src/kvacert``, read from each module's syntax tree.

* ``Poly``'s storage -- its integer numerators ``num``, its denominator ``den``
  and any private constructor -- is known to ``exactmath`` alone; every other
  module builds a ``Poly`` through its public constructors.
* Every module-level private name is used somewhere in the package, so no
  helper survives only for the tests.
* Every public function and class, and every public method or property of a
  public class, is read somewhere in the package outside ``__init__``: a public
  name is on a path or deleted.  The exceptions are the names the benchmark's
  tracer wraps (``SPANNED`` and ``COUNTED`` in ``bench/tracing.py``, read from
  its syntax tree) and ``Poly.coeffs``, the one public reader of a ``Poly``.
* The modules import one another without a cycle, and ``constants`` imports
  no package module but ``exactmath``: the order is ``exactmath`` <-
  ``hyperell``, ``constants`` <- ``blowup`` <- ``cli``.
* ``cli`` keeps no rule of its own: it raises ``UsageError`` only where the
  parser rejects an argument or the library rejects an input, and it does
  not import the ampleness predicate.
* No module imports ``typing`` or ``dataclasses``, for their cost at import.
* The theorem's floor ``k >= 2`` is refused by one ``raise``, in
  ``constants._at``, and no other ``raise`` restates it.
"""

import ast
from pathlib import Path

import pytest

import kvacert

PACKAGE = Path(kvacert.__file__).parent
TREES = {path.name: ast.parse(path.read_text(), str(path))
         for path in sorted(PACKAGE.glob("*.py"))}
POLY_STORAGE = {"num", "den", "_of"}
TRACING = Path(__file__).parents[1] / "bench" / "tracing.py"
#: public names kept for the callers outside the package: a Poly's one public reader
EXTERNAL_READERS = {"exactmath.Poly.coeffs"}


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


def public_definitions(tree: ast.Module) -> list[str]:
    """The qualified name of each public function and class, and of each public method
    or property of a public class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            found.append(node.name)
            if isinstance(node, ast.ClassDef):
                found += [f"{node.name}.{item.name}" for item in node.body
                          if isinstance(item, defs) and not item.name.startswith("_")]
    return found


def traced_names() -> set[str]:
    """``layer.qualname`` of every name the benchmark's tracer wraps in a span or a count."""
    tree = ast.parse(TRACING.read_text(), str(TRACING))
    tables = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id in {"SPANNED", "COUNTED"}
                      for t in node.targets)]
    assert len(tables) == 2, "bench/tracing.py no longer defines SPANNED and COUNTED"
    return {f"{layer}.{name}" for table in tables for layer, names in table.items()
            for name in names}


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


def test_every_public_name_is_reached_in_the_package():
    modules = {name.removesuffix(".py"): tree for name, tree in TREES.items()
               if name != "__init__.py"}
    names, attributes = set(), set()
    for node in (node for tree in modules.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
    exempt = traced_names() | EXTERNAL_READERS
    unread = []
    for module, tree in modules.items():
        for qualname in public_definitions(tree):
            cls, _, attr = qualname.rpartition(".")
            # a method is reached through an attribute; a function or class by either
            reached = attr in attributes or (not cls and attr in names)
            if not reached and f"{module}.{qualname}" not in exempt:
                unread.append(f"{module}.{qualname}")
    assert unread == []


def test_constants_imports_only_exactmath():
    assert IMPORTS["constants"] == {"exactmath"}


def test_no_module_imports_typing_or_dataclasses():
    # typing's NamedTuple costs a few hundred microseconds per class at import, and a
    # dataclass generates and compiles its methods at every import
    imported = []
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            imported += [f"{module}:{node.lineno}: {name}" for name in names
                         if name.partition(".")[0] in {"typing", "dataclasses"}]
    assert imported == []


def test_import_graph_has_no_cycle():
    # strip the modules whose package imports are all stripped already; a cycle is what stays
    left = dict(IMPORTS)
    while leaves := [module for module, imported in left.items() if not imported & left.keys()]:
        for module in leaves:
            del left[module]
    assert left == {}


def raisers(node: ast.AST, accept, scope: str = "<module>") -> list[str]:
    """The qualified name of the definition around each ``raise`` under ``node`` that
    ``accept`` takes."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            found += raisers(child, accept, inner)
        elif isinstance(child, ast.Raise) and accept(child):
            found.append(scope)
        else:
            found += raisers(child, accept, scope)
    return found


def raise_text(node: ast.Raise) -> str:
    """The string constants of a ``raise``, an f-string's literal parts included, joined."""
    return "".join(n.value for n in ast.walk(node)
                   if isinstance(n, ast.Constant) and isinstance(n.value, str))


def test_cli_keeps_no_rule_of_its_own():
    tree = TREES["cli.py"]
    raises_usage_error = lambda node: any(
        isinstance(n, ast.Name) and n.id == "UsageError" for n in ast.walk(node))
    assert set(raisers(tree, raises_usage_error)) == {"_Parser.error", "_library"}
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "is_ample" not in imported


def test_the_theorems_floor_is_refused_in_one_place():
    def raising(phrase):
        return [f"{module}:{scope}" for module, tree in TREES.items()
                for scope in raisers(tree, lambda node: phrase in raise_text(node))]

    assert raising("below the theorem's floor") == ["constants.py:_at"]
    source = "".join(path.read_text() for path in PACKAGE.glob("*.py"))
    assert "must be at least 3" not in source
    # z_roots' own rule t >= 2 keeps its radicand t^4 - 2t^3 nonnegative (t = 2 gives the
    # double root); it is not the theorem's floor
    assert source.count("must be at least 2") == 1
    assert raising("must be at least 2") == ["constants.py:z_roots"]
