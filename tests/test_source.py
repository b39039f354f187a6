"""Source hygiene of the package, read with the standard library's ``ast``:
every name a module of ``minorbit`` imports is read in that module or listed
in its ``__all__``, so an import left behind by a deleted use fails here;
and every function, method and class the package defines is read somewhere
in the package or in ``perfbench/``, so a definition left behind fails too."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "minorbit"
MODULES = sorted(PACKAGE.rglob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").rglob("*.py"))


def imported_names(tree):
    """The names that the imports of a module bind, with their lines."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def read_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_import_is_read_or_exported(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = read_names(tree) | exported_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree)
              if name not in used]
    assert unused == []


def loaded_names(tree):
    """The names a module reads, as a name or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def string_words(tree):
    """The identifiers inside the module's string constants, such as the
    ``"LieAlgebraModel.kernel_in_span"`` of a perfbench span target."""
    return {word for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for word in re.findall(r"\w+", node.value)}


def test_every_definition_is_read():
    """A function, method or class of the package is read as a name or an
    attribute in the package or in perfbench, or named in a perfbench
    string; a dunder method is called by Python itself and is exempt."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES + PERFBENCH}
    used = set().union(*map(loaded_names, trees.values()))
    used |= set().union(*(string_words(trees[path]) for path in PERFBENCH))
    unread = [f"{path.relative_to(PACKAGE)}:{node.lineno} {node.name}"
              for path in MODULES for node in ast.walk(trees[path])
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and node.name not in used]
    assert unread == []


def test_the_package_has_modules():
    assert PACKAGE / "__init__.py" in MODULES and len(MODULES) > 10
