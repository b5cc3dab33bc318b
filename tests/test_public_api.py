"""Every public module-level function and class of the package is used by
the package itself, so that no API survives that only tests call."""

import ast
from pathlib import Path

import a3

PACKAGE = Path(a3.__file__).resolve().parent

# Autodiff ops that only the gradient-integrity acceptance criterion uses.
TEST_ONLY = {"autodiff.concat", "autodiff.tslice"}


def public_definitions(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")]


def referenced_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_definition_is_referenced_in_the_package():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*(referenced_names(t) for t in trees.values()))
    orphans = [f"{module}.{name}" for module, tree in trees.items()
               for name in public_definitions(tree)
               if name not in used and f"{module}.{name}" not in TEST_ONLY]
    assert orphans == []
