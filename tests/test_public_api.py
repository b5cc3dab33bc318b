"""Every public module-level function and class of the package is used by
the package itself, so that no API survives that only tests call; and every
dataclass field and property is read somewhere, in the package or its
tests. A use is matched by module: ``ad.div`` or ``from .autodiff import
div`` uses ``autodiff.div``, and so does a bare ``div`` inside autodiff, but
a local variable named ``div`` elsewhere does not."""

import ast
from pathlib import Path

import a3

PACKAGE = Path(a3.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

# Autodiff ops that only the gradient-integrity acceptance criterion uses.
TEST_ONLY = {"autodiff.concat", "autodiff.div", "autodiff.exp",
             "autodiff.relu", "autodiff.tslice"}


def parse_all(directory: Path) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(directory.glob("*.py"))}


def public_definitions(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")]


def referenced_names(module: str, tree: ast.Module) -> set[str]:
    """``module.name`` for each package name that the module's code uses:
    an attribute of an imported package module, a from-import of a package
    module, or a bare name of the module's own."""
    modules = {}  # local alias -> package module, from `from . import x as y`
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 \
                and node.module is None:
            modules.update({a.asname or a.name: a.name for a in node.names})
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(f"{module}.{node.id}")
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            names.add(f"{modules[node.value.id]}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.level == 1 \
                and node.module is not None:
            names.update(f"{node.module}.{a.name}" for a in node.names)
    return names


def decorator_names(node: ast.ClassDef | ast.FunctionDef) -> set[str]:
    names = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        names.add(target.attr if isinstance(target, ast.Attribute)
                  else getattr(target, "id", ""))
    return names


def members(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, member) for each dataclass field and each property."""
    out = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        is_dataclass = "dataclass" in decorator_names(cls)
        for node in cls.body:
            if is_dataclass and isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                out.append((cls.name, node.target.id))
            elif isinstance(node, ast.FunctionDef) \
                    and "property" in decorator_names(node):
                out.append((cls.name, node.name))
    return out


def attribute_loads(tree: ast.Module) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_every_public_definition_is_referenced_in_the_package():
    trees = parse_all(PACKAGE)
    used = set().union(*(referenced_names(module, tree)
                         for module, tree in trees.items()))
    orphans = [f"{module}.{name}" for module, tree in trees.items()
               for name in public_definitions(tree)
               if f"{module}.{name}" not in used | TEST_ONLY]
    assert orphans == []


def test_every_member_is_read():
    """A member counts as read when some ``x.name`` load in the package or
    its tests spells its name. The match is by name alone, so a member that
    shares its name with another attribute, such as NumPy's ``size``, is
    not caught by this check."""
    package = parse_all(PACKAGE)
    loads = set().union(*(attribute_loads(t) for t in
                          [*package.values(), *parse_all(TESTS).values()]))
    defined = [f"{module}.{cls}.{name}" for module, tree in package.items()
               for cls, name in members(tree)]
    assert len(defined) > 50
    assert [m for m in defined if m.rsplit(".", 1)[1] not in loads] == []


def shadowed_settings(trees: dict[str, ast.Module]) -> list[str]:
    """Each parameter or dataclass field outside RunConfig that has a
    default and the name of a RunConfig field."""
    config = next(node for node in trees["pipeline"].body
                  if isinstance(node, ast.ClassDef)
                  and node.name == "RunConfig")
    settings = {node.target.id for node in config.body
                if isinstance(node, ast.AnnAssign)}
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node is not config \
                    and "dataclass" in decorator_names(node):
                found += [f"{module}.{node.name}.{f.target.id}"
                          for f in node.body if isinstance(f, ast.AnnAssign)
                          and f.value is not None
                          and f.target.id in settings]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                positional = a.posonlyargs + a.args
                defaulted = positional[len(positional) - len(a.defaults):]
                defaulted += [arg for arg, d in zip(a.kwonlyargs,
                                                    a.kw_defaults)
                              if d is not None]
                found += [f"{module}.{node.name}({arg.arg})"
                          for arg in defaulted if arg.arg in settings]
    return found


def test_no_default_shadows_a_run_setting():
    """A default on a name that RunConfig owns is a second value for that
    setting, which a caller gets silently by leaving the argument out."""
    assert shadowed_settings(parse_all(PACKAGE)) == []
