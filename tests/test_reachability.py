"""Every public function, class and method of the package is reached.

A definition is reached when code in `src/`, `perfbench/*.py` or
`tools/*.py` refers to its name outside the definition itself, as a bare
name or as an attribute. The match is by name, not by type: any `.height`
reaches every method called `height`. Imports and `__all__` entries are no
references, and neither are the tests. Public means a module-level function
or class, or a method of a module-level class, whose name has no leading
underscore.
"""

import ast
import importlib
from pathlib import Path

import fanforge

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fanforge"

# Library API that no command, benchmark step or tool calls, each kept for
# the reason given, as "module.name": "reason". Nothing is kept so: every
# public definition is reached.
ALLOWED: dict[str, str] = {}


def _definitions(tree: ast.Module):
    """(qualified name, node) of each public definition in a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _references(tree: ast.Module):
    """(name, line) of each bare name and attribute in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unreached() -> list[str]:
    """Qualified names of the public definitions that nothing reaches."""
    files = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"), *(ROOT / "tools").glob("*.py")]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    refs: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, node in _definitions(trees[path]):
            inside = range(node.lineno, node.end_lineno + 1)
            if all(other == path and line in inside for other, line in refs.get(node.name, [])):
                out.append(f"{path.stem}.{qualname}")
    return out


def test_every_public_definition_is_reached():
    assert [name for name in unreached() if name not in ALLOWED] == []


def test_allowed_names_exist_and_are_unreached():
    missing = set(ALLOWED) - set(unreached())
    assert not missing, f"reached or gone, drop from ALLOWED: {sorted(missing)}"


def test_every_package_name_resolves_to_its_home_module():
    # `fanforge._HOMES` maps each name of `__all__` to the module that defines it
    for name in fanforge.__all__:
        home = f"fanforge.{fanforge._HOMES[name]}"
        value = getattr(fanforge, name)
        assert value is getattr(importlib.import_module(home), name) and value.__module__ == home, name


def unreached_oracles() -> list[str]:
    """Top-level names of tests/oracles.py that no test reaches, directly
    or through an oracle that a test reaches."""
    tests = Path(__file__).resolve().parent
    tree = ast.parse((tests / "oracles.py").read_text(encoding="utf-8"))
    defined = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    reached: set[str] = set()
    for path in sorted(tests.glob("test_*.py")):
        reached |= {name for name, _ in _references(ast.parse(path.read_text(encoding="utf-8")))}
    frontier = reached & set(defined)
    while frontier:
        inner = {name for node in (defined[n] for n in frontier) for name, _ in _references(node)}
        frontier = (inner & set(defined)) - reached
        reached |= frontier
    return sorted(set(defined) - reached)


def test_every_oracle_is_reached_from_a_test():
    assert unreached_oracles() == []
