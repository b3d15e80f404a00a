"""Every public function, class, method and property of the package is
reached, and every defaulted parameter of a public function or method is
passed.

Code in `src/`, `perfbench/*.py` and `tools/*.py` counts; the tests do not.
Public means a module-level function or class, or a method or a class-level
`name = property(...)` of a module-level class, whose name has no leading
underscore.

- A module-level function or class is reached when that code refers to its
  name outside the definition itself, as a bare name or as an attribute.
- A method or property is reached only through an attribute `.name`
  outside its own definition.
- A parameter with a default, of a public function or method or of a public
  class's `__init__`, is passed when some call by the function's name (the
  class's name for `__init__`) gives it by position or by keyword.

The match is by name, not by type: any `.height` reaches every method
called `height`. Imports and `__all__` entries are no references.
"""

import ast
import importlib
from pathlib import Path

import fanforge

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fanforge"

# Library API that no command, benchmark step or tool reaches or passes,
# each kept for the reason given, as "module.name" or "module.name(param)":
# "reason". Nothing is kept so.
ALLOWED: dict[str, str] = {}


def _trees() -> dict[Path, ast.Module]:
    files = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"), *(ROOT / "tools").glob("*.py")]
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}


def _property_name(node: ast.stmt) -> str | None:
    """The name that a class-level `name = property(...)` binds; None for
    any other statement."""
    if (
        isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "id", None) == "property"
    ):
        return node.targets[0].id
    return None


def _definitions(tree: ast.Module):
    """(qualified name, bare name, node, is a member) of each public
    definition in a module."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                name = item.name if isinstance(item, ast.FunctionDef) else _property_name(item)
                if name and not name.startswith("_"):
                    yield f"{node.name}.{name}", name, item, True


def _references(tree: ast.Module):
    """(name, line, is an attribute) of each bare name and attribute in a
    module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True


def unreached() -> list[str]:
    """Qualified names of the public definitions that nothing reaches."""
    trees = _trees()
    refs: dict[str, list[tuple[Path, int, bool]]] = {}
    for path, tree in trees.items():
        for name, line, attribute in _references(tree):
            refs.setdefault(name, []).append((path, line, attribute))
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, name, node, member in _definitions(trees[path]):
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(
                (attribute or not member) and not (other == path and line in inside)
                for other, line, attribute in refs.get(name, [])
            ):
                out.append(f"{path.stem}.{qualname}")
    return out


def _defaulted(function: ast.FunctionDef, method: bool):
    """(position or None, name) of each parameter with a default; the
    position counts the arguments of a call, so a method's first parameter
    is dropped unless it is a staticmethod."""
    args = function.args
    positional = [*args.posonlyargs, *args.args]
    bound = method and not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in function.decorator_list)
    first = len(positional) - len(args.defaults)
    for i in range(first, len(positional)):
        yield i - bound, positional[i].arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _calls(trees) -> dict[str, list[ast.Call]]:
    """Every call in the code, by the name it calls: a bare name or the
    last attribute."""
    out: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                out.setdefault(name, []).append(node)
    return out


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    if any(isinstance(arg, ast.Starred) for arg in call.args) or any(k.arg is None for k in call.keywords):
        return True  # *args or **kwargs may carry it
    return (position is not None and position < len(call.args)) or any(k.arg == name for k in call.keywords)


def unpassed() -> list[str]:
    """"module.function(param)" of each defaulted parameter of a public
    function or method, or of a public class's `__init__`, that no call
    passes."""
    trees = _trees()
    calls = _calls(trees)
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, name, node, member in _definitions(trees[path]):
            if isinstance(node, ast.ClassDef):  # its __init__, called by the class name
                node = next((f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"), None)
                qualname, member = f"{qualname}.__init__", True
            if isinstance(node, ast.FunctionDef):
                for position, param in _defaulted(node, member):
                    if not any(_passes(call, position, param) for call in calls.get(name, [])):
                        out.append(f"{path.stem}.{qualname}({param})")
    return out


def test_every_public_definition_is_reached():
    assert [name for name in unreached() if name not in ALLOWED] == []


def test_every_defaulted_parameter_is_passed():
    assert [name for name in unpassed() if name not in ALLOWED] == []


def test_allowed_names_exist_and_are_unreached():
    missing = set(ALLOWED) - set(unreached()) - set(unpassed())
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
        reached |= {name for name, _, _ in _references(ast.parse(path.read_text(encoding="utf-8")))}
    frontier = reached & set(defined)
    while frontier:
        inner = {name for node in (defined[n] for n in frontier) for name, _, _ in _references(node)}
        frontier = (inner & set(defined)) - reached
        reached |= frontier
    return sorted(set(defined) - reached)


def test_every_oracle_is_reached_from_a_test():
    assert unreached_oracles() == []
