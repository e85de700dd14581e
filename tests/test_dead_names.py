"""Every name the package defines has a user.

A function, class or constant defined at the top of a module in
``src/knotoidal`` must be named somewhere in ``src/``, ``tests/``,
``perfbench/`` or ``README.md`` outside its own definition; otherwise it is
dead code.  Likewise each method or property of a class there must appear as
``.name`` outside its own definition, and so must each field of a
``@dataclass`` and each name in a class's ``__slots__``.  Dunder names
(``__all__``, ``__version__``, ``__init__``) are exempt.

The top level ``knotoidal`` re-exports exactly the names README imports
from it, so the package surface cannot grow back with unused aliases.
"""

import ast
import re
from pathlib import Path

import knotoidal

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "knotoidal"


def _sources() -> dict[Path, str]:
    paths = [ROOT / "README.md"]
    for folder in ("src", "tests", "perfbench"):
        paths += sorted((ROOT / folder).rglob("*.py"))
    return {path: path.read_text() for path in paths}


def _definitions(tree: ast.Module):
    """``(name, name, first line, last line)`` of each module-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno, node.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, target.id, node.lineno, node.end_lineno


def _members(tree: ast.Module):
    """``(Class.name, name, first line, last line)`` of each method or property."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno


def _fields(tree: ast.Module):
    """``(Class.name, name, first line, last line)`` of each dataclass field."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            ast.unparse(deco).startswith("dataclass") for deco in node.decorator_list
        ):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.target.id, item.lineno, item.end_lineno


def _slots(tree: ast.Module):
    """``(Class.name, name, first line, last line)`` of each name in a
    class's ``__slots__``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__slots__" for target in item.targets
                ):
                    for slot in item.value.elts:
                        yield f"{node.name}.{slot.value}", slot.value, item.lineno, item.end_lineno


def _unreferenced(definitions, prefix: str) -> list[str]:
    """The definitions whose name, after ``prefix``, appears nowhere else."""
    sources = _sources()
    dead = []
    for module in sorted(PACKAGE.glob("*.py")):
        text = sources[module]
        lines = text.splitlines()
        for qualname, name, first, last in definitions(ast.parse(text)):
            if name.startswith("__") and name.endswith("__"):
                continue
            word = re.compile(rf"{prefix}\b{re.escape(name)}\b")
            outside = "\n".join(lines[: first - 1] + lines[last:])
            others = (src for path, src in sources.items() if path != module)
            if not word.search(outside) and not any(word.search(src) for src in others):
                dead.append(f"{module.stem}.{qualname}")
    return dead


def test_every_module_level_name_is_used():
    assert _unreferenced(_definitions, "") == []


def test_every_method_is_used():
    assert _unreferenced(_members, r"\.") == []


def test_every_dataclass_field_is_used():
    assert _unreferenced(_fields, r"\.") == []


def test_every_slot_is_used():
    assert _unreferenced(_slots, r"\.") == []


def test_top_level_exports_only_readme_api():
    readme = (ROOT / "README.md").read_text()
    documented = [
        name.strip()
        for names in re.findall(r"^from knotoidal import (.+)$", readme, re.M)
        for name in names.split(",")
    ]
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    bound = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(knotoidal.__all__) == sorted(documented)
    assert set(knotoidal.__all__) <= bound
