"""Every module-level name the package defines has a user.

A function, class or constant defined at the top of a module in
``src/knotoidal`` must be named somewhere in ``src/``, ``tests/``,
``perfbench/`` or ``README.md`` outside its own definition; otherwise it is
dead code.  Dunder names (``__all__``, ``__version__``) are exempt.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "knotoidal"


def _sources() -> dict[Path, str]:
    paths = [ROOT / "README.md"]
    for folder in ("src", "tests", "perfbench"):
        paths += sorted((ROOT / folder).rglob("*.py"))
    return {path: path.read_text() for path in paths}


def _definitions(tree: ast.Module):
    """``(name, first line, last line)`` of each module-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno, node.end_lineno


def _unreferenced() -> list[str]:
    sources = _sources()
    dead = []
    for module in sorted(PACKAGE.glob("*.py")):
        text = sources[module]
        lines = text.splitlines()
        for name, first, last in _definitions(ast.parse(text)):
            if name.startswith("__") and name.endswith("__"):
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            outside = "\n".join(lines[: first - 1] + lines[last:])
            others = (src for path, src in sources.items() if path != module)
            if not word.search(outside) and not any(word.search(src) for src in others):
                dead.append(f"{module.stem}.{name}")
    return dead


def test_every_module_level_name_is_used():
    assert _unreferenced() == []
