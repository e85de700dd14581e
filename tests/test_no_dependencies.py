"""The package, its tests and its benchmark need nothing outside the standard
library.

Every absolute import in a ``.py`` file under ``src/knotoidal``, ``tests``
or ``perfbench`` names a standard-library module, ``knotoidal`` or a module
in the same directory.  Tests may also import ``pytest``, ``hypothesis`` and
the perfbench modules that ``test_bench_hooks`` loads.  Relative imports
stay inside the package and are not checked.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FOLDERS = ("src/knotoidal", "tests", "perfbench")
TESTS_ONLY = {"pytest", "hypothesis", "layers", "tracer"}


def _absolute_imports(tree: ast.Module):
    """``(line, module)`` of each absolute import, nested ones included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_imports_are_stdlib_knotoidal_or_local():
    foreign = []
    for folder in FOLDERS:
        extra = TESTS_ONLY if folder == "tests" else set()
        for path in sorted((ROOT / folder).rglob("*.py")):
            local = {sibling.stem for sibling in path.parent.glob("*.py")}
            allowed = sys.stdlib_module_names | local | extra | {"knotoidal"}
            for line, module in _absolute_imports(ast.parse(path.read_text())):
                if module.partition(".")[0] not in allowed:
                    foreign.append(f"{path.relative_to(ROOT)}:{line}: {module}")
    assert not foreign, foreign
