"""Only the pinned producers may skip validation.

``diagram.OrientedGaussCode`` takes a private keyword-only ``_trusted=True``
that stores its fields without checks; every ``diagram.RotDecomp`` is
checked.  Each producer below builds codes that are valid by construction;
a ``_trusted=`` anywhere else in ``src/knotoidal``, or one that is not the
literal ``True``, fails here, and so does a constructor that takes
``_trusted`` positionally, where a stray third argument would skip every
check.  The exact layer has no such keyword: every ``DElement`` and
``DTensor`` is built by the one normalising loop of ``algebra._Terms``, so
a ``_trusted`` put back there fails here too.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "knotoidal"

PRODUCERS = {
    "diagram.OrientedGaussCode.relabeled",
    "measure.project",
    "measure.simplify_gauss",
}

CONSTRUCTORS = {
    "diagram.OrientedGaussCode.__init__",
}


def _package_nodes():
    """``(qualified name of the innermost enclosing def or class, node)``
    for every node of the package; a def or class is its own scope."""
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [(path.stem, ast.parse(path.read_text()))]
        while stack:
            scope, node = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = f"{scope}.{child.name}"
                else:
                    inner = scope
                yield inner, child
                stack.append((inner, child))


def test_only_the_pinned_producers_skip_validation():
    users, values = set(), set()
    for scope, node in _package_nodes():
        if isinstance(node, ast.keyword) and node.arg == "_trusted":
            users.add(scope)
            values.add(ast.unparse(node.value))
    assert users == PRODUCERS
    assert values == {"True"}


def test_trusted_is_keyword_only_in_the_constructors():
    keyword_only, positional = set(), set()
    for scope, node in _package_nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            if any(arg.arg == "_trusted" for arg in args.kwonlyargs):
                keyword_only.add(scope)
            if any(arg.arg == "_trusted" for arg in args.posonlyargs + args.args):
                positional.add(scope)
    assert keyword_only == CONSTRUCTORS
    assert positional == set()
