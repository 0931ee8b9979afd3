"""Every module-level function of the package has a caller in the package.

A function that only tests call is a layer kept alive for its tests: the
test should hold its own reference instead.  The package's public API,
``nldirac.__all__``, is the one exception.
"""

import ast
import pathlib

import nldirac

PACKAGE = pathlib.Path(nldirac.__file__).resolve().parent


def _referenced_names(node):
    """Names that ``node`` reads, as a bare name, an attribute or an
    imported name."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_function_has_a_caller_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    counts = {}
    for tree in trees.values():
        for name in _referenced_names(tree):
            counts[name] = counts.get(name, 0) + 1
    uncalled = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # references inside the function's own def do not count
            own = sum(name == node.name for name in _referenced_names(node))
            if (counts.get(node.name, 0) == own
                    and node.name not in nldirac.__all__):
                uncalled.append(f"{module}: {node.name}")
    assert uncalled == []
