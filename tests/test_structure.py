"""The connections' pair layout is known to one module.

A connection antisymmetric in its first two indices is held as its six
pair rows a < b in clifford.PAIRS order.  clifford alone turns a pair row
into its (a, b, mu) entries, through clifford.unpaired and its plan, and
applies the pairs to a spinor (clifford.spin_action); every other module
reads a connection through them, so no other module names PAIRS.

Package code builds a changed record through its constructor: a record
that checks its values does so in its __new__, which ``_replace`` skips.
"""

import ast
import pathlib

import nldirac

PACKAGE = pathlib.Path(nldirac.__file__).resolve().parent


def _names(tree):
    """Names that ``tree`` reads, as a bare name, an attribute or an
    imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_only_clifford_names_the_pair_order():
    naming = [path.name for path in sorted(PACKAGE.glob("*.py"))
              if "PAIRS" in _names(ast.parse(path.read_text(encoding="utf-8")))]
    assert naming == ["clifford.py"]


def test_package_code_never_calls_replace():
    calling = [f"{path.name}:{node.lineno}"
               for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr == "_replace"]
    assert calling == []
