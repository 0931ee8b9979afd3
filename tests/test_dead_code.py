"""Every module-level function and every method of the package has a caller
in the package, and every record field of the package has a reader in it.

A function that only tests call is a layer kept alive for its tests: the
test should hold its own reference instead.  The package's public API,
``nldirac.__all__``, is the one exception.  A field that no package code
reads is a value computed for nothing.
"""

import ast
import importlib
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


def _package_trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _reference_counts(trees):
    counts = {}
    for tree in trees.values():
        for name in _referenced_names(tree):
            counts[name] = counts.get(name, 0) + 1
    return counts


def _uncalled(node, counts):
    """Whether no package code outside the def ``node`` references its
    name."""
    own = sum(name == node.name for name in _referenced_names(node))
    return counts.get(node.name, 0) == own


def test_every_function_has_a_caller_in_the_package():
    # a module-level dunder, such as the package's __getattr__, is called
    # by Python
    trees = _package_trees()
    counts = _reference_counts(trees)
    uncalled = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))
                    and _uncalled(node, counts)
                    and node.name not in nldirac.__all__):
                uncalled.append(f"{module}: {node.name}")
    assert uncalled == []


def test_every_method_has_a_caller_in_the_package():
    # a method, classmethod or staticmethod of a package class; dunders are
    # called by Python, and an override of a base-class method by the base
    trees = _package_trees()
    counts = _reference_counts(trees)
    uncalled = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            live = getattr(importlib.import_module(
                f"{nldirac.__name__}.{module[:-len('.py')]}"), cls.name)
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = node.name
                if (name.startswith("__") and name.endswith("__")
                        or any(hasattr(base, name) for base in live.__mro__[1:])):
                    continue
                if _uncalled(node, counts):
                    uncalled.append(f"{module}: {cls.name}.{name}")
    assert uncalled == []


def _is_record(node):
    """Whether the class ``node`` declares record fields: a dataclass, or a
    NamedTuple class, which a record that checks its values subclasses as
    its field base."""
    return (any("dataclass" in set(_referenced_names(d))
                for d in node.decorator_list)
            or any(_annotation_name(b) == "NamedTuple" for b in node.bases))


def _annotation_name(node):
    """The class an annotation names, as a bare or dotted name or a string."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.rsplit(".", 1)[-1]
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _classes_read_whole(trees, returns):
    """Classes whose instances package code reads whole: passes to asdict
    or vars, calls ``_asdict()`` on, or unpacks with a star.

    The instance's class comes from its annotation as a parameter, or from
    the call that built it: a constructor or a function whose return
    annotation names the class."""
    whole = set()
    for tree in trees.values():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            types = {a.arg: _annotation_name(a.annotation)
                     for a in (*fn.args.args, *fn.args.kwonlyargs)
                     if a.annotation is not None}
            for node in ast.walk(fn):
                if (isinstance(node, ast.Assign)
                        and isinstance(node.value, ast.Call)):
                    callee = _annotation_name(node.value.func)
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            types[target.id] = returns.get(callee, callee)
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and _annotation_name(node.func) in ("asdict", "vars")
                        and node.args):
                    arg = node.args[0]
                elif (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "_asdict"):
                    arg = node.func.value
                elif isinstance(node, ast.Starred):
                    arg = node.value
                else:
                    continue
                if isinstance(arg, ast.Name):
                    whole.add(types.get(arg.id))
                elif isinstance(arg, ast.Call):
                    callee = _annotation_name(arg.func)
                    whole.add(returns.get(callee, callee))
    return whole


def test_every_record_field_has_a_reader_in_the_package():
    trees = _package_trees()
    reads = {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)}
    returns = {node.name: _annotation_name(node.returns)
               for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.returns is not None}
    whole = _classes_read_whole(trees, returns)
    # a record read whole reads the fields of its field base too
    for tree in trees.values():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name in whole:
                whole.update(_annotation_name(b) for b in cls.bases)
    unread = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and _is_record(cls)):
                continue
            if cls.name in whole:
                continue
            for item in cls.body:
                if (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                        and item.target.id not in reads):
                    unread.append(f"{module}: {cls.name}.{item.target.id}")
    assert unread == []
