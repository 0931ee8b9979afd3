"""The names the benchmark in perfbench/ looks up in nldirac must exist.

The benchmark's tracer counts the calls of each name in its EXPECTED_CALLS
under the module that defines the function, and its NaN sentinel patches
the module attributes in NanSentinel.TARGETS.  A function moved to another
module or renamed would otherwise only show up in a benchmark run.  The
benchmark files are read, never changed.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        checks = importlib.import_module("checks")
        harness = importlib.import_module("harness")
    finally:
        sys.path.remove(str(PERFBENCH))
    return harness, checks


def test_expected_calls_are_functions_of_their_layer(perfbench):
    harness, _ = perfbench
    for workload, names in harness.EXPECTED_CALLS.items():
        for name in names:
            layer, attr = name.split(".")
            module = importlib.import_module(f"nldirac.{layer}")
            fn = getattr(module, attr, None)
            assert inspect.isfunction(fn), (workload, name)
            assert fn.__module__ == module.__name__, (workload, name)


def test_nan_sentinel_targets_exist(perfbench):
    _, checks = perfbench
    for layer, attr, suite, _ in checks.NanSentinel.TARGETS:
        module = importlib.import_module(f"nldirac.{layer}")
        assert inspect.isfunction(getattr(module, attr, None)), (suite, attr)
