"""The names the benchmark in perfbench/ looks up in nldirac must exist and
be called.

The benchmark's tracer counts the calls of each name in its EXPECTED_CALLS
under the module that defines the function, and its NaN sentinel patches
the module attributes in NanSentinel.TARGETS.  A function moved to another
module or renamed, or a layer that a refactor stops calling, would otherwise
only show up in a benchmark run.  The benchmark files are read, never
changed.
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


def test_suite_table_matches_the_benchmark(perfbench):
    # the tracer times each suite under the function name SUITE_FUNCTIONS
    # gives it, and every suite has a default tolerance
    from nldirac import verify

    harness, _ = perfbench
    assert list(verify.SUITES) == list(verify.DEFAULT_TOLERANCES)
    assert {k: f.__name__ for k, f in verify.SUITES.items()} == \
        harness.SUITE_FUNCTIONS


def _called_functions(argv):
    """``layer.function`` of every nldirac function that ``cli.main(argv)``
    calls, and its exit code."""
    from nldirac import cli

    seen = set()

    def profile(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.startswith("nldirac."):
            seen.add(f"{module.removeprefix('nldirac.')}.{frame.f_code.co_name}")

    sys.setprofile(profile)
    try:
        code = cli.main(argv)
    finally:
        sys.setprofile(None)
    return seen, code


def test_expected_calls_are_called(perfbench, tmp_path, capsys):
    harness, _ = perfbench
    grid = "0.05,20,5,4"
    commands = {
        "verify": ["verify", "--model", "njl", "--grid", grid],
        "fieldmap": ["fieldmap", "--model", "soler", "--grid", grid,
                     "--out", str(tmp_path / "map.csv")],
        "ode": ["ode", "--model", "soler", "--scan-el", "--grid", "1,10,50,2",
                "--out", str(tmp_path / "trajectory.csv")],
        "locus": ["locus", "--model", "njl"],
        "report": ["report", "--model", "soler", "--grid", grid],
    }
    called = {}
    for command, argv in commands.items():
        called[command], code = _called_functions(argv)
        assert code == 0, command
    capsys.readouterr()
    # the commands each workload runs (perfbench/workloads.py)
    runs = {"verify-sweep": ("verify",), "fieldmap-export": ("fieldmap",),
            "cli-cold": tuple(commands)}
    assert set(runs) == set(harness.EXPECTED_CALLS)
    for workload, names in harness.EXPECTED_CALLS.items():
        seen = set().union(*(called[command] for command in runs[workload]))
        missing = [name for name in names if name not in seen]
        assert not missing, (workload, missing)
