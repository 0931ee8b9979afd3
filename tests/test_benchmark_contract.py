"""The names the benchmark in perfbench/ looks up in nldirac must exist and
be called, and the results it reads must pass its checks.

The benchmark's tracer counts the calls of each name in its EXPECTED_CALLS
under the module that defines the function, reads a count off the result of
each function in RESULT_COUNTS, and its NaN sentinel patches the module
attributes in NanSentinel.TARGETS; its checkers read the reports' fields.  A
function moved to another module or renamed, a layer that a refactor stops
calling, or a report field that changes its type would otherwise only show
up in a benchmark run.  The benchmark files are read, never changed.
"""

import importlib
import inspect
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return SimpleNamespace(**{name: importlib.import_module(name) for name
                                  in ("checks", "harness", "spans",
                                      "workloads")})
    finally:
        sys.path.remove(str(PERFBENCH))


def test_expected_calls_are_functions_of_their_layer(perfbench):
    for workload, names in perfbench.harness.EXPECTED_CALLS.items():
        for name in names:
            layer, attr = name.split(".")
            module = importlib.import_module(f"nldirac.{layer}")
            fn = getattr(module, attr, None)
            assert inspect.isfunction(fn), (workload, name)
            assert fn.__module__ == module.__name__, (workload, name)


def test_nan_sentinel_targets_exist(perfbench):
    for layer, attr, suite, _ in perfbench.checks.NanSentinel.TARGETS:
        module = importlib.import_module(f"nldirac.{layer}")
        assert inspect.isfunction(getattr(module, attr, None)), (suite, attr)


def test_suite_table_matches_the_benchmark(perfbench):
    # the tracer times each suite under the function name SUITE_FUNCTIONS
    # gives it, and every suite has a default tolerance
    from nldirac import verify

    assert list(verify.SUITES) == list(verify.DEFAULT_TOLERANCES)
    assert {k: f.__name__ for k, f in verify.SUITES.items()} == \
        perfbench.harness.SUITE_FUNCTIONS


def test_importing_the_cli_loads_every_module_the_benchmark_patches(
        perfbench):
    # the tracer and the NaN sentinel read sys.modules["nldirac.<layer>"]
    # right after import nldirac.cli, before the first command runs
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, nldirac.cli; print(*sorted(sys.modules))"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
        text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    layers = {*perfbench.spans.LAYERS,
              *(target[0] for target in perfbench.checks.NanSentinel.TARGETS)}
    assert {f"nldirac.{layer}" for layer in layers} <= set(proc.stdout.split())


def test_the_cold_decks_usage_errors_load_no_numpy(perfbench, tmp_path):
    # the deck's usage errors are checked before numpy is imported
    deck = perfbench.workloads._cold_deck(random.Random(0))
    argvs = [op.argv for op in deck if op.kind == "usage-error"]
    assert ["verify", "--model", "p:2"] in argvs
    for argv in argvs:
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "nldirac.cli", *argv],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, argv
        modules = {line.rsplit("|", 1)[-1].strip()
                   for line in proc.stderr.splitlines()
                   if line.startswith("import time:")}
        assert "nldirac.settings" in modules, argv
        assert "numpy" not in modules, argv


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
    harness = perfbench.harness
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


@pytest.mark.parametrize("mass", (0.5, 1.0, 2.0))
@pytest.mark.parametrize("model", ("njl", "soler", "p:0.05", "p:0.95"))
def test_locus_report_passes_the_benchmark_check(perfbench, capsys, model,
                                                 mass):
    from nldirac import cli

    argv = ["locus", "--model", model, "--mass", repr(mass)]
    assert cli.main(argv) == 0
    op = perfbench.workloads.Op(label=" ".join(argv), kind="locus", argv=argv,
                                model=model, mass=mass)
    doc = json.loads(capsys.readouterr().out)
    assert perfbench.checks.check_locus(doc, op) == []


def test_result_counts_read_an_int(perfbench):
    from nldirac import ode, singular
    from nldirac.polar import ModelSpec

    spec = ModelSpec("soler")
    results = {
        "ode.integrate": ode.integrate(
            ode.IntegratorConfig(r_span=(1.0, 10.0)), ode.exact_state(1.0)),
        "singular.locate_numerically": singular.locate_numerically(spec),
    }
    assert set(results) == set(perfbench.spans.RESULT_COUNTS)
    for name, (_, take) in perfbench.spans.RESULT_COUNTS.items():
        assert type(take(results[name])) is int, name
