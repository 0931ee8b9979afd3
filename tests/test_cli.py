import argparse
import csv
import io
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from nldirac import cli, equations, geometry, grids, ode, polar
from nldirac.cli import main
from nldirac.errors import DivergingState, StepUnderflow


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SMALL_GRID = "0.05,20,10,8"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_verify_njl_passes(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, err = run(
        capsys, "verify", "--model", "njl", "--grid", SMALL_GRID,
        "--out", str(out_file),
    )
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["schema"] == "1"
    assert report["pass"] is True
    assert report["model"] == "njl"
    for name, suite in report["suites"].items():
        assert suite["max_residual"] <= suite["tolerance"], name
    assert "expanded-residuals" in report["suites"]
    assert "fierz" in report["suites"]


def test_verify_angular_momentum_override_fails(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"l": 0.6, "grid": {"n_r": 10, "n_theta": 8}}))
    code, out, err = run(capsys, "verify", "--model", "njl", "--config", str(cfg))
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    assert "expanded-residuals" in report["failing_suites"]
    assert "expanded-residuals" in err


def test_verify_passes_for_another_suite_seed(capsys):
    # the sampled suites draw points next to the ring; with this seed the
    # curvature-strength partials once lost digits to cancellation
    code, out, err = run(capsys, "verify", "--model", "njl", "--seed", "678993",
                         "--grid", SMALL_GRID)
    assert code == 0, err
    assert json.loads(out)["suites"]["curvature-strength"]["max_residual"] <= 1e-12


def test_verify_interpolated_model_passes(capsys):
    code, out, err = run(capsys, "verify", "--model", "p:0.5",
                         "--grid", SMALL_GRID)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    # the endpoint-only systems are not run for interpolated models
    assert "expanded-residuals" not in report["suites"]
    assert "standard-residuals" in report["suites"]


def test_verify_json_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "verify", "--model", "njl",
                         "--grid", SMALL_GRID, "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_fieldmap_contract(capsys, tmp_path):
    out = tmp_path / "map.csv"
    code, _, err = run(capsys, "fieldmap", "--model", "njl",
                       "--grid", "0.25,1.0,3,3", "--out", str(out))
    assert code == 0
    assert err == f"wrote 9 rows to {out}\n"
    lines = out.read_text().splitlines()
    assert lines[0] == "r,theta,phi2,sin_beta,cos_beta,X,masked"
    assert len(lines) == 1 + 3 * 3
    # row order is r-major
    rs = [float(line.split(",")[0]) for line in lines[1:]]
    assert rs == sorted(rs)
    # the grid hits the singular ring: that row is masked
    masked_rows = [line for line in lines[1:] if line.endswith(",true")]
    assert any(
        abs(float(row.split(",")[0]) - 0.5) < 1e-9
        and abs(float(row.split(",")[1]) - np.pi / 2) < 1e-9
        for row in masked_rows
    )


def test_fieldmap_is_byte_identical_across_runs(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "fieldmap", "--model", "soler",
                         "--grid", "0.1,5,6,5", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_fieldmap_interpolated_model_mask_is_a_ring(capsys, tmp_path):
    out = tmp_path / "p.csv"
    code, _, _ = run(capsys, "fieldmap", "--model", "p:0.5",
                     "--grid", "0.25,1.0,3,5", "--out", str(out))
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    masked = [row for row in rows if row[-1] == "true"]
    # only the equatorial cell at the singular radius is masked
    assert len(masked) == 1
    assert abs(float(masked[0][0]) - 0.5) < 1e-9
    assert abs(float(masked[0][1]) - np.pi / 2) < 1e-9


def test_ode_summary_and_trajectory(capsys, tmp_path):
    out = tmp_path / "traj.csv"
    code, stdout, _ = run(
        capsys, "ode", "--model", "soler", "--grid", "1,10,50,2",
        "--out", str(out),
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["max_deviation"] <= 1e-6
    header = out.read_text().splitlines()[0]
    assert header == "r,X,G,X_exact,G_exact,dev_X,dev_G"


def test_ode_deviation_is_the_maximum_of_the_csv_columns(capsys, tmp_path,
                                                          monkeypatch):
    # the summary's deviations are read at the steps the CSV holds, so a
    # reader reproduces them from the file: for the closed-form data at three
    # masses and for data started off the closed form
    exact_state = ode.exact_state

    def perturbed(r, spec):
        st = exact_state(r, spec)
        return st._replace(X=st.X + 1e-3)

    runs = [(mass, False) for mass in ("0.5", "1", "2")] + [("1", True)]
    for mass, off_branch in runs:
        out = tmp_path / "traj.csv"
        with monkeypatch.context() as patch:
            if off_branch:
                patch.setattr(ode, "exact_state", perturbed)
            code, stdout, _ = run(capsys, "ode", "--model", "soler",
                                  "--mass", mass, "--out", str(out))
        assert code == 0, mass
        summary = json.loads(stdout)
        rows = list(csv.DictReader(out.read_text().splitlines()))
        dev_X = max(float(row["dev_X"]) for row in rows)
        dev_G = max(float(row["dev_G"]) for row in rows)
        assert summary["max_rel_X"] == dev_X, (mass, off_branch)
        assert summary["max_rel_G"] == dev_G, (mass, off_branch)
        assert summary["max_deviation"] == max(dev_X, dev_G), (mass,
                                                               off_branch)
    assert summary["max_deviation"] > 1e-4  # the off-branch run departs


def test_ode_scan_flag(capsys, tmp_path):
    code, stdout, _ = run(
        capsys, "ode", "--model", "soler", "--grid", "1,10,50,2",
        "--out", str(tmp_path / "t.csv"), "--scan-el",
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["scan"]["zero_cells"] == [[1.0, 0.5]]
    assert summary["scan"]["unique_zero"] is True


def _scaled_density_scan(monkeypatch):
    """ode.quantum_number_scan on bundles whose phi^2 is scaled by 1 + 1e-6,
    as in test_ode's wrong-density scan; nothing else sees the scaling."""
    closed_form, scan = polar.closed_form, ode.quantum_number_scan

    def scaled(pt, spec):
        f = closed_form(pt, spec)
        return f._replace(density=f.density._replace(
            phi2=f.density.phi2 * (1.0 + 1e-6)))

    def wrong_scan(spec):
        with monkeypatch.context() as patch:
            patch.setattr(polar, "closed_form", scaled)
            return scan(spec)

    return wrong_scan


def _scan_with_a_second_zero(monkeypatch):
    """ode.quantum_number_scan with the cell (E/m, l) = (0.5, 0) set to 0."""
    scan = ode.quantum_number_scan

    def second_zero(spec):
        result = scan(spec)
        result.surface[0, 0] = 0.0
        return result

    return second_zero


@pytest.mark.parametrize("command", ["ode", "report"])
@pytest.mark.parametrize("patch, zero_cells, cells_text", [
    (None, [[1.0, 0.5]], None),
    (_scaled_density_scan, [], "none"),
    (_scan_with_a_second_zero, [[0.5, 0.0], [1.0, 0.5]],
     "(0.5, 0.0), (1.0, 0.5)"),
], ids=["exact", "no-zero", "two-zeros"])
def test_a_scan_without_a_unique_zero_fails(capsys, tmp_path, monkeypatch,
                                            command, patch, zero_cells,
                                            cells_text):
    # ode --scan-el and report --scan-el exit 1, with one line naming the
    # zero cells, unless the scan singles out (E/m, l) = (1, 1/2); the
    # patches reach the scan alone, so report's verify part still passes
    if patch is not None:
        monkeypatch.setattr(ode, "quantum_number_scan", patch(monkeypatch))
    flags = (["--out", str(tmp_path / "t.csv")] if command == "ode"
             else ["--grid", SMALL_GRID])
    code, out, err = run(capsys, command, "--model", "soler", "--scan-el",
                         *flags)
    doc = json.loads(out)
    scan = (doc if command == "ode" else doc["ode"])["scan"]
    assert scan["zero_cells"] == zero_cells
    assert scan["unique_zero"] is (cells_text is None)
    if command == "report":
        assert doc["verify"]["pass"] is True
    if cells_text is None:
        assert (code, err) == (0, "")
    else:
        assert code == 1
        assert err == (f"ode: the (E/m, l) scan's zero cells are "
                       f"{cells_text}, not only (1.0, 0.5)\n")


def test_ode_straddling_span_is_an_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "ode", "--model", "soler", "--grid", "0.3,1,50,2",
        "--out", str(tmp_path / "t.csv"),
    )
    assert code == 1
    assert "split" in err


def test_ode_starting_on_the_singular_radius_is_an_error(capsys, tmp_path):
    # G = 2/(r X^2) has no value at 2mr = 1; the span check names the
    # problem before the initial state is built
    for mass, grid in (("1", "0.5,10,5,2"), ("2", "0.5,10,5,2"),
                       ("1", "0.05,0.5,5,2")):
        code, out, err = run(
            capsys, "ode", "--model", "soler", "--mass", mass, "--grid", grid,
            "--out", str(tmp_path / "t.csv"),
        )
        assert code == 1, grid
        assert out == ""
        assert err.startswith("error: integration span") and "split" in err
        assert err.count("\n") == 1, err


def test_ode_starting_next_to_the_singular_radius_is_an_error(capsys,
                                                            tmp_path):
    # one ulp outside 2mr = 1 the span check passes, but X vanishes to
    # rounding and G_exact refuses the initial state
    code, out, err = run(capsys, "ode", "--model", "soler", "--grid",
                         "0.5000000000000001,1,5,2",
                         "--out", str(tmp_path / "t.csv"))
    assert code == 1
    assert out == ""
    assert err.startswith("error: singular locus hit at r=0.5000000000000001")
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("command, model", [
    ("verify", "njl"), ("verify", "soler"), ("verify", "p:0.5"),
    ("report", "soler")])
def test_a_grid_point_on_the_singular_locus_is_a_usage_error(capsys, command,
                                                            model):
    # the 3 x 3 grid has a point at 2mr = 1 on the equator (and near the
    # axis), which no mask margin of 0 removes
    code, out, err = run(capsys, command, "--model", model,
                         "--grid", "0.25,1,3,3", "--mask-margin", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: singular locus hit at r=0.5, theta=")
    assert "raise --mask-margin" in err
    assert err.count("\n") == 1 and "Traceback" not in err, err


def test_a_grid_suite_that_masked_every_point_fails(capsys):
    # a sweep that evaluated nothing shows nothing: its max of 0.0 must not
    # pass, while the sampled suites, which ignore the margin, still do
    grid_suites = ["covector-residuals", "expanded-residuals",
                   "reduced-residuals", "standard-residuals"]
    code, out, err = run(capsys, "verify", "--model", "soler",
                         "--mask-margin", "100", "--grid", "0.05,20,5,4")
    assert code == 1
    report = json.loads(out)
    assert report["failing_suites"] == grid_suites
    for name in grid_suites:
        suite = report["suites"][name]
        assert suite["n_masked"] == suite["n_points"] == 20, name
        assert suite["max_residual"] == 0.0 and suite["pass"] is False, name
        assert f"FAIL  {name}: max residual 0.000e+00 (tol 1.0e-08, every " \
               "point masked)" in err
    # a partly masked sweep gives a verdict as before
    code, out, err = run(capsys, "verify", "--model", "soler",
                         "--mask-margin", "1.5", "--grid", "0.05,20,5,4")
    assert code == 0, err
    assert "masked" not in err
    suite = json.loads(out)["suites"]["reduced-residuals"]
    assert 0 < suite["n_masked"] < suite["n_points"]


def test_ode_requires_the_scalar_model(capsys, tmp_path):
    # the scalar model is p = 0 exactly, whatever its name
    for model in ("njl", "p:1e-09"):
        code, _, err = run(capsys, "ode", "--model", model,
                           "--out", str(tmp_path / "t.csv"))
        assert code == 2, model
        assert "scalar model" in err and "soler or p:0" in err, model


def test_ode_and_report_read_p_not_the_model_name(capsys, tmp_path):
    # p:0 is the scalar model: its trajectory is soler's byte for byte,
    # its summary differs only in the name, and its report carries the
    # same ode block
    docs, csvs = {}, {}
    for model in ("soler", "p:0"):
        csvs[model] = tmp_path / f"{model.replace(':', '')}.csv"
        code, out, _ = run(capsys, "ode", "--model", model,
                           "--out", str(csvs[model]))
        assert code == 0, model
        docs[model] = json.loads(out)
    assert csvs["soler"].read_bytes() == csvs["p:0"].read_bytes()
    for model, doc in docs.items():
        assert doc.pop("model") == model
        doc.pop("trajectory_csv")
    assert docs["p:0"] == docs["soler"]
    reports = {}
    for model in ("soler", "p:0"):
        code, out, _ = run(capsys, "report", "--model", model,
                           "--grid", SMALL_GRID)
        assert code == 0, model
        reports[model] = json.loads(out)
    assert reports["p:0"]["ode"] == reports["soler"]["ode"]


def test_integrator_tolerances_reach_ode_and_report(capsys, tmp_path):
    # --tol rtol/atol set the integrator of ode and of report alike; the
    # suite tolerances beside them do not reach it
    csv = str(tmp_path / "t.csv")
    tol = ("--tol", "rtol=1e-3", "--tol", "atol=1e-5")
    code, out, _ = run(capsys, "ode", "--model", "soler", "--out", csv)
    assert code == 0
    default = json.loads(out)
    assert (default["rtol"], default["atol"]) == (1e-9, 1e-12)
    code, out, _ = run(capsys, "ode", "--model", "soler", "--out", csv, *tol)
    assert code == 0
    loose = json.loads(out)
    code, out, _ = run(capsys, "report", "--model", "soler",
                       "--grid", "0.05,20,5,4", "--tol", "fierz=1e-9", *tol)
    assert code == 0
    for doc in (loose, json.loads(out)["ode"]):
        assert (doc["rtol"], doc["atol"]) == (1e-3, 1e-5)
        assert doc["n_steps"] == loose["n_steps"] < default["n_steps"]
    # an rtol below 100 eps is raised to it, and the output reports the rtol
    # the run used
    with pytest.warns(UserWarning, match="rtol 1e-20 raised to 100 eps"):
        code, out, _ = run(capsys, "ode", "--model", "soler", "--out", csv,
                           "--tol", "rtol=1e-20")
    assert code == 0
    assert json.loads(out)["rtol"] == 100 * np.finfo(float).eps


def test_no_command_imports_scipy(tmp_path):
    # the radial integrator lives in nldirac.ode; no command, the ODE runs
    # included, may load scipy
    script = """
import json, sys
from nldirac import cli
codes = [cli.main(argv.split()) for argv in sys.argv[1:]]
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argvs = ("verify --model njl --grid 0.05,20,5,4 --out v.json",
             "locus --model soler --out l.json",
             "fieldmap --model njl --grid 0.25,1.0,3,3 --out m.csv",
             "verify --model bogus",
             "ode --model soler --scan-el --out t.csv",
             "report --model soler --grid 0.05,20,5,4 --out r.json")
    for argv, code in zip(argvs, (0, 0, 0, 2, 0, 0)):
        proc = subprocess.run([sys.executable, "-c", script, argv],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == \
            {"codes": [code], "scipy": []}, argv


def _cold_imports(tmp_path, argv, how=("-m", "nldirac.cli")):
    """(exit code, stdout, stderr, every module imported) of one cold
    ``python -m nldirac.cli`` run in ``tmp_path`` (or ``python *how``), with
    the modules as -X importtime names them and stderr without its lines;
    help is wrapped at 80 columns."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *how, *argv],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"},
        capture_output=True, text=True, timeout=60)
    lines = proc.stderr.splitlines(keepends=True)
    modules = {line.rsplit("|", 1)[-1].strip() for line in lines
               if line.startswith("import time:")}
    stderr = "".join(line for line in lines
                     if not line.startswith("import time:"))
    return proc.returncode, proc.stdout, stderr, modules


def test_cold_verify_and_report_leave_numpy_ma_unimported(tmp_path):
    # np.quantile reaches np.unique, whose first call imports numpy.ma; the
    # sweep's statistics do without it, so a cold verify or report never
    # loads it.  -X importtime names every module a command imports.
    for argv in (["verify"], ["report", "--model", "soler"]):
        code, _, stderr, modules = _cold_imports(tmp_path, argv)
        assert code == 0, stderr
        assert "numpy" in modules, argv
        assert "numpy.ma" not in modules, argv


@pytest.mark.parametrize("argv, expected", [
    (["verify", "--grid", SMALL_GRID], 0),
    (["locus"], 0),
    (["fieldmap", "--grid", "0.05,20,5,4"], 0),
    (["ode", "--model", "soler"], 0),
    (["report", "--model", "soler", "--grid", SMALL_GRID], 0),
    (["verify", "--tol", "bogus=1"], 2),
], ids=["verify", "locus", "fieldmap", "ode", "report", "usage-error"])
def test_a_cold_command_imports_neither_dataclasses_nor_csv(
        tmp_path, argv, expected):
    # the package's records are NamedTuples and its CSV rows are joined
    # text, so no command, a usage error included, pays for importing
    # dataclasses or csv
    code, _, stderr, modules = _cold_imports(tmp_path, argv)
    assert code == expected, stderr
    if expected == 2:  # checked before any numerical layer is loaded
        assert "numpy" not in modules and "nldirac.settings" in modules, argv
    elif argv[0] == "locus":  # the singular layer evaluates in floats
        assert "nldirac.singular" in modules and "numpy" not in modules, argv
    else:
        assert "nldirac.ode" in modules, argv
    assert not {"dataclasses", "csv", "numpy.ma"} & modules, argv


HELP = """\
usage: nldirac [-h] {verify,fieldmap,ode,locus,report} ...

Verify and explore the closed-form solutions of the nonlinear Dirac models on
a flat spherical background.

positional arguments:
  {verify,fieldmap,ode,locus,report}
    verify              run all identity and field-equation suites
    fieldmap            write the matter distribution on a grid as CSV or JSON
    ode                 integrate the scalar-model radial system
    locus               report singular locus and asymptotics
    report              aggregate verify + locus (+ ode) into one JSON
                        document

options:
  -h, --help            show this help message and exit
"""


USAGE_ERRORS = [
    ("verify --model p:2", 2, "",
     "error: interpolation parameter must lie in [0,1], got 2.0\n"),
    ("ode --model njl", 2, "",
     "error: the radial system belongs to the scalar model; run with "
     "--model soler or p:0\n"),
    ("locus --model p:1.5", 2, "",
     "error: interpolation parameter must lie in [0,1], got 1.5\n"),
    ("fieldmap --model p:-0.1", 2, "",
     "error: interpolation parameter must lie in [0,1], got -0.1\n"),
    ("--help", 0, HELP, ""),
    ("verify --mass inf", 2, "",
     "error: mass must be positive and finite, got inf\n"),
    ("verify --seed -1", 2, "", "error: seed must be non-negative, got -1\n"),
    ("verify --grid 0.05,inf,5,4", 2, "",
     "error: grid r_max must be finite, got inf\n"),
    ("verify --model soler --p 0.3", 2, "",
     "error: --model and --p both set the model; give one of them\n"),
    ("verify --tol bogus=1", 2, "",
     "error: unknown tolerance name(s) bogus; expected fierz, flatness, "
     "curvature-strength, transport, decomposition, expanded-residuals, "
     "covector-residuals, reduced-residuals, standard-residuals, rtol, "
     "atol\n"),
    ("verify --format csv", 2, "",
     "error: --format applies to fieldmap only, not verify\n"),
    ("verify --out missing/r.json", 2, "",
     "error: cannot write missing/r.json: No such file or directory\n"),
]


@pytest.mark.parametrize("argv, expected, stdout, stderr", USAGE_ERRORS,
                         ids=[case[0] for case in USAGE_ERRORS])
def test_a_usage_error_or_help_loads_no_numpy(tmp_path, argv, expected,
                                              stdout, stderr):
    # every argument and config check runs before numpy is imported, with
    # the exit code and the text it had when the layers loaded first; the
    # first four are the usage errors of the benchmark's cold-command deck
    result = _cold_imports(tmp_path, argv.split())
    assert result[:3] == (expected, stdout, stderr)
    assert "numpy" not in result[3]
    assert not list(tmp_path.iterdir())


EVALUATED_REFUSALS = [
    ("verify --grid 0.25,1,3,3 --mask-margin 0",
     "error: singular locus hit at r=0.5, theta=1.5707963267948966 (locus "
     "X^2 + p cos^2 theta = 0); raise --mask-margin to mask the singular "
     "region\n"),
    ("verify --mass 1e300",
     "error: metric entries r^2 over- or underflow at mass 1e+300\n"),
    ("locus --mass 1e-310",
     "error: phi^2 over- or underflows at mass 1e-310\n"),
    ("ode --model soler --mass 1e-310",
     "error: grid radii r/m over- or underflow at mass 1e-310\n"),
]


@pytest.mark.parametrize("argv, stderr", EVALUATED_REFUSALS,
                         ids=[case[0] for case in EVALUATED_REFUSALS])
def test_a_refusal_that_evaluates_loads_the_layers_first(tmp_path, argv,
                                                         stderr):
    # these refusals read the solution or the metric, so a cold run loads
    # the layers after the usage checks and then refuses as before; locus
    # loads its singular layer alone, which evaluates without numpy
    code, stdout, err, modules = _cold_imports(tmp_path, argv.split())
    assert (code, stdout, err) == (2, "", stderr)
    if argv.startswith("locus"):
        assert "nldirac.singular" in modules and "numpy" not in modules
    else:
        assert "numpy" in modules


def _console_script():
    """(module, function) of the ``nldirac`` entry in pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["nldirac"]
    module, function = entry.split(":")
    return module, function


@pytest.mark.parametrize("argv, expected, stderr", [
    ("verify --model p:2", 2,
     "error: interpolation parameter must lie in [0,1], got 2.0\n"),
    ("locus", 0, ""),
])
def test_the_console_script_loads_no_numpy(tmp_path, argv, expected,
                                           stderr):
    # the installed script calls its entry as the generated wrapper does,
    # with sys.argv the command line; a usage error and locus load no numpy
    module, function = _console_script()
    code, stdout, err, modules = _cold_imports(tmp_path, argv.split(), (
        "-c", f"import sys; from {module} import {function}; "
              f"sys.argv[0] = 'nldirac'; sys.exit({function}())"))
    assert (code, err) == (expected, stderr)
    assert "numpy" not in modules, argv
    if expected == 0:
        assert json.loads(stdout)["numerical_locus"]["kind"] == "ring"


@pytest.mark.parametrize("argv", [
    "ode --model soler --tol rtol=1e-20 --out t.csv",
    "report --model soler --grid 0.05,20,5,4 --tol rtol=1e-20 --out r.json",
], ids=["ode", "report"])
def test_a_raised_rtol_is_one_warning_line(tmp_path, argv):
    # cold as python -m nldirac.cli and in process through cli.main in a
    # fresh interpreter: the warning names no file, line or source text
    for how in (("-m", "nldirac.cli"),
                ("-c", "import sys; from nldirac import cli; "
                       "sys.exit(cli.main(sys.argv[1:]))")):
        code, stdout, err, _ = _cold_imports(tmp_path, argv.split(), how)
        assert (code, err) == (0, "warning: rtol 1e-20 raised to 100 eps\n"), how
        if argv.startswith("ode"):
            assert json.loads(stdout)["rtol"] == 100 * np.finfo(float).eps


def test_a_raised_rtol_warns_as_before_in_process(capsys, tmp_path):
    # a caller that records warnings still sees the UserWarning, and the
    # command leaves the way warnings are shown as it found it
    shown = warnings.formatwarning
    for argv in (("ode", "--model", "soler", "--out", str(tmp_path / "t.csv")),
                 ("report", "--model", "soler", "--grid", "0.05,20,5,4")):
        with pytest.warns(UserWarning, match="rtol 1e-20 raised to 100 eps"):
            code, out, _ = run(capsys, *argv, "--tol", "rtol=1e-20")
        assert code == 0
        doc = json.loads(out)
        assert doc.get("ode", doc)["rtol"] == 100 * np.finfo(float).eps
        assert warnings.formatwarning is shown


def test_locus_report(capsys):
    code, stdout, _ = run(capsys, "locus", "--model", "njl")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["locus"]["kind"] == "ring"
    assert doc["locus"]["radius"] == pytest.approx(0.5)
    assert doc["numerical_locus"]["diverged"] is True
    code, stdout, _ = run(capsys, "locus", "--model", "soler")
    doc = json.loads(stdout)
    assert doc["locus"]["kind"] == "shell"


def test_report_aggregates(capsys):
    code, stdout, _ = run(capsys, "report", "--model", "soler",
                          "--grid", SMALL_GRID)
    assert code == 0
    doc = json.loads(stdout)
    assert doc["verify"]["pass"] is True
    assert doc["singularity"]["locus"]["kind"] == "shell"
    assert doc["ode"]["max_deviation"] <= 1e-6


def test_a_failed_radial_run_is_one_error_line(capsys, tmp_path):
    # at m = 1e12 the radial state leaves the overflow guard: ode and report
    # both exit 1 with one error line, write nothing and raise nothing; so
    # does ode on a span that ends just inside the shell.  The line names
    # the radius as a plain float, not as a numpy scalar.
    for command, *flags in (("ode", "--mass", "1e12"),
                            ("report", "--mass", "1e12"),
                            ("ode", "--grid", "0.1,0.49999999,2,2")):
        out_file = tmp_path / f"{command}.out"
        code, stdout, err = run(capsys, command, "--model", "soler", *flags,
                                "--out", str(out_file))
        assert code == 1, command
        assert stdout == "", command
        assert len(err.splitlines()) == 1, (command, err)
        assert err.startswith("error: radial state exceeded overflow guard"), (
            command, err)
        assert "np." not in err, err
        assert not out_file.exists(), command
    # both failures of a collapsed step, on the float array of accepted radii
    for radii, kind in (([1.0, 1.0 + 1e-12], StepUnderflow),
                        ([1.0, 1.5], DivergingState)):
        exc = ode._step_failure(np.array(radii), (1.0, 2.0))
        assert type(exc) is kind
        assert "np." not in str(exc) and repr(radii[-1]) in str(exc), exc
    assert type(exc.r_last) is float  # the DivergingState


def test_tiny_masses_do_not_overflow_the_asymptotics(capsys):
    # a tiny mass must not overflow the asymptotics: (100/m)^2 leaves the
    # float range below m of about 1e-152
    code, stdout, _ = run(capsys, "locus", "--mass", "1e-160")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["limit_constant"] == 2e160
    assert doc["origin_value"] == pytest.approx(8e-160, rel=1e-10)
    # report's singularity part holds at 1e-200, and its verify part
    # refuses the mass as verify does, before a suite reads the metric
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(capsys, "report", "--mass", "1e-200")
    assert (code, stdout) == (2, "")
    assert err == ("error: metric entries r^2 over- or underflow at mass "
                   "1e-200\n")


@pytest.mark.parametrize("model", ["njl", "soler", "p:0.5"])
def test_locus_outside_the_mass_range_is_one_error_line(capsys, model):
    # phi^2 samples that over- or underflow: the decay fit's r S at 1e-300
    # and 1e-305, the radius 1/(2m) at 1e-310, the samples next to the
    # locus at 1e300 (and, for the shell, at 1e290)
    masses = ["1e-300", "1e-305", "1e-310", "1e300"] + ["1e290"] * (
        model == "soler")
    for mass in masses:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "locus", "--model", model,
                                 "--mass", mass)
        assert (code, out) == (2, ""), mass
        assert err == (f"error: phi^2 over- or underflows at mass "
                       f"{float(mass)!r}\n")
    # the singularity part of report refuses it too, before its verify part
    with np.errstate(all="ignore"):
        code, out, err = run(capsys, "report", "--model", model,
                             "--mass", "1e300")
    assert (code, out) == (2, "")
    assert err.endswith("error: phi^2 over- or underflows at mass 1e+300\n")


@pytest.mark.parametrize("command", ["verify", "report", "fieldmap"])
def test_grid_radii_outside_the_floats_are_one_error_line(capsys, tmp_path,
                                                          command):
    # r/m overflows at m = 1e-310 (the default radii and the fieldmap's),
    # and underflows to zero at m = 1e300 with r_min = 1e-30; nothing is
    # written, to stdout or to --out
    out_file = tmp_path / "out"
    for argv in (["--mass", "1e-310"],
                 ["--mass", "1e300", "--grid", "1e-30,1,5,4"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, command, "--model", "njl", *argv,
                                 "--out", str(out_file))
        assert (code, out) == (2, ""), argv
        assert err == (f"error: grid radii r/m over- or underflow at mass "
                       f"{float(argv[1])!r}\n"), argv
        assert not out_file.exists(), argv


def test_an_ode_span_outside_the_floats_is_one_error_line(capsys, tmp_path):
    # the span r/m overflows at m = 1e-310 (the default span of 1 to 10)
    # and underflows to zero at m = 1e300 with r_min = 1e-30: the check
    # grids.radii makes refuses it, naming the mass, and nothing is written
    out_file = tmp_path / "trajectory.csv"
    for argv in (["--mass", "1e-310"],
                 ["--mass", "1e300", "--grid", "1e-30,1,5,2"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "ode", "--model", "soler", *argv,
                                 "--out", str(out_file))
        assert (code, out) == (2, ""), argv
        assert err == (f"error: grid radii r/m over- or underflow at mass "
                       f"{float(argv[1])!r}\n"), argv
        assert not out_file.exists(), argv


@pytest.mark.parametrize("mass", ["1e-300", "1e300"])
def test_a_mass_whose_metric_leaves_the_floats_is_one_error_line(
        capsys, tmp_path, mass):
    # r^2 over- or underflows at the grid's and the sample's radii: verify
    # refuses the mass before a suite computes with inf or 0, and report
    # refuses it in its singularity part, which runs before its verify
    # part; neither warns, and nothing is written
    out_file = tmp_path / "out"
    for command, message in (
            ("verify", "metric entries r^2 over- or underflow"),
            ("report", "phi^2 over- or underflows")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, command, "--model", "njl",
                                 "--mass", mass, "--out", str(out_file))
        assert (code, out) == (2, ""), command
        assert err == f"error: {message} at mass {float(mass)!r}\n", command
        assert not out_file.exists(), command


def test_a_huge_mass_steps_no_sample_point_onto_the_locus(capsys):
    # at m = 1e30 the sampled radii lie below CS_STEP; an r step of CS_STEP
    # moved them onto the ring and verify exited 2 naming a singular point.
    # It fails its suites instead: the tolerances are absolute, while the
    # residuals grow with powers of m
    code, stdout, err = run(capsys, "verify", "--mass", "1e30")
    assert code == 1
    assert "singular" not in err
    assert json.loads(stdout)["failing_suites"]


def test_flag_precedence_over_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "njl", "mass": 3.0}))
    code, stdout, _ = run(capsys, "locus", "--config", str(cfg),
                          "--mass", "2.0")
    assert code == 0
    doc = json.loads(stdout)
    # flag mass wins; config model survives
    assert doc["locus"]["radius"] == pytest.approx(0.25)
    assert doc["model"] == "njl"


def test_fieldmap_rows_do_not_depend_on_the_model_name(capsys, tmp_path):
    # p:1 and p:0 write the rows of njl and soler byte for byte, on a grid
    # that crosses 2mr = 1; only the JSON's model field tells them apart
    for endpoint, general in (("njl", "p:1"), ("soler", "p:0")):
        for mass, fmt in itertools.product(("0.5", "3"), ("csv", "json")):
            texts = []
            for model in (endpoint, general):
                out = tmp_path / f"{model.replace(':', '')}.{fmt}"
                code, _, _ = run(capsys, "fieldmap", "--model", model,
                                 "--mass", mass, "--grid", "0.125,2,9,31",
                                 "--format", fmt, "--out", str(out))
                assert code == 0
                texts.append(out.read_text())
            if fmt == "json":
                texts[1] = texts[1].replace(f'"model": "{general}"',
                                            f'"model": "{endpoint}"', 1)
            assert texts[0] == texts[1], (endpoint, mass, fmt)


def test_fieldmap_json_format(capsys, tmp_path):
    code, stdout, err = run(capsys, "fieldmap", "--model", "njl",
                            "--grid", "0.25,1.0,3,3", "--format", "json")
    assert code == 0
    # JSON without --out goes to stdout, and stderr stays empty
    assert err == ""
    doc = json.loads(stdout)
    assert doc["columns"] == ["r", "theta", "phi2", "sin_beta", "cos_beta",
                              "X", "masked"]
    assert len(doc["rows"]) == 9
    out = tmp_path / "map.json"
    code, stdout, err = run(capsys, "fieldmap", "--model", "njl",
                            "--grid", "0.25,1.0,3,3", "--format", "json",
                            "--out", str(out))
    assert code == 0
    assert (stdout, err) == ("", f"wrote 9 rows to {out}\n")
    assert json.loads(out.read_text()) == doc


def _reference_fieldmap(argv):
    """The fieldmap of ``argv`` as the per-row writer produced it: one
    f-string line per CSV row, and ``json.dump`` of the whole row-list doc."""
    cfg = cli.resolve_config(cli.build_parser().parse_args(argv))
    spec = cfg.spec
    rows = []
    grid = grids.points(cfg.grid, m=spec.m)
    for pt in map(geometry.GridPoint, grid.r, grid.theta):
        X = polar.X_exact(pt.r, spec)
        with np.errstate(divide="ignore", invalid="ignore"):
            sb, cb = polar.chiral_components(X, pt.theta)
        columns = (pt.r, pt.theta, polar.phi2_grid(spec, pt.r, pt.theta), sb,
                   cb, X, equations.is_masked(pt, spec, cfg.mask_margin))
        rows += zip(*(col.tolist() for col in columns))
    if cfg.fmt == "json":
        doc = {"schema": "1", "model": spec.name,
               "columns": ["r", "theta", "phi2", "sin_beta", "cos_beta", "X",
                           "masked"],
               "rows": [list(row) for row in rows]}
        fh = io.StringIO()
        json.dump(doc, fh, indent=2, sort_keys=True)
        return fh.getvalue() + "\n"
    return "r,theta,phi2,sin_beta,cos_beta,X,masked\n" + "".join(
        f"{r!r},{th!r},{phi2!r},{sb!r},{cb!r},{X!r},"
        f"{'true' if masked else 'false'}\n"
        for r, th, phi2, sb, cb, X, masked in rows)


def _assert_fieldmaps_match_the_reference(capsys, tmp_path, configs):
    """Run every (model, mass, grid, *further flags) as CSV, as JSON to a
    file and as JSON to stdout; each must equal the reference byte for byte.
    Returns the texts by format."""
    texts = {"csv": [], "json": []}
    for model, mass, grid, *flags in configs:
        for fmt, to_file in (("csv", True), ("json", True), ("json", False)):
            argv = ["fieldmap", "--model", model, "--mass", mass,
                    "--grid", grid, "--format", fmt, *flags]
            out = tmp_path / f"map.{fmt}"
            code, stdout, err = run(capsys, *argv,
                                    *(["--out", str(out)] if to_file else []))
            assert code == 0, argv
            expected = _reference_fieldmap(argv)
            if to_file:
                assert out.read_bytes() == expected.encode(), argv
                n_r, n_theta = map(int, grid.split(",")[2:])
                assert (stdout, err) == (
                    "", f"wrote {n_r * n_theta} rows to {out}\n")
            else:
                assert (stdout, err) == (expected, ""), argv
            texts[fmt].append(expected)
    return texts


def test_fieldmap_is_byte_identical_to_the_per_row_writer(capsys, tmp_path,
                                                          monkeypatch):
    # every grid crosses the ring and the shell at 2mr = 1, where the scalar
    # density is inf: it must keep json's spelling and repr's.  The writer
    # evaluates blocks of whole grid rows: 3x3 and 5x101 fit in one block,
    # 7x333 has three rows in a block and a shorter last block, and 5x1500
    # has one row in each block
    configs = [(model, mass, grid)
               for model in ("njl", "soler", "p:0.37")
               for mass in ("0.5", "1", "2")
               for grid in ("0.25,1.0,3,3", "0.25,1,5,101")]
    configs += [(model, "3", grid) for model in ("njl", "soler", "p:0.37")
                for grid in ("0.25,1,7,333", "0.25,4.0,5,1500")]
    texts = _assert_fieldmaps_match_the_reference(capsys, tmp_path, configs)
    assert any("Infinity" in t for t in texts["json"])
    assert any("inf" in t for t in texts["csv"])
    # the density is never nan on these grids; a density of the opposite
    # sign adds -inf on the shell, spelled -Infinity in JSON, and one that
    # is nan where it was inf adds nan there, spelled NaN.  On 3x3 the shell
    # row is in the first block, on 3x600 in the second
    phi2_grid = polar.phi2_grid

    def negated(spec, r, theta):
        return -phi2_grid(spec, r, theta)

    def nan_on_the_shell(spec, r, theta):
        phi2 = phi2_grid(spec, r, theta)
        return np.where(np.isinf(phi2), np.nan, phi2)

    for density, spelled in ((negated, ("-Infinity", "-inf")),
                             (nan_on_the_shell, ("NaN", "nan"))):
        with monkeypatch.context() as patch:
            patch.setattr(polar, "phi2_grid", density)
            patch.setattr(cli, "phi2_grid", density)
            texts = _assert_fieldmaps_match_the_reference(
                capsys, tmp_path, [("soler", "1", "0.25,1.0,3,3"),
                                   ("soler", "1", "0.25,1.0,3,600")])
        # one CSV and two JSON texts (file and stdout) per grid
        for json_text, csv_text, n_theta in zip(texts["json"][::2],
                                                texts["csv"], (3, 600)):
            # every point of the shell row r = 0.5, and no other point
            shell = [row.split(",")[2] for row in csv_text.splitlines()[1:]
                     if row.startswith("0.5,")]
            assert shell == [spelled[1]] * n_theta
            assert json_text.count(spelled[0]) == n_theta
            assert csv_text.count(spelled[1]) == n_theta


def test_fieldmap_mask_margin_is_that_of_the_reference(capsys, tmp_path):
    # the mask is computed from the block's radius column and the theta
    # axis.  At m = 1 the 7x333 grid crosses 2mr = 1 in its fourth row, and
    # its three rows per block put the rows within 0.3 of the shell in two
    # blocks; margin 0 masks no point
    for margin, masked in (("0", False), ("0.3", True)):
        configs = [(model, "1", "0.25,1,7,333", "--mask-margin", margin)
                   for model in ("njl", "soler", "p:0.37")]
        texts = _assert_fieldmaps_match_the_reference(capsys, tmp_path,
                                                      configs)
        for text in texts["csv"]:
            assert (",true\n" in text) == masked


@pytest.mark.parametrize("fmt, grid", [
    ("csv", "0.01,100,150,200"), ("json", "0.01,100,150,200"),
    ("csv", "0.01,100,20,1500"), ("json", "0.01,100,20,1500"),
], ids=["csv", "json", "csv-20x1500", "json-20x1500"])
def test_fieldmap_is_streamed(capsys, tmp_path, fmt, grid):
    # 30k rows; building every row as a list first peaks near 8 MB, and the
    # writer holds no more than one block of rows, which on 20x1500 is one
    # grid row longer than a block
    out = tmp_path / f"map.{fmt}"
    tracemalloc.start()
    try:
        code, _, _ = run(capsys, "fieldmap", "--model", "njl",
                         "--grid", grid, "--format", fmt,
                         "--out", str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    if fmt == "json":
        assert len(json.loads(out.read_text())["rows"]) == 30000
    else:
        assert len(out.read_text().splitlines()) == 1 + 30000
    assert peak < 2e6, peak


@pytest.mark.parametrize("n_theta", [1, 2, 3, 4, 7])
def test_mirrored_text_is_the_text_of_every_value(n_theta):
    # the back half of each row equal to its mirror, its negation, a NaN of
    # either sign against a NaN, or unrelated; the values include infinities
    # and zeros of both signs.  Every text must be repr's, or json's
    # spelling of it
    rng = np.random.default_rng(n_theta)
    values = rng.normal(size=(40, n_theta)) * 10.0 ** rng.integers(
        -300, 300, size=(40, n_theta))
    special = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0])
    values = np.where(rng.random(values.shape) < 0.4,
                      rng.choice(special, size=values.shape), values)
    how = rng.integers(0, 4, size=values.shape)
    for j in range(n_theta // 2):
        front, k = values[:, j], n_theta - 1 - j
        values[:, k] = np.select(
            [how[:, k] == 0, how[:, k] == 1, how[:, k] == 2],
            [front, -front, np.copysign(np.nan, -np.copysign(1.0, front))],
            values[:, k])
    for spelling in (None, cli._JSON_NONFINITE):
        assert (cli._mirrored_text(values, spelling)
                == cli._float_text(values, spelling))


def test_fieldmap_mirror_reuse_matches_the_reference(capsys, tmp_path,
                                                     monkeypatch):
    # a row's back half reuses the text of its mirror where the bits match
    # or are negated; each patch drives one path of that reuse, on odd and
    # even numbers of angles.  phi^2 scaled by 1 + 1e-12 theta breaks every
    # mirror pair, so each back-half value is formatted; sin beta set to
    # +-inf where |sin beta| > 0.5, antisymmetric across the equator, flips
    # inf and Infinity; phi^2 NaN at small radii, and at large radii NaN of
    # the sign of cos theta (repr(-nan) is 'nan'), reuses and refuses NaNs
    phi2_grid, chiral = polar.phi2_grid, polar.chiral_components

    def unmirrored(spec, r, theta):
        return phi2_grid(spec, r, theta) * (1.0 + 1e-12 * theta)

    def infinite(X, theta):
        sb, cb = chiral(X, theta)
        return np.where(np.abs(sb) > 0.5, np.copysign(np.inf, sb), sb), cb

    def nan_pairs(spec, r, theta):
        return np.where(r < 0.5, np.nan,
                        np.where(r > 2.0, np.copysign(np.nan, np.cos(theta)),
                                 phi2_grid(spec, r, theta)))

    configs = [("njl", "1", f"0.25,4,9,{n_theta}") for n_theta in (2, 3, 8, 101)]
    for name, function, spelled in (
            ("phi2_grid", unmirrored, ()),
            ("chiral_components", infinite, ("Infinity", "-Infinity")),
            ("phi2_grid", nan_pairs, ("NaN",))):
        with monkeypatch.context() as patch:
            patch.setattr(polar, name, function)
            patch.setattr(cli, name, function)
            texts = _assert_fieldmaps_match_the_reference(capsys, tmp_path,
                                                          configs)
        for word in spelled:
            assert all(f" {word}," in text for text in texts["json"]), word
        assert all("-nan" not in text for text in texts["csv"])


def test_fieldmap_formats_a_mirrored_half_once(capsys, tmp_path,
                                               monkeypatch):
    # the solutions are mirror symmetric through the equatorial plane and the
    # theta axis about pi/2, so most back-half texts are reused: the floats
    # formatted, the axes' included, stay below 0.7 of the three per-point
    # columns' (they are 1.01 of them when each value is formatted)
    float_text, counted = cli._float_text, []

    def counting(values, spelling):
        counted.append(values.size)
        return float_text(values, spelling)

    monkeypatch.setattr(cli, "_float_text", counting)
    code, _, _ = run(capsys, "fieldmap", "--model", "njl",
                     "--grid", "0.01,100,40,250",
                     "--out", str(tmp_path / "map.csv"))
    assert code == 0
    assert sum(counted) <= 0.7 * 3 * 40 * 250, sum(counted) / (3 * 40 * 250)


def test_tolerance_override_can_force_failure(capsys):
    # an absurdly tight tolerance turns a passing suite into a failing one,
    # exercising the --tol plumbing end to end
    code, stdout, _ = run(capsys, "verify", "--model", "njl",
                          "--grid", SMALL_GRID, "--tol", "fierz=1e-20")
    assert code == 1
    report = json.loads(stdout)
    assert report["failing_suites"] == ["fierz"]
    assert report["suites"]["fierz"]["tolerance"] == 1e-20


# (argv, config file contents or None, expected part of the message); the
# cases run in one test so that its name stays what it has always been
USAGE_ERRORS = (
    (["verify", "--model", "bogus"], None, "unknown model"),
    (["locus", "--tol", "expandd=1e-30"], None, "unknown tolerance name(s) expandd"),
    (["locus"], {"model": "njl", "masss": 2.0}, "unknown config key(s) masss"),
    (["locus", "--mask-margin", "-0.1"], None, "mask margin must be non-negative"),
    (["locus", "--p", "2"], None, "interpolation parameter"),
    (["locus"], {"p": 2}, "interpolation parameter"),
    (["verify"], {"grid": {"n_r": 2.5}}, "grid n_r must be an integer"),
    (["locus"], {"seed": 1.7}, "seed must be an integer"),
    (["locus"], {"seed": True}, "seed must be an integer"),
    (["locus"], {"grid": {"n_theta": "8"}}, "grid n_theta must be an integer"),
    (["locus"], {"out": 7}, "out must be a string"),
    (["locus"], {"out": True}, "out must be a string"),
    (["locus"], {"out": ["a"]}, "out must be a string"),
    (["verify"], {"tolerances": {"standard-residuals": True}},
     "tolerance standard-residuals must be a number"),
    (["locus"], {"mass": "2"}, "mass must be a number"),
    (["locus"], {"energy": "1"}, "E must be a number"),
    (["locus"], {"l": True}, "l must be a number"),
    (["locus"], {"p": "0.5"}, "p must be a number"),
    (["locus"], {"mask_margin": "0.1"}, "mask margin must be a number"),
    (["verify"], {"grid": [1, 2]}, "grid must be an object, got [1, 2]"),
    (["verify"], {"tolerances": "x"}, "tolerances must be an object, got 'x'"),
    (["verify"], {"grid": {"bogus": 1}}, "unknown grid key(s) bogus; expected "
     "r_min, r_max, n_r, n_theta, theta_margin"),
    # a flag's count is judged as the config file's is
    (["verify", "--grid", "0.05,20,5.5,4"], None,
     "grid n_r must be an integer, got 5.5"),
    (["verify", "--grid", "0.05,20,5,four"], None,
     "grid n_theta must be a number, got 'four'"),
    (["locus", "--model", "p:abc"], None, "p must be a number, got 'abc'"),
    (["verify", "--tol", "fierz=abc"], None,
     "tolerance fierz must be a number, got 'abc'"),
    (["verify"], {"grid": {"r_min": True}}, "grid r_min must be a number"),
    (["verify"], {"grid": {"theta_margin": "0.01"}},
     "grid theta_margin must be a number"),
    (["ode", "--model", "soler", "--tol", "rtol=0"], None,
     "tolerance rtol must be positive"),
    (["report"], {"tolerances": {"atol": -1e-12}},
     "tolerance atol must be positive"),
    (["verify", "--tol", "fierz=nan"], None,
     "tolerance fierz must be positive and finite, got nan"),
    (["verify", "--tol", "fierz=0"], None, "tolerance fierz must be positive"),
    (["verify", "--tol", "fierz=-1"], None, "tolerance fierz must be positive"),
    (["verify", "--tol", "standard-residuals=inf"], None,
     "tolerance standard-residuals must be positive and finite, got inf"),
    (["ode", "--model", "soler", "--tol", "rtol=inf"], None,
     "tolerance rtol must be positive and finite, got inf"),
    (["report"], {"tolerances": {"atol": float("nan")}},
     "tolerance atol must be positive and finite, got nan"),
    (["verify"], {"tolerances": {"reduced-residuals": float("inf")}},
     "tolerance reduced-residuals must be positive and finite"),
    (["verify"], {"tolerances": {"flatness": 0}},
     "tolerance flatness must be positive"),
    (["verify", "--mask-margin", "inf"], None,
     "mask margin must be non-negative and finite, got inf"),
    (["verify", "--mask-margin", "nan"], None,
     "mask margin must be non-negative and finite, got nan"),
    (["verify"], {"mask_margin": float("inf")},
     "mask margin must be non-negative and finite, got inf"),
    (["verify", "--mass", "inf"], None,
     "mass must be positive and finite, got inf"),
    (["locus", "--model", "njl", "--mass", "inf"], None,
     "mass must be positive and finite, got inf"),
    (["locus"], {"mass": float("nan")}, "mass must be positive and finite"),
    (["ode", "--model", "soler"], {"mass": float("inf")},
     "mass must be positive and finite, got inf"),
    (["verify", "--seed", "-1"], None, "seed must be non-negative, got -1"),
    (["verify"], {"seed": -3}, "seed must be non-negative, got -3"),
    (["verify", "--grid", "0.05,inf,5,4"], None,
     "grid r_max must be finite, got inf"),
    (["ode", "--model", "soler", "--grid", "1,inf,5,2"], None,
     "grid r_max must be finite, got inf"),
    (["verify"], {"grid": {"r_max": float("inf")}},
     "grid r_max must be finite, got inf"),
    (["fieldmap"], {"grid": {"r_min": float("nan")}},
     "need 0 < r_min < r_max"),
    (["locus", "--grid", "inf,inf,5,4"], None, "need 0 < r_min < r_max"),
    (["verify", "--grid", "0.05,20,5,4"], {"E": float("inf")},
     "E must be finite, got inf"),
    (["verify", "--grid", "0.05,20,5,4"], {"l": float("nan")},
     "l must be finite, got nan"),
    (["verify", "--model", "njl", "--format", "csv"], None,
     "--format applies to fieldmap only, not verify"),
    (["locus", "--format", "json"], None,
     "--format applies to fieldmap only, not locus"),
    (["ode", "--model", "soler", "--format", "csv"], None,
     "--format applies to fieldmap only, not ode"),
    (["report", "--format", "json"], None,
     "--format applies to fieldmap only, not report"),
    (["fieldmap", "--scan-el"], None,
     "--scan-el applies to ode and report only, not fieldmap"),
    (["verify", "--scan-el"], None,
     "--scan-el applies to ode and report only, not verify"),
    (["locus", "--scan-el"], None,
     "--scan-el applies to ode and report only, not locus"),
    # a setting the command does not read, as a flag or as a config key
    (["locus", "--grid", "0.05,20,5,4"], None,
     "--grid applies to fieldmap, ode, report and verify only, not locus"),
    (["locus", "--seed", "5", "--mask-margin", "0.5"], None,
     "--seed applies to report and verify only, not locus"),
    (["fieldmap", "--seed", "7", "--tol", "fierz=1e-3"], None,
     "--seed applies to report and verify only, not fieldmap"),
    (["ode", "--model", "soler", "--mask-margin", "0.3", "--seed", "3"], None,
     "--seed applies to report and verify only, not ode"),
    (["verify", "--tol", "rtol=1e-9"], None,
     "tolerance rtol applies to ode and report only, not verify"),
    (["locus", "--tol", "standard-residuals=1e-3"], None,
     "tolerance standard-residuals applies to report and verify only, "
     "not locus"),
    (["fieldmap"], {"E": 2.0}, "E applies to report and verify only, "
     "not fieldmap"),
    (["ode", "--model", "soler"], {"energy": 1.0},
     "energy applies to report and verify only, not ode"),
    (["locus"], {"format": "csv"}, "format applies to fieldmap only, not locus"),
    (["verify"], {"mask_margin": 0.1, "tolerances": {"atol": 1e-9}},
     "tolerance atol applies to ode and report only, not verify"),
    # two settings of one layer that both set the model
    (["verify", "--model", "soler", "--p", "0.3"], None,
     "--model and --p both set the model"),
    (["locus"], {"model": "njl", "p": 0.3}, "model and p both set the model"),
    # an --out that cannot be written; {tmp} is the test's tmp_path
    (["verify", "--model", "njl", "--grid", "0.05,20,5,4",
      "--out", "{tmp}/missing/v.json"], None,
     "cannot write {tmp}/missing/v.json: No such file or directory"),
    (["ode", "--model", "soler", "--out", "{tmp}/missing/t.csv"], None,
     "cannot write {tmp}/missing/t.csv"),
    (["locus", "--out", "{tmp}/missing/l.json"], None,
     "cannot write {tmp}/missing/l.json"),
    (["fieldmap", "--grid", "0.05,20,5,4", "--out", "{tmp}/missing/x.csv"],
     None, "cannot write {tmp}/missing/x.csv"),
    (["report"], {"out": "{tmp}/missing/r.json"},
     "cannot write {tmp}/missing/r.json"),
    (["verify", "--grid", "0.05,20,5,4", "--out", "{tmp}"], None,
     "cannot write {tmp}: Is a directory"),
    # argparse's own errors: an unknown flag, a value of the wrong type or
    # choice, an unknown command and none at all
    (["verify", "--bogus", "1"], None, "unrecognized arguments: --bogus 1"),
    (["verify", "--mass", "abc"], None,
     "argument --mass: invalid float value: 'abc'"),
    (["fieldmap", "--format", "xml"], None,
     "argument --format: invalid choice: 'xml'"),
    (["bogus"], None, "argument command: invalid choice: 'bogus'"),
    ([], None, "the following arguments are required: command"),
)


def test_bad_model_is_usage_error(capsys, tmp_path):
    for argv, config, message in USAGE_ERRORS:
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        message = message.replace("{tmp}", str(tmp_path))
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config).replace("{tmp}", str(tmp_path)))
            argv = argv + ["--config", str(path)]
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err, err


def test_a_default_output_path_is_checked_as_out_is(capsys, tmp_path,
                                                   monkeypatch):
    # a directory in the way of the default path fails before any work,
    # as it does for --out
    monkeypatch.chdir(tmp_path)
    for argv, path in ((["fieldmap", "--grid", "0.05,20,5,4"], "fieldmap.csv"),
                       (["ode", "--model", "soler"], "trajectory.csv")):
        (tmp_path / path).mkdir()
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: cannot write {path}: Is a directory\n", argv
    # JSON goes to stdout, past the directory of the CSV's default path
    code, out, err = run(capsys, "fieldmap", "--grid", "0.05,20,5,4",
                         "--format", "json")
    assert (code, err) == (0, "")
    assert len(json.loads(out)["rows"]) == 20


def test_every_command_accepts_the_settings_it_reads(tmp_path):
    # every setting in a command's COMMAND_READS entry, from the config file
    # and as a flag where there is one, resolves without an error; model and
    # p both set the model, so each run gives one of them in the config file
    # and the other as a flag
    config = {"model": "soler", "p": 0.0, "mass": 1.5, "grid": {"n_r": 5},
              "seed": 3, "mask_margin": 0.1, "E": 1.5, "l": 0.5, "out": "x",
              "format": "json"}
    flags = {"model": ["--model", "soler"], "p": ["--p", "0"],
             "mass": ["--mass", "1.5"], "grid": ["--grid", "0.1,5,5,4"],
             "seed": ["--seed", "3"], "mask_margin": ["--mask-margin", "0.1"],
             "out": ["--out", "x"], "format": ["--format", "json"],
             "scan_el": ["--scan-el"]}
    for (command, reads), in_config in itertools.product(
            cli.COMMAND_READS.items(), ("model", "p")):
        as_flag = {"model": "p", "p": "model"}[in_config]
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(
            {**{k: v for k, v in config.items() if k in reads and k != as_flag},
             "tolerances": {k: 1e-6 for k in cli.TOLERANCE_NAMES if k in reads}}))
        argv = [command, "--config", str(path)]
        argv += [arg for k, args in flags.items()
                 if k in reads and k != in_config for arg in args]
        argv += [arg for k in cli.TOLERANCE_NAMES if k in reads
                 for arg in ("--tol", f"{k}=1e-7")]
        cfg = cli.resolve_config(cli.build_parser().parse_args(argv))
        assert cfg.spec.p == 0.0, command
        assert cfg.spec.m == 1.5, command
        assert cfg.out == "x", command
        assert set(cfg.tolerances) == set(reads) & set(cli.TOLERANCE_NAMES)


def test_model_name_is_the_same_in_every_report(capsys):
    for model in ("p:1", "p:0"):
        _, out, _ = run(capsys, "verify", "--model", model, "--grid", SMALL_GRID)
        assert json.loads(out)["model"] == model
        _, out, _ = run(capsys, "locus", "--model", model)
        assert json.loads(out)["model"] == model


def test_nan_residual_fails_its_suite(capsys, monkeypatch, tmp_path):
    # Python's max drops a NaN that is not its first argument; every
    # reduction must report it instead of passing over it.  The transport
    # suite evaluates its points in one call, so the NaN goes into the angle
    # field at the second point of that call, behind a finite first point.
    original = geometry.transport_residuals
    calls = []

    def poisoned(pt, angle_field):
        calls.append(pt.shape)

        def field(p):
            ang = angle_field(p)
            second = np.where(np.arange(np.size(p.r)) == 1, math.nan, 1.0)
            return ang._replace(sin_gamma=ang.sin_gamma * second)

        return original(pt, field)

    with monkeypatch.context() as patch:
        patch.setattr(geometry, "transport_residuals", poisoned)
        code, out, err = run(capsys, "verify", "--model", "njl",
                             "--grid", SMALL_GRID)
    assert calls == [(50,)]
    assert code == 1
    report = json.loads(out)
    assert report["failing_suites"] == ["transport"]
    assert math.isnan(report["suites"]["transport"]["max_residual"])

    # decomposition evaluates its 50 points in one call too; the NaN goes
    # into the radial log-derivative of the density at the second point,
    # only while that call runs
    decomposition = polar.polar_decomposition_residual
    closed_form = polar.closed_form
    calls = []

    def second_point_nan(pt, spec):
        f = closed_form(pt, spec)
        second = np.where(np.arange(np.size(pt.r)) == 1, math.nan, 1.0)
        return f._replace(density=f.density._replace(
            r_dlnphi2_dr=f.density.r_dlnphi2_dr * second))

    def poisoned_decomposition(pt, spec):
        calls.append(pt.shape)
        with monkeypatch.context() as inner:
            inner.setattr(polar, "closed_form", second_point_nan)
            return decomposition(pt, spec)

    with monkeypatch.context() as patch:
        patch.setattr(polar, "polar_decomposition_residual",
                      poisoned_decomposition)
        code, out, err = run(capsys, "verify", "--model", "njl",
                             "--grid", SMALL_GRID)
    assert calls == [(50,)]
    assert code == 1
    report = json.loads(out)
    assert report["failing_suites"] == ["decomposition"]
    assert math.isnan(report["suites"]["decomposition"]["max_residual"])

    # a NaN theta log-derivative of the density is a later component of the
    # expanded and covector residual vectors, the angular module equation of
    # the reduced system and one term of the decomposition's fold over mu;
    # every form reads it from the density step
    density = polar.density

    def nan_theta(pt, spec):
        return density(pt, spec)._replace(dlnphi2_dtheta=math.nan)

    with monkeypatch.context() as patch:
        patch.setattr(polar, "density", nan_theta)
        code, out, err = run(capsys, "verify", "--model", "njl",
                             "--grid", "0.05,20,5,4")
    assert code == 1
    report = json.loads(out)
    poisoned_suites = ["covector-residuals", "decomposition",
                       "expanded-residuals", "reduced-residuals",
                       "standard-residuals"]
    assert report["failing_suites"] == poisoned_suites
    for name in poisoned_suites:
        assert math.isnan(report["suites"][name]["max_residual"]), name

    # a NaN in G alone must reach the ODE's combined tracking deviation
    integrate = ode.integrate

    def nan_in_G(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        traj.G[-1] = math.nan
        return traj

    with monkeypatch.context() as patch:
        patch.setattr(ode, "integrate", nan_in_G)
        code, out, err = run(capsys, "ode", "--model", "soler",
                             "--grid", "1,10,50,2", "--out",
                             str(tmp_path / "t.csv"))
        report = run(capsys, "report", "--model", "soler",
                     "--grid", "0.05,20,5,4")
    assert code == 1
    assert err == "ode: non-finite max_deviation nan\n"
    summary = json.loads(out)
    assert math.isnan(summary["max_rel_G"])
    assert math.isnan(summary["max_deviation"])
    # report exits 1 on the same ODE result although its suites pass
    code, out, err = report
    assert code == 1
    assert err == "ode: non-finite max_deviation nan\n"
    assert json.loads(out)["verify"]["pass"] is True


def test_p_flag_shorthand(capsys):
    code, stdout, _ = run(capsys, "locus", "--p", "0.3")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["p"] == pytest.approx(0.3)
    assert doc["locus"]["kind"] == "ring"


def test_a_model_flag_overrides_the_config_file(capsys, tmp_path):
    # --model and --p conflict only within one layer: a flag of either kind
    # overrides the config file's model or p
    for config, flags, model in (({"p": 0.3}, ["--model", "njl"], "njl"),
                                 ({"model": "soler"}, ["--p", "0.5"], "p:0.5")):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, stdout, _ = run(capsys, "locus", "--config", str(path), *flags)
        assert code == 0, config
        assert json.loads(stdout)["model"] == model


def test_out_check_leaves_no_file_behind(capsys, tmp_path):
    # the writability check removes the file it created, so a command that
    # stops before writing leaves nothing, and an existing file is written
    # over only by the command itself
    out = tmp_path / "t.csv"
    code, _, err = run(capsys, "ode", "--model", "njl", "--out", str(out))
    assert code == 2 and "scalar model" in err
    assert not out.exists()
    out.write_text("kept")
    code, _, _ = run(capsys, "ode", "--model", "njl", "--out", str(out))
    assert code == 2
    assert out.read_text() == "kept"
    code, _, _ = run(capsys, "locus", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["model"] == "njl"


def test_main_reuses_one_parser(capsys, monkeypatch):
    # the parser is built once per process: a second main call constructs
    # no ArgumentParser, and every subcommand lists the same shared flags
    cli.build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, "locus", "--model", "njl")[0] == 0
    assert built
    built.clear()
    assert run(capsys, "locus", "--model", "soler")[0] == 0
    assert built == []
    shared = ["--model", "--mass", "--p", "--grid", "--seed", "--tol",
              "--mask-margin", "--out", "--format", "--scan-el", "--config"]
    for command in cli.COMMANDS:
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        listed = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M)
        assert listed == shared, command
