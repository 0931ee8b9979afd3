import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from nldirac import geometry, ode, polar
from nldirac.cli import main


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
    code, _, _ = run(capsys, "fieldmap", "--model", "njl",
                     "--grid", "0.25,1.0,3,3", "--out", str(out))
    assert code == 0
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


def test_ode_scan_flag(capsys, tmp_path):
    code, stdout, _ = run(
        capsys, "ode", "--model", "soler", "--grid", "1,10,50,2",
        "--out", str(tmp_path / "t.csv"), "--scan-el",
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["scan"]["zero_cells"] == [[1.0, 0.5]]
    assert summary["scan"]["unique_zero"] is True


def test_ode_straddling_span_is_an_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "ode", "--model", "soler", "--grid", "0.3,1,50,2",
        "--out", str(tmp_path / "t.csv"),
    )
    assert code == 1
    assert "split" in err


def test_ode_requires_the_scalar_model(capsys, tmp_path):
    code, _, err = run(capsys, "ode", "--model", "njl",
                       "--out", str(tmp_path / "t.csv"))
    assert code == 2
    assert "scalar model" in err


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


def test_cold_import_loads_scipy_only_for_ode(tmp_path):
    # scipy.integrate is most of a cold start; only the radial integration
    # may import it
    script = """
import json, sys
from nldirac import cli
codes = [cli.main(argv.split()) for argv in sys.argv[1:]]
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    def fresh(*argvs):
        proc = subprocess.run([sys.executable, "-c", script, *argvs],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    cold = fresh("verify --model njl --grid 0.05,20,5,4 --out v.json",
                 "locus --model soler --out l.json",
                 "fieldmap --model njl --grid 0.25,1.0,3,3 --out m.csv",
                 "verify --model bogus")
    assert cold == {"codes": [0, 0, 0, 2], "scipy": []}
    ode_run = fresh("ode --model soler --grid 1,10,50,2 --out t.csv")
    assert ode_run["codes"] == [0]
    assert "scipy.integrate" in ode_run["scipy"]


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


def test_fieldmap_json_format(capsys):
    code, stdout, _ = run(capsys, "fieldmap", "--model", "njl",
                          "--grid", "0.25,1.0,3,3", "--format", "json")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["columns"] == ["r", "theta", "phi2", "sin_beta", "cos_beta",
                              "X", "masked"]
    assert len(doc["rows"]) == 9


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
    (["verify"], {"grid": {"r_min": True}}, "grid r_min must be a number"),
    (["verify"], {"grid": {"theta_margin": "0.01"}},
     "grid theta_margin must be a number"),
    (["ode", "--model", "soler", "--tol", "rtol=0"], None,
     "tolerance rtol must be positive"),
    (["report"], {"tolerances": {"atol": -1e-12}},
     "tolerance atol must be positive"),
)


def test_bad_model_is_usage_error(capsys, tmp_path):
    for argv, config, message in USAGE_ERRORS:
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path)]
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err, err


def test_model_name_is_the_same_in_every_report(capsys):
    for model in ("p:1", "p:0"):
        _, out, _ = run(capsys, "verify", "--model", model, "--grid", SMALL_GRID)
        assert json.loads(out)["model"] == model
        _, out, _ = run(capsys, "locus", "--model", model)
        assert json.loads(out)["model"] == model


def test_nan_residual_fails_its_suite(capsys, monkeypatch, tmp_path):
    # Python's max drops a NaN that is not its first argument; every
    # reduction must report it instead of passing over it
    original = geometry.transport_residuals
    calls = []

    def poisoned(pt, ang):
        calls.append(pt)
        ws, wu = original(pt, ang)
        return (math.nan, wu) if len(calls) == 2 else (ws, wu)

    with monkeypatch.context() as patch:
        patch.setattr(geometry, "transport_residuals", poisoned)
        code, out, err = run(capsys, "verify", "--model", "njl",
                             "--grid", SMALL_GRID)
    assert code == 1
    report = json.loads(out)
    assert report["failing_suites"] == ["transport"]
    assert math.isnan(report["suites"]["transport"]["max_residual"])

    # a NaN theta log-derivative of the density is a later component of the
    # expanded and covector residual vectors and one term of the
    # decomposition's fold over mu
    log_derivatives = polar.module_log_derivatives

    def nan_theta(pt, spec, p=None):
        return log_derivatives(pt, spec, p)[0], math.nan

    with monkeypatch.context() as patch:
        patch.setattr(polar, "module_log_derivatives", nan_theta)
        code, out, err = run(capsys, "verify", "--model", "njl",
                             "--grid", "0.05,20,5,4")
    assert code == 1
    report = json.loads(out)
    poisoned_suites = ["covector-residuals", "decomposition",
                       "expanded-residuals", "standard-residuals"]
    assert report["failing_suites"] == poisoned_suites
    for name in poisoned_suites:
        assert math.isnan(report["suites"][name]["max_residual"]), name

    # a NaN in G alone must reach the ODE's combined tracking deviation
    integrate = ode.integrate

    def nan_in_G(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        sol = traj.sol

        def poisoned_sol(rs):
            y = sol(rs)
            y[1, -1] = math.nan
            return y

        return dataclasses.replace(traj, sol=poisoned_sol)

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
