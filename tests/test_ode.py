import csv
import io
import warnings

import numpy as np
import pytest

from nldirac import equations, ode, polar
from nldirac.errors import DivergingState, StepUnderflow
from nldirac.ode import (
    IntegratorConfig,
    OdeState,
    exact_state,
    integrate,
    quantum_number_scan,
    soler_rhs,
    tracking_deviation,
    trajectory_to_csv,
)
from nldirac.geometry import GridPoint
from nldirac.polar import ModelSpec, X_exact

SPEC = ModelSpec("soler", m=1.0)


def exact_rhs(r, spec: ModelSpec):
    """Analytic (X', G') of the closed-form branch, for rhs consistency."""
    z = np.log(2.0 * spec.m * r)
    X = np.sinh(z)
    ch = np.cosh(z)
    dX = ch / r
    # G = 2/(r X^2):  G' = -2/(r^2 X^2) - 4 X'/(r X^3)
    dG = -2.0 / (r**2 * X**2) - 4.0 * dX / (r * X**3)
    return dX, dG


def test_rhs_matches_closed_form_derivatives():
    for r in np.geomspace(0.6, 20.0, 100):
        st = exact_state(r, SPEC)
        dX, dG = soler_rhs(r, [st.X, st.G], SPEC)
        eX, eG = exact_rhs(r, SPEC)
        assert dX == pytest.approx(eX, rel=1e-10, abs=1e-10)
        assert dG == pytest.approx(eG, rel=1e-10, abs=1e-10)
    # the lower branch too
    for r in np.geomspace(0.05, 0.45, 50):
        st = exact_state(r, SPEC)
        dX, dG = soler_rhs(r, [st.X, st.G], SPEC)
        eX, eG = exact_rhs(r, SPEC)
        assert dX == pytest.approx(eX, rel=1e-10)
        assert dG == pytest.approx(eG, rel=1e-10)
    # and far out, where 2mr sqrt(X^2 + 1) and 2mr X both grow like
    # (2mr)^2/2 while their difference stays 1: the rhs must not form it by
    # subtraction
    for m in (0.5, 1.0, 2.0, 3.0):
        spec = ModelSpec("soler", m=m)
        for r in np.geomspace(10.0, 1e7, 60) / m:
            st = exact_state(r, spec)
            dX, dG = soler_rhs(r, [st.X, st.G], spec)
            eX, eG = exact_rhs(r, spec)
            assert dX == pytest.approx(eX, rel=1e-12), (m, r)
            assert dG == pytest.approx(eG, rel=1e-12), (m, r)


def test_rhs_G_zero_is_invariant():
    for r in (0.2, 1.0, 5.0):
        _, dG = soler_rhs(r, [0.7, 0.0], SPEC)
        assert dG == 0.0


def test_rhs_direct_substitution():
    dX, dG = soler_rhs(1.0, [0.0, 1.0], SPEC)
    # bracket: 2*1*1*1 - 0 - 2 + 0 = 0
    assert dX == pytest.approx(0.0, abs=1e-16)
    assert dG == pytest.approx(0.0, abs=1e-16)


def test_exact_branch_tracking_forward():
    cfg = IntegratorConfig(r_span=(1.0, 10.0), rtol=1e-9, atol=1e-12)
    traj = integrate(cfg, exact_state(1.0, SPEC), SPEC)
    dev = tracking_deviation(traj, SPEC)
    assert dev["max_rel"] <= 1e-6


def test_exact_branch_tracking_reverse_within_segment():
    # the outer segment ends at 2mr = 1; reverse integration stays inside it
    cfg = IntegratorConfig(r_span=(1.0, 0.55), rtol=1e-9, atol=1e-12)
    traj = integrate(cfg, exact_state(1.0, SPEC), SPEC)
    assert tracking_deviation(traj, SPEC)["max_rel"] <= 1e-6


def test_span_straddling_singular_radius_is_rejected():
    cfg = IntegratorConfig(r_span=(0.3, 1.0), rtol=1e-9, atol=1e-12)
    with pytest.raises(ValueError, match="split"):
        integrate(cfg, exact_state(0.3, SPEC), SPEC)


def test_perturbed_data_departs_from_closed_form():
    cfg = IntegratorConfig(r_span=(1.0, 10.0), rtol=1e-9, atol=1e-12)
    st = exact_state(1.0, SPEC)
    traj = integrate(cfg, OdeState(X=st.X + 1e-3, G=st.G), SPEC)
    # the Euclidean distance from the closed-form branch at the steps
    Xe = X_exact(traj.r, SPEC)
    dist = np.hypot(traj.X - Xe, traj.G - 2.0 / (traj.r * Xe * Xe))
    assert dist[0] == pytest.approx(1e-3, rel=1e-2)
    assert dist[-1] > 10 * dist[0]  # departure grows; no uniqueness here


def test_divergence_guard_near_singular_radius():
    cfg = IntegratorConfig(r_span=(1.0, 0.5000001), rtol=1e-9, atol=1e-12)
    with pytest.raises(DivergingState) as err:
        integrate(cfg, exact_state(1.0, SPEC), SPEC)
    assert err.value.r_last > 0.5


def test_step_underflow_when_guard_is_lifted(monkeypatch):
    # with the overflow guard out of reach, driving the integration to within
    # float spacing of 2mr = 1 collapses the adaptive step instead
    monkeypatch.setattr(ode, "OVERFLOW_GUARD", 1e30)
    cfg = IntegratorConfig(r_span=(1.0, 0.5 + 5e-16), rtol=1e-9, atol=1e-12)
    with pytest.raises((StepUnderflow, DivergingState)):
        integrate(cfg, exact_state(1.0, SPEC), SPEC)


def test_observed_convergence_order():
    # uniform steps of the integrator's Dormand-Prince tableau: halving the
    # step must shrink the error at the end of the span at 5th order
    errs = []
    for h in (0.05, 0.025, 0.0125):
        r, st = 1.0, exact_state(1.0, SPEC)
        y, K = np.array([st.X, st.G]), np.empty((len(ode.C), 2))
        for _ in range(round(3.0 / h)):
            for s in range(len(ode.C)):
                K[s] = soler_rhs(r + ode.C[s] * h,
                                 y + h * K[:s].T @ ode.A[s, :s], SPEC)
            y, r = y + h * K.T @ ode.B, r + h
        errs.append(abs(y[0] / X_exact(4.0, SPEC) - 1.0))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 4.5


def _run_or_raise(run):
    """(r, X, G, n_steps) of a run, or the radius at which it diverged."""
    try:
        return run()
    except DivergingState as exc:
        return exc.r_last


def test_integrator_reproduces_scipy_rk45_bit_for_bit():
    # the in-module Dormand-Prince integrator is scipy's RK45: the same
    # steps, states and divergence radius, to the last bit
    pytest.importorskip("scipy")
    from scipy.integrate import solve_ivp

    def reference(cfg, st, spec):
        out = solve_ivp(lambda r, y: soler_rhs(r, y, spec), cfg.r_span,
                        [st.X, st.G], method="RK45", rtol=cfg.rtol,
                        atol=cfg.atol)
        return out.t, out.y[0], out.y[1], len(out.t) - 1

    def ours(cfg, st, spec):
        traj = integrate(cfg, st, spec)
        return traj.r, traj.X, traj.G, traj.n_steps

    cases = [  # (m, span in units of 1/m, rtol, atol, dX)
        (m, span, rtol, atol, dX)
        for m in (0.5, 1.0, 2.0)
        for span in ((1.0, 10.0), (1.0, 0.55), (0.05, 0.45))
        for rtol, atol in ((1e-9, 1e-12), (1e-3, 1e-5))
        for dX in (0.0, 1e-3)
    ]
    cases += [(1.0, (1.0, 0.5000001), 1e-9, 1e-12, 0.0)]
    diverged = 0
    for m, (a, b), rtol, atol, dX in cases:
        spec = ModelSpec("soler", m=m)
        cfg = IntegratorConfig(r_span=(a / m, b / m), rtol=rtol, atol=atol)
        st = exact_state(a / m, spec)
        st = OdeState(X=st.X + dX, G=st.G)
        want = _run_or_raise(lambda: reference(cfg, st, spec))
        got = _run_or_raise(lambda: ours(cfg, st, spec))
        case = (m, a, b, rtol, dX)
        if isinstance(want, float):
            diverged += 1
            assert got == want, case
            continue
        assert not isinstance(got, float), case
        for name, w, g in zip(("r", "X", "G", "n_steps"), want, got):
            assert np.array_equal(w, g), (case, name)
    assert diverged == 1  # the run into 2mr = 1


def test_trajectory_csv_columns(tmp_path):
    cfg = IntegratorConfig(r_span=(1.0, 2.0), rtol=1e-9, atol=1e-12)
    traj = integrate(cfg, exact_state(1.0, SPEC), SPEC)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, SPEC, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "r,X,G,X_exact,G_exact,dev_X,dev_G"
    assert len(lines) == traj.r.size + 1
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(1.0)
    assert float(first[5]) <= 1e-12  # starts on the closed form


def _csv_writer_text(columns):
    """The text csv.writer writes for the trajectory columns ``columns``,
    under trajectory_to_csv's header: the reference of its writer."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["r", "X", "G", "X_exact", "G_exact", "dev_X", "dev_G"])
    writer.writerows(zip(*(col.tolist() for col in columns)))
    return out.getvalue()


def test_trajectory_csv_is_the_text_of_csv_writer(tmp_path):
    # each row is the repr of its values, comma-separated and ended by CRLF:
    # csv.writer's text, on a real run and on NaN, +-inf, -0.0 and the
    # smallest subnormal
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.0])
    runs = (integrate(IntegratorConfig(r_span=(1.0, 2.0)),
                      exact_state(1.0, SPEC), SPEC),
            ode.Trajectory(r=np.linspace(0.6, 3.0, 6), X=special,
                           G=special[::-1], n_steps=5, min_step=0.48))
    for traj in runs:
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traj, SPEC, path)
        columns = (traj.r, traj.X, traj.G,
                   *ode._branch(traj.r, traj.X, traj.G, SPEC))
        assert path.read_bytes() == _csv_writer_text(columns).encode()
    text = path.read_text()
    assert all(v in text for v in (",nan,", ",inf,", ",-inf,", ",-0.0,",
                                   ",5e-324,"))


def test_the_rtol_warning_names_the_caller_of_the_config():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        IntegratorConfig(r_span=(1.0, 2.0), rtol=1e-20)
    (warning,) = caught
    assert warning.category is UserWarning
    assert str(warning.message) == "rtol 1e-20 raised to 100 eps"
    assert warning.filename == __file__


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(r_span=(1.0, 2.0), rtol=-1.0)
    # the config holds the rtol the integrator runs with
    with pytest.warns(UserWarning, match="raised to 100 eps"):
        cfg = IntegratorConfig(r_span=(1.0, 2.0), rtol=1e-20)
    assert cfg.rtol == 100 * np.finfo(float).eps


# -- quantum-number scan -------------------------------------------------------


def _centre(result):
    """(i, j) of the cell E = m, l = 1/2."""
    return (int(np.argmin(np.abs(result.e_over_m - 1.0))),
            int(np.argmin(np.abs(result.l_values - 0.5))))


def test_scan_unique_zero_cell():
    # the scan runs the model of the run: the closed forms exist only at
    # E = m, l = 1/2 for every p
    for model in ("soler", "p:0.5", "njl"):
        for m in (0.5, 3.0):
            result = quantum_number_scan(ModelSpec(model, m=m))
            assert result.zero_cells() == [(1.0, 0.5)], (model, m)
            assert result.best_cell() == (1.0, 0.5), (model, m)
            assert result.nonfinite_cells() == [], (model, m)
            # every neighbouring cell is far from zero
            i0, j0 = _centre(result)
            neighbours = result.surface[i0 - 1:i0 + 2, j0 - 1:j0 + 2].copy()
            neighbours[1, 1] = np.inf
            assert neighbours.min() >= 1e-3, (model, m)


def _poison_point(monkeypatch, E_over_m, l):
    """Make equations.residual_expanded NaN at the fourth radius and the
    first angle of the scan cell (E/m, l) only."""
    original = equations.residual_expanded

    def poisoned(pt, spec, f):
        res = original(pt, spec, f)
        if spec.E == E_over_m * SPEC.m and spec.l == l:
            res = np.where((pt.r == pt.r[3, 0]) & (pt.theta == np.pi / 3),
                           np.nan, res)
        return res

    monkeypatch.setattr(equations, "residual_expanded", poisoned)


def test_scan_nan_reaches_its_cell(monkeypatch):
    # a NaN at one point of one cell must make that cell NaN, not be dropped
    # by the reduction, and so keep that cell out of the zero cells
    from nldirac import verify

    _poison_point(monkeypatch, 1.0, 0.5)
    result = quantum_number_scan(SPEC)
    nan_cells = np.argwhere(np.isnan(result.surface)).tolist()
    assert nan_cells == [list(_centre(result))]
    assert result.zero_cells() == []
    summary, _, nonfinite = verify.ode_summary(SPEC, scan=True)
    assert summary["scan"]["unique_zero"] is False
    assert nonfinite == ["scan cell (E/m, l) = (1.0, 0.5)"]


def test_scan_nan_off_the_zero_cell_is_not_unique_zero(monkeypatch):
    # a NaN in a cell far from (1, 1/2) must neither be named the best cell
    # nor leave the summary claiming a unique zero
    from nldirac import verify

    _poison_point(monkeypatch, 1.5, 0.0)
    result = quantum_number_scan(SPEC)
    assert result.zero_cells() == [(1.0, 0.5)]
    assert result.best_cell() == (1.0, 0.5)
    assert result.nonfinite_cells() == [(1.5, 0.0)]
    summary, _, nonfinite = verify.ode_summary(SPEC, scan=True)
    assert summary["scan"]["best_cell"] == [1.0, 0.5]
    assert summary["scan"]["unique_zero"] is False
    assert nonfinite == ["scan cell (E/m, l) = (1.5, 0.0)"]


def test_scan_of_a_wrong_density_has_no_zero_cell(monkeypatch):
    # every bundle of the scan with phi^2 scaled by 1 + 1e-6: the density
    # equations no longer hold, so not even (1, 1/2) reads zero
    closed_form = polar.closed_form

    def scaled(pt, spec):
        f = closed_form(pt, spec)
        return f._replace(density=f.density._replace(
            phi2=f.density.phi2 * (1.0 + 1e-6)))

    monkeypatch.setattr(polar, "closed_form", scaled)
    result = quantum_number_scan(SPEC)
    assert result.zero_cells() == []
    assert result.best_cell() == (1.0, 0.5)
    assert result.surface[_centre(result)] >= 1e-6


def test_scan_separation_residual_at_wrong_l():
    # on the true solution the expanded form vanishes at l = 1/2 and is far
    # from zero at l = 0.6: the angular structure separates only if 2l = 1
    pt = GridPoint(1.0, np.pi / 3)
    f = polar.closed_form(pt, SPEC)
    assert equations.residual_expanded(pt, SPEC, f) <= 1e-10
    wrong = ModelSpec("soler", m=1.0, l=0.6)
    assert equations.residual_expanded(pt, wrong, f) >= 1e-2


def post_separation_components(r, E, spec: ModelSpec):
    """The three radial equations left after l = 1/2 is forced.

    They overdetermine X; on X = sinh(ln 2Er) the second holds for any E
    while the first and third jointly force E = m.
    """
    m = spec.m
    v = 2.0 * E * r
    X = 0.5 * (v - 1.0 / v)
    ch = 0.5 * (v + 1.0 / v)
    first = 1.0 - 2.0 * E * r * ch + 2.0 * m * r * X  # r X'/sqrt(X^2+1) = 1 here
    second = ch - X + 2.0 * E * r - 2.0 * ch
    third = 1.0 - 2.0 * m * r * ch + 2.0 * E * r * X
    return {"first": first, "second": second, "third": third}


def test_post_separation_system():
    # on-branch: the second equation holds for any E, the third fixes E = m
    good = post_separation_components(1.0, 1.0, SPEC)
    assert max(abs(v) for v in good.values()) <= 1e-12
    off = post_separation_components(1.0, 1.2, SPEC)
    assert abs(off["second"]) <= 1e-12
    assert abs(off["third"]) >= 1e-2
    assert abs(off["first"]) >= 1e-2
