"""Verification suites: every identity and field equation, with tolerances.

Each suite returns a dict with its max residual, tolerance and pass flag;
``run_suites`` assembles the full report.  Identity suites (exact algebraic
content) run at 1e-10; everything touching finite differences or long
evaluation chains runs at 1e-8.  Every maximum is taken with a reduction
that propagates NaN, so a non-finite residual at any point fails its suite.
"""

from __future__ import annotations

import numpy as np

from . import clifford, equations, geometry, grids, ode, polar
from .equations import DEFAULT_MASK_MARGIN
from .geometry import GridPoint
from .polar import ModelSpec

DEFAULT_TOLERANCES = {
    "fierz": 1e-10,
    "flatness": 1e-10,
    "curvature-strength": 1e-8,
    "transport": 1e-8,
    "decomposition": 1e-8,
    "expanded-residuals": 1e-8,
    "covector-residuals": 1e-8,
    "reduced-residuals": 1e-8,
    "standard-residuals": 1e-8,
}


def _entry(max_residual, tol, n, extra=None):
    out = {
        "max_residual": float(max_residual),
        "tolerance": float(tol),
        "n": int(n),
        "pass": bool(max_residual <= tol),
    }
    if extra:
        out.update(extra)
    return out


def suite_fierz(seed=42, n=1000, tol=1e-10):
    psis = clifford.random_spinors(n, seed=seed)
    return _entry(np.max(clifford.fierz_residuals(psis)), tol, n)


def _random_points(spec, seed, n):
    rng = np.random.default_rng(seed)
    return grids.sample_points(
        rng, n, m=spec.m, reject=lambda pt: equations.is_masked(pt, spec),
    )


def suite_flatness(spec, seed=42, n=50, tol=1e-10):
    """Riemann tensor of the spherical connection (analytic partials)."""
    pts = _random_points(spec, seed, n)
    worst = np.max([np.max(np.abs(geometry.riemann_at(pt))) for pt in pts])
    return _entry(worst, tol, n)


def suite_curvature_strength(spec, seed=42, n=50, tol=1e-8):
    """Curvature and strength of the solution's potentials (must vanish)."""
    pts = _random_points(spec, seed, n)
    ang_field = polar.angle_field(spec)

    def tensorial(r, th):
        return geometry.tensorial_connection_at(GridPoint(r, th), ang_field(r, th))

    P = geometry.momentum_covector(spec.E, spec.l)
    worst = np.max([
        geometry.curvature_strength_residuals(pt, tensorial, lambda rr, tt: P)
        for pt in pts
    ])
    return _entry(worst, tol, n)


def suite_transport(spec, seed=42, n=50, tol=1e-8):
    pts = _random_points(spec, seed, n)
    worst = np.max([
        geometry.transport_residuals(pt, polar.angle_state(pt, spec))
        for pt in pts
    ])
    return _entry(worst, tol, n)


def suite_decomposition(spec, seed=42, n=50, tol=1e-8):
    pts = _random_points(spec, seed, n)
    worst = np.max([polar.polar_decomposition_residual(pt, spec) for pt in pts])
    return _entry(worst, tol, n)


def _grid_suite(residual, spec, grid_cfg, tol, margin):
    """Sweep ``residual(pt, spec)`` over the grid, skipping masked points."""
    stats = equations.sweep(
        grids.points(grid_cfg, m=spec.m), lambda pt: residual(pt, spec),
        spec, margin,
    )
    return _entry(stats["max"], tol, stats["n_points"], stats)


def suite_expanded(spec, grid_cfg, tol=1e-8, margin=DEFAULT_MASK_MARGIN):
    return _grid_suite(equations.residual_expanded, spec, grid_cfg, tol, margin)


def suite_covector(spec, grid_cfg, tol=1e-8, margin=DEFAULT_MASK_MARGIN):
    return _grid_suite(equations.residual_polar_covector, spec, grid_cfg, tol,
                       margin)


def suite_reduced(spec, grid_cfg, tol=1e-8, margin=DEFAULT_MASK_MARGIN):
    return _grid_suite(equations.residual_reduced, spec, grid_cfg, tol, margin)


def suite_standard(spec, grid_cfg, tol=1e-8, margin=DEFAULT_MASK_MARGIN):
    return _grid_suite(equations.residual_standard, spec, grid_cfg, tol, margin)


def run_suites(spec: ModelSpec, grid_cfg=None, seed=42, tolerances=None,
               margin=DEFAULT_MASK_MARGIN):
    """Run every applicable suite for one model; returns the JSON-ready report.

    The expanded and covector systems exist only for the two endpoint models;
    an interpolated run exercises the reduced and standard forms.
    """
    grid_cfg = grid_cfg or grids.GridConfig()
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    suites = {}
    suites["fierz"] = suite_fierz(seed=seed, tol=tol["fierz"])
    suites["flatness"] = suite_flatness(spec, seed=seed, tol=tol["flatness"])
    suites["curvature-strength"] = suite_curvature_strength(
        spec, seed=seed, tol=tol["curvature-strength"]
    )
    suites["transport"] = suite_transport(spec, seed=seed, tol=tol["transport"])
    suites["decomposition"] = suite_decomposition(
        spec, seed=seed, tol=tol["decomposition"]
    )
    if spec.name in equations.MODELS:
        suites["expanded-residuals"] = suite_expanded(
            spec, grid_cfg, tol=tol["expanded-residuals"], margin=margin
        )
        suites["covector-residuals"] = suite_covector(
            spec, grid_cfg, tol=tol["covector-residuals"], margin=margin
        )
    suites["reduced-residuals"] = suite_reduced(
        spec, grid_cfg, tol=tol["reduced-residuals"], margin=margin
    )
    suites["standard-residuals"] = suite_standard(
        spec, grid_cfg, tol=tol["standard-residuals"], margin=margin
    )
    failing = sorted(name for name, s in suites.items() if not s["pass"])
    return {
        "schema": "1",
        "model": spec.name,
        "p": spec.p,
        "mass": spec.m,
        "energy": spec.E,
        "angular_momentum": spec.l,
        "seed": seed,
        "mask_margin": margin,
        "suites": suites,
        "failing_suites": failing,
        "pass": not failing,
    }


def ode_summary(spec: ModelSpec, r_span=(1.0, 10.0), rtol=1e-9, atol=1e-12,
                scan=False):
    """Exact-branch tracking run of the scalar radial system + optional scan.

    Returns (summary, trajectory, the names of the summary's non-finite
    results: the deviation or scan cells).
    """
    r0 = r_span[0] / spec.m
    r1 = r_span[1] / spec.m
    cfg = ode.IntegratorConfig(r_span=(r0, r1), rtol=rtol, atol=atol)
    traj = ode.integrate(cfg, ode.exact_state(r0, spec), spec)
    dev = ode.tracking_deviation(traj, spec)
    out = {
        "r_span": [r0, r1],
        "rtol": rtol,
        "atol": atol,
        "n_steps": traj.n_steps,
        "min_step": traj.min_step,
        "max_deviation": dev["max_rel"],
        "max_rel_X": dev["max_rel_X"],
        "max_rel_G": dev["max_rel_G"],
    }
    nonfinite = ([] if np.isfinite(dev["max_rel"])
                 else [f"max_deviation {dev['max_rel']!r}"])
    if scan:
        result = ode.quantum_number_scan(spec)
        zero_cells = result.zero_cells(tol=1e-10)
        bad_cells = result.nonfinite_cells()
        best = result.best_cell()
        out["scan"] = {
            "e_over_m": result.e_over_m.tolist(),
            "l_values": result.l_values.tolist(),
            "zero_cells": zero_cells,
            "best_cell": None if best is None else list(best),
            "unique_zero": zero_cells == [(1.0, 0.5)] and not bad_cells,
        }
        nonfinite += [f"scan cell (E/m, l) = {cell}" for cell in bad_cells]
    return out, traj, nonfinite
