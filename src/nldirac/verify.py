"""Verification suites: every identity and field equation, with tolerances.

Each suite returns a dict with its max residual, tolerance and pass flag;
``run_suites`` assembles the full report.  Identity suites (exact algebraic
content) run at 1e-10; everything touching complex-step partials or long
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
    return {
        "max_residual": float(max_residual),
        "tolerance": float(tol),
        "n": int(n),
        "pass": bool(max_residual <= tol),
        **(extra or {}),
    }


def suite_fierz(spec, grid_cfg, seed, tol, margin):
    psis = clifford.random_spinors(1000, seed=seed)
    return _entry(np.max(clifford.fierz_residuals(psis)), tol, len(psis))


def _sampled_suite(residual, spec, seed, tol):
    """Max of ``residual(pt)`` over 50 seeded random points outside the
    default mask, one call per point."""
    rng = np.random.default_rng(seed)
    pts = grids.sample_points(rng, 50, m=spec.m,
                              reject=lambda pt: equations.is_masked(pt, spec))
    return _entry(np.max([residual(pt) for pt in pts]), tol, len(pts))


def suite_flatness(spec, grid_cfg, seed, tol, margin):
    """Riemann tensor of the spherical connection (analytic partials)."""
    return _sampled_suite(lambda pt: np.max(np.abs(geometry.riemann_at(pt))),
                          spec, seed, tol)


def suite_curvature_strength(spec, grid_cfg, seed, tol, margin):
    """Curvature and strength of the solution's potentials (must vanish)."""
    ang_field = polar.angle_field(spec)

    def tensorial(r, th):
        return geometry.tensorial_connection_at(GridPoint(r, th), ang_field(r, th))

    P = geometry.momentum_covector(spec.E, spec.l)
    return _sampled_suite(
        lambda pt: geometry.curvature_strength_residuals(
            pt, tensorial, lambda rr, tt: P),
        spec, seed, tol)


def suite_transport(spec, grid_cfg, seed, tol, margin):
    ang_field = polar.angle_field(spec)
    return _sampled_suite(
        lambda pt: geometry.transport_residuals(pt, ang_field), spec, seed, tol)


def suite_decomposition(spec, grid_cfg, seed, tol, margin):
    return _sampled_suite(lambda pt: polar.polar_decomposition_residual(pt, spec),
                          spec, seed, tol)


def _grid_suite(residual, spec, grid_cfg, tol, margin):
    """Sweep ``residual(pt, spec)`` over the grid, skipping masked points."""
    stats = equations.sweep(
        grids.points(grid_cfg, m=spec.m), lambda pt: residual(pt, spec),
        spec, margin,
    )
    return _entry(stats["max"], tol, stats["n_points"], stats)


def suite_expanded(spec, grid_cfg, seed, tol, margin):
    return _grid_suite(equations.residual_expanded, spec, grid_cfg, tol, margin)


def suite_covector(spec, grid_cfg, seed, tol, margin):
    return _grid_suite(equations.residual_polar_covector, spec, grid_cfg, tol,
                       margin)


def suite_reduced(spec, grid_cfg, seed, tol, margin):
    return _grid_suite(equations.residual_reduced, spec, grid_cfg, tol, margin)


def suite_standard(spec, grid_cfg, seed, tol, margin):
    return _grid_suite(equations.residual_standard, spec, grid_cfg, tol, margin)


# Every suite in report order; each takes (spec, grid_cfg, seed, tol, margin).
# The sampled suites ignore the grid and the margin, fierz the model as well.
SUITES = {
    "fierz": suite_fierz,
    "flatness": suite_flatness,
    "curvature-strength": suite_curvature_strength,
    "transport": suite_transport,
    "decomposition": suite_decomposition,
    "expanded-residuals": suite_expanded,
    "covector-residuals": suite_covector,
    "reduced-residuals": suite_reduced,
    "standard-residuals": suite_standard,
}
# The expanded and covector systems exist only for the two endpoint models.
ENDPOINT_ONLY = ("expanded-residuals", "covector-residuals")


def run_suites(spec: ModelSpec, grid_cfg=None, seed=42, tolerances=None,
               margin=DEFAULT_MASK_MARGIN):
    """Run every applicable suite for one model; returns the JSON-ready report.

    An interpolated run skips the ENDPOINT_ONLY suites and exercises the
    reduced and standard forms.
    """
    grid_cfg = grid_cfg or grids.GridConfig()
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    suites = {
        name: suite(spec, grid_cfg, seed, tol[name], margin)
        for name, suite in SUITES.items()
        if spec.name in equations.MODELS or name not in ENDPOINT_ONLY
    }
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


def ode_summary(spec: ModelSpec, r_span=(1.0, 10.0), tolerances=None,
                scan=False):
    """Exact-branch tracking run of the scalar radial system + optional scan.

    The integrator reads "rtol" and "atol" from ``tolerances`` (the suite
    tolerances there are ignored) and keeps its own default for each one
    missing.  Returns (summary, trajectory, the names of the summary's
    non-finite results: the deviation or scan cells).
    """
    r0 = r_span[0] / spec.m
    r1 = r_span[1] / spec.m
    cfg = ode.IntegratorConfig(
        r_span=(r0, r1),
        **{k: v for k, v in (tolerances or {}).items() if k in ("rtol", "atol")},
    )
    traj = ode.integrate(cfg, ode.exact_state(r0, spec), spec)
    dev = ode.tracking_deviation(traj, spec)
    out = {
        "r_span": [r0, r1],
        "rtol": cfg.rtol,
        "atol": cfg.atol,
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
