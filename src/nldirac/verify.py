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


def suite_fierz(spec, grid, seed, tol):
    psis = clifford.random_spinors(1000, seed=seed)
    return _entry(np.max(clifford.fierz_residuals(psis)), tol, len(psis))


def _sampled_suite(residual, spec, seed, tol):
    """Max of ``residual(pts)`` over 50 seeded random points outside the
    default mask, drawn in blocks and passed in one call as a GridPoint of
    arrays."""
    rng = np.random.default_rng(seed)
    pts = grids.sample_points(rng, 50, m=spec.m,
                              reject=lambda pt: equations.is_masked(pt, spec))
    return _entry(np.max(residual(pts)), tol, pts.r.size)


def suite_flatness(spec, grid, seed, tol):
    """Riemann tensor of the spherical connection (analytic partials)."""
    return _sampled_suite(lambda pts: np.max(np.abs(geometry.riemann_at(pts))),
                          spec, seed, tol)


def suite_curvature_strength(spec, grid, seed, tol):
    """Curvature and strength of the solution's potentials (must vanish)."""
    ang_field = polar.angle_field(spec)

    def tensorial(r, th):
        return geometry.tensorial_connection_at(GridPoint(r, th), ang_field(r, th))

    P = geometry.momentum_covector(spec.E, spec.l)
    return _sampled_suite(
        lambda pts: geometry.curvature_strength_residuals(
            pts, tensorial, lambda rr, tt: P),
        spec, seed, tol)


def suite_transport(spec, grid, seed, tol):
    ang_field = polar.angle_field(spec)
    return _sampled_suite(
        lambda pts: geometry.transport_residuals(pts, ang_field),
        spec, seed, tol)


def suite_decomposition(spec, grid, seed, tol):
    """Polar decomposition of nabla psi on the 50 points in one call."""
    return _sampled_suite(
        lambda pts: polar.polar_decomposition_residual(pts, spec),
        spec, seed, tol)


def _grid_suite(residual, spec, grid, tol):
    """Sweep ``residual(pt, spec)`` over the prepared grid's unmasked
    points.  A sweep that masked every point has checked nothing and
    fails."""
    stats = equations.sweep(grid, lambda pt: residual(pt, spec))
    entry = _entry(stats["max"], tol, stats["n_points"], stats)
    entry["pass"] &= stats["n_masked"] < stats["n_points"]
    return entry


def suite_expanded(spec, grid, seed, tol):
    return _grid_suite(equations.residual_expanded, spec, grid, tol)


def suite_covector(spec, grid, seed, tol):
    return _grid_suite(equations.residual_polar_covector, spec, grid, tol)


def suite_reduced(spec, grid, seed, tol):
    return _grid_suite(equations.residual_reduced, spec, grid, tol)


def suite_standard(spec, grid, seed, tol):
    return _grid_suite(equations.residual_standard, spec, grid, tol)


# Every suite in report order; each takes (spec, grid, seed, tol), where grid
# is the equations.sweep_grid that run_suites builds once.  The sampled
# suites ignore the grid, fierz the model as well.
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
# Suites an interpolating ("p:") run leaves out of its report.  Both forms
# hold for every p; leaving them out keeps a p: report to the seven suites
# it has always held, the set perfbench's report check expects, and a p:
# verify at its cost.
ENDPOINT_ONLY = ("expanded-residuals", "covector-residuals")


def run_suites(spec: ModelSpec, grid_cfg=None, seed=42, tolerances=None,
               margin=DEFAULT_MASK_MARGIN):
    """Run every applicable suite for one model; returns the JSON-ready report.

    An interpolating run skips the ENDPOINT_ONLY suites and reports the
    reduced and standard forms.  The grid is built, validated and masked
    once, and every grid suite sweeps the same chunks of its unmasked
    points.
    """
    grid = equations.sweep_grid(
        grids.points(grid_cfg or grids.GridConfig(), m=spec.m), spec, margin)
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    suites = {
        name: suite(spec, grid, seed, tol[name])
        for name, suite in SUITES.items()
        if spec.name in polar.ENDPOINTS or name not in ENDPOINT_ONLY
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
    ode.check_span((r0, r1), spec)  # before exact_state, which fails at 2mr = 1
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
        zero_cells = result.zero_cells()
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
