"""Verification suites: every identity and field equation, with tolerances.

Each suite returns a dict with its max residual, tolerance and pass flag;
``run_suites`` assembles the full report.  Identity suites (exact algebraic
content) run at 1e-10; everything touching complex-step partials or long
evaluation chains runs at 1e-8.  Every maximum is taken with a reduction
that propagates NaN, so a non-finite residual at any point fails its suite.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from . import clifford, equations, geometry, grids, ode, polar
from .geometry import GridPoint
from .settings import (DEFAULT_MASK_MARGIN, DEFAULT_SEED, DEFAULT_TOLERANCES,
                       ENDPOINTS, SCHEMA, ModelSpec)


def _entry(max_residual, tol, n, extra=None):
    return {
        "max_residual": float(max_residual),
        "tolerance": float(tol),
        "n": int(n),
        "pass": bool(max_residual <= tol),
        **(extra or {}),
    }


class Sample(NamedTuple):
    """The sampled suites' points and the solution's angle state at them.

    ``angle_field(pt)`` returns polar.angle_state(pt, spec), evaluated once,
    by draw_sample, at the points and at the two complex steps off them
    (GridPoint.steps), which curvature-strength and transport both read;
    these three are the GridPoints it takes.  The Christoffel symbols
    at the points are built once too, as ``points.christoffel``: the
    sparse.Live of their nine entries, each named by its index tuple (rho,
    mu, nu), which flatness, curvature-strength and transport read.  A
    Sample lives for one run_suites call.
    """

    points: GridPoint
    angle_field: Callable


def draw_sample(spec: ModelSpec, seed):
    """The Sample of a verify: 50 seeded points outside the default mask
    and the angle states there."""
    points = grids.sample_points(
        np.random.default_rng(seed), 50, m=spec.m,
        reject=lambda pt: equations.is_masked(pt, spec))
    # by id, each with its GridPoint, which keeps the id unique
    states = {id(pt): (pt, polar.angle_state(pt, spec))
              for pt in (points, *points.steps[1:])}
    return Sample(points, lambda pt: states[id(pt)][1])


def suite_fierz(spec, grid, sample, seed, tol):
    psis = clifford.random_spinors(1000, seed=seed)
    return _entry(np.max(clifford.fierz_residuals(psis)), tol, len(psis))


def suite_flatness(spec, grid, sample, seed, tol):
    """Riemann tensor of the spherical connection (analytic partials); the
    largest entry of its absolute values, taken in place."""
    riemann = geometry.riemann_at(sample.points)
    return _entry(np.max(np.abs(riemann, out=riemann)), tol,
                  sample.points.r.size)


def suite_curvature_strength(spec, grid, sample, seed, tol):
    """Curvature of the solution's tensorial connection (must vanish)."""
    res = geometry.curvature_strength_residuals(sample.points,
                                                sample.angle_field)
    return _entry(np.max(res), tol, sample.points.r.size)


def suite_transport(spec, grid, sample, seed, tol):
    res = geometry.transport_residuals(sample.points, sample.angle_field)
    return _entry(np.max(res), tol, sample.points.r.size)


def suite_decomposition(spec, grid, sample, seed, tol):
    """Polar decomposition of nabla psi on the 50 points in one call."""
    return _entry(polar.polar_decomposition_residual(sample.points, spec),
                  tol, sample.points.r.size)


def _grid_suite(stats, tol):
    """A grid form's entry from its sweep statistics.  A sweep that masked
    every point has checked nothing and fails."""
    entry = _entry(stats["max"], tol, stats["n_points"], stats)
    entry["pass"] &= stats["n_masked"] < stats["n_points"]
    return entry


def suite_expanded(spec, grid, sample, seed, tol):
    return _grid_suite(grid["expanded"], tol)


def suite_covector(spec, grid, sample, seed, tol):
    return _grid_suite(grid["covector"], tol)


def suite_reduced(spec, grid, sample, seed, tol):
    return _grid_suite(grid["reduced"], tol)


def suite_standard(spec, grid, sample, seed, tol):
    return _grid_suite(grid["standard"], tol)


# Every suite in report order; each takes (spec, grid, sample, seed, tol),
# where grid is the equations.sweep result that run_suites computes once (the
# statistics of each grid form "<form>-residuals" of the report, keyed by
# form) and sample the Sample it draws once (draw_sample) for flatness,
# curvature-strength, transport and decomposition.  fierz draws its spinors
# from the seed.
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


def check_mass(spec: ModelSpec, grid_cfg=None):
    """Raise FloatingPointError, naming the mass, unless the metric entries
    that the suites read stay inside the floats: the grid's radii (see
    grids.radii, which refuses first), and g^{theta theta}, g^{phi phi} and
    sqrt|g| finite and nonzero at the smallest and largest radius of the
    grid and of the sample, at their smallest sin(theta) and at the
    equator.  Outside, r^2 over- or underflows and every suite that reads
    the metric would compute with inf, 0 or NaN."""
    cfg = grid_cfg or grids.GridConfig()
    radii = grids.radii(cfg, spec.m)
    r = np.array([radii[0], radii[-1], *grids.SAMPLE_R])
    r[2:] /= spec.m
    theta = [min(cfg.theta_margin, grids.SAMPLE_THETA[0]), 0.5 * np.pi]
    corners = GridPoint(*np.meshgrid(r, theta))
    with np.errstate(all="ignore"):  # the entries are what is checked
        entries = np.concatenate([geometry.inverse_metric_at(corners)[2:],
                                  geometry.sqrt_abs_g(corners)[None]])
    if not (np.isfinite(entries).all() and entries.all()):
        raise FloatingPointError(f"metric entries r^2 over- or underflow at "
                                 f"mass {spec.m!r}")


def run_suites(spec: ModelSpec, grid_cfg=None, seed=DEFAULT_SEED,
               tolerances=None, margin=DEFAULT_MASK_MARGIN):
    """Run every applicable suite for one model; returns the JSON-ready report.

    An interpolating run skips the ENDPOINT_ONLY suites and reports the
    reduced and standard forms.  The grid is built, validated and masked
    once, and one sweep evaluates every grid form of the report on the
    same chunks of its unmasked points; the sampled suites share one
    seeded draw of 50 points, the angle states and the Christoffel symbols
    there (see Sample).
    """
    names = [name for name in SUITES
             if spec.name in ENDPOINTS or name not in ENDPOINT_ONLY]
    grid = equations.sweep(
        grids.points(grid_cfg or grids.GridConfig(), m=spec.m), spec, margin,
        [form for form in equations.FORMS if f"{form}-residuals" in names])
    sample = draw_sample(spec, seed)
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    suites = {name: SUITES[name](spec, grid, sample, seed, tol[name])
              for name in names}
    failing = sorted(name for name, s in suites.items() if not s["pass"])
    return {
        "schema": SCHEMA,
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

    The run and its results are those of ode.tracking_summary: (summary,
    trajectory in units of 1/m, the names of the summary's non-finite
    results).  With ``scan`` the summary holds the (E/m, l) scan of the
    model too, and a non-finite scan cell is named among the non-finite
    results.
    """
    out, traj, nonfinite = ode.tracking_summary(spec, r_span, tolerances)
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
