"""Singular regions and asymptotics of the matter distributions.

Both models blow up on the Compton-scale radius 2mr = 1, but with different
symmetry: any chiral admixture (p > 0) confines the divergence to the
equatorial plane, leaving a ring; the purely scalar model (p = 0) keeps the
whole sphere.  The origin is regular (phi^2 -> 8m) and both densities fall
off like 1/r^2, with phi^2 r^2 -> 2/m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polar import ModelSpec, phi2_grid

DIVERGENCE_FACTOR = 1e6  # phi^2 above this multiple of 8m marks a cell singular


@dataclass(frozen=True)
class SingularLocus:
    """Analytic description of the divergence set."""

    kind: str  # "ring" | "shell" | "none"
    radius: float
    angular_constraint: str | None  # e.g. "cos(theta) = 0"


@dataclass(frozen=True)
class LocusEstimate:
    """Grid-refined numerical localization of the divergence."""

    kind: str
    radius: float
    radius_uncertainty: float
    theta: float | None
    theta_uncertainty: float | None
    diverged: bool
    refinements: int


def singular_locus(spec: ModelSpec) -> SingularLocus:
    """Divergence set of the interpolated density: radius 1/(2m) always,
    restricted to the equator whenever p != 0."""
    radius = 1.0 / (2.0 * spec.m)
    if spec.p == 0.0:
        return SingularLocus(kind="shell", radius=radius, angular_constraint=None)
    return SingularLocus(kind="ring", radius=radius,
                         angular_constraint="cos(theta) = 0")


def locate_numerically(spec: ModelSpec) -> LocusEstimate:
    """Locate the density maximum on a grid and refine around it.

    The search covers r in [0.2, 2] times the singular radius 1/(2m) on a
    400 x 200 (r, theta) grid.  Each of up to six refinements re-grids the
    at most 6 cells around the argmax into 399, so the radial uncertainty
    shrinks geometrically; refinement continues past the target
    uncertainty, 1e-3 of the singular radius, until the peak either trips
    the divergence threshold or stays bounded through all levels.
    """
    rc = 1.0 / (2.0 * spec.m)
    n_r, n_theta, levels = 400, 200, 6
    window = (0.2 * rc, 2.0 * rc)
    target_uncertainty = 1e-3 * rc
    theta_lo, theta_hi = 1e-3, np.pi - 1e-3
    r_lo, r_hi = window
    diverged = False
    refinements = 0
    best_r = best_th = None
    report_r_unc = report_th_unc = None
    theta_spread = 0.0
    for level in range(levels + 1):
        rs = np.linspace(r_lo, r_hi, n_r)
        ths = np.linspace(theta_lo, theta_hi, n_theta)
        Rg, Tg = np.meshgrid(rs, ths, indexing="ij")
        vals = phi2_grid(spec, Rg, Tg)
        vals = np.where(np.isfinite(vals), vals, np.inf)
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        peak = vals[i, j]
        if not np.isfinite(peak) or peak > DIVERGENCE_FACTOR * 8.0 * spec.m:
            diverged = True
        # shell vs ring: fraction of theta cells at the peak radius whose value
        # stays within a decade of the peak (only meaningful on the coarse
        # pass, before any theta-window narrowing)
        if level == 0:
            row = vals[i, :]
            with np.errstate(invalid="ignore"):
                theta_spread = float(np.mean(row >= 0.1 * min(peak, 1e300)))
        dr = rs[1] - rs[0]
        dth = ths[1] - ths[0]
        refinements = level
        if report_r_unc is None or dr <= target_uncertainty:
            # location is reported at the first level that meets the target;
            # deeper levels only probe for divergence
            best_r, best_th = float(rs[i]), float(ths[j])
            report_r_unc, report_th_unc = float(dr), float(dth)
        if dr <= target_uncertainty and (diverged or level == levels):
            break
        # shrink to a window of a few cells around the argmax
        r_lo = max(window[0], rs[i] - 3 * dr)
        r_hi = min(window[1], rs[i] + 3 * dr)
        if spec.p != 0.0:
            theta_lo = max(1e-3, ths[j] - 3 * dth)
            theta_hi = min(np.pi - 1e-3, ths[j] + 3 * dth)
    if not diverged:
        kind = "none"
    elif theta_spread > 0.5:
        kind = "shell"
    else:
        kind = "ring"
    return LocusEstimate(
        kind=kind,
        radius=best_r,
        radius_uncertainty=report_r_unc,
        theta=None if kind == "shell" else best_th,
        theta_uncertainty=None if kind == "shell" else report_th_unc,
        diverged=diverged,
        refinements=refinements,
    )


def decay_fit(spec: ModelSpec):
    """Least-squares slope of ln phi^2 against ln r over 40 radii from 10/m
    to 1000/m at theta = pi/4.

    Returns (exponent, amplitude): phi^2 ~ amplitude * r^exponent.
    """
    rs = np.geomspace(10.0 / spec.m, 1000.0 / spec.m, 40)
    vals = phi2_grid(spec, rs, np.full_like(rs, np.pi / 4))
    slope, intercept = np.polyfit(np.log(rs), np.log(vals), 1)
    return float(slope), float(np.exp(intercept))


def asymptotics_report(spec: ModelSpec):
    """Tabulate phi^2 r^2 at large radii and fit the decay exponent.

    phi^2 r^2 approaches 2/m with an O(1/r^2) error; the origin value is the
    finite limit 8m for both models.
    """
    radii = np.array([10.0, 100.0, 1000.0]) / spec.m
    thetas = np.array([np.pi / 4, np.pi / 2])
    table = []
    for r in radii:
        for th in thetas:
            val = float(phi2_grid(spec, r, th)) * r * r
            table.append({"r": float(r), "theta": float(th), "phi2_r2": val})
    exponent, amplitude = decay_fit(spec)
    origin = float(phi2_grid(spec, 1e-6 / spec.m, np.pi / 3))
    return {
        "limit_constant": 2.0 / spec.m,
        "phi2_r2_at_100_over_m": float(
            phi2_grid(spec, 100.0 / spec.m, np.pi / 2)
        ) * (100.0 / spec.m) ** 2,
        "decay_exponent": exponent,
        "origin_value": origin,
        "origin_limit": 8.0 * spec.m,
        "table": table,
    }


def singularity_report(spec: ModelSpec):
    """JSON-ready report combining the analytic locus, its numerical
    localization and the large-radius behaviour."""
    locus = singular_locus(spec)
    estimate = locate_numerically(spec)
    asym = asymptotics_report(spec)
    return {
        "model": spec.name,
        "p": spec.p,
        "locus": {
            "kind": locus.kind,
            "radius": locus.radius,
            "angular_constraint": locus.angular_constraint,
        },
        "numerical_locus": {
            "kind": estimate.kind,
            "radius": estimate.radius,
            "radius_uncertainty": estimate.radius_uncertainty,
            "theta": estimate.theta,
            "theta_uncertainty": estimate.theta_uncertainty,
            "diverged": estimate.diverged,
            "refinements": estimate.refinements,
        },
        "decay_exponent": asym["decay_exponent"],
        "limit_constant": asym["limit_constant"],
        "origin_value": asym["origin_value"],
    }
