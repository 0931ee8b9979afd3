"""Singular regions and asymptotics of the matter distributions.

Both models blow up on the Compton-scale radius 2mr = 1, but with different
symmetry: any chiral admixture (p > 0) confines the divergence to the
equatorial plane, leaving a ring; the purely scalar model (p = 0) keeps the
whole sphere.  The origin is regular (phi^2 -> 8m) and both densities fall
off like 1/r^2, with phi^2 r^2 -> 2/m.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .polar import ModelSpec, phi2_grid

APPROACH_DISTANCES = (1e-11, 1e-12)  # d of r = rc (1 -+ d), outer first


@dataclass(frozen=True)
class SingularLocus:
    """Analytic description of the divergence set."""

    kind: str  # "ring" | "shell" | "none"
    radius: float
    angular_constraint: str | None  # e.g. "cos(theta) = 0"


@dataclass(frozen=True)
class LocusEstimate:
    """Divergence of phi^2 along approach paths to 2mr = 1.  On a ring,
    theta is pi/2 to within pi/4, the distance to the bounded path; the
    radius is good to the innermost distance probed.  ``refinements``
    counts the distances probed per path."""

    kind: str
    radius: float | None
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
    """Approach the singular radius rc = 1/(2m) along four radial paths.

    Each path samples phi^2 at r = rc (1 -+ d) for every d in
    APPROACH_DISTANCES, inside and outside rc on the equator and at
    theta = pi/4.  Its divergence order is ln(phi^2 at d = 1e-12 / phi^2 at
    d = 1e-11) / ln 10: 1 on the equator for every p, at pi/4 2 on a shell
    and 0 on a ring.  So the density diverges when both equator orders exceed 1/2, and
    the locus is a shell when a pi/4 order exceeds 1.  The radius is the
    secant root of 1/phi^2 through the two outside equator samples.

    A ring with p of about 1e-23 or less is bounded at pi/4 only closer to
    rc than d = 1e-12, which float64 cannot resolve: it reads as a shell.
    """
    rc = 1.0 / (2.0 * spec.m)
    # one path a row: the equator inside and outside rc, then pi/4
    r = rc * (1.0 + np.array([[-1.0], [1.0], [-1.0], [1.0]])
              * np.array(APPROACH_DISTANCES))
    phi2 = phi2_grid(spec, r, np.array([[np.pi / 2]] * 2 + [[np.pi / 4]] * 2))
    order = np.log10(phi2[:, 1] / phi2[:, 0])
    diverged = bool(order[:2].min() > 0.5)
    kind = ("none" if not diverged else "shell" if order[2:].max() > 1.0
            else "ring")
    (r0, r1), (y0, y1) = r[1], 1.0 / phi2[1]
    ring = kind == "ring"
    return LocusEstimate(
        kind=kind,
        radius=float(r1 - (r1 - r0) * (y1 / (y1 - y0))) if diverged else None,
        radius_uncertainty=rc * APPROACH_DISTANCES[-1],
        theta=np.pi / 2 if ring else None,
        theta_uncertainty=np.pi / 4 if ring else None,
        diverged=diverged,
        refinements=len(APPROACH_DISTANCES),
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
    """The fitted decay exponent, the limit 2/m of phi^2 r^2 (approached with
    an O(1/r^2) error), and phi^2 near the origin with its finite limit 8m,
    the same for both models.
    """
    exponent, amplitude = decay_fit(spec)
    origin = float(phi2_grid(spec, 1e-6 / spec.m, np.pi / 3))
    return {
        "limit_constant": 2.0 / spec.m,
        "decay_exponent": exponent,
        "origin_value": origin,
        "origin_limit": 8.0 * spec.m,
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
        "locus": asdict(locus),
        "numerical_locus": asdict(estimate),
        "decay_exponent": asym["decay_exponent"],
        "limit_constant": asym["limit_constant"],
        "origin_value": asym["origin_value"],
    }
