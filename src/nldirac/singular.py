"""Singular regions and asymptotics of the matter distributions.

Both models blow up on the Compton-scale radius 2mr = 1, but with different
symmetry: any chiral admixture (p > 0) confines the divergence to the
equatorial plane, leaving a ring; the purely scalar model (p = 0) keeps the
whole sphere.  The origin is regular (phi^2 -> 8m) and both densities fall
off like 1/r^2, with phi^2 r^2 -> 2/m.

Everything here evaluates in Python floats with math, through the
arithmetic of formulas that polar.phi2_grid reads on arrays, so it agrees
with phi2_grid bit for bit and a command that reads only this layer loads
no numpy.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import formulas
from .settings import ModelSpec

APPROACH_DISTANCES = (1e-11, 1e-12)  # d of r = rc (1 -+ d), outer first
# m r of the decay fit's radii: 40 log-spaced from 10 to 1000, both exact
DECAY_SCALES = tuple(10.0 * 100.0 ** (k / 39) for k in range(40))


class SingularLocus(NamedTuple):
    """Analytic description of the divergence set."""

    kind: str  # "ring" | "shell" | "none"
    radius: float
    angular_constraint: str | None  # e.g. "cos(theta) = 0"


class LocusEstimate(NamedTuple):
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


def phi2_samples(spec: ModelSpec, radii, thetas):
    """phi^2 at the points (radii[i], thetas[i]), a list of floats; raises
    FloatingPointError, naming the mass, if a sample is not finite and
    nonzero (r S or r over- or underflowed).  A zero divisor, where
    phi2_grid would read inf or nan, is refused the same way."""
    m, p = spec.m, spec.p
    try:
        phi2 = [formulas.raw_density(r, formulas.profile(r, m), math.cos(t),
                                     p, math.sqrt)
                for r, t in zip(radii, thetas)]
        if all(math.isfinite(v) and v != 0.0 for v in phi2):
            return phi2
    except ZeroDivisionError:
        pass
    raise FloatingPointError(f"phi^2 over- or underflows at mass {m!r}")


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
    # four paths, the equator inside and outside rc, then pi/4 inside and
    # outside, each sampled at every distance, the farthest first
    paths = [(side, theta) for theta in (math.pi / 2, math.pi / 4)
             for side in (-1.0, 1.0)]
    radii = [rc * (1.0 + side * d) for side, _ in paths
             for d in APPROACH_DISTANCES]
    phi2 = phi2_samples(spec, radii, [theta for _, theta in paths
                                      for _ in APPROACH_DISTANCES])
    order = [math.log10(near / far) for far, near in zip(phi2[::2],
                                                          phi2[1::2])]
    diverged = min(order[:2]) > 0.5
    kind = ("none" if not diverged else "shell" if max(order[2:]) > 1.0
            else "ring")
    (r0, r1), (y0, y1) = radii[2:4], (1.0 / phi2[2], 1.0 / phi2[3])
    ring = kind == "ring"
    return LocusEstimate(
        kind=kind,
        radius=r1 - (r1 - r0) * (y1 / (y1 - y0)) if diverged else None,
        radius_uncertainty=rc * APPROACH_DISTANCES[-1],
        theta=math.pi / 2 if ring else None,
        theta_uncertainty=math.pi / 4 if ring else None,
        diverged=diverged,
        refinements=len(APPROACH_DISTANCES),
    )


def decay_fit(spec: ModelSpec):
    """Least-squares slope of ln phi^2 against ln r at the radii
    DECAY_SCALES / m (10/m to 1000/m) at theta = pi/4, in closed form
    from the centred logarithms, each sum taken by math.fsum.

    Returns (exponent, amplitude): phi^2 ~ amplitude * r^exponent.
    """
    radii = [scale / spec.m for scale in DECAY_SCALES]
    phi2 = phi2_samples(spec, radii, [math.pi / 4] * len(radii))
    x, y = [math.log(r) for r in radii], [math.log(v) for v in phi2]
    x_mean, y_mean = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [v - x_mean for v in x]
    slope = (math.fsum(d * (v - y_mean) for d, v in zip(dx, y))
             / math.fsum(d * d for d in dx))
    return slope, math.exp(y_mean - slope * x_mean)


def asymptotics_report(spec: ModelSpec):
    """The fitted decay exponent, the limit 2/m of phi^2 r^2 (approached with
    an O(1/r^2) error), and phi^2 near the origin with its finite limit 8m,
    the same for both models.
    """
    exponent, _ = decay_fit(spec)
    origin, = phi2_samples(spec, [1e-6 / spec.m], [math.pi / 3])
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
        "locus": locus._asdict(),
        "numerical_locus": estimate._asdict(),
        "decay_exponent": asym["decay_exponent"],
        "limit_constant": asym["limit_constant"],
        "origin_value": asym["origin_value"],
    }
