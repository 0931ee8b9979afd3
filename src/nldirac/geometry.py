"""Flat spherical background: metric, connection, frames and their identities.

Coordinates are ordered (t, r, theta, phi) with signature (+, -, -, -):

    g_tt = 1,  g_rr = -1,  g_thth = -r^2,  g_phph = -r^2 sin^2(theta)

The motion of the spinor fluid is encoded in two angles: a rapidity ``alpha``
boosting along the azimuthal direction and a tilt ``gamma`` rotating the spin
axis in the (r, theta) plane.  Everything downstream (tetrads, spin
connection, tensorial connection) is an explicit closed form in those angles
and their first partials, collected in :class:`AngleState`.

Every builder takes a GridPoint of floats (one point) or of arrays (a set
of points, such as a grid row) and puts the point axes after the tensor
axes: (4,) + shape for a covector, (4, 4) + shape for a rank-2 field.  The
identity residuals at the end of the module differentiate by complex step,
so the builders take the dtype of their inputs.

Orientation: the coordinate volume form is eps_{t r theta phi} = +r^2 sin
(theta), matching the flat eps_{0123} = +1 through the tetrads below, whose
determinant is +r^2 sin(theta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import EPS4_SIGN
from .errors import PoleOrOrigin

T, R, TH, PH = 0, 1, 2, 3
CS_STEP = 1e-30  # imaginary step of every complex-step partial (in r, <= 1e-20 r)


@dataclass(frozen=True)
class GridPoint:
    """A point of the (r, theta) half-plane, poles and origin excluded, or a
    set of such points when ``r`` and ``theta`` are arrays."""

    r: float
    theta: float

    def __post_init__(self):
        r_ok = np.greater(np.real(self.r), 0.0)
        if not np.all(r_ok):
            raise PoleOrOrigin("radial coordinate must be positive, got "
                               f"{self.first(~r_ok)[0]!r}")
        theta = np.real(self.theta)
        theta_ok = np.greater(theta, 0.0) & np.less(theta, np.pi)
        if not np.all(theta_ok):
            raise PoleOrOrigin("polar angle must lie strictly between 0 and pi, "
                               f"got {self.first(~theta_ok)[1]!r}")

    @property
    def shape(self):
        """Shape of the point axes; () for a single point."""
        return np.broadcast(self.r, self.theta).shape

    def first(self, where):
        """(r, theta) as floats of the first point at which ``where`` holds."""
        r, theta, where = np.broadcast_arrays(self.r, self.theta, where)
        i = np.argmax(where)
        return r.flat[i].item(), theta.flat[i].item()


@dataclass(frozen=True)
class AngleState:
    """Velocity rapidity and spin tilt at a point, through their components.

    The angles only ever enter through sinh/cosh and sin/cos, so those are
    stored directly; partials default to zero (static frame).  Each field is
    a float or an array of the points' shape.
    """

    sinh_alpha: float
    cosh_alpha: float
    sin_gamma: float
    cos_gamma: float
    d_alpha_dr: float = 0.0
    d_alpha_dtheta: float = 0.0
    d_gamma_dr: float = 0.0
    d_gamma_dtheta: float = 0.0


# -- metric and Levi-Civita connection --------------------------------------


def _zeros(lead, pt: GridPoint, *values):
    """Zeros of shape ``lead`` + the points' shape, with the dtype of the
    coordinates and ``values``: complex under a complex-step partial, float64
    otherwise."""
    return np.zeros(lead + pt.shape, dtype=np.result_type(pt.r, pt.theta, *values))


def _diagonal(pt: GridPoint, entries):
    out = _zeros((4, 4), pt, *entries)
    for i, value in enumerate(entries):
        out[i, i] = value
    return out


def inverse_metric_at(pt: GridPoint):
    r, th = pt.r, pt.theta
    return _diagonal(pt, [1.0, -1.0, -1.0 / (r * r), -1.0 / (r * np.sin(th)) ** 2])


def inverse_metric_diagonal(pt: GridPoint):
    """g^{mu mu}, shape (4,) + the points' shape: the metric is diagonal, so
    raising an index is a multiplication by this, with no sum over zeros."""
    return np.einsum("mm...->m...", inverse_metric_at(pt))


def sqrt_abs_g(pt: GridPoint):
    return pt.r**2 * np.sin(pt.theta)


def christoffel_at(pt: GridPoint):
    """Connection coefficients Lam[rho, mu, nu] = Lambda^rho_{mu nu}.

    Exactly six independent families are nonzero; symmetric in (mu, nu).
    Complex coordinates give complex coefficients, for riemann_at's
    complex-step partials.
    """
    r, th = pt.r, pt.theta
    lam = _zeros((4, 4, 4), pt)
    lam[TH, TH, R] = lam[TH, R, TH] = 1.0 / r
    lam[R, TH, TH] = -r
    lam[PH, PH, R] = lam[PH, R, PH] = 1.0 / r
    lam[R, PH, PH] = -r * np.sin(th) ** 2
    lam[PH, PH, TH] = lam[PH, TH, PH] = np.cos(th) / np.sin(th)
    lam[TH, PH, PH] = -np.cos(th) * np.sin(th)
    return lam


def riemann_at(pt: GridPoint):
    """Riemann tensor of the connection; identically zero here.

    Assembled from the closed-form coefficients and their complex-step
    partials, so the result is a pure rounding check of flatness.
    """
    lam = christoffel_at(pt)
    dlam = _coordinate_partials(christoffel_at, pt)
    # R^rho_{sigma mu nu} = d_mu Lam^rho_{nu sigma} - d_nu Lam^rho_{mu sigma}
    #                       + Lam^rho_{mu lam} Lam^lam_{nu sigma} - (mu <-> nu)
    term = (np.einsum("mrns...->rsmn...", dlam)
            - np.einsum("nrms...->rsmn...", dlam))
    prod = (np.einsum("rml...,lns...->rsmn...", lam, lam)
            - np.einsum("rnl...,lms...->rsmn...", lam, lam))
    return term + prod


# -- covectors of the spinor fluid -------------------------------------------


def velocity_covector(pt: GridPoint, ang: AngleState):
    """u_mu: unit timelike, boosted along phi."""
    u = _zeros((4,), pt, *vars(ang).values())
    u[T] = ang.cosh_alpha
    u[PH] = pt.r * np.sin(pt.theta) * ang.sinh_alpha
    return u


def spin_covector(pt: GridPoint, ang: AngleState):
    """s_mu: unit spacelike, tilted in the (r, theta) plane, orthogonal to u."""
    s = _zeros((4,), pt, *vars(ang).values())
    s[R] = ang.cos_gamma
    s[TH] = pt.r * ang.sin_gamma
    return s


def momentum_covector(energy, angular_momentum):
    """Constant phase gradient P_mu = (E, 0, 0, l)."""
    return np.array([energy, 0.0, 0.0, angular_momentum])


# -- tensorial connection, tetrads, spin connection --------------------------


def tensorial_connection_at(pt: GridPoint, ang: AngleState):
    """Coordinate components R[nu, rho, mu] = R_{nu rho mu}, antisymmetric
    in the first pair; unlisted independent components are zero."""
    r, th = pt.r, pt.theta
    s_, c_ = np.sin(th), np.cos(th)
    R_ = _zeros((4, 4, 4), pt, *vars(ang).values())

    def put(n, p, mu, v):
        R_[n, p, mu] = v
        R_[p, n, mu] = -v

    put(TH, PH, PH, -r * r * c_ * s_)
    put(R, PH, PH, -r * s_ * s_)
    put(R, TH, TH, -r * (1.0 + ang.d_gamma_dtheta))
    put(TH, R, R, r * ang.d_gamma_dr)
    put(T, PH, TH, r * s_ * ang.d_alpha_dtheta)
    put(T, PH, R, r * s_ * ang.d_alpha_dr)
    return R_


def tetrad_at(pt: GridPoint, ang: AngleState):
    """Frame vectors xi[a, mu] = xi_a^mu (flat index first)."""
    r, th = pt.r, pt.theta
    xi = _zeros((4, 4), pt, *vars(ang).values())
    xi[0, T] = ang.cosh_alpha
    xi[2, T] = -ang.sinh_alpha
    xi[1, R] = ang.sin_gamma
    xi[3, R] = -ang.cos_gamma
    xi[1, TH] = -ang.cos_gamma / r
    xi[3, TH] = -ang.sin_gamma / r
    xi[0, PH] = -ang.sinh_alpha / (r * np.sin(th))
    xi[2, PH] = ang.cosh_alpha / (r * np.sin(th))
    return xi


def spin_connection_at(pt: GridPoint, ang: AngleState):
    """Spin connection C[a, b, mu] = C_{ab mu} compatible with the tetrad.

    Twelve nonzero components (six independent), antisymmetric in (a, b).
    The trig sums cos/sin(theta + gamma) come from the composition of the
    coordinate rotation with the spin tilt.
    """
    th = pt.theta
    ctg = np.cos(th) * ang.cos_gamma - np.sin(th) * ang.sin_gamma
    stg = np.sin(th) * ang.cos_gamma + np.cos(th) * ang.sin_gamma
    C = _zeros((4, 4, 4), pt, *vars(ang).values())

    def put(a, b, mu, v):
        C[a, b, mu] = v
        C[b, a, mu] = -v

    put(0, 2, R, -ang.d_alpha_dr)
    put(0, 2, TH, -ang.d_alpha_dtheta)
    put(1, 3, R, -ang.d_gamma_dr)
    put(1, 3, TH, -(1.0 + ang.d_gamma_dtheta))
    put(0, 1, PH, -ctg * ang.sinh_alpha)
    put(0, 3, PH, -stg * ang.sinh_alpha)
    put(2, 3, PH, stg * ang.cosh_alpha)
    put(1, 2, PH, -ctg * ang.cosh_alpha)
    return C


def coordinate_epsilon_lower(pt: GridPoint):
    """The 24 nonzero entries of eps_{mu nu rho sigma} = sqrt|g| [mu nu rho
    sigma], [t r theta phi] = +1, shape (24,) + the points' shape.

    Entry k sits at the indices clifford.EPS4_INDEX[k], the permutations of
    (t, r, theta, phi) in lexicographic order; every other entry is zero.
    """
    return np.multiply.outer(EPS4_SIGN, sqrt_abs_g(pt))


# -- identity residuals -------------------------------------------------------


def complex_step_partials(f, pt: GridPoint):
    """(d f/dr, d f/dtheta) of a field ``f(pt)`` of a GridPoint at each
    point, each as Im f(x + i h) / h.

    The theta step is CS_STEP; the r step is CS_STEP bounded by 1e-20 r, so
    that it stays far below r at any mass.  Exact to rounding, with no
    cancellation, for any f that is complex-analytic in the coordinates
    near the real point.  ``abs`` or ``np.real`` on the differentiated path
    silently drops the derivative, and ``arctan2`` refuses complex input.
    """
    h_r = np.minimum(CS_STEP, 1e-20 * pt.r)
    return (np.imag(f(GridPoint(pt.r + 1j * h_r, pt.theta))) / h_r,
            np.imag(f(GridPoint(pt.r, pt.theta + 1j * CS_STEP))) / CS_STEP)


def _coordinate_partials(f, pt: GridPoint):
    """d_mu f stacked over mu (leading axis); only d_r and d_theta are
    nonzero on the stationary, axisymmetric fields checked here."""
    d_dr, d_dth = complex_step_partials(f, pt)
    d = np.zeros((4,) + np.shape(d_dr), dtype=np.result_type(d_dr, d_dth))
    d[R] = d_dr
    d[TH] = d_dth
    return d


def transport_residuals(pt: GridPoint, angle_field):
    """Max violation of nabla_mu v_nu = v^rho R_{rho nu mu} for v in {s, u}.

    ``angle_field(pt)`` returns the AngleState at a GridPoint.  The
    covectors are differentiated by complex step, while the tensorial
    connection is built from the state's analytic partials, so a wrong
    partial shows here.  Returns (spin violation, velocity violation), each
    the largest over the points.
    """

    def covectors(p):
        ang = angle_field(p)
        return np.stack([spin_covector(p, ang), velocity_covector(p, ang)])

    vecs = covectors(pt)  # [v, nu] for v in (s, u)
    lam = christoffel_at(pt)
    R_ = tensorial_connection_at(pt, angle_field(pt))
    cov = (_coordinate_partials(covectors, pt)
           - np.einsum("rnm...,vr...->mvn...", lam, vecs))
    vecs_up = vecs * inverse_metric_diagonal(pt)
    rhs = np.einsum("vr...,rnm...->mvn...", vecs_up, R_)
    # the largest violation of each covector over mu, nu and the points
    ws, wu = np.max(np.moveaxis(np.abs(cov - rhs), 1, 0).reshape(2, -1),
                    axis=1)
    return float(ws), float(wu)


def curvature_strength_residuals(pt: GridPoint, angle_field):
    """Residual norm of the curvature identity on a flat background.

    ``angle_field(pt)`` returns the AngleState of the tilt and boost angles
    at a GridPoint, from which the tensorial connection R_{nu rho mu} is
    built.  The mixed-index curvature of R,

        nabla_mu R^i_{j nu} - nabla_nu R^i_{j mu}
        + R^i_{k mu} R^k_{j nu} - R^i_{k nu} R^k_{j mu}

    must vanish (zero spacetime curvature).  Derivatives are complex-step
    partials.  The strength, the curl of the momentum covector
    P = (E, 0, 0, l), is not computed: P is constant, so its curl vanishes
    identically on every model, and a wrong E or l shows in the forms and
    the decomposition instead.  Returns the norm, the largest over the
    points, as a one-tuple.
    """

    def mixed(p):
        return (inverse_metric_diagonal(p)[:, None, None]
                * tensorial_connection_at(p, angle_field(p)))

    dR = _coordinate_partials(mixed, pt)
    Rm = mixed(pt)
    lam = christoffel_at(pt)
    cov = (
        dR
        + np.einsum("ism...,sjn...->mijn...", lam, Rm)
        - np.einsum("sjm...,isn...->mijn...", lam, Rm)
        - np.einsum("snm...,ijs...->mijn...", lam, Rm)
    )
    curv = (
        np.einsum("mijn...->ijmn...", cov)
        - np.einsum("nijm...->ijmn...", cov)
        + np.einsum("ikm...,kjn...->ijmn...", Rm, Rm)
        - np.einsum("ikn...,kjm...->ijmn...", Rm, Rm)
    )
    return (float(np.max(np.abs(curv))),)
