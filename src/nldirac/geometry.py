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

The builders of the fields (the Christoffel symbols, the covectors, the
tetrad, both connections and the Levi-Civita tensor) return the entries
their formulas write as a sparse.Live, each named by its index tuple, such
as (TH, TH, R), and no zeros: every consumer takes the entries that exist
from what the builder returns.  The two connections, the spin connection
C_{ab mu} and the tensorial connection R_{nu rho mu}, are antisymmetric in
their first two indices and are held as their pairs: the layout (6, 4),
entry (k, mu) the mu component of the k-th pair of clifford.PAIRS, (0, 1),
(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), of which 8 and 6 are live.
clifford.unpaired gives the Live of the tensor, layout (4, 4, 4), with
both signs of each live pair entry; a sampled suite that contracts it
densely expands that with sparse.dense.  The flatness and curvature
identities contract their fields by their live entries (see
nldirac.sparse).

Orientation: the coordinate volume form is eps_{t r theta phi} = +r^2 sin
(theta), matching the flat eps_{0123} = +1 through the tetrads below, whose
determinant is +r^2 sin(theta).
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .clifford import EPS4_INDEX, EPS4_SIGN, PAIR_INDEX, unpaired
from .errors import PoleOrOrigin
from .sparse import (Live, build, contract, dense, live_rows, permute,
                     signed_sum)

T, R, TH, PH = 0, 1, 2, 3
CS_STEP = 1e-30  # imaginary step of every complex-step partial (in r, <= 1e-20 r)


class _PointFields(NamedTuple):
    r: float
    theta: float


class GridPoint(_PointFields):
    """A point of the (r, theta) half-plane, poles and origin excluded, or a
    set of such points when ``r`` and ``theta`` are arrays.  It has no
    __slots__: the cached properties keep their values in its __dict__."""

    def __new__(cls, r, theta):
        self = super().__new__(cls, r, theta)
        r_ok = np.greater(np.real(self.r), 0.0)
        if not r_ok.all():
            raise PoleOrOrigin("radial coordinate must be positive, got "
                               f"{self.first(~r_ok)[0]!r}")
        theta = np.real(self.theta)
        theta_ok = np.greater(theta, 0.0) & np.less(theta, np.pi)
        if not theta_ok.all():
            raise PoleOrOrigin("polar angle must lie strictly between 0 and pi, "
                               f"got {self.first(~theta_ok)[1]!r}")
        return self

    @functools.cached_property
    def shape(self):
        """Shape of the point axes; () for a single point."""
        return np.broadcast(self.r, self.theta).shape

    @functools.cached_property
    def steps(self):
        """(h_r, the points under the r step, the points under the theta
        step) of complex_step_partials, built once per GridPoint."""
        h_r = np.minimum(CS_STEP, 1e-20 * self.r)
        return (h_r, GridPoint(self.r + 1j * h_r, self.theta),
                GridPoint(self.r, self.theta + 1j * CS_STEP))

    @functools.cached_property
    def christoffel(self):
        """christoffel_at of the points, built once per GridPoint: the
        sampled suites read it from the one sample of a verify."""
        return christoffel_at(self)

    def first(self, where):
        """(r, theta) as floats of the first point at which ``where`` holds."""
        r, theta, where = np.broadcast_arrays(self.r, self.theta, where)
        i = np.argmax(where)
        return r.flat[i].item(), theta.flat[i].item()


class AngleState(NamedTuple):
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


def _dtype(pt: GridPoint, *values):
    """The dtype of the coordinates and ``values``: complex under a
    complex-step partial, float64 otherwise."""
    return np.result_type(pt.r, pt.theta, *values)


def _field(shape, pt: GridPoint, ang: AngleState, entries):
    """The Live of the entries ``entries`` at the points (see
    sparse.build), with the dtype of the points and the angle state."""
    return build(shape, pt.shape, _dtype(pt, *ang), entries)


def inverse_metric_at(pt: GridPoint):
    """g^{mu mu}, shape (4,) + the points' shape: the metric is diagonal, so
    raising an index is a multiplication by this, with no sum over zeros."""
    r, th = pt.r, pt.theta
    entries = (1.0, -1.0, -1.0 / (r * r), -1.0 / (r * np.sin(th)) ** 2)
    out = np.empty((4,) + pt.shape, dtype=_dtype(pt, *entries))
    for mu, value in enumerate(entries):
        out[mu] = value
    return out


def sqrt_abs_g(pt: GridPoint):
    return pt.r**2 * np.sin(pt.theta)


def christoffel_at(pt: GridPoint):
    """Connection coefficients Lam[rho, mu, nu] = Lambda^rho_{mu nu}: the
    Live of the rank-3 tensor on its nine nonzero entries.

    Exactly six independent families are nonzero; symmetric in (mu, nu).
    Complex coordinates give complex coefficients, for riemann_at's
    complex-step partials.
    """
    r, s_, c_ = pt.r, np.sin(pt.theta), np.cos(pt.theta)
    inverse_r, cot = 1.0 / r, c_ / s_
    return build((4, 4, 4), pt.shape, _dtype(pt), (
        ((TH, TH, R), inverse_r), ((TH, R, TH), inverse_r),
        ((R, TH, TH), -r),
        ((PH, PH, R), inverse_r), ((PH, R, PH), inverse_r),
        ((R, PH, PH), -r * s_ ** 2),
        ((PH, PH, TH), cot), ((PH, TH, PH), cot),
        ((TH, PH, PH), -c_ * s_),
    ))


def riemann_at(pt: GridPoint):
    """Riemann tensor R[rho, sigma, mu, nu] of the connection, shape (4, 4,
    4, 4) + the points' shape; identically zero here.

    Assembled from the closed-form coefficients and their complex-step
    partials, so the result is a pure rounding check of flatness.  The
    products of coefficients are formed over their live entries alone (see
    nldirac.sparse).
    """
    lam = pt.christoffel
    dlam = _live_partials(christoffel_at, pt)
    # R^rho_{sigma mu nu} = d_mu Lam^rho_{nu sigma} - d_nu Lam^rho_{mu sigma}
    #                       + Lam^rho_{mu lam} Lam^lam_{nu sigma} - (mu <-> nu)
    # where the second product is the first with mu and nu swapped
    term = signed_sum((1, permute("mrns->rsmn", dlam)),
                      (-1, permute("nrms->rsmn", dlam)))
    prod = contract("rml,lns->rsmn", lam, lam)
    prod = signed_sum((1, prod), (-1, permute("rsnm->rsmn", prod)))
    return dense(signed_sum((1, term), (1, prod)), pt.shape)


# -- covectors of the spinor fluid -------------------------------------------


def velocity_covector(pt: GridPoint, ang: AngleState):
    """u_mu: unit timelike, boosted along phi; its t and phi entries."""
    return _field((4,), pt, ang, (
        ((T,), ang.cosh_alpha),
        ((PH,), pt.r * np.sin(pt.theta) * ang.sinh_alpha)))


def spin_covector(pt: GridPoint, ang: AngleState):
    """s_mu: unit spacelike, tilted in the (r, theta) plane, orthogonal to
    u; its r and theta entries."""
    return _field((4,), pt, ang, (((R,), ang.cos_gamma),
                                  ((TH,), pt.r * ang.sin_gamma)))


def momentum_covector(energy, angular_momentum):
    """Constant phase gradient P_mu = (E, 0, 0, l)."""
    return np.array([energy, 0.0, 0.0, angular_momentum])


def gradient_covector(d_dr, d_dtheta):
    """The gradient (0, d_r, d_theta, 0) of a stationary, axisymmetric
    field from its two partials: its r and theta entries."""
    return build((4,), np.broadcast_shapes(np.shape(d_dr), np.shape(d_dtheta)),
                 np.result_type(float, d_dr, d_dtheta),
                 (((R,), d_dr), ((TH,), d_dtheta)))


# -- tensorial connection, tetrads, spin connection --------------------------


def _connection(pt: GridPoint, ang: AngleState, components):
    """A connection in pair layout from its nonzero components, each
    ((a, b, mu), value) for C_{ab mu} = value and so C_{ba mu} = -value:
    the Live of those pair rows."""
    return _field((6, 4), pt, ang, [
        ((PAIR_INDEX[a, b], mu), value) if a < b
        else ((PAIR_INDEX[b, a], mu), -value)
        for (a, b, mu), value in components])


def tensorial_connection_at(pt: GridPoint, ang: AngleState):
    """Coordinate components R_{nu rho mu}, antisymmetric in (nu, rho), as
    their pairs (see the module docstring); unlisted independent components
    are zero."""
    r, th = pt.r, pt.theta
    s_, c_ = np.sin(th), np.cos(th)
    return _connection(pt, ang, (
        ((TH, PH, PH), -r * r * c_ * s_),
        ((R, PH, PH), -r * s_ * s_),
        ((R, TH, TH), -r * (1.0 + ang.d_gamma_dtheta)),
        ((TH, R, R), r * ang.d_gamma_dr),
        ((T, PH, TH), r * s_ * ang.d_alpha_dtheta),
        ((T, PH, R), r * s_ * ang.d_alpha_dr),
    ))


def tetrad_at(pt: GridPoint, ang: AngleState):
    """Frame vectors xi[a, mu] = xi_a^mu (flat index first): the Live of
    their eight nonzero components, two per frame vector."""
    r, th = pt.r, pt.theta
    r_sin = r * np.sin(th)
    return _field((4, 4), pt, ang, (
        ((0, T), ang.cosh_alpha),
        ((2, T), -ang.sinh_alpha),
        ((1, R), ang.sin_gamma),
        ((3, R), -ang.cos_gamma),
        ((1, TH), -ang.cos_gamma / r),
        ((3, TH), -ang.sin_gamma / r),
        ((0, PH), -ang.sinh_alpha / r_sin),
        ((2, PH), ang.cosh_alpha / r_sin),
    ))


def spin_connection_at(pt: GridPoint, ang: AngleState):
    """Spin connection C_{ab mu} compatible with the tetrad, antisymmetric
    in (a, b), as its pairs (see the module docstring).

    Eight nonzero pair entries.  The trig sums cos/sin(theta + gamma) come
    from the composition of the coordinate rotation with the spin tilt.
    """
    c, s = np.cos(pt.theta), np.sin(pt.theta)
    ctg = c * ang.cos_gamma - s * ang.sin_gamma
    stg = s * ang.cos_gamma + c * ang.sin_gamma
    return _connection(pt, ang, (
        ((0, 2, R), -ang.d_alpha_dr),
        ((0, 2, TH), -ang.d_alpha_dtheta),
        ((1, 3, R), -ang.d_gamma_dr),
        ((1, 3, TH), -(1.0 + ang.d_gamma_dtheta)),
        ((0, 1, PH), -ctg * ang.sinh_alpha),
        ((0, 3, PH), -stg * ang.sinh_alpha),
        ((2, 3, PH), stg * ang.cosh_alpha),
        ((1, 2, PH), -ctg * ang.cosh_alpha),
    ))


def coordinate_epsilon_lower(pt: GridPoint, mu):
    """The six nonzero entries eps_{mu nu rho sigma} of the first index
    ``mu`` of eps = sqrt|g| [mu nu rho sigma], [t r theta phi] = +1: a Live
    of the rank-4 tensor that holds those entries alone, the permutations
    of (t, r, theta, phi) that start with mu.  A contraction over eps takes
    it one first index at a time, so at most six of its 24 entries are
    held per point.
    """
    rows = slice(6 * mu, 6 * mu + 6)
    return Live((4, 4, 4, 4), EPS4_INDEX[rows],
                np.multiply.outer(EPS4_SIGN[rows], sqrt_abs_g(pt)))


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
    h_r, r_step, theta_step = pt.steps
    return (np.imag(f(r_step)) / h_r,
            np.imag(f(theta_step)) / CS_STEP)


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

    def covectors(p, ang):
        return np.stack([dense(spin_covector(p, ang), p.shape),
                         dense(velocity_covector(p, ang), p.shape)])

    ang = angle_field(pt)  # the state at the points, for both sides
    vecs = covectors(pt, ang)  # [v, nu] for v in (s, u)
    lam = dense(pt.christoffel, pt.shape)
    R_ = dense(unpaired(tensorial_connection_at(pt, ang)), pt.shape)
    cov = (_coordinate_partials(lambda p: covectors(p, angle_field(p)), pt)
           - np.einsum("rnm...,vr...->mvn...", lam, vecs))
    vecs_up = vecs * inverse_metric_at(pt)
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
    partials, and every product and sum runs over the live entries of its
    fields (see nldirac.sparse).  The strength, the curl of the momentum
    covector P = (E, 0, 0, l), is not computed: P is constant, so its curl
    vanishes identically on every model, and a wrong E or l shows in the
    forms and the decomposition instead.  Returns the norm, the largest
    over the points, as a one-tuple.
    """

    dR = _live_partials(lambda p: _mixed_connection(p, angle_field(p)), pt)
    Rm = _mixed_connection(pt, angle_field(pt))
    lam = pt.christoffel
    cov = signed_sum((1, dR), (1, contract("ism,sjn->mijn", lam, Rm)),
                     (-1, contract("sjm,isn->mijn", lam, Rm)),
                     (-1, contract("snm,ijs->mijn", lam, Rm)))
    # R^i_{k nu} R^k_{j mu} is the first product with mu and nu swapped
    prod = contract("ikm,kjn->ijmn", Rm, Rm)
    curv = signed_sum((1, permute("mijn->ijmn", cov)),
                      (-1, permute("nijm->ijmn", cov)),
                      (1, prod), (-1, permute("ijnm->ijmn", prod)))
    return (float(np.abs(curv.values).max(initial=0.0)),)


# -- the identities' fields by their live entries (see nldirac.sparse) -----


def _mixed_connection(pt: GridPoint, ang: AngleState):
    """The live entries of the mixed tensorial connection g^a R_{a b mu}:
    those of clifford.unpaired, each times the inverse metric at its first
    index."""
    R_ = unpaired(tensorial_connection_at(pt, ang))
    g = inverse_metric_at(pt)
    return Live(R_.shape, R_.index,
                g.take([a for a, _, _ in R_.index], axis=0) * R_.values)


def _live_partials(field, pt: GridPoint):
    """d_mu of a field stacked over mu (the leading index), ``field(p)``
    its live entries at a GridPoint p: d_r and d_theta by
    complex_step_partials, the only ones nonzero on the stationary,
    axisymmetric fields checked here, at the entries live at some point."""
    seen = []

    def values(p):
        seen.append(field(p))
        return seen[-1].values

    d_dr, d_dth = complex_step_partials(values, pt)
    index = [(R,) + indices for indices in seen[0].index]
    index += [(TH,) + indices for indices in seen[1].index]
    stacked = np.concatenate([d_dr, d_dth])
    keep = live_rows(stacked).tolist()
    return Live((4,) + seen[0].shape, tuple(index[k] for k in keep),
                stacked.take(keep, axis=0))
