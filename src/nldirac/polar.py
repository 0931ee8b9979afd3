"""Polar variables of the closed-form solutions and the explicit spinor.

The radial profile of both models is X(r) = (1/2)(2mr - 1/(2mr)), which is
sinh(zeta) for zeta = ln(2mr).  The chiral angle and the kinematic angles are
algebraic in X and cos(theta); the particle density phi^2 depends on the
model through the interpolation parameter p in [0, 1]:

    phi^2 = 2 sqrt(sinh^2 zeta + cos^2 theta) / (r [sinh^2 zeta + p cos^2 theta])

with p = 1 the chiral (Nambu--Jona-Lasinio) density and p = 0 the purely
scalar (Soler) density, where it factorizes as sqrt(X^2 + cos^2 theta) G(r)
with G = 2/(r X^2).

The chiral angle beta is kept as its (sin, cos) pair throughout: X changes
sign on the sphere 2mr = 1 and an unwrapped angle would hit a branch cut
there.

Everything here takes one GridPoint or a set of them (a grid row) and puts
the point axes after the spinor and tensor axes, as geometry does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import clifford, geometry
from .errors import SingularG, SingularPoint
from .geometry import AngleState, GridPoint


ENDPOINTS = {"njl": 1.0, "soler": 0.0}


@dataclass(frozen=True)
class ModelSpec:
    """Mass, interpolation parameter, quantum numbers and name of a model run.

    E defaults to the mass and l to one half: the only values the chiral
    model admits, and the ones the closed-form solutions carry.

    ``name`` is the model's one identity: "njl" (p = 1), "soler" (p = 0) or
    "p:<p:g>" for an interpolating run.  It defaults to the endpoint name at
    p = 1 and p = 0; an interpolating run at an endpoint value keeps its
    "p:" name and uses the general density formula.
    """

    m: float = 1.0
    p: float = 1.0
    E: float = None
    l: float = 0.5
    name: str = None

    def __post_init__(self):
        if not self.m > 0:
            raise ValueError(f"mass must be positive, got {self.m!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"interpolation parameter must lie in [0,1], got {self.p!r}")
        if self.E is None:
            object.__setattr__(self, "E", self.m)
        endpoint = next((n for n, p in ENDPOINTS.items() if p == self.p), None)
        if self.name is None:
            object.__setattr__(self, "name", endpoint or f"p:{self.p:g}")
        elif self.name not in (endpoint, f"p:{self.p:g}"):
            raise ValueError(f"model name {self.name!r} does not match p = {self.p!r}")

    @classmethod
    def njl(cls, m=1.0, **kw):
        return cls(m=m, p=1.0, **kw)

    @classmethod
    def soler(cls, m=1.0, **kw):
        return cls(m=m, p=0.0, **kw)

    @classmethod
    def interpolating(cls, p, m=1.0, **kw):
        return cls(m=m, p=p, name=f"p:{p:g}", **kw)


def X_exact(r, spec: ModelSpec):
    """Radial profile (2mr - 1/(2mr))/2 = sinh(ln 2mr); vanishes at 2mr = 1."""
    u = 2.0 * spec.m * r
    return 0.5 * (u - 1.0 / u)


def zeta_exact(r, spec: ModelSpec):
    return np.log(2.0 * spec.m * r)


def r_dX_dr_exact(r, spec: ModelSpec):
    """r X'(r) = cosh(ln 2mr) on the closed-form branch."""
    u = 2.0 * spec.m * r
    return 0.5 * (u + 1.0 / u)


def G_exact(r, spec: ModelSpec):
    """Radial companion G = 2/(r X^2) of the scalar model."""
    X = X_exact(r, spec)
    if X == 0.0 or abs(X) < 1e-15 * max(1.0, 2.0 * spec.m * r):
        raise SingularG(r, None, "G = 2/(r X^2) with X = 0 at 2mr = 1")
    return 2.0 / (r * X * X)


def chiral_components(X, theta):
    """(sin beta, cos beta) of the chiral angle; tan beta = -cos(theta)/X."""
    c = np.cos(theta)
    q = np.sqrt(X * X + c * c)
    return (-c / q, X / q)


@dataclass(frozen=True)
class PolarDerivatives:
    """First partials of the tilt, rapidity and chiral angle.

    All six follow from the parametrization by direct differentiation; the
    radial ones carry the profile only through r X'(r).
    """

    d_gamma_dtheta: float
    r_d_gamma_dr: float
    d_alpha_dtheta: float
    r_d_alpha_dr: float
    d_beta_dtheta: float
    r_d_beta_dr: float


def analytic_derivatives(X, r_dX_dr, theta):
    """Closed-form partials of gamma, alpha, beta for a radial profile X(r)."""
    c, s = np.cos(theta), np.sin(theta)
    D = X * X + c * c
    ch = np.sqrt(X * X + 1.0)
    F = r_dX_dr / ch
    return PolarDerivatives(
        d_gamma_dtheta=X * ch / D,
        r_d_gamma_dr=c * s * F / D,
        d_alpha_dtheta=ch * c / D,
        r_d_alpha_dr=-X * s * F / D,
        d_beta_dtheta=X * s / D,
        r_d_beta_dr=r_dX_dr * c / D,
    )


def _refuse(pt: GridPoint, where, detail):
    """Raise SingularPoint at the first point of ``pt`` where ``where`` holds."""
    if np.any(where):
        raise SingularPoint(*pt.first(where), detail)


def angle_state(pt: GridPoint, spec: ModelSpec) -> AngleState:
    """AngleState of the closed-form branch, with analytic partials.

    On the ring X = 0, cos(theta) = 0 the parametrization quotients are 0/0;
    the ambiguity is removable along some paths but the locus is the physical
    singular ring, so evaluation refuses rather than picking a limit.
    """
    X = X_exact(pt.r, spec)
    _refuse(pt, np.real(X * X + np.cos(pt.theta) ** 2) <= 1e-28,
            "kinematic quotients are 0/0 on the ring")
    d = analytic_derivatives(X, r_dX_dr_exact(pt.r, spec), pt.theta)
    return _angles(pt, X, d)


def _angles(pt: GridPoint, X, d: PolarDerivatives) -> AngleState:
    """AngleState from the profile value X and the partials d built on it."""
    sa, ca, sg, cg = geometry.velocity_spin_components(X, pt.theta)
    return AngleState(
        sinh_alpha=sa,
        cosh_alpha=ca,
        sin_gamma=sg,
        cos_gamma=cg,
        d_alpha_dr=d.r_d_alpha_dr / pt.r,
        d_alpha_dtheta=d.d_alpha_dtheta,
        d_gamma_dr=d.r_d_gamma_dr / pt.r,
        d_gamma_dtheta=d.d_gamma_dtheta,
    )


def angle_field(spec: ModelSpec):
    """Closed-form AngleState as a callable of raw (r, theta), the form the
    identity residuals differentiate by complex step: it accepts complex
    coordinates and stays complex-analytic in them."""

    def field(r, theta):
        return angle_state(GridPoint(r, theta), spec)

    return field


# -- matter distributions -----------------------------------------------------


def _radicand(r, theta, m):
    """16 m^4 r^4 + 8 m^2 r^2 cos 2theta + 1; vanishes only on the ring."""
    return 16.0 * m**4 * r**4 + 8.0 * m**2 * r**2 * np.cos(2.0 * theta) + 1.0


def _phi2_njl_raw(r, theta, m):
    return 8.0 * m / np.sqrt(_radicand(r, theta, m))


def _phi2_soler_raw(r, theta, m):
    return 8.0 * m * np.sqrt(_radicand(r, theta, m)) / (4.0 * m**2 * r**2 - 1.0) ** 2


def _phi2_general_raw(r, theta, m, p):
    sh = np.sinh(np.log(2.0 * m * r))
    c2 = np.cos(theta) ** 2
    return 2.0 * np.sqrt(sh * sh + c2) / (r * (sh * sh + p * c2))


def module_njl(pt: GridPoint, spec: ModelSpec):
    """Chiral-model density 8m / sqrt(16 m^4 r^4 + 8 m^2 r^2 cos 2theta + 1).

    Agrees with 2/(r sqrt(X^2 + cos^2 theta)) on the closed-form branch;
    diverges only on the equatorial ring 2mr = 1, theta = pi/2.
    """
    _refuse(pt, np.real(_radicand(pt.r, pt.theta, spec.m)) <= 1e-28,
            "equatorial ring 2mr = 1")
    return _phi2_njl_raw(pt.r, pt.theta, spec.m)


def module_soler(pt: GridPoint, spec: ModelSpec):
    """Scalar-model density; diverges on the whole sphere 2mr = 1."""
    _refuse(pt, np.real((4.0 * spec.m**2 * pt.r**2 - 1.0) ** 2) <= 1e-28,
            "singular sphere 2mr = 1")
    return _phi2_soler_raw(pt.r, pt.theta, spec.m)


def module_general_p(pt: GridPoint, spec: ModelSpec, p=None):
    """Interpolated density 2 sqrt(sh^2 + cos^2 th) / (r [sh^2 + p cos^2 th]).

    Reduces to module_njl at p = 1 and to module_soler at p = 0.
    """
    p = spec.p if p is None else p
    sh2 = np.sinh(zeta_exact(pt.r, spec)) ** 2
    _refuse(pt, np.real(sh2 + p * np.cos(pt.theta) ** 2) <= 1e-28,
            "locus sinh^2 zeta + p cos^2 theta = 0")
    return _phi2_general_raw(pt.r, pt.theta, spec.m, p)


def phi2_grid(spec: ModelSpec, r, theta):
    """Vectorized raw density on arrays; no singularity checks.

    The endpoint models use their own closed forms, an interpolating run the
    general one.
    """
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        if spec.name == "njl":
            return _phi2_njl_raw(r, theta, spec.m)
        if spec.name == "soler":
            return _phi2_soler_raw(r, theta, spec.m)
        return _phi2_general_raw(r, theta, spec.m, spec.p)


def module_log_derivatives(pt: GridPoint, spec: ModelSpec, p=None):
    """(r d_r ln phi^2, d_theta ln phi^2) of the interpolated density on the
    closed-form branch."""
    p = spec.p if p is None else p
    z = zeta_exact(pt.r, spec)
    sh, ch = np.sinh(z), np.cosh(z)
    c, s = np.cos(pt.theta), np.sin(pt.theta)
    D = sh * sh + c * c
    S = sh * sh + p * c * c
    r_dr = sh * ch * (1.0 / D - 2.0 / S) - 1.0
    d_th = -s * c / D + 2.0 * p * s * c / S
    return r_dr, d_th


@dataclass(frozen=True)
class ClosedForm:
    """The closed-form solution at a point or a set of points, each quantity
    evaluated once.

    Every equation form and the polar decomposition read this bundle; the
    density and its log-derivatives are those of the model with p = ``p``,
    the kinematic quantities (X, beta, alpha, gamma) are the same for all p.
    Each field is a float or an array of the points' shape.
    """

    X: float
    sin_beta: float
    cos_beta: float
    phi2: float
    r_dlnphi2_dr: float
    dlnphi2_dtheta: float
    derivs: PolarDerivatives
    ang: AngleState


def closed_form(pt: GridPoint, spec: ModelSpec, p=None) -> ClosedForm:
    """The closed-form solution at ``pt`` with density parameter p (default
    spec.p); raises SingularPoint, naming the first point, on the density's
    singular locus."""
    phi2 = module_general_p(pt, spec, p=p)
    X = X_exact(pt.r, spec)
    d = analytic_derivatives(X, r_dX_dr_exact(pt.r, spec), pt.theta)
    sb, cb = chiral_components(X, pt.theta)
    r_dlog, dth_log = module_log_derivatives(pt, spec, p=p)
    return ClosedForm(
        X=X, sin_beta=sb, cos_beta=cb,
        phi2=phi2, r_dlnphi2_dr=r_dlog, dlnphi2_dtheta=dth_log,
        derivs=d, ang=_angles(pt, X, d),
    )


# -- explicit spinor ----------------------------------------------------------


def assemble_spinor(pt: GridPoint, spec: ModelSpec, phi2=None, t=0.0,
                    azimuth=0.0):
    """Rest-frame, spin-eigenstate spinor of the closed-form solution.

    psi = phi exp(-i(E t + l phi_az)) exp(-i beta pi/2) (1, 0, 1, 0)^T

    The returned components carry flat (frame) indices: the boost to the
    moving frame lives entirely in the tetrads, so bilinears of this spinor
    give the rest-frame S^a and U^a; coordinate components need a tetrad
    contraction.  Shape (4,) + the points' shape.
    """
    if phi2 is None:
        phi2 = module_general_p(pt, spec)
    X = X_exact(pt.r, spec)
    sb, cb = chiral_components(X, pt.theta)
    # exp(-i beta pi / 2) via half-angle of the (sin, cos) pair
    half = 0.5 * np.arctan2(sb, cb)
    rot = (np.multiply.outer(clifford.IDENTITY, np.cos(half))
           - 1j * np.multiply.outer(clifford.PI, np.sin(half)))
    phase = np.exp(-1j * (spec.E * t + spec.l * azimuth))
    rest = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex)
    return np.sqrt(phi2) * phase * np.einsum("ij...,j->i...", rot, rest)


def spinor_coordinate_partials(pt: GridPoint, f: ClosedForm, psi):
    """Analytic (d_r psi, d_theta psi) of the spinor psi assembled from the
    bundle f, from the log-derivative of the density and the chiral-angle
    partials."""
    der = f.derivs
    pipsi = np.einsum("ij,j...->i...", clifford.PI, psi)
    return ((0.5 * f.r_dlnphi2_dr / pt.r) * psi
            - 0.5j * (der.r_d_beta_dr / pt.r) * pipsi,
            (0.5 * f.dlnphi2_dtheta) * psi - 0.5j * der.d_beta_dtheta * pipsi)


def covariant_derivative(pt: GridPoint, spec: ModelSpec, coupling_sign=1.0):
    """nabla_mu psi = d_mu psi + (sign/2) C_{ab mu} sigma^{ab} psi.

    The coupling sign is +1 in this gamma basis: it is the sign for which
    the standard-form residual of the exact solutions vanishes, and the
    test suite pins it by showing that -1 leaves a large residual.

    The (r, theta) partials of psi are the analytic ones of
    spinor_coordinate_partials, branch-free everywhere off the singular
    locus; the tests compare them with complex-step derivatives of psi.

    Returns (nabla psi stacked over mu, shape (4, 4) + the points' shape;
    psi; the ClosedForm bundle both are built from).
    """
    f = closed_form(pt, spec)
    psi = assemble_spinor(pt, spec, phi2=f.phi2)
    d_dr, d_dth = spinor_coordinate_partials(pt, f, psi)
    # the t and azimuth partials are the pure phases exp(-i(E t + l phi))
    dpsi = np.stack([-1j * spec.E * psi, d_dr, d_dth, -1j * spec.l * psi])
    C = geometry.spin_connection_at(pt, f.ang)
    spin = 0.5 * np.einsum("abm...,abij->mij...", C, clifford.SIGMA_UPPER_STACK)
    nabla = dpsi + coupling_sign * np.einsum("mij...,j...->mi...", spin, psi)
    return nabla, psi, f


def polar_decomposition_residual(pt: GridPoint, spec: ModelSpec,
                                 momentum_override=None):
    """Max component norm over mu of (direct nabla psi) minus its polar form

        (nabla_mu ln phi - i/2 nabla_mu beta pi - i P_mu
         - 1/2 R_{ij mu} sigma^{ij}) psi

    with the tensorial connection contracted into the frame, at each point.
    Vanishes on the exact solutions; a perturbed momentum makes it rise,
    which is the sensitivity check on the phase content.  The maximum
    propagates NaN.
    """
    nabla, psi, f = covariant_derivative(pt, spec)
    der = f.derivs
    dlnphi = np.stack(np.broadcast_arrays(
        0.0, 0.5 * f.r_dlnphi2_dr / pt.r, 0.5 * f.dlnphi2_dtheta, 0.0))
    dbeta = np.stack(np.broadcast_arrays(
        0.0, der.r_d_beta_dr / pt.r, der.d_beta_dtheta, 0.0))
    P = (
        np.asarray(momentum_override, dtype=float)
        if momentum_override is not None
        else geometry.momentum_covector(spec.E, spec.l)
    )
    xi = geometry.tetrad_at(pt, f.ang)
    R_flat = np.einsum("an...,bp...,npm...->abm...", xi, xi,
                       geometry.tensorial_connection_at(pt, f.ang))
    rmat = 0.5 * np.einsum("abm...,abij->mij...", R_flat,
                           clifford.SIGMA_UPPER_STACK)
    pipsi = np.einsum("ij,j...->i...", clifford.PI, psi)
    rhs = (np.einsum("m...,i...->mi...", dlnphi, psi)
           - 0.5j * np.einsum("m...,i...->mi...", dbeta, pipsi)
           - 1j * np.einsum("m,i...->mi...", P, psi)
           - np.einsum("mij...,j...->mi...", rmat, psi))
    return np.max(np.abs(nabla - rhs), axis=(0, 1))
