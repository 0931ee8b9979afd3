"""Polar variables of the closed-form solutions and the explicit spinor.

The radial profile of both models is X(r) = (1/2)(2mr - 1/(2mr)), which is
sinh(zeta) for zeta = ln(2mr); cosh zeta = sqrt(X^2 + 1) = r X'.  Every
quantity here reads the profile through X_exact.  The chiral angle and the
kinematic angles are algebraic in X and cos(theta); the particle density
phi^2 depends on the model through the interpolation parameter p in [0, 1]:

    phi^2 = 2 sqrt(X^2 + cos^2 theta) / (r [X^2 + p cos^2 theta])

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

from typing import NamedTuple

import numpy as np

from . import clifford, geometry, sparse
from .errors import SingularG, SingularPoint
from .geometry import AngleState, GridPoint
from .settings import ModelSpec


def X_exact(r, spec: ModelSpec):
    """Radial profile (u - 1/u)/2 = sinh(ln u), u = 2mr; vanishes at u = 1.

    Written as (u - 1)(u + 1)(0.5/u): next to u = 1 the difference u - 1
    is exact, so X keeps its full relative precision at the locus, where
    the spelling u - 1/u cancels.  Complex-analytic in r."""
    u = 2.0 * spec.m * r
    return (u - 1.0) * (u + 1.0) * (0.5 / u)


def G_exact(r, spec: ModelSpec):
    """Radial companion G = 2/(r X^2) of the scalar model at a radius or an
    array of radii; refuses the first where X = 0 to rounding (2mr = 1)."""
    X = X_exact(r, spec)
    at_zero = np.abs(X) < 1e-15 * np.maximum(1.0, 2.0 * spec.m * r)
    if np.any(at_zero):
        raise SingularG(float(np.asarray(r)[at_zero][0]), None,
                        "G = 2/(r X^2) with X = 0 at 2mr = 1")
    return 2.0 / (r * X * X)


def chiral_components(X, theta):
    """(sin beta, cos beta) of the chiral angle; tan beta = -cos(theta)/X."""
    c = np.cos(theta)
    return _chiral(X, c, np.sqrt(X * X + c * c))


def _chiral(X, c, q):
    """chiral_components from cos(theta) and q = sqrt(X^2 + cos^2 theta)."""
    return (-c / q, X / q)


def _refuse(pt: GridPoint, where, detail):
    """Raise SingularPoint at the first point of ``pt`` where ``where`` holds."""
    if np.any(where):
        raise SingularPoint(*pt.first(where), detail)


def angle_state(pt: GridPoint, spec: ModelSpec) -> AngleState:
    """AngleState of the closed-form branch, with analytic partials.

    On the ring X = 0, cos(theta) = 0 the parametrization quotients are 0/0;
    the ambiguity is removable along some paths but the locus is the physical
    singular ring, so evaluation refuses rather than picking a limit.  It
    stays complex-analytic in complex coordinates, so the identity residuals
    differentiate it by complex step.
    """
    X, c = X_exact(pt.r, spec), np.cos(pt.theta)
    X2 = X * X
    D = X2 + c * c
    _refuse(pt, np.real(D) <= 1e-28, "kinematic quotients are 0/0 on the ring")
    return _kinematics(pt, X, np.sqrt(X2 + 1.0), c, np.sin(pt.theta), D,
                       np.sqrt(D))


def _kinematics(pt: GridPoint, X, ch, c, s, D, q):
    """AngleState from the profile X, ch = cosh zeta = sqrt(X^2 + 1) = r X',
    cos(theta), sin(theta), D = X^2 + cos^2 theta and q = sqrt(D).  The
    rapidity and tilt quotients are sinh alpha = sin(theta)/q, cosh alpha =
    ch/q, sin gamma = X sin(theta)/q and cos gamma = ch cos(theta)/q."""
    return AngleState(
        sinh_alpha=s / q,
        cosh_alpha=ch / q,
        sin_gamma=X * s / q,
        cos_gamma=ch * c / q,
        d_alpha_dr=-X * s / D / pt.r,
        d_alpha_dtheta=ch * c / D,
        d_gamma_dr=c * s / D / pt.r,
        d_gamma_dtheta=X * ch / D,
    )


# -- matter distributions -----------------------------------------------------


def _phi2(r, q, S):
    """phi^2 = 2 q / (r S), q = sqrt(D), D = X^2 + cos^2 theta and S = X^2
    + p cos^2 theta."""
    return 2.0 * q / (r * S)


class Density(NamedTuple):
    """phi^2, its two log-derivatives and the point quantities they are
    built from: cos/sin theta, sh = X = sinh zeta, ch = cosh zeta = sqrt(X^2
    + 1), and D, q = sqrt(D) and S as in _phi2; each a float or an array of
    the points' shape."""

    c: float
    s: float
    sh: float
    ch: float
    D: float
    q: float
    S: float
    phi2: float
    r_dlnphi2_dr: float
    dlnphi2_dtheta: float


def density(pt: GridPoint, spec: ModelSpec) -> Density:
    """The density step of closed_form: the profile X, read through
    X_exact, cosh zeta = sqrt(X^2 + 1), cos/sin theta, D and its root, each
    once.  Raises SingularPoint, naming the first point, on the locus S = 0."""
    p, sh = spec.p, X_exact(pt.r, spec)
    c, s = np.cos(pt.theta), np.sin(pt.theta)
    sh2, c2 = sh * sh, c * c
    D, S = sh2 + c2, sh2 + p * c2
    _refuse(pt, np.real(S) <= 1e-28, "locus X^2 + p cos^2 theta = 0")
    ch, q = np.sqrt(sh2 + 1.0), np.sqrt(D)
    return Density(
        c=c, s=s, sh=sh, ch=ch, D=D, q=q, S=S, phi2=_phi2(pt.r, q, S),
        r_dlnphi2_dr=sh * ch * (1.0 / D - 2.0 / S) - 1.0,
        dlnphi2_dtheta=-s * c / D + 2.0 * p * s * c / S,
    )


def phi2_grid(spec: ModelSpec, r, theta):
    """Vectorized raw density of any model on arrays; no singularity checks."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        X2 = np.square(X_exact(r, spec))
        c2 = np.cos(theta) ** 2
        return _phi2(r, np.sqrt(X2 + c2), X2 + spec.p * c2)


class ClosedForm(NamedTuple):
    """The closed-form solution at a point or a set of points.

    The four grid forms, the polar decomposition and the spinor read this
    bundle; a sweep builds it once per chunk.  ``density`` (phi^2, its
    log-derivatives and cos/sin theta) depends on p, the chiral pair, the
    beta partials and ``ang`` (with the alpha and gamma partials) do not.
    Each field is a float or an array of the points' shape.
    """

    sin_beta: float
    cos_beta: float
    r_d_beta_dr: float
    d_beta_dtheta: float
    density: Density
    ang: AngleState


def closed_form(pt: GridPoint, spec: ModelSpec) -> ClosedForm:
    """The closed-form solution of the model at ``pt`` in one pass: the
    density step's X, cosh zeta, cos(theta), sin(theta), D and q feed the
    kinematics, the chiral pair and the beta partials.  Raises
    SingularPoint, naming the first point, on the density's singular locus
    S = 0, which holds the kinematics' ring D = 0 (S <= D for p in [0, 1])."""
    dens = density(pt, spec)
    X, c, s, D, q = dens.sh, dens.c, dens.s, dens.D, dens.q
    ang = _kinematics(pt, X, dens.ch, c, s, D, q)
    sb, cb = _chiral(X, c, q)
    # r d_r beta = d_theta alpha = ch cos(theta)/D, held as one array
    return ClosedForm(sin_beta=sb, cos_beta=cb,
                      r_d_beta_dr=ang.d_alpha_dtheta, d_beta_dtheta=X * s / D,
                      density=dens, ang=ang)


# -- explicit spinor ----------------------------------------------------------


def assemble_spinor(f: ClosedForm):
    """Rest-frame, spin-eigenstate spinor of the closed-form bundle f at
    t = 0 and azimuth 0, where its phase exp(-i(E t + l phi_az)) is 1.

    psi = phi exp(-i beta pi/2) (1, 0, 1, 0)^T

    The returned components carry flat (frame) indices: the boost to the
    moving frame lives entirely in the tetrads, so bilinears of this spinor
    give the rest-frame S^a and U^a; coordinate components need a tetrad
    contraction.  Shape (4,) + the points' shape.

    pi = diag(-1, -1, 1, 1), so the rotation exp(-i beta pi/2) leaves the
    two nonzero components phi exp(+-i beta/2), written here directly.
    """
    # the half angle of the (sin, cos) pair
    half = 0.5 * np.arctan2(f.sin_beta, f.cos_beta)
    phi = np.sqrt(f.density.phi2)
    re, im = phi * np.cos(half), phi * np.sin(half)
    psi = np.zeros((4,) + np.shape(re), dtype=np.result_type(re, 1j))
    psi.real[0] = psi.real[2] = re
    psi.imag[0] = im
    psi.imag[2] = -im
    return psi


def spinor_coordinate_partials(pt: GridPoint, f: ClosedForm, psi):
    """Analytic (d_r psi, d_theta psi) of the spinor psi assembled from the
    bundle f, from the log-derivative of the density and the chiral-angle
    partials: (d ln phi) psi - (i/2)(d beta) pi psi.

    Each is the sparse.Live of the spinor (layout (4,)) on the components
    i of psi that are nonzero at some point (sparse.live_rows), its
    entries named (i,), taken one row at a time, as
    clifford.spin_action takes them: numpy buffers a broadcast operand to
    the size of the whole product.  The partials of a component that is
    zero at every point are zero; a NaN is not zero.
    """
    d = f.density
    coefficients = (
        (0.5 * d.r_dlnphi2_dr / pt.r, 0.5j * (f.r_d_beta_dr / pt.r)),
        (0.5 * d.dlnphi2_dtheta, 0.5j * f.d_beta_dtheta))
    dtype = np.result_type(psi, *(c for pair in coefficients for c in pair))
    live = sparse.live_rows(psi).tolist()
    partials = [sparse.Live((4,), tuple((i,) for i in live), np.empty(
        (len(live),) + np.shape(psi)[1:], dtype=dtype)) for _ in coefficients]
    for n, i in enumerate(live):
        pipsi = clifford.PI_SIGNS[i] * psi[i]
        for partial, (ln_phi, beta) in zip(partials, coefficients):
            row = partial.values[n, ...]
            np.multiply(ln_phi, psi[i], out=row)
            row -= beta * pipsi
    return tuple(partials)


def covariant_derivative(pt: GridPoint, spec: ModelSpec, f: ClosedForm):
    """nabla_mu psi = d_mu psi + (1/2) C_{ab mu} sigma^{ab} psi.

    The coupling sign is +1 in this gamma basis: it is the sign for which
    the standard-form residual of the exact solutions vanishes, and the
    test suite pins it by showing that -C leaves a large residual.

    The (r, theta) partials of psi are the analytic ones of
    spinor_coordinate_partials, branch-free everywhere off the singular
    locus; the tests compare them with complex-step derivatives of psi.

    Returns (nabla psi stacked over mu, shape (4, 4) + the points' shape;
    psi), both built from the closed-form bundle f.

    Each partial d_mu psi is added in place to its row of the spin action,
    one live component at a time, so no stack of the four partials is built
    beside the result, and the two phase partials are added on the
    components of psi that are nonzero at some point, one at a time.
    """
    psi = assemble_spinor(f)
    nabla = clifford.spin_action(geometry.spin_connection_at(pt, f.ang), psi)
    for mu, partial in zip((geometry.R, geometry.TH),
                           spinor_coordinate_partials(pt, f, psi)):
        for (i,), row in zip(partial.index, partial.values):
            nabla[mu, i] += row
    # the t and azimuth partials are the pure phases exp(-i(E t + l phi))
    for i in sparse.live_rows(psi):
        nabla[0, i] += -1j * spec.E * psi[i]
        nabla[3, i] += -1j * spec.l * psi[i]
    return nabla, psi


def polar_decomposition_residual(pt: GridPoint, spec: ModelSpec):
    """Largest component, over mu, the spinor index and every point, of
    (direct nabla psi) minus its polar form

        (nabla_mu ln phi - i/2 nabla_mu beta pi - i P_mu
         - 1/2 R_{ij mu} sigma^{ij}) psi

    with the tensorial connection contracted into the frame.  Vanishes on
    the exact solutions; a perturbed momentum makes it rise, which is the
    sensitivity check on the phase content.  Returns one float, the
    maximum over all points, which propagates NaN.
    """
    f = closed_form(pt, spec)
    nabla, psi = covariant_derivative(pt, spec, f)
    dlnphi = sparse.dense(geometry.gradient_covector(
        0.5 * f.density.r_dlnphi2_dr / pt.r, 0.5 * f.density.dlnphi2_dtheta),
        pt.shape)
    dbeta = sparse.dense(geometry.gradient_covector(
        f.r_d_beta_dr / pt.r, f.d_beta_dtheta), pt.shape)
    P = geometry.momentum_covector(spec.E, spec.l)
    xi = sparse.dense(geometry.tetrad_at(pt, f.ang), pt.shape)
    R_frame = np.einsum("bp...,npm...->nbm...", xi, sparse.dense(
        clifford.unpaired(geometry.tensorial_connection_at(pt, f.ang)),
        pt.shape))
    R_flat = np.einsum("an...,nbm...->abm...", xi, R_frame)
    # the framed connection's pairs, (1/2)(R_ab - R_ba): the two frame
    # contractions need not keep its antisymmetry to the last bit
    a, b = clifford.PAIR_A, clifford.PAIR_B
    R_pairs = (R_flat[a, b] - R_flat[b, a]) * 0.5
    pipsi = clifford.pi_action(psi)
    rhs = (np.einsum("m...,i...->mi...", dlnphi, psi)
           - 0.5j * np.einsum("m...,i...->mi...", dbeta, pipsi)
           - 1j * np.einsum("m,i...->mi...", P, psi)
           - clifford.spin_action(sparse.live(R_pairs, (6, 4)), psi))
    return float(np.max(np.abs(nabla - rhs)))
