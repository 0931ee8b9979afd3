"""Residual evaluators for every form of the two nonlinear Dirac models.

Four equivalent presentations of the field equations are evaluated
independently and must all vanish on the closed-form solutions:

* the covector pair (chiral-angle equation and density equation),
* the four expanded scalars obtained by projecting that pair on r and theta,
* the reduced radial/angular system in the variable zeta = arcsinh(X),
* the standard gamma-matrix form i gamma^mu nabla_mu psi + nonlinearity.

Every form holds for any interpolation parameter p: the nonlinearity
(1/4)(Phi + i p Theta pi) of the standard form puts phi^2 (p + (1 - p)
cos^2 beta) in the chiral-angle equation and (1 - p) phi^2 cos beta in the
density equation, phi^2 alone and no density term for the chiral model
(p = 1), phi^2 cos^2 beta and phi^2 cos beta for the scalar one (p = 0).

Every form takes a GridPoint of floats (one point) or of arrays (a set of
points, such as a chunk of a grid sweep) and evaluates all of its points at
once; each ``residual_*`` returns the largest absolute component at each
point.
"""

from __future__ import annotations

import numpy as np

from . import clifford, geometry, polar
from .geometry import GridPoint
from .polar import ModelSpec

DEFAULT_MASK_MARGIN = 0.02
# Points per evaluation in a grid sweep.  Every call pays a fixed cost of
# many small numpy calls, so a larger chunk costs less per point, and
# memory sets the limit.  On 512 points the covector and standard forms
# peak at about 1.4 KB of allocations per point (tracemalloc), the
# expanded form at 0.25 KB and the reduced form at 0.16 KB, so a verify of
# a 70x50 grid peaks near 0.8 MB.
SWEEP_CHUNK = 512


def is_masked(pt: GridPoint, spec: ModelSpec, margin=DEFAULT_MASK_MARGIN):
    """Singular-region mask at each point: a shell margin for the scalar
    model, a ring margin (radius and equator jointly) whenever p > 0."""
    near_radius = np.abs(2.0 * spec.m * pt.r - 1.0) < margin
    near_equator = np.abs(np.cos(pt.theta)) < margin
    return near_radius & (near_equator | (spec.p == 0.0))


def _per_point_max(components):
    """Largest absolute component at each point; NaN if any is NaN."""
    return np.max(np.abs(np.stack(np.broadcast_arrays(*components))), axis=0)


def exact_fields(pt: GridPoint, spec: ModelSpec) -> polar.ClosedForm:
    """Closed-form fields of the model."""
    return polar.closed_form(pt, spec)


# -- expanded four-equation system -------------------------------------------


def expanded_components(pt: GridPoint, spec: ModelSpec):
    """Signed values of the four projected scalar equations."""
    f = exact_fields(pt, spec)
    r, th = pt.r, pt.theta
    m, p, E, l = spec.m, spec.p, spec.E, spec.l
    s, c = np.sin(th), np.cos(th)
    der, ang = f.derivs, f.ang
    common = -2.0 * E * r * ang.cosh_alpha + 2.0 * l * ang.sinh_alpha / s \
        + 2.0 * m * r * f.cos_beta
    mom = 2.0 * E * r * ang.sinh_alpha - 2.0 * l * ang.cosh_alpha / s
    bracket = common - r * f.phi2 * (p + (1.0 - p) * f.cos_beta**2)
    density_nl = -(1.0 - p) * r * f.phi2 * f.sin_beta * f.cos_beta
    beta_r = der.r_d_beta_dr + der.d_alpha_dtheta + bracket * ang.cos_gamma
    beta_theta = der.d_beta_dtheta - der.r_d_alpha_dr + bracket * ang.sin_gamma
    density_r = (
        f.r_dlnphi2_dr + 2.0 + 2.0 * m * r * ang.cos_gamma * f.sin_beta
        + density_nl * ang.cos_gamma + der.d_gamma_dtheta - mom * ang.sin_gamma
    )
    density_theta = (
        f.dlnphi2_dtheta + c / s + 2.0 * m * r * ang.sin_gamma * f.sin_beta
        + density_nl * ang.sin_gamma - der.r_d_gamma_dr + mom * ang.cos_gamma
    )
    return {
        "beta_r": beta_r,
        "beta_theta": beta_theta,
        "density_r": density_r,
        "density_theta": density_theta,
    }


def residual_expanded(pt: GridPoint, spec: ModelSpec):
    return _per_point_max(expanded_components(pt, spec).values())


# -- covector (polar) form -----------------------------------------------------


# The (a, n, i) indices of the 24 nonzero entries eps_{m a n i}, in the
# order of geometry.coordinate_epsilon_lower: lexicographic in (m, a, n, i),
# so entries 6m to 6m + 5 are those of the free index m.
_EPS_A, _EPS_N, _EPS_I = clifford.EPS4_INDEX[:, 1:].T


def _epsilon_sum(eps, terms):
    """eps_{m a n i} T_{a n i} summed over (a, n, i), shape (4,) + the
    points' shape.

    ``eps`` holds the 24 nonzero entries of geometry.coordinate_epsilon_lower
    and ``terms`` the factor T at their (a, n, i), both (24,) + the points'
    shape; ``terms`` is overwritten.  Each m adds its six products from zero
    in lexicographic (a, n, i) order, the order in which an einsum over the
    dense tensor adds them on an array of points; the dense tensor's zero
    entries only add zeros to a finite sum.  On a float point einsum
    vectorizes the sum in an order of its own, which gives the same float
    wherever at most two of the six products are nonzero, as on the
    closed-form solutions.
    """
    terms *= eps
    blocks = terms.reshape((4, 6) + terms.shape[1:])
    out = np.zeros((4,) + terms.shape[1:], dtype=terms.dtype)
    for j in range(6):
        out += blocks[:, j]
    return out


def covector_components(pt: GridPoint, spec: ModelSpec):
    """Signed components of the chiral-angle and density covector equations.

    The axial and trace contractions of the tensorial connection,

        B_mu = eps_{mu alpha nu iota} R^{alpha nu iota} / 2,
        R_mu = R_{mu nu}^{  nu},

    are built with the coordinate volume form sqrt|g| [t r theta phi] = +1;
    that normalization is pinned by the requirement that the exact solutions
    annihilate the equations, and is cross-checked against the expanded
    system (r- and theta-projections agree identically).  Both eps
    contractions run over the 24 nonzero entries of eps only, so no rank-3
    or rank-4 tensor is built per point beyond the connection itself.
    """
    f = exact_fields(pt, spec)
    m, p = spec.m, spec.p
    ang = f.ang
    g = geometry.inverse_metric_diagonal(pt)
    Rc = geometry.tensorial_connection_at(pt, ang)
    R_trace = np.einsum("n...,mnn...->m...", g, Rc)
    R_eps = Rc[_EPS_A, _EPS_N, _EPS_I]
    del Rc  # 64 values per point; dropping it keeps a chunk's peak low
    eps = geometry.coordinate_epsilon_lower(pt)
    u = geometry.velocity_covector(pt, ang)
    s_cov = geometry.spin_covector(pt, ang)
    P = geometry.momentum_covector(spec.E, spec.l)
    # eps_{mani} R^{ani}, R with its three indices raised: g^a g^n g^i R_ani
    R_up = g[_EPS_A]
    R_up *= g[_EPS_N]
    R_up *= g[_EPS_I]
    R_up *= R_eps
    del R_eps
    B = 0.5 * _epsilon_sum(eps, R_up)
    P_up = np.einsum("m...,m->m...", g, P)
    u_up = g * u
    s_up = g * s_cov
    Ps = np.einsum("m,m...->...", P, s_up)
    Pu = np.einsum("m,m...->...", P, u_up)
    der = f.derivs
    dbeta = np.stack(np.broadcast_arrays(
        0.0, der.r_d_beta_dr / pt.r, der.d_beta_dtheta, 0.0))
    dlnphi2 = np.stack(np.broadcast_arrays(
        0.0, f.r_dlnphi2_dr / pt.r, f.dlnphi2_dtheta, 0.0))
    nl_chiral = f.phi2 * (p + (1.0 - p) * f.cos_beta**2)
    nl_density = (1.0 - p) * f.phi2 * f.cos_beta
    chiral = (
        dbeta + B + 2.0 * Ps * u - 2.0 * Pu * s_cov
        + (2.0 * m * f.cos_beta - nl_chiral) * s_cov
    )
    # eps_{mrna} P^r u^n s^a
    Pus = P_up[_EPS_A]
    Pus *= u_up[_EPS_N]
    Pus *= s_up[_EPS_I]
    axial_term = -2.0 * _epsilon_sum(eps, Pus)
    density = (
        dlnphi2 + R_trace + axial_term + (2.0 * m - nl_density) * f.sin_beta * s_cov
    )
    return chiral, density


def residual_polar_covector(pt: GridPoint, spec: ModelSpec):
    """Larger Euclidean norm of the two covector equations (they must both
    vanish componentwise, so the norm choice only sets the reporting
    scale)."""
    chiral, density = covector_components(pt, spec)
    return _per_point_max([np.linalg.norm(chiral, axis=0),
                           np.linalg.norm(density, axis=0)])


# -- reduced system in zeta ----------------------------------------------------


def reduced_components(pt: GridPoint, spec: ModelSpec):
    """Signed residuals of the reduced radial/angular system.

    The profile zeta is read from polar.zeta_exact, with the density rebuilt
    from it, so a wrong profile propagates exactly as a wrong solution
    would; the density's log-derivatives are those of
    polar.module_log_derivatives, which reads the same profile.  The system
    is that of the radial family, r d_r zeta = 1 and d_theta zeta = 0, on
    which the two zeta equations lose their tan/cot terms: the radial one
    reads r d_r zeta = rhs and the angular one 0 = rhs - r d_r zeta.
    """
    r, th, p, m = pt.r, pt.theta, spec.p, spec.m
    c, s = np.cos(th), np.sin(th)
    z = polar.zeta_exact(r, spec)
    r_dz = 1.0
    sh, ch = np.sinh(z), np.cosh(z)
    D = sh * sh + c * c
    S = sh * sh + p * c * c
    phi2 = 2.0 * np.sqrt(D) / (r * S)
    r_dlog, dth_log = polar.module_log_derivatives(pt, spec)
    res1 = r_dlog - (
        (p - 1.0) * r * phi2 * sh * ch * c * c / D**1.5
        - 2.0
        + (2.0 * m * r * ch * c * c + 2.0 * m * r * s * s * sh
           - 2.0 * sh * ch) / D
    )
    res2 = dth_log - (
        (p - 1.0) * r * phi2 * s * c * sh * sh / D**1.5
        + (r_dz - 2.0 * m * r * ch + 2.0 * m * r * sh + 1.0) * s * c / D
    )
    rhs_common = S * r * phi2 / np.sqrt(D) + 2.0 * m * r * ch - 2.0 * m * r * sh - 2.0
    return {
        "module_radial": res1,
        "module_angular": res2,
        "zeta_radial": r_dz - rhs_common,
        "zeta_angular": -(rhs_common - r_dz),
    }


def residual_reduced(pt: GridPoint, spec: ModelSpec):
    return _per_point_max(reduced_components(pt, spec).values())


# -- standard gamma-matrix form -------------------------------------------------


def residual_standard(pt: GridPoint, spec: ModelSpec):
    """Largest component norm at each point of i gamma^mu nabla_mu psi
    + (1/4)(Phi + i p Theta pi) psi - m psi on the assembled spinor.

    Phi and Theta are recomputed from the spinor's own bilinears rather than
    from the polar formulas, so this residual exercises the whole chain:
    gamma basis, tetrads, spin connection, density, chiral angle and phase.
    """
    nabla, psi, f = polar.covariant_derivative(pt, spec)
    xi = geometry.tetrad_at(pt, f.ang)
    # gamma^a xi_a^mu nabla_mu psi, the frame contraction first
    nabla_frame = np.einsum("am...,mj...->aj...", xi, nabla)
    bl = clifford.bilinears(psi)
    dirac = 1j * np.einsum("aij,aj...->i...", clifford.GAMMA_STACK, nabla_frame)
    # (1/4)(Phi + i p Theta pi) is diagonal: one coefficient per component.
    # einsum rounds each complex product as two real products and a sum;
    # the multiply ufunc may fuse them and differ in the last bit.
    nonlinear = 0.25 * (
        bl.phi + 1j * spec.p * np.multiply.outer(clifford.PI_SIGNS, bl.theta))
    res = (dirac + np.einsum("i...,i...->i...", nonlinear, psi)
           - spec.m * psi)
    return np.max(np.abs(res), axis=0)


# -- grid sweeps ----------------------------------------------------------------


def sweep_grid(grid: GridPoint, spec: ModelSpec, margin=DEFAULT_MASK_MARGIN):
    """A grid prepared for sweeping: (chunks, n_points).

    ``grid`` holds its points as r and theta arrays of one shape, such as
    the (n_r, n_theta) arrays of grids.points.  It is masked in one call;
    ``chunks`` holds the unmasked points in C (for grids.points, r-major)
    order as GridPoints of at most SWEEP_CHUNK points, and ``n_points``
    counts every grid point, masked ones included.  verify builds this once
    and sweeps every grid suite over it.
    """
    keep = ~is_masked(grid, spec, margin)
    r, theta = grid.r[keep], grid.theta[keep]
    return ([GridPoint(r[i:i + SWEEP_CHUNK], theta[i:i + SWEEP_CHUNK])
             for i in range(0, r.size, SWEEP_CHUNK)], keep.size)


def sweep(grid, evaluate):
    """Statistics of a residual over the unmasked points of a grid that
    sweep_grid prepared.

    ``evaluate(pt)`` gets each chunk in order and returns the residual
    maxima of its points.  Returns the point and mask counts and the max,
    mean, median and 95th percentile of those maxima.  The reductions
    propagate NaN, so a non-finite residual anywhere on the grid reaches
    ``max`` and fails the suite.
    """
    chunks, n_points = grid
    values = np.concatenate([evaluate(pt) for pt in chunks] or [np.empty(0)])
    stats = {"n_points": n_points, "n_masked": n_points - values.size,
             "max": 0.0, "mean": 0.0, "median": 0.0, "q95": 0.0}
    if values.size:
        median, q95 = np.quantile(values, (0.5, 0.95)).tolist()
        stats.update(max=float(values.max()), mean=float(values.mean()),
                     median=median, q95=q95)
    return stats
