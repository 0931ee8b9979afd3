"""Residual evaluators for every form of the two nonlinear Dirac models.

Four equivalent presentations of the field equations are evaluated
independently and must all vanish on the closed-form solutions:

* the covector pair (chiral-angle equation and density equation),
* the four expanded scalars obtained by projecting that pair on r and theta,
* the reduced radial/angular system in the variable zeta = arcsinh(X),
* the standard gamma-matrix form i gamma^mu nabla_mu psi + nonlinearity.

The chiral model couples through phi^2 alone; the scalar model through
phi^2 cos(beta) -- a one-term difference this module keeps behind the
``nonlinear_scale`` knob so the common linear part can be compared directly.

Every form takes a GridPoint of floats (one point) or of arrays (a set of
points, such as a grid row) and evaluates all of its points at once; each
``residual_*`` returns the largest absolute component at each point.
"""

from __future__ import annotations

import numpy as np

from . import clifford, geometry, polar
from .geometry import GridPoint
from .polar import ModelSpec

MODELS = tuple(polar.ENDPOINTS)
DEFAULT_MASK_MARGIN = 0.02


def is_masked(pt: GridPoint, spec: ModelSpec, margin=DEFAULT_MASK_MARGIN):
    """Singular-region mask at each point: a shell margin for the scalar
    model, a ring margin (radius and equator jointly) whenever p > 0."""
    near_radius = np.abs(2.0 * spec.m * pt.r - 1.0) < margin
    near_equator = np.abs(np.cos(pt.theta)) < margin
    return near_radius & (near_equator | (spec.p == 0.0))


def _per_point_max(components):
    """Largest absolute component at each point; NaN if any is NaN."""
    return np.max(np.abs(np.stack(np.broadcast_arrays(*components))), axis=0)


def exact_fields(pt: GridPoint, spec: ModelSpec,
                 fields_p=None) -> polar.ClosedForm:
    """Closed-form fields of the model with p = fields_p (default spec.p)."""
    return polar.closed_form(pt, spec, p=fields_p)


# -- expanded four-equation system -------------------------------------------


def expanded_components(pt: GridPoint, spec: ModelSpec, fields_p=None,
                        nonlinear_scale=1.0):
    """Signed values of the four projected scalar equations.

    ``fields_p`` selects which closed-form density is substituted (defaults
    to the model's own); feeding one model's fields into the other's
    equations is the cross-model discrimination test.
    """
    if spec.name not in MODELS:
        raise ValueError(f"expanded system exists for {MODELS}, got {spec.name!r}")
    f = exact_fields(pt, spec, fields_p)
    r, th = pt.r, pt.theta
    m, E, l = spec.m, spec.E, spec.l
    s, c = np.sin(th), np.cos(th)
    der, ang = f.derivs, f.ang
    common = -2.0 * E * r * ang.cosh_alpha + 2.0 * l * ang.sinh_alpha / s \
        + 2.0 * m * r * f.cos_beta
    mom = 2.0 * E * r * ang.sinh_alpha - 2.0 * l * ang.cosh_alpha / s
    if spec.name == "njl":
        bracket = common - r * f.phi2 * nonlinear_scale
        density_extra_r = 0.0
        density_extra_th = 0.0
    else:
        bracket = common - r * f.phi2 * f.cos_beta**2 * nonlinear_scale
        density_extra_r = (
            -r * f.phi2 * f.sin_beta * f.cos_beta * ang.cos_gamma * nonlinear_scale
        )
        density_extra_th = (
            -r * f.phi2 * f.sin_beta * f.cos_beta * ang.sin_gamma * nonlinear_scale
        )
    beta_r = der.r_d_beta_dr + der.d_alpha_dtheta + bracket * ang.cos_gamma
    beta_theta = der.d_beta_dtheta - der.r_d_alpha_dr + bracket * ang.sin_gamma
    density_r = (
        f.r_dlnphi2_dr + 2.0 + 2.0 * m * r * ang.cos_gamma * f.sin_beta
        + density_extra_r + der.d_gamma_dtheta - mom * ang.sin_gamma
    )
    density_theta = (
        f.dlnphi2_dtheta + c / s + 2.0 * m * r * ang.sin_gamma * f.sin_beta
        + density_extra_th - der.r_d_gamma_dr + mom * ang.cos_gamma
    )
    return {
        "beta_r": beta_r,
        "beta_theta": beta_theta,
        "density_r": density_r,
        "density_theta": density_theta,
    }


def residual_expanded(pt: GridPoint, spec: ModelSpec, fields_p=None,
                      nonlinear_scale=1.0):
    comps = expanded_components(pt, spec, fields_p, nonlinear_scale)
    return _per_point_max(comps.values())


# -- covector (polar) form -----------------------------------------------------


def covector_components(pt: GridPoint, spec: ModelSpec, fields_p=None,
                        nonlinear_scale=1.0):
    """Signed components of the chiral-angle and density covector equations.

    The axial and trace contractions of the tensorial connection,

        B_mu = eps_{mu alpha nu iota} R^{alpha nu iota} / 2,
        R_mu = R_{mu nu}^{  nu},

    are built with the coordinate volume form sqrt|g| [t r theta phi] = +1;
    that normalization is pinned by the requirement that the exact solutions
    annihilate the equations, and is cross-checked against the expanded
    system (r- and theta-projections agree identically).
    """
    if spec.name not in MODELS:
        raise ValueError(f"covector system exists for {MODELS}, got {spec.name!r}")
    f = exact_fields(pt, spec, fields_p)
    m = spec.m
    ang = f.ang
    ginv = geometry.inverse_metric_at(pt)
    Rc = geometry.tensorial_connection_at(pt, ang)
    eps = geometry.coordinate_epsilon_lower(pt)
    u = geometry.velocity_covector(pt, ang)
    s_cov = geometry.spin_covector(pt, ang)
    P = geometry.momentum_covector(spec.E, spec.l)
    R_up3 = np.einsum("ax...,ny...,iz...,xyz...->ani...", ginv, ginv, ginv, Rc)
    B = 0.5 * np.einsum("mani...,ani...->m...", eps, R_up3)
    R_trace = np.einsum("nr...,mnr...->m...", ginv, Rc)
    P_up = np.einsum("mn...,n->m...", ginv, P)
    u_up = np.einsum("mn...,n...->m...", ginv, u)
    s_up = np.einsum("mn...,n...->m...", ginv, s_cov)
    Ps = np.einsum("m,m...->...", P, s_up)
    Pu = np.einsum("m,m...->...", P, u_up)
    der = f.derivs
    dbeta = np.stack(np.broadcast_arrays(
        0.0, der.r_d_beta_dr / pt.r, der.d_beta_dtheta, 0.0))
    dlnphi2 = np.stack(np.broadcast_arrays(
        0.0, f.r_dlnphi2_dr / pt.r, f.dlnphi2_dtheta, 0.0))
    if spec.name == "njl":
        nl_chiral = f.phi2 * nonlinear_scale
        nl_density = 0.0
    else:
        nl_chiral = f.phi2 * f.cos_beta**2 * nonlinear_scale
        nl_density = f.phi2 * f.cos_beta * nonlinear_scale
    chiral = (
        dbeta + B + 2.0 * Ps * u - 2.0 * Pu * s_cov
        + (2.0 * m * f.cos_beta - nl_chiral) * s_cov
    )
    axial_term = -2.0 * np.einsum("r...,n...,a...,mrna...->m...", P_up, u_up,
                                  s_up, eps)
    density = (
        dlnphi2 + R_trace + axial_term + (2.0 * m - nl_density) * f.sin_beta * s_cov
    )
    return chiral, density


def residual_polar_covector(pt: GridPoint, spec: ModelSpec, fields_p=None,
                            nonlinear_scale=1.0):
    """Larger Euclidean norm of the two covector equations (they must both
    vanish componentwise, so the norm choice only sets the reporting
    scale)."""
    chiral, density = covector_components(pt, spec, fields_p, nonlinear_scale)
    return _per_point_max([np.linalg.norm(chiral, axis=0),
                           np.linalg.norm(density, axis=0)])


# -- reduced system in zeta ----------------------------------------------------


def reduced_components(pt: GridPoint, spec: ModelSpec, zeta_offset=0.0,
                       zeta_theta_amplitude=0.0, equation_mass=None):
    """Signed residuals of the reduced radial/angular system.

    The trial profile is zeta = ln(2mr) + zeta_offset
    + zeta_theta_amplitude cos(theta) with the density rebuilt consistently,
    so perturbations propagate exactly as a wrong solution would.  The last
    two equations differ only by terms proportional to d_theta zeta; their
    difference is returned as the separation-consistency scalar that forces
    a purely radial profile.  ``equation_mass`` perturbs the mass appearing
    in the equations while the trial fields keep the solution mass.
    """
    r, th, p = pt.r, pt.theta, spec.p
    m = spec.m if equation_mass is None else equation_mass
    c, s = np.cos(th), np.sin(th)
    z = np.log(2.0 * spec.m * r) + zeta_offset + zeta_theta_amplitude * c
    r_dz = 1.0
    dth_z = -zeta_theta_amplitude * s
    sh, ch = np.sinh(z), np.cosh(z)
    D = sh * sh + c * c
    S = sh * sh + p * c * c
    phi2 = 2.0 * np.sqrt(D) / (r * S)
    r_dlog = sh * ch * r_dz * (1.0 / D - 2.0 / S) - 1.0
    dth_log = (sh * ch * dth_z - s * c) / D - (2.0 * sh * ch * dth_z - 2.0 * p * s * c) / S
    res1 = r_dlog - (
        (p - 1.0) * r * phi2 * sh * ch * c * c / D**1.5
        - 2.0
        + (2.0 * m * r * ch * c * c + 2.0 * m * r * s * s * sh - dth_z * s * c
           - 2.0 * sh * ch) / D
    )
    res2 = dth_log - (
        (p - 1.0) * r * phi2 * s * c * sh * sh / D**1.5
        + (r_dz - 2.0 * m * r * ch + 2.0 * m * r * sh + 1.0) * s * c / D
    )
    rhs_common = S * r * phi2 / np.sqrt(D) + 2.0 * m * r * ch - 2.0 * m * r * sh - 2.0
    # 0 * inf guards: the tan/cot factors multiply d_theta zeta, which is
    # identically zero on the radial family.
    flat = zeta_theta_amplitude == 0.0
    radial_term = 0.0 if flat else dth_z * np.tanh(z) * np.tan(th)
    angular_lhs = 0.0 if flat else dth_z * (np.cosh(z) / np.sinh(z)) * (c / s)
    res3 = r_dz - (rhs_common + radial_term)
    res4 = angular_lhs - (rhs_common - r_dz)
    return {
        "module_radial": res1,
        "module_angular": res2,
        "zeta_radial": res3,
        "zeta_angular": res4,
        "separation_consistency": res3 - res4,
    }


def residual_reduced(pt: GridPoint, spec: ModelSpec, zeta_offset=0.0,
                     zeta_theta_amplitude=0.0, equation_mass=None):
    comps = reduced_components(pt, spec, zeta_offset, zeta_theta_amplitude,
                               equation_mass)
    return _per_point_max(comps.values())


# -- standard gamma-matrix form -------------------------------------------------


def residual_standard(pt: GridPoint, spec: ModelSpec, mode="analytic",
                      coupling_sign=1.0, nonlinear_scale=1.0,
                      equation_mass=None):
    """Largest component norm at each point of i gamma^mu nabla_mu psi
    + (1/4)(Phi + i p Theta pi) psi - m psi on the assembled spinor.

    Phi and Theta are recomputed from the spinor's own bilinears rather than
    from the polar formulas, so this residual exercises the whole chain:
    gamma basis, tetrads, spin connection, density, chiral angle and phase.
    ``equation_mass`` perturbs the mass term only (fields keep spec.m).
    """
    nabla, psi, f = polar.covariant_derivative(
        pt, spec, mode=mode, coupling_sign=coupling_sign
    )
    xi = geometry.tetrad_at(pt, f.ang)
    gamma_coord = np.einsum("am...,aij->mij...", xi, clifford.GAMMA_STACK)
    bl = clifford.bilinears(psi)
    dirac = 1j * np.einsum("mij...,mj...->i...", gamma_coord, nabla)
    nonlinear = 0.25 * nonlinear_scale * (
        np.multiply.outer(clifford.IDENTITY, bl.phi)
        + 1j * spec.p * np.multiply.outer(clifford.PI, bl.theta)
    )
    m_eq = spec.m if equation_mass is None else equation_mass
    res = dirac + np.einsum("ij...,j...->i...", nonlinear, psi) - m_eq * psi
    return np.max(np.abs(res), axis=0)


# -- grid sweeps ----------------------------------------------------------------


def sweep(rows, evaluate, spec: ModelSpec, margin=DEFAULT_MASK_MARGIN):
    """Statistics of a residual over grid rows, skipping masked points.

    Each row is a GridPoint of arrays; ``evaluate(pt)`` gets the row's
    unmasked points in one GridPoint and returns their residual maxima.
    Returns the point and mask counts and the max, mean, median and 95th
    percentile of those maxima.  The reductions propagate NaN, so a
    non-finite residual anywhere on the grid reaches ``max`` and fails the
    suite.
    """
    values, n_points = [], 0
    for row in rows:
        keep = ~is_masked(row, spec, margin)
        n_points += keep.size
        values.append(evaluate(GridPoint(row.r[keep], row.theta[keep])))
    values = np.concatenate(values)
    stats = {"n_points": n_points, "n_masked": n_points - values.size,
             "max": 0.0, "mean": 0.0, "median": 0.0, "q95": 0.0}
    if values.size:
        stats.update(max=float(values.max()), mean=float(values.mean()),
                     median=float(np.quantile(values, 0.5)),
                     q95=float(np.quantile(values, 0.95)))
    return stats
