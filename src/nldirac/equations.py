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
points, such as a chunk of a grid sweep), the model and the closed-form
bundle polar.closed_form built at those points, and evaluates all of its
points at once; each ``residual_*`` returns the largest absolute component
at each point.  ``sweep`` builds the bundle once per chunk of a grid and
every form it runs reads it, so a wrong solution goes in as a wrong bundle.
"""

from __future__ import annotations

import functools

import numpy as np

from . import clifford, geometry, polar
from .geometry import GridPoint
from .polar import ModelSpec

DEFAULT_MASK_MARGIN = 0.02
# Points per evaluation in a grid sweep.  Every call pays a fixed cost of
# many small numpy calls, so a larger chunk costs less per point, and
# memory sets the limit.  On 1024 points the covector and standard forms
# peak at about 0.84 and 0.80 KB of allocations per point (tracemalloc),
# the expanded and reduced forms at 0.27 KB, each with the 0.17 KB bundle
# it reads, so a verify of a 70x50 grid peaks near 0.92 MB.
SWEEP_CHUNK = 1024


def is_masked(pt: GridPoint, spec: ModelSpec, margin=DEFAULT_MASK_MARGIN):
    """Singular-region mask at each point: a shell margin for the scalar
    model, a ring margin (radius and equator jointly) whenever p > 0."""
    near_radius = np.abs(2.0 * spec.m * pt.r - 1.0) < margin
    near_equator = np.abs(np.cos(pt.theta)) < margin
    return near_radius & (near_equator | (spec.p == 0.0))


def _per_point_max(components):
    """Largest absolute component at each point; NaN if any is NaN (as
    np.maximum propagates it)."""
    return functools.reduce(np.maximum, [np.abs(c) for c in components])


def exact_fields(pt: GridPoint, spec: ModelSpec) -> polar.ClosedForm:
    """Closed-form fields of the model: the bundle a sweep builds once per
    chunk."""
    return polar.closed_form(pt, spec)


# -- expanded four-equation system -------------------------------------------


def expanded_components(pt: GridPoint, spec: ModelSpec, f: polar.ClosedForm):
    """Signed values of the four projected scalar equations."""
    r, m, p, E, l = pt.r, spec.m, spec.p, spec.E, spec.l
    ang, d = f.ang, f.density
    s, c = d.s, d.c
    common = -2.0 * E * r * ang.cosh_alpha + 2.0 * l * ang.sinh_alpha / s \
        + 2.0 * m * r * f.cos_beta
    mom = 2.0 * E * r * ang.sinh_alpha - 2.0 * l * ang.cosh_alpha / s
    bracket = common - r * d.phi2 * (p + (1.0 - p) * f.cos_beta**2)
    density_nl = -(1.0 - p) * r * d.phi2 * f.sin_beta * f.cos_beta
    beta_r = f.r_d_beta_dr + ang.d_alpha_dtheta + bracket * ang.cos_gamma
    beta_theta = f.d_beta_dtheta - r * ang.d_alpha_dr + bracket * ang.sin_gamma
    density_r = (
        d.r_dlnphi2_dr + 2.0 + 2.0 * m * r * ang.cos_gamma * f.sin_beta
        + density_nl * ang.cos_gamma + ang.d_gamma_dtheta - mom * ang.sin_gamma
    )
    density_theta = (
        d.dlnphi2_dtheta + c / s + 2.0 * m * r * ang.sin_gamma * f.sin_beta
        + density_nl * ang.sin_gamma - r * ang.d_gamma_dr + mom * ang.cos_gamma
    )
    return {
        "beta_r": beta_r,
        "beta_theta": beta_theta,
        "density_r": density_r,
        "density_theta": density_theta,
    }


def residual_expanded(pt: GridPoint, spec: ModelSpec, f: polar.ClosedForm):
    return _per_point_max(expanded_components(pt, spec, f).values())


# -- covector (polar) form -----------------------------------------------------


# The (a, n, i) indices of the 24 nonzero entries eps_{m a n i}, in the
# order of geometry.coordinate_epsilon_lower: lexicographic in (m, a, n, i),
# so entries 6m to 6m + 5 are those of the free index m.
_EPS_A, _EPS_N, _EPS_I = clifford.EPS4_INDEX[:, 1:].T
# R_{ani} at each entry from a connection held as its pairs: the entry
# [_EPS_PAIR, i] of the pairs, times _EPS_R_SIGN, -1 where a > n.
_EPS_PAIR = np.array([clifford.PAIRS.index((min(a, n), max(a, n)))
                      for a, n in zip(_EPS_A, _EPS_N)])
_EPS_R_SIGN = np.where(_EPS_A < _EPS_N, 1.0, -1.0)


def _epsilon_sum(eps, terms):
    """eps_{m a n i} T_{a n i} summed over (a, n, i), shape (4,) + the
    points' shape.

    ``eps`` holds the 24 nonzero entries of geometry.coordinate_epsilon_lower,
    (24,) + the points' shape, and ``terms(rows)`` returns a new array of T
    at the (a, n, i) of the entries ``rows``.  Each free index m takes its
    six entries 6m to 6m + 5 as one block, so at most six entries of T are
    held at a time.  Each m adds its six products in lexicographic (a, n, i)
    order (numpy adds fewer than eight terms one after another), the order
    in which an einsum over the dense tensor adds them on an array of
    points; the dense tensor's zero entries only add zeros to a finite sum.
    On a float point einsum vectorizes the sum in an order of its own, which
    gives the same float wherever at most two of the six products are
    nonzero, as on the closed-form solutions.
    """
    def block(m):
        rows = slice(6 * m, 6 * m + 6)
        products = terms(rows)
        products *= eps[rows]
        return products.sum(axis=0)

    return np.stack([block(m) for m in range(4)])


def covector_components(pt: GridPoint, spec: ModelSpec, f: polar.ClosedForm):
    """Signed components of the chiral-angle and density covector equations.

    The axial and trace contractions of the tensorial connection,

        B_mu = eps_{mu alpha nu iota} R^{alpha nu iota} / 2,
        R_mu = R_{mu nu}^{  nu},

    are built with the coordinate volume form sqrt|g| [t r theta phi] = +1;
    that normalization is pinned by the requirement that the exact solutions
    annihilate the equations, and is cross-checked against the expanded
    system (r- and theta-projections agree identically).  Both read the
    connection's pairs, and both eps contractions run over the 24 nonzero
    entries of eps only, six at a time, so no rank-3 or rank-4 tensor is
    built per point.
    """
    m, p, ang, d = spec.m, spec.p, f.ang, f.density
    g = geometry.inverse_metric_at(pt)
    eps = geometry.coordinate_epsilon_lower(pt)
    R_trace, B = _connection_contractions(pt, ang, g, eps)
    u = geometry.velocity_covector(pt, ang)
    s_cov = geometry.spin_covector(pt, ang)
    P = geometry.momentum_covector(spec.E, spec.l)
    P_up = np.einsum("m...,m->m...", g, P)
    u_up = g * u
    s_up = g * s_cov

    def axial(rows):  # P^r u^n s^a at the entries eps_{mrna}
        return (P_up[_EPS_A[rows]] * u_up[_EPS_N[rows]]
                * s_up[_EPS_I[rows]])

    axial_term = -2.0 * _epsilon_sum(eps, axial)
    del eps  # 24 values per point
    Ps = np.einsum("m,m...->...", P, s_up)
    Pu = np.einsum("m,m...->...", P, u_up)
    dbeta = geometry.gradient_covector(f.r_d_beta_dr / pt.r, f.d_beta_dtheta)
    dlnphi2 = geometry.gradient_covector(d.r_dlnphi2_dr / pt.r,
                                         d.dlnphi2_dtheta)
    nl_chiral = d.phi2 * (p + (1.0 - p) * f.cos_beta**2)
    nl_density = (1.0 - p) * d.phi2 * f.cos_beta
    chiral = (
        dbeta + B + 2.0 * Ps * u - 2.0 * Pu * s_cov
        + (2.0 * m * f.cos_beta - nl_chiral) * s_cov
    )
    density = (
        dlnphi2 + R_trace + axial_term + (2.0 * m - nl_density) * f.sin_beta * s_cov
    )
    return chiral, density


def _connection_contractions(pt: GridPoint, ang, g, eps):
    """(R_mu, B_mu) of covector_components from the tensorial connection's
    pairs: the trace g^n R_{mnn}, summed over n in order as an einsum over
    the dense tensor sums it (its term n = m is zero), and the axial
    half-sum eps_{mani} g^a g^n g^i R_ani / 2."""
    Rc = geometry.tensorial_connection_at(pt, ang)
    # the pair (a, b) gives g^b R_abb to R_a and g^a R_baa to R_b, R_baa =
    # -pairs[k, a]: so each R_m adds its terms from zero in ascending n
    R_trace = np.zeros((4,) + Rc.shape[2:], dtype=np.result_type(g, Rc))
    for k, (a, b) in enumerate(clifford.PAIRS):
        R_trace[a] += g[b] * Rc[k, b]
        R_trace[b] -= g[a] * Rc[k, a]

    def raised(rows):  # g^a g^n g^i R_ani at the entries eps_{mani}
        i = _EPS_I[rows]
        sign = _EPS_R_SIGN[rows].reshape((6,) + (1,) * (Rc.ndim - 2))
        return (g[_EPS_A[rows]] * g[_EPS_N[rows]] * g[i]
                * (Rc[_EPS_PAIR[rows], i] * sign))

    return R_trace, 0.5 * _epsilon_sum(eps, raised)


def residual_polar_covector(pt: GridPoint, spec: ModelSpec,
                            f: polar.ClosedForm):
    """Larger Euclidean norm of the two covector equations (they must both
    vanish componentwise, so the norm choice only sets the reporting
    scale)."""
    chiral, density = covector_components(pt, spec, f)
    return _per_point_max([np.linalg.norm(chiral, axis=0),
                           np.linalg.norm(density, axis=0)])


# -- reduced system in zeta ----------------------------------------------------


def reduced_components(pt: GridPoint, spec: ModelSpec, f: polar.ClosedForm):
    """Signed residuals of the reduced radial/angular system.

    The density, its log-derivatives, sinh zeta = X, cosh zeta and the
    root of D come from the bundle's density step, which reads the profile
    through polar.X_exact, so a wrong profile propagates exactly as a wrong
    solution would.  The system is that of the radial family, r d_r zeta =
    1 and d_theta zeta = 0, on which the two zeta equations lose their
    tan/cot terms: the radial one reads r d_r zeta = rhs and the angular
    one 0 = rhs - r d_r zeta, the same equation.  So the form checks three
    equations: the two module equations and this one.
    """
    r, p, m, d = pt.r, spec.p, spec.m, f.density
    c, s, sh, ch, D, q, phi2 = d.c, d.s, d.sh, d.ch, d.D, d.q, d.phi2
    r_dz = 1.0
    res1 = d.r_dlnphi2_dr - (
        (p - 1.0) * r * phi2 * sh * ch * c * c / (D * q)
        - 2.0
        + (2.0 * m * r * ch * c * c + 2.0 * m * r * s * s * sh
           - 2.0 * sh * ch) / D
    )
    res2 = d.dlnphi2_dtheta - (
        (p - 1.0) * r * phi2 * s * c * sh * sh / (D * q)
        + (r_dz - 2.0 * m * r * ch + 2.0 * m * r * sh + 1.0) * s * c / D
    )
    rhs_common = (d.S * r * phi2 / q + 2.0 * m * r * ch
                  - 2.0 * m * r * sh - 2.0)
    return {
        "module_radial": res1,
        "module_angular": res2,
        "zeta_radial": r_dz - rhs_common,
    }


def residual_reduced(pt: GridPoint, spec: ModelSpec, f: polar.ClosedForm):
    return _per_point_max(reduced_components(pt, spec, f).values())


# -- standard gamma-matrix form -------------------------------------------------


# i gamma^a by its nonzero entries: row i holds _I_GAMMA[a, i] in column
# clifford.GAMMA_COLUMN[a, i].  Each is +-1 or +-i, so a product with one
# is exact.
_I_GAMMA = 1j * clifford.GAMMA_VALUE


def residual_standard(pt: GridPoint, spec: ModelSpec, f: polar.ClosedForm):
    """Largest component norm at each point of i gamma^mu nabla_mu psi
    + (1/4)(Phi + i p Theta pi) psi - m psi on the assembled spinor.

    Phi and Theta are recomputed from the spinor's own bilinears (their two
    kernels, clifford.theta_phi) rather than from the polar formulas, so
    this residual exercises the whole chain: gamma basis, tetrads, spin
    connection, density, chiral angle and phase.

    Each frame index a adds i gamma^a xi_a^mu nabla_mu psi: the frame row
    xi_a^mu nabla_mu psi, summed in ascending mu over the tetrad rows that
    are nonzero at some point (two of the four), and from it, in each row of
    the result, the one entry gamma^a reads.  That is the sum and the
    rounding of a frame einsum and a gamma einsum over all (a, j), with no
    (4, 4) frame product per point.  Every product is taken one spinor row
    at a time, as in clifford.spin_action.
    """
    nabla, psi = polar.covariant_derivative(pt, spec, f)
    xi = geometry.tetrad_at(pt, f.ang)
    # the point axes as one, so that every row of a point is an array
    nabla, xi = np.reshape(nabla, (4, 4, -1)), np.reshape(xi, (4, 4, -1))
    dirac = np.empty(nabla.shape[1:], dtype=psi.dtype)
    framed, product = np.empty_like(dirac[0]), np.empty_like(dirac[0])
    for a in range(4):
        # each frame vector has a nonzero component wherever there is a point
        mus = xi[a].any(axis=1).nonzero()[0] if dirac.size else [0]
        rows = [xi[a, mu].astype(psi.dtype) for mu in mus]
        for i, column in enumerate(clifford.GAMMA_COLUMN[a]):
            term = framed if a else dirac[i]
            np.multiply(rows[0], nabla[mus[0], column], out=term)
            for row, mu in zip(rows[1:], mus[1:]):
                term += np.multiply(row, nabla[mu, column], out=product)
            term *= _I_GAMMA[a, i]
            if a:
                dirac[i] += term
    dirac = dirac.reshape(psi.shape)
    del nabla, xi, framed, product  # before the bilinears and the last terms
    theta, phi = clifford.theta_phi(psi)
    # (1/4)(Phi + i p Theta pi) is diagonal: one coefficient per component,
    # and a component of psi that is zero at every point adds only zeros.
    # einsum rounds each complex product as two real products and a sum;
    # the multiply ufunc may fuse them and differ in the last bit.
    for i in np.reshape(psi, (4, -1)).any(axis=1).nonzero()[0]:
        nonlinear = 0.25 * (
            phi + 1j * spec.p * (clifford.PI_SIGNS[i] * theta))
        dirac[i] += np.einsum("...,...->...", nonlinear, psi[i])
        dirac[i] -= spec.m * psi[i]
    return np.max(np.abs(dirac), axis=0)


# -- grid sweep ------------------------------------------------------------------


# The grid forms by name, in the order a sweep evaluates them.
FORMS = {"expanded": residual_expanded, "covector": residual_polar_covector,
         "reduced": residual_reduced, "standard": residual_standard}


def sweep(points: GridPoint, spec: ModelSpec, margin=DEFAULT_MASK_MARGIN,
          forms=tuple(FORMS)):
    """Statistics of each grid form in ``forms`` (names in FORMS) over the
    unmasked points of a grid.

    ``points`` holds r and theta arrays of one shape, such as the (n_r,
    n_theta) arrays of grids.points.  It is masked in one call, and its
    unmasked points are evaluated in C (for grids.points, r-major) order in
    chunks of at most SWEEP_CHUNK points.  Each chunk's closed form is built
    once, by exact_fields, and every form reads that bundle.  Returns, per
    form, the point and mask counts (``n_points`` counts every grid point,
    masked ones included) and the max, mean, median and 95th percentile of
    the per-point maxima.  The reductions propagate NaN, so a non-finite
    residual anywhere on the grid reaches ``max`` and fails the suite.
    """
    keep = ~is_masked(points, spec, margin)
    r, theta = points.r[keep], points.theta[keep]
    values = {form: [np.empty(0)] for form in forms}
    for i in range(0, r.size, SWEEP_CHUNK):
        pt = GridPoint(r[i:i + SWEEP_CHUNK], theta[i:i + SWEEP_CHUNK])
        f = exact_fields(pt, spec)
        for form in forms:
            values[form].append(FORMS[form](pt, spec, f))
    return {form: _stats(np.concatenate(v), keep.size)
            for form, v in values.items()}


def _stats(values, n_points):
    """A sweep's statistics of one form's per-point maxima."""
    stats = {"n_points": n_points, "n_masked": n_points - values.size,
             "max": 0.0, "mean": 0.0, "median": 0.0, "q95": 0.0}
    if values.size:
        median, q95 = _quantiles(values, (0.5, 0.95))
        stats.update(max=float(values.max()), mean=float(values.mean()),
                     median=median, q95=q95)
    return stats


def _quantiles(values, qs):
    """np.quantile(values, qs) of a non-empty 1-D array, float for float,
    by one sort and numpy's linear interpolation; np.quantile itself calls
    np.unique, which imports numpy.ma."""
    ordered = np.sort(values)
    last = ordered.size - 1
    if np.isnan(ordered[last]):  # NaN sorts last
        return [np.nan] * len(qs)
    out = []
    for q in qs:
        h = last * q  # between ordered[i] = a and b, a fraction g past a
        i = min(int(h), max(last - 1, 0))
        a, b = float(ordered[i]), float(ordered[min(i + 1, last)])
        g = h - i
        out.append(b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g)
    return out
