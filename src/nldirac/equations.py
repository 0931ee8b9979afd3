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

from . import clifford, geometry, polar, sparse
from .geometry import GridPoint
from .settings import DEFAULT_MASK_MARGIN, ModelSpec

# Points per evaluation in a grid sweep.  Every call pays a fixed cost of
# many small numpy calls, so a larger chunk costs less per point, and
# memory sets the limit.  On 1024 points the covector and standard forms
# peak at about 0.54 and 0.67 KB of allocations per point (tracemalloc),
# the expanded and reduced forms at 0.25 KB, each with the 0.17 KB bundle
# it reads, so a verify of a 70x50 grid peaks near 0.79 MB.
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


def _epsilon_sums(pt: GridPoint, *terms):
    """eps_{m a n i} T_{a n i} summed over (a, n, i) for each T of
    ``terms``: for each, the rows {m: sum} of the free indices m that have
    a product.

    ``term(a, n, i)`` returns a new array of T at (a, n, i), or None where
    an operand has no live entry, so that T is zero at every point.  Each
    free index m takes the six entries of eps that
    geometry.coordinate_epsilon_lower builds for it, serves every T with
    them and lets them go, so at most six are held at a time.  Each m adds
    its products in lexicographic (a, n, i) order, the order in which an
    einsum over the dense tensors adds them on an array of points (numpy
    adds fewer than eight terms one after another); the products left out
    are zero, and only add zeros to a finite sum.  On a float point einsum
    vectorizes the sum in an order of its own, which gives the same float
    wherever at most two products are nonzero, as on the closed-form
    solutions.
    """
    sums = [{} for _ in terms]

    def add(eps):  # the products of one block of eps
        for (mu, a, n, i), value in zip(eps.index, eps.values):
            for term, rows in zip(terms, sums):
                product = term(a, n, i)
                if product is not None:
                    product *= value
                    _add(rows, mu, product)

    for m in range(4):
        add(geometry.coordinate_epsilon_lower(pt, m))
    return sums


def _add(rows, key, term, sign=1.0):
    """Add ``term``, times a sign of 1 or -1, to the row ``key`` of the
    rows {key: row}, as a dense sum from zero adds it: a new row takes the
    term, negated for -1."""
    if key not in rows:
        rows[key] = term if sign > 0 else -term
    elif sign > 0:
        rows[key] += term
    else:
        rows[key] -= term


def _rows(covector: sparse.Live):
    """The rows {mu: row} of a covector's live entries."""
    return {mu: row for (mu,), row in zip(covector.index, covector.values)}


def _scaled(rows, factor):
    """The rows {mu: row} times ``factor``, one at a time."""
    return ((mu, row * factor) for mu, row in rows.items())


def _covector_sum(pt: GridPoint, terms):
    """The dense covector, shape (4,) + the points' shape, of the signed
    sum of ``terms``, each (sign, rows) for rows (mu, row) of its live
    entries: each row adds its terms from zero in the order given, as the
    sum of the dense covectors does, and a term that is zero there adds
    nothing."""
    out = np.zeros((4,) + pt.shape, dtype=np.result_type(pt.r, pt.theta))
    for sign, rows in terms:
        for mu, row in rows:
            if sign > 0:
                out[mu] += row
            else:
                out[mu] -= row
    return out


def covector_components(pt: GridPoint, spec: ModelSpec, f: polar.ClosedForm):
    """Signed components of the chiral-angle and density covector equations.

    The axial and trace contractions of the tensorial connection,

        B_mu = eps_{mu alpha nu iota} R^{alpha nu iota} / 2,
        R_mu = R_{mu nu}^{  nu},

    are built with the coordinate volume form sqrt|g| [t r theta phi] = +1;
    that normalization is pinned by the requirement that the exact solutions
    annihilate the equations, and is cross-checked against the expanded
    system (r- and theta-projections agree identically).  Every operand is
    the Live its builder returns, and every product and sum runs over its
    live entries alone, in the order and with the rounding of the einsums
    and sums over the dense fields: no rank-3 or rank-4 tensor, and no zero
    entry of a covector, is built per point.
    """
    m, p, ang, d = spec.m, spec.p, f.ang, f.density
    u, s_cov = (_rows(geometry.velocity_covector(pt, ang)),
                _rows(geometry.spin_covector(pt, ang)))
    R_trace, B, axial, Ps, Pu = _contractions(pt, spec, ang, u, s_cov)
    nl_chiral = d.phi2 * (p + (1.0 - p) * f.cos_beta**2)
    chiral = [(1.0, _rows(geometry.gradient_covector(
        f.r_d_beta_dr / pt.r, f.d_beta_dtheta)).items()),
        (1.0, _scaled(B, 0.5))]
    if Ps is not None:
        chiral.append((1.0, _scaled(u, 2.0 * Ps)))
    if Pu is not None:
        chiral.append((-1.0, _scaled(s_cov, 2.0 * Pu)))
    chiral.append((1.0, _scaled(s_cov, 2.0 * m * f.cos_beta - nl_chiral)))
    chiral = _covector_sum(pt, chiral)
    nl_density = (1.0 - p) * d.phi2 * f.cos_beta
    density = _covector_sum(pt, (
        (1.0, _rows(geometry.gradient_covector(
            d.r_dlnphi2_dr / pt.r, d.dlnphi2_dtheta)).items()),
        (1.0, R_trace.items()), (1.0, _scaled(axial, -2.0)),
        (1.0, _scaled(s_cov, (2.0 * m - nl_density) * f.sin_beta))))
    return chiral, density


def _contractions(pt: GridPoint, spec: ModelSpec, ang, u, s_cov):
    """The contractions of covector_components, each as the rows {mu: row}
    of its live entries, or None without any: the trace R_mu, the eps sums
    of the tensorial connection, eps_{mani} g^a g^n g^i R_ani, and of the
    momentum, eps_{mani} P^a u^n s^i, and the contractions P_m s^m and P_m
    u^m, from the velocity and spin rows ``u`` and ``s_cov``.

    R_{ani} is read at its live entries through clifford.unpaired_plan,
    each a view of its pair row and a sign.  The trace g^n R_{mnn} sums
    over n in order as an einsum over the dense tensor sums it, from zero
    (its term n = m is zero).
    """
    g = geometry.inverse_metric_at(pt)
    P = geometry.momentum_covector(spec.E, spec.l)
    # the raised covectors at their live entries, v^mu = g^mu v_mu
    P_up = {mu: g[mu] * P[mu] for mu in np.flatnonzero(P).tolist()}
    u_up = {mu: g[mu] * row for mu, row in u.items()}
    s_up = {mu: g[mu] * row for mu, row in s_cov.items()}
    pairs = geometry.tensorial_connection_at(pt, ang)
    index, source, sign = clifford.unpaired_plan(pairs.index)
    # {(a, n, i): (pair row, sign)}, ascending
    Rc = {entry: (pairs.values[n], s) for entry, n, s
          in zip(index, source.tolist(), sign.tolist())}
    R_trace = {}
    for (a, n, i), (row, s) in Rc.items():
        if i == n:
            _add(R_trace, a, g[n] * row, s)

    def raised(a, n, i):  # g^a g^n g^i R_ani
        if (a, n, i) not in Rc:
            return None
        row, s = Rc[a, n, i]
        return g[a] * g[n] * g[i] * (row * s)

    def axial(a, n, i):  # P^a u^n s^i
        if a in P_up and n in u_up and i in s_up:
            return P_up[a] * u_up[n] * s_up[i]
        return None

    return (R_trace, *_epsilon_sums(pt, raised, axial),
            *(_contract_momentum(P, v_up) for v_up in (s_up, u_up)))


def _contract_momentum(P, v_up):
    """P_m v^m, an einsum over the entries live in both P and v, or None
    if there are none."""
    mus = [mu for mu in v_up if P[mu]]
    if not mus:
        return None
    return np.einsum("m,m...->...", P[mus], np.stack([v_up[mu] for mu in mus]))


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
    xi_a^mu nabla_mu psi, summed in ascending mu over the live entries of
    the tetrad's frame vector a (two of the four), and from it, in each row
    of the result, the one entry gamma^a reads.  That is the sum and the
    rounding of a frame einsum and a gamma einsum over all (a, j), with no
    (4, 4) frame product per point.  Every product is taken one spinor row
    at a time, as in clifford.spin_action.
    """
    nabla, psi = polar.covariant_derivative(pt, spec, f)
    xi = geometry.tetrad_at(pt, f.ang)
    # the point axes as one, so that every row of a point is an array
    nabla = np.reshape(nabla, (4, 4, -1))
    frame = {}  # [(mu, xi_a^mu)] of each frame vector a, ascending in mu
    for (a, mu), row in zip(xi.index, np.reshape(
            xi.values, (len(xi.index), nabla.shape[-1]))):
        frame.setdefault(a, []).append((mu, row))
    dirac = np.zeros(nabla.shape[1:], dtype=psi.dtype)
    framed, product = np.empty_like(dirac[0]), np.empty_like(dirac[0])
    for a, ((mu, row), *rest) in frame.items():
        for i, column in enumerate(clifford.GAMMA_COLUMN[a]):
            np.multiply(row, nabla[mu, column], out=framed)
            for later, later_row in rest:
                framed += np.multiply(later_row, nabla[later, column],
                                      out=product)
            framed *= _I_GAMMA[a, i]
            dirac[i] += framed
    dirac = dirac.reshape(psi.shape)
    del nabla, xi, framed, product  # before the bilinears and the last terms
    theta, phi = clifford.theta_phi(psi)
    # (1/4)(Phi + i p Theta pi) is diagonal: one coefficient per component,
    # and a component of psi that is zero at every point adds only zeros.
    # einsum rounds each complex product as two real products and a sum;
    # the multiply ufunc may fuse them and differ in the last bit.
    for i in sparse.live_rows(psi):
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
