"""The spinor and covector kernels equal, bit for bit, the matrix and einsum
expressions they stand in for.

Each reference below builds the per-point matrix or tensor and contracts
it: the rotation exp(-i beta pi/2) applied to the rest column, the
three-operand einsum bilinears, the dense Levi-Civita tensor of the
covector form's two eps contractions, the einsum over the pairs of the
spin action, the stacked partials of the covariant derivative and the
outer-built nonlinear operator of the standard form.  The kernels skip
those per-point objects; on the closed-form solutions every output must
still be the same float.  The closed form itself shares its intermediates
between formulas; its reference evaluates each formula on its own,
recomputing them.
"""

import itertools

import numpy as np
import pytest

from nldirac import clifford, equations, geometry, grids, polar
from nldirac.geometry import AngleState, GridPoint
from nldirac.polar import ClosedForm, ModelSpec, PolarDerivatives

MODELS = (ModelSpec.njl, ModelSpec.soler,
          lambda m: ModelSpec.interpolating(0.5, m=m))


def _points(spec, seed, n=200):
    """n seeded points outside the mask, in one GridPoint of arrays."""
    return grids.sample_points(
        np.random.default_rng(seed), n, m=spec.m,
        reject=lambda pt: equations.is_masked(pt, spec))


def _cases(n=200):
    for make in MODELS:
        for m, seed in ((0.5, 11), (1.0, 12), (2.0, 13)):
            spec = make(m=m)
            yield spec, _points(spec, seed, n)


def _dense_epsilon(pt):
    """eps_{mu nu rho sigma} = sqrt|g| [mu nu rho sigma] as a dense
    (4, 4, 4, 4) + the points' shape tensor, each sign the determinant of
    its permutation matrix."""
    symbol = np.zeros((4, 4, 4, 4))
    for p in itertools.permutations(range(4)):
        symbol[p] = round(np.linalg.det(np.eye(4)[list(p)]))
    return np.multiply.outer(symbol, pt.r**2 * np.sin(pt.theta))


def _rotation_spinor(f):
    """phi exp(-i beta pi/2) (1, 0, 1, 0)^T through the per-point rotation."""
    half = 0.5 * np.arctan2(f.sin_beta, f.cos_beta)
    rot = (np.multiply.outer(clifford.IDENTITY, np.cos(half))
           - 1j * np.multiply.outer(clifford.PI, np.sin(half)))
    rest = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex)
    return np.sqrt(f.phi2) * np.einsum("ij...,j->i...", rot, rest)


def _einsum_bilinears(psi):
    """(Theta, Phi, U, S), each psi^dag (gamma^0 K) psi by a three-operand
    einsum, imaginary parts kept."""
    conj = psi.conj()
    return (1j * np.einsum("i...,ij,j...->...", conj, clifford._KERNEL_THETA, psi),
            np.einsum("i...,ij,j...->...", conj, clifford._KERNEL_PHI, psi),
            np.einsum("i...,aij,j...->a...", conj, clifford._KERNEL_U, psi),
            np.einsum("i...,aij,j...->a...", conj, clifford._KERNEL_S, psi))


def _reference_covector(pt, spec):
    """covector_components with both eps contractions as einsums over the
    dense tensor, the axial term a four-operand one, and the nonlinear
    coefficients written out for the two endpoint models."""
    f = polar.closed_form(pt, spec)
    ang = f.ang
    g = geometry.inverse_metric_diagonal(pt)
    Rc = geometry.tensorial_connection_at(pt, ang)
    eps = _dense_epsilon(pt)
    u = geometry.velocity_covector(pt, ang)
    s_cov = geometry.spin_covector(pt, ang)
    P = geometry.momentum_covector(spec.E, spec.l)
    R_up3 = g[:, None, None] * g[None, :, None] * g[None, None, :] * Rc
    B = 0.5 * np.einsum("mani...,ani...->m...", eps, R_up3)
    R_trace = np.einsum("n...,mnn...->m...", g, Rc)
    P_up = np.einsum("m...,m->m...", g, P)
    u_up, s_up = g * u, g * s_cov
    Ps = np.einsum("m,m...->...", P, s_up)
    Pu = np.einsum("m,m...->...", P, u_up)
    der = f.derivs
    dbeta = np.stack(np.broadcast_arrays(
        0.0, der.r_d_beta_dr / pt.r, der.d_beta_dtheta, 0.0))
    dlnphi2 = np.stack(np.broadcast_arrays(
        0.0, f.r_dlnphi2_dr / pt.r, f.dlnphi2_dtheta, 0.0))
    if spec.name == "njl":
        nl_chiral, nl_density = f.phi2, 0.0
    else:
        nl_chiral, nl_density = f.phi2 * f.cos_beta**2, f.phi2 * f.cos_beta
    chiral = (dbeta + B + 2.0 * Ps * u - 2.0 * Pu * s_cov
              + (2.0 * spec.m * f.cos_beta - nl_chiral) * s_cov)
    axial_term = -2.0 * np.einsum("r...,n...,a...,mrna...->m...", P_up, u_up,
                                  s_up, eps)
    density = (dlnphi2 + R_trace + axial_term
               + (2.0 * spec.m - nl_density) * f.sin_beta * s_cov)
    return chiral, density


def _reference_covariant_derivative(pt, spec):
    """covariant_derivative as the stack of the four partials plus the
    einsum spin action."""
    f = polar.closed_form(pt, spec)
    psi = polar.assemble_spinor(f)
    d_dr, d_dth = polar.spinor_coordinate_partials(pt, f, psi)
    dpsi = np.stack([-1j * spec.E * psi, d_dr, d_dth, -1j * spec.l * psi])
    C = geometry.spin_connection_at(pt, f.ang)
    return dpsi + _einsum_spin_action(C, psi), psi, f


def _reference_standard(pt, spec):
    """residual_standard on the reference covariant derivative, with the
    einsum bilinears and the nonlinear operator built as a 4x4 matrix per
    point."""
    nabla, psi, f = _reference_covariant_derivative(pt, spec)
    xi = geometry.tetrad_at(pt, f.ang)
    nabla_frame = np.einsum("am...,mj...->aj...", xi, nabla)
    theta, phi, _, _ = _einsum_bilinears(psi)
    dirac = 1j * np.einsum("aij,aj...->i...", clifford.GAMMA_STACK, nabla_frame)
    nonlinear = 0.25 * (
        np.multiply.outer(clifford.IDENTITY, phi.real)
        + 1j * spec.p * np.multiply.outer(clifford.PI, theta.real))
    res = dirac + np.einsum("ij...,j...->i...", nonlinear, psi) - spec.m * psi
    return np.max(np.abs(res), axis=0)


def test_assembled_spinor_equals_the_rotated_rest_column():
    for spec, pts in _cases():
        f = polar.closed_form(pts, spec)
        psi = polar.assemble_spinor(f)
        assert np.array_equal(psi, _rotation_spinor(f)), spec
        # and pi psi by the sign vector equals the matrix product
        assert np.array_equal(clifford.pi_action(psi),
                              np.einsum("ij,j...->i...", clifford.PI, psi))
    # a single point keeps the shape (4,)
    spec = ModelSpec.njl()
    f = polar.closed_form(geometry.GridPoint(0.8, 1.0), spec)
    assert np.array_equal(polar.assemble_spinor(f), _rotation_spinor(f))


def test_bilinears_equal_the_einsum_contractions():
    spinors = [polar.assemble_spinor(polar.closed_form(pts, spec))
               for spec, pts in _cases()]
    spinors.append(np.transpose(clifford.random_spinors(1000, seed=42)))
    for psi in spinors:
        theta, phi, U, S = _einsum_bilinears(psi)
        bl = clifford.bilinears(psi)
        assert np.array_equal(bl.theta, theta.real)
        assert np.array_equal(bl.phi, phi.real)
        assert np.array_equal(bl.U, U.real)
        assert np.array_equal(bl.S, S.real)


@pytest.mark.parametrize("make", MODELS[:2])
def test_covector_components_equal_the_four_operand_contraction(make):
    # the endpoint models against the reference's own njl and soler
    # coefficients; a sweep chunk of points in one call, and float points
    # one at a time
    for m, seed in ((0.5, 21), (1.0, 22), (2.0, 23)):
        p = make(m=m).p
        # the solution's quantum numbers, and wrong ones
        for spec in (ModelSpec(m=m, p=p), ModelSpec(m=m, p=p, E=1.1 * m, l=0.6)):
            pts = _points(spec, seed, equations.SWEEP_CHUNK)
            for pt in [pts, *_scalar_points(pts)]:
                chiral, density = equations.covector_components(pt, spec)
                ref_chiral, ref_density = _reference_covector(pt, spec)
                assert chiral.shape == density.shape == (4,) + pt.shape
                assert np.array_equal(chiral, ref_chiral), spec
                assert np.array_equal(density, ref_density), spec


def test_covector_epsilon_sums_keep_every_term(monkeypatch):
    # on the solution R, P, u and s vanish in some of the slots eps reaches,
    # so a dropped term there would not show; random fields fill every slot.
    # The solution leaves at most two nonzero terms in each component, whose
    # sum does not depend on the order; six random ones do.  Over an array
    # of points einsum adds them in lexicographic order, as the kernel does;
    # over a float point it vectorizes the sum in an order of its own, so
    # the float points are compared on the solution only.
    def random(lead, seed):
        return lambda *args: np.random.default_rng(seed).standard_normal(
            lead + args[0].shape)

    monkeypatch.setattr(geometry, "tensorial_connection_at", random((4, 4, 4), 1))
    monkeypatch.setattr(geometry, "velocity_covector", random((4,), 2))
    monkeypatch.setattr(geometry, "spin_covector", random((4,), 3))
    monkeypatch.setattr(geometry, "momentum_covector",
                        lambda E, l: np.random.default_rng(4).standard_normal(4))
    for spec in (ModelSpec.njl(), ModelSpec.soler()):
        pts = _points(spec, 25, equations.SWEEP_CHUNK)
        for pt in (pts, GridPoint(pts.r[:2], pts.theta[:2])):
            chiral, density = equations.covector_components(pt, spec)
            ref_chiral, ref_density = _reference_covector(pt, spec)
            assert np.array_equal(chiral, ref_chiral), spec
            assert np.array_equal(density, ref_density), spec


def _wrong_energy(spec):
    return ModelSpec(m=spec.m, p=spec.p, E=1.1 * spec.m, name=spec.name)


def test_covariant_derivative_equals_the_stacked_partials():
    # a sweep chunk of points in one call, and float points one at a time
    for spec, pts in _cases(equations.SWEEP_CHUNK):
        for model in (spec, _wrong_energy(spec)):
            for pt in [pts, *_scalar_points(pts)]:
                nabla, psi, f = polar.covariant_derivative(pt, model)
                ref_nabla, ref_psi, _ = _reference_covariant_derivative(
                    pt, model)
                assert nabla.shape == (4, 4) + pt.shape
                assert np.array_equal(nabla, ref_nabla), model
                assert np.array_equal(psi, ref_psi), model


def test_standard_form_equals_the_matrix_nonlinear_term():
    for spec, pts in _cases(equations.SWEEP_CHUNK):
        for model in (spec, _wrong_energy(spec)):
            for pt in [pts, *_scalar_points(pts)]:
                assert np.array_equal(equations.residual_standard(pt, model),
                                      _reference_standard(pt, model)), model


def _reference_derivatives(X, r_dX_dr, theta):
    """analytic_derivatives, each intermediate computed in place."""
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


def _reference_angles(pt, X, d):
    """The AngleState of the profile X and its partials d, with
    velocity_spin_components computing its own cos, sin and roots."""
    c = np.cos(pt.theta)
    q = np.sqrt(X * X + c * c)
    ch = np.sqrt(X * X + 1.0)
    return AngleState(
        sinh_alpha=np.sin(pt.theta) / q, cosh_alpha=ch / q,
        sin_gamma=X * np.sin(pt.theta) / q, cos_gamma=ch * c / q,
        d_alpha_dr=d.r_d_alpha_dr / pt.r, d_alpha_dtheta=d.d_alpha_dtheta,
        d_gamma_dr=d.r_d_gamma_dr / pt.r, d_gamma_dtheta=d.d_gamma_dtheta)


def _reference_closed_form(pt, spec):
    """closed_form composed of the formulas one by one, each computing
    cos and sin theta, sinh(zeta), X, r X' and the roots it needs."""
    sh2 = np.sinh(np.log(2.0 * spec.m * pt.r)) ** 2
    assert not np.any(np.real(sh2 + spec.p * np.cos(pt.theta) ** 2) <= 1e-28)
    sh = np.sinh(np.log(2.0 * spec.m * pt.r))
    c2 = np.cos(pt.theta) ** 2
    phi2 = 2.0 * np.sqrt(sh * sh + c2) / (pt.r * (sh * sh + spec.p * c2))
    u = 2.0 * spec.m * pt.r
    X = 0.5 * (u - 1.0 / u)
    d = _reference_derivatives(X, 0.5 * (u + 1.0 / u), pt.theta)
    c = np.cos(pt.theta)
    q = np.sqrt(X * X + c * c)
    r_dlog, dth_log = polar.module_log_derivatives(pt, spec)
    return ClosedForm(sin_beta=-c / q, cos_beta=X / q, phi2=phi2,
                      r_dlnphi2_dr=r_dlog, dlnphi2_dtheta=dth_log, derivs=d,
                      ang=_reference_angles(pt, X, d))


def _scalar_points(pts, n=20):
    """The first n points of pts, each as a GridPoint of floats."""
    return [GridPoint(r, th) for r, th in zip(pts.r[:n].tolist(),
                                              pts.theta[:n].tolist())]


def _equal_fields(a, b):
    """Whether two dataclasses hold np.array_equal values in every field."""
    return all(np.array_equal(x, y)
               for x, y in zip(vars(a).values(), vars(b).values()))


def test_closed_form_equals_the_formula_by_formula_composition():
    # on 200 points in one call and on 20 of them one float point at a time
    for spec, pts in _cases():
        for pt in [pts, *_scalar_points(pts)]:
            f, ref = polar.closed_form(pt, spec), _reference_closed_form(pt, spec)
            assert _equal_fields(f.derivs, ref.derivs), spec
            assert _equal_fields(f.ang, ref.ang), spec
            for name in ("sin_beta", "cos_beta", "phi2", "r_dlnphi2_dr",
                         "dlnphi2_dtheta"):
                assert np.array_equal(getattr(f, name), getattr(ref, name)), (
                    spec, name)
            # and so do the public formulas
            assert _equal_fields(polar.angle_state(pt, spec), ref.ang), spec
            X = polar.X_exact(pt.r, spec)
            d = polar.analytic_derivatives(
                X, polar.r_dX_dr_exact(pt.r, spec), pt.theta)
            assert _equal_fields(d, ref.derivs), spec
            assert np.array_equal(polar.chiral_components(X, pt.theta),
                                  (ref.sin_beta, ref.cos_beta))
            assert np.array_equal(
                geometry.velocity_spin_components(X, pt.theta),
                (ref.ang.sinh_alpha, ref.ang.cosh_alpha, ref.ang.sin_gamma,
                 ref.ang.cos_gamma))
            assert np.array_equal(polar.module_general_p(pt, spec), ref.phi2)
            general = ModelSpec.interpolating(spec.p, m=spec.m)
            assert np.array_equal(polar.phi2_grid(general, pt.r, pt.theta),
                                  ref.phi2)


def _einsum_spin_action(C, psi):
    """spin_action with the sum over the six pairs as an einsum."""
    pairs = 0.5 * (C[clifford._PAIR_A, clifford._PAIR_B]
                   - C[clifford._PAIR_B, clifford._PAIR_A])
    sigma_psi = (clifford.SIGMA_PAIR_STACK.reshape(-1, 4)
                 @ np.reshape(psi, (4, -1))).reshape((6,) + np.shape(psi))
    return np.einsum("km...,ki...->mi...", pairs, sigma_psi)


def test_spin_action_equals_the_einsum_over_the_pairs():
    rng = np.random.default_rng(5)
    for spec, pts in _cases():
        f = polar.closed_form(pts, spec)
        psi = polar.assemble_spinor(f)
        # the spin connection, and a C that is not antisymmetric
        for C in (geometry.spin_connection_at(pts, f.ang),
                  rng.standard_normal((4, 4, 4) + pts.shape)):
            assert np.array_equal(clifford.spin_action(C, psi),
                                  _einsum_spin_action(C, psi)), spec
        pt = _scalar_points(pts, 1)[0]
        f = polar.closed_form(pt, spec)
        psi = polar.assemble_spinor(f)
        C = geometry.spin_connection_at(pt, f.ang)
        assert np.array_equal(clifford.spin_action(C, psi),
                              _einsum_spin_action(C, psi)), spec
