"""The spinor and covector kernels equal, bit for bit, the matrix and einsum
expressions they stand in for.

Each reference below builds the per-point matrix or tensor and contracts
it: the rotation exp(-i beta pi/2) applied to the rest column, the
three-operand einsum bilinears, the dense Levi-Civita tensor of the
covector form's two eps contractions, the einsum over the pairs of the
spin action, the stacked partials of the covariant derivative and the
outer-built nonlinear operator of the standard form, and the einsums over
the dense Christoffel symbols and tensorial connection of the flatness
and curvature identities.  The kernels skip those per-point objects; on
the closed-form solutions every output must still be the same float.
The closed form itself shares its intermediates between formulas; its
reference evaluates each formula on its own, recomputing them.
"""

import itertools

import numpy as np
import pytest

from nldirac import clifford, equations, geometry, grids, polar, sparse, verify
from nldirac.geometry import AngleState, GridPoint
from nldirac.polar import ClosedForm, Density, ModelSpec

MODELS = ("njl", "soler", "p:0.5")


def _points(spec, seed, n=200):
    """n seeded points outside the mask, in one GridPoint of arrays."""
    return grids.sample_points(
        np.random.default_rng(seed), n, m=spec.m,
        reject=lambda pt: equations.is_masked(pt, spec))


def _cases(n=200):
    for model in MODELS:
        for m, seed in ((0.5, 11), (1.0, 12), (2.0, 13)):
            spec = ModelSpec(model, m=m)
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
    return np.sqrt(f.density.phi2) * np.einsum("ij...,j->i...", rot, rest)


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
    ang, d = f.ang, f.density
    g = geometry.inverse_metric_at(pt)
    Rc = sparse.dense(clifford.unpaired(
        geometry.tensorial_connection_at(pt, ang)), pt.shape)
    eps = _dense_epsilon(pt)
    u = sparse.dense(geometry.velocity_covector(pt, ang), pt.shape)
    s_cov = sparse.dense(geometry.spin_covector(pt, ang), pt.shape)
    P = geometry.momentum_covector(spec.E, spec.l)
    R_up3 = g[:, None, None] * g[None, :, None] * g[None, None, :] * Rc
    B = 0.5 * np.einsum("mani...,ani...->m...", eps, R_up3)
    R_trace = np.einsum("n...,mnn...->m...", g, Rc)
    P_up = np.einsum("m...,m->m...", g, P)
    u_up, s_up = g * u, g * s_cov
    Ps = np.einsum("m,m...->...", P, s_up)
    Pu = np.einsum("m,m...->...", P, u_up)
    dbeta = np.stack(np.broadcast_arrays(
        0.0, f.r_d_beta_dr / pt.r, f.d_beta_dtheta, 0.0))
    dlnphi2 = np.stack(np.broadcast_arrays(
        0.0, d.r_dlnphi2_dr / pt.r, d.dlnphi2_dtheta, 0.0))
    if spec.name == "njl":
        nl_chiral, nl_density = d.phi2, 0.0
    else:
        nl_chiral, nl_density = d.phi2 * f.cos_beta**2, d.phi2 * f.cos_beta
    chiral = (dbeta + B + 2.0 * Ps * u - 2.0 * Pu * s_cov
              + (2.0 * spec.m * f.cos_beta - nl_chiral) * s_cov)
    axial_term = -2.0 * np.einsum("r...,n...,a...,mrna...->m...", P_up, u_up,
                                  s_up, eps)
    density = (dlnphi2 + R_trace + axial_term
               + (2.0 * spec.m - nl_density) * f.sin_beta * s_cov)
    return chiral, density


def _reference_covariant_derivative(pt, spec, f):
    """covariant_derivative as the stack of the four partials plus the
    einsum spin action."""
    psi = polar.assemble_spinor(f)
    d_dr, d_dth = (sparse.dense(partial, pt.shape) for partial
                   in polar.spinor_coordinate_partials(pt, f, psi))
    dpsi = np.stack([-1j * spec.E * psi, d_dr, d_dth, -1j * spec.l * psi])
    pairs = geometry.spin_connection_at(pt, f.ang)
    return dpsi + _einsum_spin_action(pairs, psi), psi


def _reference_standard(pt, spec):
    """residual_standard on the reference covariant derivative, with the
    einsum bilinears and the nonlinear operator built as a 4x4 matrix per
    point."""
    f = polar.closed_form(pt, spec)
    nabla, psi = _reference_covariant_derivative(pt, spec, f)
    xi = sparse.dense(geometry.tetrad_at(pt, f.ang), pt.shape)
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
    spec = ModelSpec("njl")
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


def test_theta_phi_equals_the_einsum_contractions():
    # the standard form's Theta and Phi from their two kernels alone are
    # those of the ten-kernel bilinears and of the three-operand einsums
    spinors = [polar.assemble_spinor(polar.closed_form(pts, spec))
               for spec, pts in _cases()]
    spinors.append(np.transpose(clifford.random_spinors(1000, seed=42)))
    for psi in spinors:
        theta, phi, _, _ = _einsum_bilinears(psi)
        bl = clifford.bilinears(psi)
        got_theta, got_phi = clifford.theta_phi(psi)
        assert np.array_equal(got_theta, theta.real)
        assert np.array_equal(got_phi, phi.real)
        assert np.array_equal(got_theta, bl.theta)
        assert np.array_equal(got_phi, bl.phi)


@pytest.mark.parametrize("model", MODELS[:2])
def test_covector_components_equal_the_four_operand_contraction(model):
    # the endpoint models against the reference's own njl and soler
    # coefficients; a sweep chunk of points in one call, and float points
    # one at a time
    for m, seed in ((0.5, 21), (1.0, 22), (2.0, 23)):
        # the solution's quantum numbers, and wrong ones
        for spec in (ModelSpec(model, m=m),
                     ModelSpec(model, m=m, E=1.1 * m, l=0.6)):
            pts = _points(spec, seed, equations.SWEEP_CHUNK)
            for pt in [pts, *_scalar_points(pts)]:
                chiral, density = equations.covector_components(
                    pt, spec, polar.closed_form(pt, spec))
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
        return lambda *args: sparse.live(np.random.default_rng(
            seed).standard_normal(lead + args[0].shape), lead)

    monkeypatch.setattr(geometry, "tensorial_connection_at", random((6, 4), 1))
    monkeypatch.setattr(geometry, "velocity_covector", random((4,), 2))
    monkeypatch.setattr(geometry, "spin_covector", random((4,), 3))
    monkeypatch.setattr(geometry, "momentum_covector",
                        lambda E, l: np.random.default_rng(4).standard_normal(4))
    for spec in (ModelSpec("njl"), ModelSpec("soler")):
        pts = _points(spec, 25, equations.SWEEP_CHUNK)
        for pt in (pts, GridPoint(pts.r[:2], pts.theta[:2])):
            chiral, density = equations.covector_components(
                pt, spec, polar.closed_form(pt, spec))
            ref_chiral, ref_density = _reference_covector(pt, spec)
            assert np.array_equal(chiral, ref_chiral), spec
            assert np.array_equal(density, ref_density), spec


def _wrong_energy(spec):
    return ModelSpec(spec.name, m=spec.m, E=1.1 * spec.m)


def test_covariant_derivative_equals_the_stacked_partials():
    # a sweep chunk of points in one call, and float points one at a time
    for spec, pts in _cases(equations.SWEEP_CHUNK):
        for model in (spec, _wrong_energy(spec)):
            for pt in [pts, *_scalar_points(pts)]:
                f = polar.closed_form(pt, model)
                nabla, psi = polar.covariant_derivative(pt, model, f)
                ref_nabla, ref_psi = _reference_covariant_derivative(
                    pt, model, f)
                assert nabla.shape == (4, 4) + pt.shape
                assert np.array_equal(nabla, ref_nabla), model
                assert np.array_equal(psi, ref_psi), model


def test_standard_form_equals_the_matrix_nonlinear_term():
    for spec, pts in _cases(equations.SWEEP_CHUNK):
        for model in (spec, _wrong_energy(spec)):
            for pt in [pts, *_scalar_points(pts)]:
                assert np.array_equal(
                    equations.residual_standard(
                        pt, model, polar.closed_form(pt, model)),
                    _reference_standard(pt, model)), model


def test_a_nan_in_the_spinor_fails_the_standard_form(monkeypatch):
    # skipping the rows and components that are zero at every point must
    # not skip a NaN: in either a nonzero component of psi or one that is
    # zero everywhere else, a NaN at one point makes that point's residual
    # non-finite and fails standard-residuals through run_suites
    assemble = polar.assemble_spinor
    spec = ModelSpec("njl")
    pts = _points(spec, 26, 50)
    f = polar.closed_form(pts, spec)
    for component in (0, 1):
        def poisoned(f):
            psi = assemble(f)
            psi.reshape(4, -1)[component, 1] = np.nan
            return psi

        with monkeypatch.context() as patch:
            patch.setattr(polar, "assemble_spinor", poisoned)
            res = equations.residual_standard(pts, spec, f)
            report = verify.run_suites(spec, grids.GridConfig(n_r=25,
                                                              n_theta=20))
        assert not np.isfinite(res[1]), component
        assert np.isfinite(np.delete(res, 1)).all(), component
        assert "standard-residuals" in report["failing_suites"], component
        assert not np.isfinite(
            report["suites"]["standard-residuals"]["max_residual"])


def _reference_closed_form(pt, spec):
    """closed_form composed of the formulas one by one, each computing
    cos and sin theta, the profile X, cosh zeta = sqrt(X^2 + 1) and the
    sums and roots it needs."""
    p, c, s = spec.p, np.cos(pt.theta), np.sin(pt.theta)
    u = 2.0 * spec.m * pt.r
    X = (u - 1.0) * (u + 1.0) * (0.5 / u)
    assert not np.any(np.real(X * X + p * (c * c)) <= 1e-28)
    phi2 = 2.0 * np.sqrt(X * X + c * c) / (pt.r * (X * X + p * (c * c)))
    ch = np.sqrt(X * X + 1.0)
    r_dlog = X * ch * (1.0 / (X * X + c * c)
                       - 2.0 / (X * X + p * (c * c))) - 1.0
    dth_log = -s * c / (X * X + c * c) + 2.0 * p * s * c / (
        X * X + p * (c * c))
    D = X * X + c * c
    q = np.sqrt(X * X + c * c)
    ang = AngleState(
        sinh_alpha=s / q, cosh_alpha=ch / q,
        sin_gamma=X * s / q, cos_gamma=ch * c / q,
        d_alpha_dr=-X * s / D / pt.r,
        d_alpha_dtheta=ch * c / D,
        d_gamma_dr=c * s / D / pt.r,
        d_gamma_dtheta=X * ch / D)
    density = Density(c=c, s=s, sh=X, ch=ch, D=X * X + c * c, q=q,
                      S=X * X + p * (c * c), phi2=phi2, r_dlnphi2_dr=r_dlog,
                      dlnphi2_dtheta=dth_log)
    return ClosedForm(sin_beta=-c / q, cos_beta=X / q,
                      r_d_beta_dr=ch * c / D, d_beta_dtheta=X * s / D,
                      density=density, ang=ang)


def _scalar_points(pts, n=20):
    """The first n points of pts, each as a GridPoint of floats."""
    return [GridPoint(r, th) for r, th in zip(pts.r[:n].tolist(),
                                              pts.theta[:n].tolist())]


def _equal_fields(a, b):
    """Whether two records hold np.array_equal values in every field."""
    return all(np.array_equal(x, y)
               for x, y in zip(a, b))


def test_closed_form_equals_the_formula_by_formula_composition():
    # on 200 points in one call and on 20 of them one float point at a time
    for spec, pts in _cases():
        for pt in [pts, *_scalar_points(pts)]:
            f, ref = polar.closed_form(pt, spec), _reference_closed_form(pt, spec)
            assert _equal_fields(f.ang, ref.ang), spec
            assert _equal_fields(f.density, ref.density), spec
            for name in ("sin_beta", "cos_beta", "r_d_beta_dr",
                         "d_beta_dtheta"):
                assert np.array_equal(getattr(f, name), getattr(ref, name)), (
                    spec, name)
            # and so do the public formulas
            assert _equal_fields(polar.angle_state(pt, spec), ref.ang), spec
            X = polar.X_exact(pt.r, spec)
            assert np.array_equal(polar.chiral_components(X, pt.theta),
                                  (ref.sin_beta, ref.cos_beta))
            assert np.array_equal(polar.density(pt, spec).phi2,
                                  ref.density.phi2)
            general = ModelSpec(f"p:{spec.p}", m=spec.m)
            assert np.array_equal(polar.phi2_grid(general, pt.r, pt.theta),
                                  ref.density.phi2)


def _einsum_spin_action(pairs, psi):
    """spin_action with the sum over the six pairs as an einsum over the
    dense pair layout of the Live of the pair rows."""
    sigma_psi = (clifford.SIGMA_PAIR_STACK.reshape(-1, 4)
                 @ np.reshape(psi, (4, -1))).reshape((6,) + np.shape(psi))
    return np.einsum("km...,ki...->mi...",
                     sparse.dense(pairs, np.shape(psi)[1:]), sigma_psi)


def test_spin_action_equals_the_einsum_over_the_pairs():
    rng = np.random.default_rng(5)
    for spec, pts in _cases():
        f = polar.closed_form(pts, spec)
        psi = polar.assemble_spinor(f)
        # the spin connection, and random pairs, each entry nonzero
        for pairs in (geometry.spin_connection_at(pts, f.ang),
                      sparse.live(rng.standard_normal((6, 4) + pts.shape),
                                  (6, 4))):
            assert np.array_equal(clifford.spin_action(pairs, psi),
                                  _einsum_spin_action(pairs, psi)), spec
        pt = _scalar_points(pts, 1)[0]
        f = polar.closed_form(pt, spec)
        psi = polar.assemble_spinor(f)
        pairs = geometry.spin_connection_at(pt, f.ang)
        assert np.array_equal(clifford.spin_action(pairs, psi),
                              _einsum_spin_action(pairs, psi)), spec


def _reference_riemann(pt):
    """riemann_at with each product and sum an einsum over the dense
    Christoffel symbols and their stacked complex-step partials."""
    def christoffel(p):
        return sparse.dense(geometry.christoffel_at(p), p.shape)

    lam = christoffel(pt)
    d_dr, d_dth = geometry.complex_step_partials(christoffel, pt)
    dlam = np.zeros((4,) + np.shape(d_dr), dtype=np.result_type(d_dr, d_dth))
    dlam[geometry.R], dlam[geometry.TH] = d_dr, d_dth
    term = (np.einsum("mrns...->rsmn...", dlam)
            - np.einsum("nrms...->rsmn...", dlam))
    prod = (np.einsum("rml...,lns...->rsmn...", lam, lam)
            - np.einsum("rnl...,lms...->rsmn...", lam, lam))
    return term + prod


def _mixed_connection(pt, spec):
    """g^i R_{ij mu} of the closed form as a dense tensor."""
    pairs = geometry.tensorial_connection_at(pt, polar.angle_state(pt, spec))
    return (geometry.inverse_metric_at(pt)[:, None, None]
            * sparse.dense(clifford.unpaired(pairs), pt.shape))


def _reference_curvature(pt, spec):
    """curvature_strength_residuals with each product and sum an einsum
    over the dense mixed connection, its stacked partials and the dense
    Christoffel symbols."""
    d_dr, d_dth = geometry.complex_step_partials(
        lambda p: _mixed_connection(p, spec), pt)
    dR = np.zeros((4,) + np.shape(d_dr), dtype=np.result_type(d_dr, d_dth))
    dR[geometry.R], dR[geometry.TH] = d_dr, d_dth
    Rm = _mixed_connection(pt, spec)
    lam = sparse.dense(geometry.christoffel_at(pt), pt.shape)
    cov = (dR + np.einsum("ism...,sjn...->mijn...", lam, Rm)
           - np.einsum("sjm...,isn...->mijn...", lam, Rm)
           - np.einsum("snm...,ijs...->mijn...", lam, Rm))
    curv = (np.einsum("mijn...->ijmn...", cov)
            - np.einsum("nijm...->ijmn...", cov)
            + np.einsum("ikm...,kjn...->ijmn...", Rm, Rm)
            - np.einsum("ikn...,kjm...->ijmn...", Rm, Rm))
    return (float(np.max(np.abs(curv))),)


def _stepped(pts):
    """pts under the r step and under the theta step of the complex-step
    partials."""
    h_r = np.minimum(geometry.CS_STEP, 1e-20 * pts.r)
    return [GridPoint(pts.r + 1j * h_r, pts.theta),
            GridPoint(pts.r, pts.theta + 1j * geometry.CS_STEP)]


def test_flatness_and_curvature_equal_the_dense_einsums():
    # the sampled suites' 50 points in one call, under both complex steps,
    # and float points one at a time
    for spec, pts in _cases(50):
        for pt in [pts, *_stepped(pts), *_scalar_points(pts, 10)]:
            riemann = geometry.riemann_at(pt)
            assert riemann.shape == (4, 4, 4, 4) + pt.shape
            assert np.array_equal(riemann, _reference_riemann(pt)), spec
            assert geometry.curvature_strength_residuals(
                pt, lambda p: polar.angle_state(p, spec)) == (
                    _reference_curvature(pt, spec)), spec


def test_live_mixed_connection_equals_the_dense_product_at_the_steps():
    # at the points of both complex steps, where the partials read it, and
    # at the real points
    for spec, pts in _cases(50):
        for p in [pts, *_stepped(pts)]:
            live = geometry._mixed_connection(p, polar.angle_state(p, spec))
            assert len(live.index) == 12, spec
            assert np.array_equal(sparse.dense(live, p.shape),
                                  _mixed_connection(p, spec)), spec


def _no_entry(layout, pt):
    """A field of the layout ``layout`` with no live entry at the points of
    ``pt``."""
    return sparse.Live(layout, (), np.empty(
        (0,) + np.shape(pt.r), dtype=np.result_type(pt.r, pt.theta)))


@pytest.mark.parametrize("pt", [GridPoint(1.3, 0.7),
                                GridPoint(np.linspace(0.5, 3.0, 5), 0.7)],
                         ids=["float", "5 points"])
def test_a_live_with_no_entry_reads_and_expands_to_nothing(pt):
    points = np.shape(pt.r)
    for layout in ((6, 4), (4, 4, 4)):
        field = _no_entry(layout, pt)
        assert sparse.live_rows(field.values).shape == (0,)
        zeros = np.zeros(layout + points)
        assert np.array_equal(sparse.dense(field, points), zeros)
        back = sparse.live(zeros, layout)
        assert back.index == () and back.values.shape == (0,) + points
    full = clifford.unpaired(_no_entry((6, 4), pt))
    assert full.shape == (4, 4, 4) and full.index == ()
    assert full.values.shape == (0,) + points
    psi = np.ones((4,) + points, dtype=complex)
    assert np.array_equal(clifford.spin_action(_no_entry((6, 4), pt), psi),
                          np.zeros((4, 4) + points))


def test_a_tensorial_connection_with_no_entry_gives_finite_residuals(
        monkeypatch):
    # the sampled suites that read the tensorial connection evaluate with
    # no live entry of it, under both complex steps too
    spec = ModelSpec("njl")
    sample = verify.draw_sample(spec, 42)
    monkeypatch.setattr(geometry, "tensorial_connection_at",
                        lambda pt, ang: _no_entry((6, 4), pt))
    (curvature,) = geometry.curvature_strength_residuals(
        sample.points, sample.angle_field)
    transport = geometry.transport_residuals(sample.points,
                                             sample.angle_field)
    decomposition = polar.polar_decomposition_residual(sample.points, spec)
    assert np.isfinite([curvature, *transport, decomposition]).all()


@pytest.mark.parametrize("subscripts", [
    "rml,lns->rsmn", "ism,sjn->mijn", "sjm,isn->mijn", "snm,ijs->mijn",
    "ikm,kjn->ijmn"])
def test_live_contraction_equals_the_einsum(subscripts):
    # random fields whose entries are live with probability 0.15, 0.5 and
    # 1, so that an entry sums from one to four products, each field with
    # one more entry live at one point alone
    rng = np.random.default_rng(29)
    inputs, out = subscripts.split("->")
    dense = ",".join(f"{s}..." for s in inputs.split(",")) + f"->{out}..."
    for share in (0.15, 0.5, 1.0):
        a, b = (rng.standard_normal((4, 4, 4, 7))
                * (rng.random((4, 4, 4, 1)) < share) for _ in range(2))
        for field in (a, b):
            zero = np.argwhere(~field.any(axis=-1))
            if len(zero):
                field[tuple(zero[0])][3] = rng.standard_normal()
        live = sparse.contract(subscripts, sparse.live(a, (4, 4, 4)),
                               sparse.live(b, (4, 4, 4)))
        assert np.array_equal(sparse.dense(live, (7,)),
                              np.einsum(dense, a, b)), share
