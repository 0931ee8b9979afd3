import copy
import pickle

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nldirac import clifford, geometry, grids, ode, polar, sparse
from nldirac.errors import SingularG, SingularPoint
from nldirac.geometry import GridPoint, complex_step_partials
from nldirac.polar import (
    G_exact,
    ModelSpec,
    X_exact,
    assemble_spinor,
    chiral_components,
    closed_form,
    covariant_derivative,
    density,
    phi2_grid,
    polar_decomposition_residual,
)


def module_general_p(pt, spec):
    """The density phi^2 of any p, read off the closed form's density step.
    At p = 1 it is the chiral density 8m / sqrt(16 m^4 r^4 + 8 m^2 r^2
    cos 2theta + 1), at p = 0 the scalar one sqrt(X^2 + cos^2 theta) G(r);
    those spellings lose digits near 2mr = 1, and this one keeps full
    precision there."""
    return density(pt, spec).phi2


def _radicand(pt, m):
    """16 m^4 r^4 + 8 m^2 r^2 cos 2theta + 1; vanishes only on the ring."""
    return (16.0 * m**4 * pt.r**4 + 8.0 * m**2 * pt.r**2 * np.cos(2.0 * pt.theta)
            + 1.0)


def module_njl(pt, spec):
    """Reference chiral density 8m / sqrt(16 m^4 r^4 + 8 m^2 r^2 cos 2theta
    + 1), the paper's spelling; refuses the equatorial ring 2mr = 1."""
    radicand = _radicand(pt, spec.m)
    if np.any(radicand <= 1e-28):
        raise SingularPoint(*pt.first(radicand <= 1e-28), "ring 2mr = 1")
    return 8.0 * spec.m / np.sqrt(radicand)


def module_soler(pt, spec):
    """Reference scalar density 8m sqrt(radicand) / (4 m^2 r^2 - 1)^2;
    refuses the whole sphere 2mr = 1."""
    shell = (4.0 * spec.m**2 * pt.r**2 - 1.0) ** 2
    if np.any(shell <= 1e-28):
        raise SingularPoint(*pt.first(shell <= 1e-28), "sphere 2mr = 1")
    return 8.0 * spec.m * np.sqrt(_radicand(pt, spec.m)) / shell


def random_points(n, seed=2024, r_lo=0.1, r_hi=10.0, ring_margin=0.05):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        r = float(np.exp(rng.uniform(np.log(r_lo), np.log(r_hi))))
        th = float(rng.uniform(0.3, np.pi - 0.3))
        if abs(2.0 * r - 1.0) < ring_margin:
            continue
        pts.append(GridPoint(r, th))
    return pts


def test_model_spec_defaults_and_validation():
    spec = ModelSpec("njl", m=2.0)
    assert spec.E == 2.0 and spec.l == 0.5 and spec.p == 1.0
    assert ModelSpec("soler").p == 0.0
    assert ModelSpec("p:0.3").p == 0.3
    with pytest.raises(ValueError, match="mass must be positive"):
        ModelSpec(m=-1.0)
    with pytest.raises(ValueError, match="interpolation parameter"):
        ModelSpec("p:1.5")
    with pytest.raises(ValueError, match="unknown model 'bogus'"):
        ModelSpec("bogus")
    with pytest.raises(ValueError, match="p must be a number, got 'abc'"):
        ModelSpec("p:abc")
    # p is derived from the model's text and cannot be given beside it
    with pytest.raises(TypeError):
        ModelSpec("njl", p=0.5)
    # one canonical name per model; an interpolating run at an endpoint
    # keeps its own
    assert ModelSpec().name == "njl"
    assert ModelSpec("p:0.250").name == "p:0.25"
    assert ModelSpec("p:1.0").name == "p:1" and ModelSpec("p:1").p == 1.0
    # a copy with another mass or energy keeps the model
    original = ModelSpec("p:0.50")
    copy = ModelSpec(original.name, m=2.0, E=3.0, l=original.l)
    assert (copy.name, copy.p, copy.m, copy.E) == ("p:0.5", 0.5, 2.0, 3.0)


def test_a_model_name_gives_back_its_p():
    # the canonical name is p:<p:g> where that text reads back as p, and
    # p:<p!r> where it does not, so two models never share a name
    spec = ModelSpec("p:0.123456789")
    assert spec.name == "p:0.123456789"
    assert ModelSpec(spec.name).p == 0.123456789
    assert ModelSpec("p:0.1234567").name != ModelSpec("p:0.1234568").name
    # a p that %g spells whole keeps its text
    for name in ("njl", "soler", "p:0.5", "p:1", "p:0", "p:1e-23"):
        assert ModelSpec(name).name == name
    assert ModelSpec("p:0.50").name == "p:0.5"


def test_checked_records_survive_pickle_and_copy():
    # a record that checks its values comes back whole, p included
    records = (ModelSpec("p:0.123456789", m=2.0, E=3.0, l=0.7),
               grids.GridConfig(r_min=0.1, n_theta=7),
               ode.IntegratorConfig(r_span=(1.0, 2.0), rtol=1e-7),
               GridPoint(1.5, 0.5))
    for record in records:
        for restored in (pickle.loads(pickle.dumps(record)),
                         copy.copy(record), copy.deepcopy(record)):
            assert type(restored) is type(record)
            assert restored == record
    assert pickle.loads(pickle.dumps(records[0])).p == 0.123456789


def test_X_exact_values():
    spec = ModelSpec(m=1.0)
    assert X_exact(0.5, spec) == pytest.approx(0.0, abs=1e-16)
    assert X_exact(1.0, spec) == pytest.approx(0.75)
    spec2 = ModelSpec(m=3.0)
    assert X_exact(1.0 / 6.0, spec2) == pytest.approx(0.0, abs=1e-16)


def test_X_is_sinh_of_log_over_six_decades():
    spec = ModelSpec(m=1.0)
    rs = np.geomspace(0.01, 100.0, 400)
    X = X_exact(rs, spec)
    ref = np.sinh(np.log(2.0 * rs))
    assert np.max(np.abs(X - ref) / np.maximum(np.abs(ref), 1.0)) <= 1e-14
    # cosh zeta = sqrt(X^2 + 1) = r X' of the density step
    ch = density(GridPoint(rs, 1.0), spec).ch
    assert np.allclose(ch, np.cosh(np.log(2 * rs)), rtol=1e-14)


def test_profile_keeps_full_precision_next_to_the_locus():
    # at 2mr = 1 -+ d, against 50 digits at the float product u = 2mr: the
    # spelling (u - 1/u)/2 cancels there (5.6e-5 relative at d = 1e-12)
    for m in (0.5, 1.7, 3.0):
        spec = ModelSpec("soler", m=m)
        for d in (1e-4, 1e-8, 1e-12):
            for r in ((1.0 - d) / (2.0 * m), (1.0 + d) / (2.0 * m)):
                with mpmath.workdps(50):
                    u = mpmath.mpf(2.0 * m * r)
                    X = (u - 1 / u) / 2
                    G = 2 / (mpmath.mpf(r) * X * X)
                assert abs(X_exact(r, spec) / X - 1) <= 1e-15, (m, d, r)
                assert abs(G_exact(r, spec) / G - 1) <= 1e-15, (m, d, r)


def test_G_exact_values_and_singularity():
    spec = ModelSpec(m=1.0)
    assert G_exact(1.0, spec) == pytest.approx(2.0 / 0.5625, rel=1e-14)
    X10 = 0.5 * (20.0 - 1.0 / 20.0)
    assert X10 == pytest.approx(9.975)
    assert G_exact(10.0, spec) == pytest.approx(2.0 / (10.0 * X10**2), rel=1e-14)
    with pytest.raises(SingularG):
        G_exact(0.5, spec)


def test_G_exact_takes_an_array_of_radii():
    for m in (0.5, 1.0, 3.0):
        spec = ModelSpec("soler", m=m)
        rs = np.geomspace(0.01, 100.0, 50) / m
        G = G_exact(rs, spec)
        assert G.shape == rs.shape
        assert np.array_equal(G, [G_exact(float(r), spec) for r in rs])
        # the first radius with 2mr = 1 is named
        with pytest.raises(SingularG, match=repr(0.5 / m)):
            G_exact(np.array([1.0, 0.5, 2.0, 0.5]) / m, spec)


def test_module_njl_values():
    spec = ModelSpec("njl", m=1.0)
    # regular at the origin: phi^2 -> 8m
    assert module_njl(GridPoint(1e-6, 1.1), spec) == pytest.approx(8.0, rel=1e-10)
    # on the singular ring
    with pytest.raises(SingularPoint):
        module_njl(GridPoint(0.5, np.pi / 2), spec)
    # same radius on the axis stays finite: radicand = 1 + 2 + 1 = 4
    assert phi2_grid(spec, 0.5, 0.0) == pytest.approx(4.0, rel=1e-14)
    assert module_njl(GridPoint(0.5, 1e-3), spec) == pytest.approx(4.0, rel=1e-5)


def test_module_soler_values():
    spec = ModelSpec("soler", m=1.0)
    for th in (0.3, 1.2, np.pi / 2):
        with pytest.raises(SingularPoint):
            module_soler(GridPoint(0.5, th), spec)
    assert module_soler(GridPoint(1e-6, 0.7), spec) == pytest.approx(8.0, rel=1e-10)
    r = 100.0
    assert module_soler(GridPoint(r, np.pi / 2), spec) * r * r == pytest.approx(
        2.0, rel=1e-3
    )


def test_module_prefactor_consistency_with_closed_form():
    # the compact 2/(r sqrt(X^2 + cos^2)) form and the explicit radicand form
    # of the chiral density must agree once the exact profile is inserted
    spec = ModelSpec("njl", m=1.0)
    for pt in random_points(100):
        X = X_exact(pt.r, spec)
        compact = 2.0 / (pt.r * np.sqrt(X * X + np.cos(pt.theta) ** 2))
        assert module_njl(pt, spec) == pytest.approx(compact, rel=1e-12)


def test_module_soler_factorizes_through_G():
    spec = ModelSpec("soler", m=1.0)
    for pt in random_points(100):
        X = X_exact(pt.r, spec)
        factored = np.sqrt(X * X + np.cos(pt.theta) ** 2) * G_exact(pt.r, spec)
        assert module_soler(pt, spec) == pytest.approx(factored, rel=1e-12)


def test_general_p_endpoint_agreement():
    m = 1.3
    spec = ModelSpec("p:0.5", m=m)
    for pt in random_points(100, r_lo=0.05 / m, r_hi=20.0 / m):
        if abs(2 * m * pt.r - 1) < 0.05:
            continue
        njl = module_njl(pt, ModelSpec("njl", m=m))
        soler = module_soler(pt, ModelSpec("soler", m=m))
        general = {p: module_general_p(pt, ModelSpec(f"p:{p}", m=m))
                   for p in (1.0, 0.0)}
        assert general[1.0] == pytest.approx(njl, rel=1e-12)
        assert general[0.0] == pytest.approx(soler, rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(r=st.floats(0.01, 100.0), theta=st.floats(1e-3, np.pi - 1e-3),
       m=st.floats(0.25, 4.0))
def test_closed_form_densities_equal_general_p(r, theta, m):
    # r in Compton lengths; the singular radius 2mr = 1 is kept out
    assume(abs(2.0 * r - 1.0) > 0.05)
    pt = GridPoint(r / m, theta)
    njl, soler = ModelSpec("njl", m=m), ModelSpec("soler", m=m)
    assert module_njl(pt, njl) == pytest.approx(module_general_p(pt, njl),
                                                rel=1e-12)
    assert module_soler(pt, soler) == pytest.approx(module_general_p(pt, soler),
                                                    rel=1e-12)


def test_general_p_singular_on_ring():
    spec = ModelSpec("p:0.5", m=1.0)
    with pytest.raises(SingularPoint):
        module_general_p(GridPoint(0.5, np.pi / 2), spec)
    # off the equator the interpolated density is finite at 2mr = 1
    assert module_general_p(GridPoint(0.5, 1.0), spec) > 0.0


def test_angle_state_refuses_the_ring():
    # the kinematic quotients are 0/0 exactly there; no limit is taken
    spec = ModelSpec("njl")
    with pytest.raises(SingularPoint):
        polar.angle_state(GridPoint(0.5, np.pi / 2), spec)
    assert polar.angle_state(GridPoint(0.5, 1.0), spec).cosh_alpha > 0


def test_module_positivity_and_tail():
    for spec in (ModelSpec("njl"), ModelSpec("soler")):
        for pt in random_points(50):
            val = phi2_grid(spec, pt.r, pt.theta)
            assert val > 0.0
        r2 = float(phi2_grid(spec, 100.0, 1.0)) * 100.0**2
        assert r2 == pytest.approx(2.0, rel=1e-3)
        r3 = float(phi2_grid(spec, 1000.0, 1.0)) * 1000.0**2
        assert r3 == pytest.approx(2.0, rel=1e-5)


def test_analytic_derivatives_equatorial_values():
    # X = 0.8 at 2r = 0.8 + sqrt(1.64); on the equator the radial partials
    # vanish up to cos(fl(pi/2)) = 6e-17
    spec = ModelSpec(m=1.0)
    r = (0.8 + np.sqrt(1.64)) / 2.0
    X = X_exact(r, spec)
    f = closed_form(GridPoint(r, np.pi / 2), spec)
    assert X == pytest.approx(0.8)
    assert f.ang.d_gamma_dtheta == pytest.approx(np.sqrt(X * X + 1.0) / X)
    assert r * f.ang.d_gamma_dr == pytest.approx(0.0, abs=1e-16)
    assert f.d_beta_dtheta == pytest.approx(1.0 / X)
    assert f.r_d_beta_dr == pytest.approx(0.0, abs=1e-15)


def test_analytic_derivatives_match_finite_differences():
    spec = ModelSpec(m=1.0)
    h = 1e-5
    worst = 0.0

    def angles(r, th):
        return polar.angle_state(GridPoint(r, th), spec)

    def gamma(r, th):
        ang = angles(r, th)
        return np.arctan2(ang.sin_gamma, ang.cos_gamma)

    def alpha(r, th):
        return np.arcsinh(angles(r, th).sinh_alpha)

    def beta(r, th):
        sb, cb = chiral_components(X_exact(r, spec), th)
        return np.arctan2(sb, cb)

    # scalar-angle differences need a branch-cut-free region: keep X > 0
    for pt in random_points(50, r_lo=0.6, r_hi=10.0):
        f = closed_form(pt, spec)
        ang = f.ang
        for fn, dth, dr in (
            (gamma, ang.d_gamma_dtheta, ang.d_gamma_dr),
            (alpha, ang.d_alpha_dtheta, ang.d_alpha_dr),
            (beta, f.d_beta_dtheta, f.r_d_beta_dr / pt.r),
        ):
            fd_th = (fn(pt.r, pt.theta + h) - fn(pt.r, pt.theta - h)) / (2 * h)
            fd_r = (fn(pt.r + h, pt.theta) - fn(pt.r - h, pt.theta)) / (2 * h)
            worst = max(worst, abs(fd_th - dth), abs(pt.r * (fd_r - dr)))
    assert worst <= 1e-6


def test_derivative_component_identity_across_sign_change():
    # d_theta sin(beta) = cos(beta) d_theta beta holds on both sides of X = 0
    spec = ModelSpec(m=1.0)
    h = 1e-6
    for pt in random_points(30, r_lo=0.1, r_hi=10.0):
        X = X_exact(pt.r, spec)
        d_beta_dtheta = closed_form(pt, spec).d_beta_dtheta
        sb_p, _ = chiral_components(X, pt.theta + h)
        sb_m, _ = chiral_components(X, pt.theta - h)
        _, cb = chiral_components(X, pt.theta)
        assert (sb_p - sb_m) / (2 * h) == pytest.approx(
            cb * d_beta_dtheta, abs=1e-6
        )


def test_polar_state_invariants():
    spec = ModelSpec("njl")
    for pt in random_points(30):
        st = closed_form(pt, spec)
        assert polar.X_exact(pt.r, spec) == pytest.approx(
            np.sinh(np.log(2.0 * spec.m * pt.r)), abs=1e-12)
        assert st.sin_beta**2 + st.cos_beta**2 == pytest.approx(1.0, abs=1e-12)
        assert st.density.phi2 > 0.0


def test_assembled_spinor_rest_frame_bilinears():
    spec = ModelSpec(m=1.0)
    pt = GridPoint(1.0, np.pi / 2)  # beta = 0 here
    f = closed_form(pt, spec)
    psi = assemble_spinor(f._replace(density=f.density._replace(phi2=1.0)))
    bl = clifford.bilinears(psi)
    assert bl.phi == pytest.approx(2.0, rel=1e-14)
    assert bl.theta == pytest.approx(0.0, abs=1e-14)


def test_assembled_spinor_chiral_ratio():
    spec = ModelSpec("njl", m=1.0)
    pt = GridPoint(1.0, np.pi / 4)
    psi = assemble_spinor(closed_form(pt, spec))
    bl = clifford.bilinears(psi)
    X = X_exact(pt.r, spec)
    assert bl.theta / bl.phi == pytest.approx(-np.cos(pt.theta) / X, rel=1e-12)
    sb, cb = chiral_components(X, pt.theta)
    phi2 = module_njl(pt, spec)
    assert bl.theta == pytest.approx(2 * phi2 * sb, rel=1e-10)
    assert bl.phi == pytest.approx(2 * phi2 * cb, rel=1e-10)


def test_assembled_spinor_vector_bilinears():
    # frame components: the assembled spinor is at rest with spin up, so
    # U^a = 2 phi^2 (1,0,0,0) and S^a = 2 phi^2 (0,0,0,1); the coordinate
    # versions follow by contracting with the frame vectors
    from nldirac import geometry

    spec = ModelSpec("njl", m=1.0)
    for pt in random_points(20, seed=77):
        phi2 = module_njl(pt, spec)
        bl = clifford.bilinears(assemble_spinor(closed_form(pt, spec)))
        assert np.allclose(bl.U, [2 * phi2, 0, 0, 0], rtol=1e-10, atol=1e-10)
        assert np.allclose(bl.S, [0, 0, 0, 2 * phi2], rtol=1e-10, atol=1e-10)
        ang = polar.angle_state(pt, spec)
        xi = sparse.dense(geometry.tetrad_at(pt, ang), pt.shape)
        ginv = geometry.inverse_metric_at(pt)
        u_up = np.einsum("am,a->m", xi, bl.U) / (2 * phi2)
        s_up = np.einsum("am,a->m", xi, bl.S) / (2 * phi2)
        u = sparse.dense(geometry.velocity_covector(pt, ang), pt.shape)
        s = sparse.dense(geometry.spin_covector(pt, ang), pt.shape)
        assert np.allclose(u_up, ginv * u, atol=1e-10)
        assert np.allclose(s_up, ginv * s, atol=1e-10)


def test_assembled_spinor_time_phase_invariance():
    # the spinor at time t and azimuth phi is the assembled one (t = 0,
    # phi = 0) times exp(-i(E t + l phi)); its bilinears do not see that
    spec = ModelSpec("njl", m=1.0)
    pt = GridPoint(0.8, 1.0)
    psi = assemble_spinor(closed_form(pt, spec))
    a = clifford.bilinears(psi)
    b = clifford.bilinears(np.exp(-1j * (spec.E * 1.3 + spec.l * 0.4)) * psi)
    assert a.phi == pytest.approx(b.phi, rel=1e-12)
    assert a.theta == pytest.approx(b.theta, abs=1e-12)


def test_polar_decomposition_residual_exact_solutions():
    for spec in (ModelSpec("njl"), ModelSpec("soler")):
        worst = max(
            polar_decomposition_residual(pt, spec)
            for pt in random_points(20)
        )
        assert worst <= 1e-8


@settings(max_examples=200, deadline=None)
@given(
    p=st.floats(0.0, 1.0),
    m=st.sampled_from([0.5, 1.0, 2.0]),
    rm=st.floats(0.6, 10.0),
    theta=st.floats(0.2, np.pi - 0.2),
)
def test_analytic_and_fd_covariant_derivatives_agree(p, m, rm, theta):
    # The (r, theta) partials of the covariant derivative's spinor against
    # complex-step derivatives of its real and imaginary parts.  Those parts
    # are built here from the density and the chiral pair, with the half
    # angle cos(beta/2) = sqrt((1 + cos beta)/2) in place of arctan2 so that
    # they stay complex-analytic; 2mr >= 1.2 keeps cos beta > 0.
    spec = ModelSpec(f"p:{p}", m=m)
    pt = GridPoint(rm / m, theta)
    f = closed_form(pt, spec)
    nabla, psi = covariant_derivative(pt, spec, f)
    # the partials are nabla psi's (r, theta) rows less the spin action
    analytic = (nabla - clifford.spin_action(
        geometry.spin_connection_at(pt, f.ang), psi))[[geometry.R,
                                                        geometry.TH]]
    rest = np.array([1.0, 0.0, 1.0, 0.0])
    rotated = -1j * clifford.PI @ rest

    def parts(p):
        phi = np.sqrt(module_general_p(p, spec))
        sb, cb = chiral_components(X_exact(p.r, spec), p.theta)
        cos_half = np.sqrt((1.0 + cb) / 2.0)
        a, b = phi * cos_half, phi * sb / (2.0 * cos_half)
        return np.stack([a * rest + b * rotated.real, b * rotated.imag])

    re_im = parts(pt)
    assert np.allclose(re_im[0] + 1j * re_im[1], psi, rtol=1e-14, atol=0.0)
    d_r, d_th = complex_step_partials(parts, pt)
    stepped = np.stack([d_r[0] + 1j * d_r[1], d_th[0] + 1j * d_th[1]])
    scale = 1.0 + np.max(np.abs(analytic))
    assert np.max(np.abs(analytic - stepped)) <= 1e-12 * scale


def test_a_nan_in_a_zero_spinor_component_reaches_its_partials_and_phases(
        monkeypatch):
    # the partials and the phase terms of nabla psi act on the components
    # of psi that are nonzero at some point; a NaN is not zero, so at one
    # point of a component that is zero everywhere else it reaches that
    # component's r, theta, t and azimuth rows there, and nothing else of
    # the r and theta rows.  The spin connection is left out, so that those
    # rows hold the partials alone (and it has no t row).
    spec = ModelSpec("njl")
    pts = GridPoint(np.linspace(0.2, 3.0, 9), np.linspace(0.4, 2.7, 9))
    f = polar.closed_form(pts, spec)
    assemble = polar.assemble_spinor
    clean_nabla, _ = polar.covariant_derivative(pts, spec, f)

    def no_connection(pt, ang):
        return sparse.Live((6, 4), (), np.empty((0,) + pt.shape))
    for component in (1, 3):
        def poisoned(f, component=component):
            psi = assemble(f)
            psi[component, 4] = np.nan
            return psi

        assert component in sparse.live_rows(poisoned(f))
        with monkeypatch.context() as patch:
            patch.setattr(polar, "assemble_spinor", poisoned)
            patch.setattr(geometry, "spin_connection_at", no_connection)
            nabla, _ = polar.covariant_derivative(pts, spec, f)
        for mu in (geometry.R, geometry.TH):
            assert np.isnan(nabla[mu, component, 4]), (component, mu)
            assert not np.isnan(np.delete(nabla[mu], 4, axis=1)).any()
        for mu in (geometry.T, geometry.PH):
            assert np.isnan(nabla[mu, component, 4]), (component, mu)
        assert np.array_equal(nabla[geometry.T, :, :4],
                              clean_nabla[geometry.T, :, :4])


def test_decomposition_exact_at_chiral_branch_cut():
    # inside 2mr = 1 the principal chiral rotation flips the spinor's sign
    # across the equator; the analytic partials have no branch there
    spec = ModelSpec("njl")
    pt = GridPoint(0.3, np.pi / 2)
    assert polar_decomposition_residual(pt, spec) <= 1e-10


def test_polar_decomposition_momentum_sensitivity(monkeypatch):
    spec = ModelSpec("njl")
    momentum = geometry.momentum_covector
    monkeypatch.setattr(geometry, "momentum_covector",
                        lambda E, l: momentum(E, 0.6))
    res = polar_decomposition_residual(GridPoint(1.0, np.pi / 3), spec)
    assert res >= 1e-3


def _angle_partials(pair, pt):
    """(d/dr, d/dtheta) of the angle whose (sin, cos) or (sinh, cosh) pair
    is ``pair(pt)``: c ds - s dc, by complex step, with no branch."""
    s, c = pair(pt)
    return tuple(c * d[0] - s * d[1] for d in complex_step_partials(
        lambda p: np.stack(pair(p)), pt))


def test_module_log_derivatives_match_finite_differences():
    # the differences are complex steps, exact to rounding on both sides of
    # X = 0; the angle partials are those of the same closed form
    close = lambda a: pytest.approx(a, rel=1e-12, abs=1e-12)
    for model in ("soler", "p:0.5", "njl"):
        spec = ModelSpec(model, m=1.0)

        for pt in random_points(20):
            f = closed_form(pt, spec)
            d_r, d_t = complex_step_partials(
                lambda p: np.log(module_general_p(p, spec)), pt)
            assert f.density.r_dlnphi2_dr == close(pt.r * d_r)
            assert f.density.dlnphi2_dtheta == close(d_t)

            ang = f.ang
            for pair, dr, dth in (
                (lambda p: (polar.angle_state(p, spec).sinh_alpha,
                            polar.angle_state(p, spec).cosh_alpha),
                 ang.d_alpha_dr, ang.d_alpha_dtheta),
                (lambda p: (polar.angle_state(p, spec).sin_gamma,
                            polar.angle_state(p, spec).cos_gamma),
                 ang.d_gamma_dr, ang.d_gamma_dtheta),
                (lambda p: chiral_components(X_exact(p.r, spec), p.theta),
                 f.r_d_beta_dr / pt.r, f.d_beta_dtheta),
            ):
                d_r, d_t = _angle_partials(pair, pt)
                assert dr == close(d_r)
                assert dth == close(d_t)
