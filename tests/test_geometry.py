import numpy as np
import pytest

from nldirac import geometry, polar
from nldirac.errors import PoleOrOrigin, StepTooLarge
from nldirac.geometry import (
    AngleState,
    GridPoint,
    christoffel_at,
    cotetrad_at,
    curvature_strength_residuals,
    inverse_metric_at,
    metric_at,
    metric_determinant,
    momentum_covector,
    riemann_at,
    spin_connection_at,
    spin_covector,
    tensorial_connection_at,
    tetrad_at,
    tetrad_postulate_residual,
    transport_residuals,
    velocity_covector,
    velocity_spin_components,
)
from nldirac.polar import ModelSpec

def random_points(n, seed=123, r_lo=0.1, r_hi=10.0, ring_margin=0.05):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        r = float(np.exp(rng.uniform(np.log(r_lo), np.log(r_hi))))
        th = float(rng.uniform(0.3, np.pi - 0.3))
        if abs(2.0 * r - 1.0) < ring_margin:
            continue
        pts.append(GridPoint(r, th))
    return pts


def test_gridpoint_rejects_poles_and_origin():
    for bad in [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, np.pi)]:
        with pytest.raises(PoleOrOrigin):
            GridPoint(*bad)


def test_metric_values():
    g = metric_at(GridPoint(2.0, np.pi / 2))
    assert g[0, 0] == 1.0 and g[1, 1] == -1.0
    assert g[2, 2] == pytest.approx(-4.0)
    assert g[3, 3] == pytest.approx(-4.0)
    g = metric_at(GridPoint(1.0, np.pi / 3))
    assert g[3, 3] == pytest.approx(-0.75)


def test_metric_determinant_is_diagonal_product():
    for pt in random_points(10):
        g = metric_at(pt)
        assert metric_determinant(pt) == pytest.approx(
            np.prod(np.diag(g)), rel=1e-12
        )
        assert np.allclose(inverse_metric_at(pt) @ g, np.eye(4), atol=1e-14)


def test_christoffel_values_and_symmetry():
    lam = christoffel_at(GridPoint(2.0, 1.0))
    assert lam[geometry.TH, geometry.TH, geometry.R] == pytest.approx(0.5)
    lam = christoffel_at(GridPoint(1.0, np.pi / 2))
    assert lam[geometry.TH, geometry.PH, geometry.PH] == pytest.approx(0.0, abs=1e-16)
    for pt in random_points(5):
        lam = christoffel_at(pt)
        assert np.allclose(lam, lam.transpose(0, 2, 1), atol=0.0)


def test_riemann_vanishes():
    worst = max(float(np.max(np.abs(riemann_at(pt)))) for pt in random_points(20))
    assert worst <= 1e-10


def test_velocity_spin_component_values():
    sa, ca, sg, cg = velocity_spin_components(1.0, np.pi / 2)
    assert sa == pytest.approx(1.0)
    assert ca == pytest.approx(np.sqrt(2.0))
    assert sg == pytest.approx(1.0)
    assert cg == pytest.approx(0.0, abs=1e-16)
    # on the axis: pure time-directed velocity, radial spin
    sa, _, sg, _ = velocity_spin_components(0.7, 0.0)
    assert sa == 0.0 and sg == 0.0


def test_component_normalizations():
    rng = np.random.default_rng(11)
    for _ in range(100):
        X = rng.uniform(-5, 5)
        th = rng.uniform(0.05, np.pi - 0.05)
        sa, ca, sg, cg = velocity_spin_components(X, th)
        assert ca**2 - sa**2 == pytest.approx(1.0, abs=1e-12)
        assert sg**2 + cg**2 == pytest.approx(1.0, abs=1e-12)


def test_velocity_spin_covector_norms():
    rng = np.random.default_rng(12)
    for pt in random_points(100, seed=13):
        X = rng.uniform(-5, 5)
        ang = AngleState(*velocity_spin_components(X, pt.theta))
        ginv = inverse_metric_at(pt)
        u = velocity_covector(pt, ang)
        s = spin_covector(pt, ang)
        assert u @ ginv @ u == pytest.approx(1.0, abs=1e-12)
        assert s @ ginv @ s == pytest.approx(-1.0, abs=1e-12)
        assert u @ ginv @ s == pytest.approx(0.0, abs=1e-12)


def test_tensorial_connection_values():
    spec = ModelSpec.njl()
    pt = GridPoint(1.3, np.pi / 2)
    R = tensorial_connection_at(pt, polar.angle_state(pt, spec))
    assert R[geometry.TH, geometry.PH, geometry.PH] == pytest.approx(0.0, abs=1e-12)
    pt = GridPoint(1.0, np.pi / 4)
    R = tensorial_connection_at(pt, polar.angle_state(pt, spec))
    assert R[geometry.R, geometry.PH, geometry.PH] == pytest.approx(-0.5)
    # exact antisymmetry in the first pair
    assert np.array_equal(R, -R.transpose(1, 0, 2))


def test_transport_identities_analytic():
    spec = ModelSpec.njl()
    worst = 0.0
    for pt in random_points(50):
        ws, wu = transport_residuals(pt, polar.angle_state(pt, spec))
        worst = max(worst, ws, wu)
    assert worst <= 1e-8


def test_transport_identities_finite_difference_oracle():
    # independent check: differentiate the covectors numerically; plain
    # central differences lose two orders within ~0.1 of the ring radius,
    # so sample clear of it
    spec = ModelSpec.njl()
    h = 1e-5
    worst = 0.0
    for pt in random_points(10, seed=7, r_lo=0.3, r_hi=5.0, ring_margin=0.15):
        ang = polar.angle_state(pt, spec)
        lam = christoffel_at(pt)
        ginv = inverse_metric_at(pt)
        Rc = tensorial_connection_at(pt, ang)
        for make in (velocity_covector, spin_covector):
            vec = make(pt, ang)
            vup = ginv @ vec

            def field(r, th):
                p = GridPoint(r, th)
                return make(p, polar.angle_state(p, spec))

            dv = np.zeros((4, 4))
            dv[geometry.R] = (field(pt.r + h, pt.theta) - field(pt.r - h, pt.theta)) / (2 * h)
            dv[geometry.TH] = (field(pt.r, pt.theta + h) - field(pt.r, pt.theta - h)) / (2 * h)
            cov = dv - np.einsum("rnm,r->mn", lam, vec)
            rhs = np.einsum("r,rnm->mn", vup, Rc)
            worst = max(worst, float(np.max(np.abs(cov - rhs))))
    assert worst <= 1e-6


def test_spin_connection_static_limit():
    pt = GridPoint(2.0, 0.9)
    C = spin_connection_at(pt, geometry.AngleState(0.0, 1.0, 0.0, 1.0))
    th = pt.theta
    assert C[0, 2, geometry.R] == 0.0 and C[0, 2, geometry.TH] == 0.0
    assert C[1, 3, geometry.R] == 0.0
    assert C[1, 3, geometry.TH] == pytest.approx(-1.0)
    assert C[2, 3, geometry.PH] == pytest.approx(np.sin(th))
    assert C[1, 2, geometry.PH] == pytest.approx(-np.cos(th))
    # antisymmetry
    assert np.array_equal(C, -C.transpose(1, 0, 2))


def test_spin_connection_equatorial_substitution():
    spec = ModelSpec.njl()
    pt = GridPoint(0.9, np.pi / 2)
    ang = polar.angle_state(pt, spec)
    C = spin_connection_at(pt, ang)
    expected = -(np.cos(pt.theta) * ang.cos_gamma
                 - np.sin(pt.theta) * ang.sin_gamma) * ang.sinh_alpha
    assert C[0, 1, geometry.PH] == pytest.approx(expected, rel=1e-14)


def test_tetrad_solders_metric_and_duality():
    spec = ModelSpec.soler()
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    for pt in random_points(20):
        ang = polar.angle_state(pt, spec)
        xi = tetrad_at(pt, ang)
        co = cotetrad_at(pt, ang)
        g = np.einsum("am,bn,ab->mn", co, co, eta)
        assert np.allclose(g, metric_at(pt), atol=1e-12)
        assert np.allclose(np.einsum("am,bm->ab", xi, co), np.eye(4), atol=1e-12)
        # orientation: det of the coframe is +sqrt|g|
        assert np.linalg.det(co) == pytest.approx(geometry.sqrt_abs_g(pt), rel=1e-10)


def test_frame_and_connection_invariants():
    spec = ModelSpec.njl()
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    for pt in random_points(10, seed=31):
        ang = polar.angle_state(pt, spec)
        co = cotetrad_at(pt, ang)
        soldered = np.einsum("am,bn,ab->mn", co, co, eta)
        assert np.allclose(soldered, metric_at(pt), atol=1e-12)
        assert np.allclose(
            np.einsum("am,bm->ab", tetrad_at(pt, ang), co), np.eye(4),
            atol=1e-12,
        )
        R = tensorial_connection_at(pt, ang)
        assert np.array_equal(R, -R.transpose(1, 0, 2))
        P = momentum_covector(spec.E, spec.l)
        assert P[0] == spec.E and P[3] == spec.l
        assert np.isfinite([ang.sinh_alpha, ang.cosh_alpha, ang.sin_gamma,
                            ang.cos_gamma]).all()


def test_tetrad_postulate():
    spec = ModelSpec.njl()
    ang_field = polar.angle_field(spec)

    def co_field(r, th):
        return cotetrad_at(GridPoint(r, th), ang_field(r, th))

    def c_field(r, th):
        return spin_connection_at(GridPoint(r, th), ang_field(r, th))

    worst = max(
        tetrad_postulate_residual(pt, co_field, c_field)
        for pt in random_points(20)
    )
    assert worst <= 1e-8


def _tensorial_field(spec):
    ang_field = polar.angle_field(spec)

    def field(r, th):
        return tensorial_connection_at(GridPoint(r, th), ang_field(r, th))

    return field


def test_curvature_and_strength_vanish_on_solution():
    spec = ModelSpec.njl()
    field = _tensorial_field(spec)
    P = momentum_covector(spec.E, spec.l)
    rie, far = curvature_strength_residuals(
        GridPoint(1.0, np.pi / 3), field, lambda r, t: P
    )
    assert rie <= 1e-8
    assert far <= 1e-8


def test_strength_of_constant_momentum_is_exactly_zero():
    P = momentum_covector(1.0, 0.5)
    _, far = curvature_strength_residuals(
        GridPoint(2.0, 1.1), _tensorial_field(ModelSpec.njl()), lambda r, t: P
    )
    assert far == 0.0


def test_curvature_residual_detects_perturbation():
    spec = ModelSpec.njl()
    base = _tensorial_field(spec)

    def perturbed(r, th):
        bump = 1.0 + 1e-3 * np.sin(3.0 * r) * np.cos(2.0 * th)
        return base(r, th) * bump

    P = momentum_covector(spec.E, spec.l)
    rie, _ = curvature_strength_residuals(
        GridPoint(1.0, np.pi / 3), perturbed, lambda r, t: P
    )
    assert rie >= 1e-4


def test_step_too_large_on_noisy_field():
    rng = np.random.default_rng(0)
    base = _tensorial_field(ModelSpec.njl())

    def noisy(r, th):
        return base(r, th) + 1e-3 * rng.standard_normal((4, 4, 4))

    with pytest.raises(StepTooLarge):
        curvature_strength_residuals(
            GridPoint(1.0, np.pi / 3), noisy,
            lambda r, t: momentum_covector(1.0, 0.5),
        )
