import numpy as np
import pytest

from nldirac import clifford, geometry, polar, sparse
from nldirac.clifford import unpaired
from nldirac.errors import PoleOrOrigin
from nldirac.geometry import (
    GridPoint,
    christoffel_at,
    complex_step_partials,
    curvature_strength_residuals,
    inverse_metric_at,
    momentum_covector,
    riemann_at,
    spin_connection_at,
    spin_covector,
    tensorial_connection_at,
    tetrad_at,
    transport_residuals,
    velocity_covector,
)
from nldirac.polar import ModelSpec


def metric_at(pt):
    """g_{mu nu}, the inverse of the diagonal geometry.inverse_metric_at."""
    r, th = pt.r, pt.theta
    return np.diag([1.0, -1.0, -r * r, -((r * np.sin(th)) ** 2)])


def dense(field, pt):
    """The dense field of a builder's Live at the points of ``pt``."""
    return sparse.dense(field, pt.shape)


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
    # a complex step off a valid point is judged by its real part
    GridPoint(1.0 + 1e-30j, 1.0)
    with pytest.raises(PoleOrOrigin):
        GridPoint(1.0, np.pi + 1e-30j)


def test_complex_step_partials_are_exact_to_rounding():
    def field(p):
        r, th = p.r, p.theta
        return np.stack([r**3 * np.sin(th), np.log(r) * np.cos(2.0 * th)])

    for pt in random_points(20):
        r, th = pt.r, pt.theta
        d_r, d_th = complex_step_partials(field, pt)
        assert np.allclose(d_r, [3 * r**2 * np.sin(th), np.cos(2 * th) / r],
                           rtol=1e-15, atol=0.0)
        assert np.allclose(d_th, [r**3 * np.cos(th), -2 * np.log(r) * np.sin(2 * th)],
                           rtol=1e-15, atol=0.0)


def test_radial_step_stays_below_the_coordinate():
    # at r far below CS_STEP a fixed step would differentiate 1/r across
    # the origin (-1/h^2 = -1e60 at r = 1e-40); the bounded step does not
    for r in (1e-40, 1e-12, 1.0):
        d_r, d_th = complex_step_partials(lambda p: 1.0 / p.r,
                                          GridPoint(r, 1.0))
        assert d_r == pytest.approx(-1.0 / r**2, rel=1e-15, abs=0.0)
        assert d_th == 0.0


def test_builders_take_the_dtype_of_their_inputs():
    spec = ModelSpec("njl")
    for r in (1.3, 1.3 + 1e-30j):
        pt = GridPoint(r, 0.7)
        ang = polar.angle_state(pt, spec)
        dtype = np.result_type(r)
        assert inverse_metric_at(pt).dtype == dtype
        for value in (christoffel_at(pt), velocity_covector(pt, ang),
                      spin_covector(pt, ang), tensorial_connection_at(pt, ang),
                      tetrad_at(pt, ang), spin_connection_at(pt, ang)):
            assert value.values.dtype == dtype


def test_metric_values():
    g = metric_at(GridPoint(2.0, np.pi / 2))
    assert g[0, 0] == 1.0 and g[1, 1] == -1.0
    assert g[2, 2] == pytest.approx(-4.0)
    assert g[3, 3] == pytest.approx(-4.0)
    g = metric_at(GridPoint(1.0, np.pi / 3))
    assert g[3, 3] == pytest.approx(-0.75)
    for pt in random_points(10):
        assert inverse_metric_at(pt).shape == (4,)
        assert np.allclose(inverse_metric_at(pt)[:, None] * metric_at(pt),
                           np.eye(4), atol=1e-14)


def test_christoffel_values_and_symmetry():
    lam = christoffel_at(GridPoint(2.0, 1.0))
    entry = lam.index.index((geometry.TH, geometry.TH, geometry.R))
    assert lam.values[entry] == pytest.approx(0.5)
    lam = christoffel_at(GridPoint(1.0, np.pi / 2))
    entry = lam.index.index((geometry.TH, geometry.PH, geometry.PH))
    assert lam.values[entry] == pytest.approx(0.0, abs=1e-16)
    for pt in random_points(5):
        lam = christoffel_at(pt)
        assert len(lam.index) == 9
        lam = dense(lam, pt)
        assert np.allclose(lam, lam.transpose(0, 2, 1), atol=0.0)


def test_riemann_vanishes():
    worst = max(float(np.max(np.abs(riemann_at(pt)))) for pt in random_points(20))
    assert worst <= 1e-10


def test_velocity_spin_component_values():
    # the closed form's parametrization: at X = 1 on the equator, and on
    # the axis a pure time-directed velocity with radial spin
    spec = ModelSpec("njl")
    r1 = (1.0 + np.sqrt(2.0)) / 2.0  # 2mr - 1/(2mr) = 2, so X = 1
    ang = polar.angle_state(GridPoint(r1, np.pi / 2), spec)
    assert ang.sinh_alpha == pytest.approx(1.0)
    assert ang.cosh_alpha == pytest.approx(np.sqrt(2.0))
    assert ang.sin_gamma == pytest.approx(1.0)
    assert ang.cos_gamma == pytest.approx(0.0, abs=1e-16)
    # a GridPoint excludes the axis itself; at theta = 1e-20 both are
    # sin(theta) times an order-one factor
    ang = polar.angle_state(GridPoint(1.0, 1e-20), spec)
    assert ang.sinh_alpha == pytest.approx(0.0, abs=1e-19)
    assert ang.sin_gamma == pytest.approx(0.0, abs=1e-19)


def test_component_normalizations():
    # X from -5 to 5 over the radii 2mr in [0.1, 10]
    rng = np.random.default_rng(11)
    spec = ModelSpec("njl")
    for _ in range(100):
        r = 0.5 * np.exp(rng.uniform(np.log(0.1), np.log(10.0)))
        th = rng.uniform(0.05, np.pi - 0.05)
        ang = polar.angle_state(GridPoint(r, th), spec)
        assert ang.cosh_alpha**2 - ang.sinh_alpha**2 == pytest.approx(1.0, abs=1e-12)
        assert ang.sin_gamma**2 + ang.cos_gamma**2 == pytest.approx(1.0, abs=1e-12)


def test_velocity_spin_covector_norms():
    # a random mass puts a random profile value X at each point
    rng = np.random.default_rng(12)
    for pt in random_points(100, seed=13):
        spec = ModelSpec("njl", m=rng.uniform(0.05, 5.0))
        ang = polar.angle_state(pt, spec)
        ginv = inverse_metric_at(pt)
        u = dense(velocity_covector(pt, ang), pt)
        s = dense(spin_covector(pt, ang), pt)
        assert u @ (ginv * u) == pytest.approx(1.0, abs=1e-12)
        assert s @ (ginv * s) == pytest.approx(-1.0, abs=1e-12)
        assert u @ (ginv * s) == pytest.approx(0.0, abs=1e-12)


def test_tensorial_connection_values():
    spec = ModelSpec("njl")
    pt = GridPoint(1.3, np.pi / 2)
    R = dense(unpaired(tensorial_connection_at(pt, polar.angle_state(pt, spec))),
              pt)
    assert R[geometry.TH, geometry.PH, geometry.PH] == pytest.approx(0.0, abs=1e-12)
    pt = GridPoint(1.0, np.pi / 4)
    R = dense(unpaired(tensorial_connection_at(pt, polar.angle_state(pt, spec))),
              pt)
    assert R[geometry.R, geometry.PH, geometry.PH] == pytest.approx(-0.5)
    # exact antisymmetry in the first pair
    assert np.array_equal(R, -R.transpose(1, 0, 2))


def test_transport_identities_analytic():
    spec = ModelSpec("njl")
    worst = 0.0
    for pt in random_points(50):
        ws, wu = transport_residuals(pt, lambda p: polar.angle_state(p, spec))
        worst = max(worst, ws, wu)
    assert worst <= 1e-8


def test_transport_detects_a_wrong_angle_partial():
    # the covectors are differentiated from the angles themselves, so a
    # partial of the AngleState that disagrees with them cannot pass
    spec = ModelSpec("njl")

    def field(p):
        return polar.angle_state(p, spec)

    for name, which in (("d_gamma_dr", 0), ("d_gamma_dtheta", 0),
                        ("d_alpha_dr", 1), ("d_alpha_dtheta", 1)):
        def wrong(p, name=name):
            ang = field(p)
            return ang._replace(**{name: getattr(ang, name) + 0.01})

        for pt in random_points(5, seed=17):
            assert max(transport_residuals(pt, field)) <= 1e-12
            assert transport_residuals(pt, wrong)[which] >= 1e-3, (name, pt)


def test_transport_identities_finite_difference_oracle():
    # independent check: differentiate the covectors numerically; plain
    # central differences lose two orders within ~0.1 of the ring radius,
    # so sample clear of it
    spec = ModelSpec("njl")
    h = 1e-5
    worst = 0.0
    for pt in random_points(10, seed=7, r_lo=0.3, r_hi=5.0, ring_margin=0.15):
        ang = polar.angle_state(pt, spec)
        lam = dense(christoffel_at(pt), pt)
        ginv = inverse_metric_at(pt)
        Rc = dense(unpaired(tensorial_connection_at(pt, ang)), pt)
        for make in (velocity_covector, spin_covector):
            vec = dense(make(pt, ang), pt)
            vup = ginv * vec

            def field(r, th):
                p = GridPoint(r, th)
                return dense(make(p, polar.angle_state(p, spec)), p)

            dv = np.zeros((4, 4))
            dv[geometry.R] = (field(pt.r + h, pt.theta) - field(pt.r - h, pt.theta)) / (2 * h)
            dv[geometry.TH] = (field(pt.r, pt.theta + h) - field(pt.r, pt.theta - h)) / (2 * h)
            cov = dv - np.einsum("rnm,r->mn", lam, vec)
            rhs = np.einsum("r,rnm->mn", vup, Rc)
            worst = max(worst, float(np.max(np.abs(cov - rhs))))
    assert worst <= 1e-6


def test_spin_connection_static_limit():
    pt = GridPoint(2.0, 0.9)
    C = dense(unpaired(spin_connection_at(
        pt, geometry.AngleState(0.0, 1.0, 0.0, 1.0))), pt)
    th = pt.theta
    assert C[0, 2, geometry.R] == 0.0 and C[0, 2, geometry.TH] == 0.0
    assert C[1, 3, geometry.R] == 0.0
    assert C[1, 3, geometry.TH] == pytest.approx(-1.0)
    assert C[2, 3, geometry.PH] == pytest.approx(np.sin(th))
    assert C[1, 2, geometry.PH] == pytest.approx(-np.cos(th))
    # antisymmetry
    assert np.array_equal(C, -C.transpose(1, 0, 2))


def test_spin_connection_equatorial_substitution():
    spec = ModelSpec("njl")
    pt = GridPoint(0.9, np.pi / 2)
    ang = polar.angle_state(pt, spec)
    C = dense(unpaired(spin_connection_at(pt, ang)), pt)
    expected = -(np.cos(pt.theta) * ang.cos_gamma
                 - np.sin(pt.theta) * ang.sin_gamma) * ang.sinh_alpha
    assert C[0, 1, geometry.PH] == pytest.approx(expected, rel=1e-14)


def _dense_zeros(pt, ang):
    return np.zeros((4, 4, 4) + pt.shape, dtype=np.result_type(
        pt.r, pt.theta, *ang))


def _dense_tensorial_connection(pt, ang):
    """R[nu, rho, mu] as a dense tensor, each put of an independent
    component writing both triangles: the builder before the pair layout."""
    r, th = pt.r, pt.theta
    s_, c_ = np.sin(th), np.cos(th)
    R_ = _dense_zeros(pt, ang)

    def put(n, p, mu, v):
        R_[n, p, mu] = v
        R_[p, n, mu] = -v

    put(geometry.TH, geometry.PH, geometry.PH, -r * r * c_ * s_)
    put(geometry.R, geometry.PH, geometry.PH, -r * s_ * s_)
    put(geometry.R, geometry.TH, geometry.TH, -r * (1.0 + ang.d_gamma_dtheta))
    put(geometry.TH, geometry.R, geometry.R, r * ang.d_gamma_dr)
    put(geometry.T, geometry.PH, geometry.TH, r * s_ * ang.d_alpha_dtheta)
    put(geometry.T, geometry.PH, geometry.R, r * s_ * ang.d_alpha_dr)
    return R_


def _dense_spin_connection(pt, ang):
    """C[a, b, mu] as a dense tensor: the builder before the pair layout."""
    th = pt.theta
    ctg = np.cos(th) * ang.cos_gamma - np.sin(th) * ang.sin_gamma
    stg = np.sin(th) * ang.cos_gamma + np.cos(th) * ang.sin_gamma
    C = _dense_zeros(pt, ang)

    def put(a, b, mu, v):
        C[a, b, mu] = v
        C[b, a, mu] = -v

    put(0, 2, geometry.R, -ang.d_alpha_dr)
    put(0, 2, geometry.TH, -ang.d_alpha_dtheta)
    put(1, 3, geometry.R, -ang.d_gamma_dr)
    put(1, 3, geometry.TH, -(1.0 + ang.d_gamma_dtheta))
    put(0, 1, geometry.PH, -ctg * ang.sinh_alpha)
    put(0, 3, geometry.PH, -stg * ang.sinh_alpha)
    put(2, 3, geometry.PH, stg * ang.cosh_alpha)
    put(1, 2, geometry.PH, -ctg * ang.cosh_alpha)
    return C


@pytest.mark.parametrize("spec", [ModelSpec("njl"), ModelSpec("soler"),
                                  ModelSpec("p:0.37")],
                         ids=lambda spec: spec.name)
def test_expanded_pairs_equal_the_dense_builders(spec):
    # float points, an array of points and both complex steps off it, as
    # the grid forms and the complex-step identity suites build them
    points = random_points(20, seed=41)
    r = np.array([pt.r for pt in points])
    theta = np.array([pt.theta for pt in points])
    cases = [*points[:5], GridPoint(r, theta),
             GridPoint(r + 1j * geometry.CS_STEP, theta),
             GridPoint(r, theta + 1j * geometry.CS_STEP)]
    for pt in cases:
        ang = polar.angle_state(pt, spec)
        for build, dense in ((tensorial_connection_at, _dense_tensorial_connection),
                             (spin_connection_at, _dense_spin_connection)):
            pairs = build(pt, ang)
            assert pairs.shape == (6, 4)
            assert pairs.values.shape == (len(pairs.index),) + pt.shape
            expanded = sparse.dense(unpaired(pairs), pt.shape)
            reference = dense(pt, ang)
            assert expanded.dtype == reference.dtype
            assert np.array_equal(expanded, reference), (spec.name, build)


def _live_fields(pt, ang):
    """(name, dense layout, Live) of every builder of a field by its live
    entries, at the points of ``pt`` with the angle state ``ang``."""
    yield "christoffel_at", (4, 4, 4), christoffel_at(pt)
    yield "velocity_covector", (4,), velocity_covector(pt, ang)
    yield "spin_covector", (4,), spin_covector(pt, ang)
    yield "gradient_covector", (4,), geometry.gradient_covector(
        ang.d_gamma_dr, ang.d_alpha_dtheta)
    yield "tetrad_at", (4, 4), tetrad_at(pt, ang)
    yield "tensorial_connection_at", (6, 4), tensorial_connection_at(pt, ang)
    yield "spin_connection_at", (6, 4), spin_connection_at(pt, ang)
    yield ("unpaired tensorial_connection_at", (4, 4, 4),
           unpaired(tensorial_connection_at(pt, ang)))
    yield ("unpaired spin_connection_at", (4, 4, 4),
           unpaired(spin_connection_at(pt, ang)))
    for mu in range(4):
        yield (f"coordinate_epsilon_lower {mu}", (4, 4, 4, 4),
               geometry.coordinate_epsilon_lower(pt, mu))


@pytest.mark.parametrize("spec", [ModelSpec("njl"), ModelSpec("soler"),
                                  ModelSpec("p:0.37")],
                         ids=lambda spec: spec.name)
def test_every_builder_names_its_entries_by_their_index_tuples(spec):
    # a float point, an array of points and both complex steps off it: each
    # live entry is a tuple of len(shape) ints inside the layout, the
    # entries strictly ascending; dense fills a zero array at them, and
    # live reads them back from it.  unpaired of either connection is
    # checked alike, and against a fill of both signs of each pair row
    points = random_points(20, seed=43)
    pts = GridPoint(np.array([pt.r for pt in points]),
                    np.array([pt.theta for pt in points]))
    for pt in (points[0], pts, *pts.steps[1:]):
        for name, layout, field in _live_fields(pt, polar.angle_state(pt, spec)):
            assert isinstance(field, sparse.Live), name
            assert field.shape == layout, name
            for indices in field.index:
                assert type(indices) is tuple, (name, indices)
                assert len(indices) == len(layout), (name, indices)
                assert all(type(i) is int and 0 <= i < n
                           for i, n in zip(indices, layout)), (name, indices)
            assert all(a < b for a, b in zip(field.index, field.index[1:])), (
                name, field.index)
            assert field.values.shape == (len(field.index),) + pt.shape, name
            filled = np.zeros(layout + pt.shape, dtype=field.values.dtype)
            for indices, value in zip(field.index, field.values):
                filled[indices] = value
            full = sparse.dense(field, pt.shape)
            assert full.dtype == filled.dtype, name
            assert np.array_equal(full, filled), name
            back = sparse.live(full, layout)
            assert back.shape == layout and back.index == field.index, name
            assert np.array_equal(back.values, field.values), name
            if layout == (6, 4):
                # unpaired fills C[a, b, mu] and C[b, a, mu] = -C[a, b, mu]
                # from the pair row (k, mu) of the k-th pair (a, b)
                C = np.zeros((4, 4, 4) + pt.shape, dtype=field.values.dtype)
                for (k, mu), value in zip(field.index, field.values):
                    a, b = clifford.PAIRS[k]
                    C[a, b, mu], C[b, a, mu] = value, -value
                assert np.array_equal(
                    sparse.dense(unpaired(field), pt.shape), C), name


ETA =np.diag([1.0, -1.0, -1.0, -1.0])


def _assert_orthonormal_frame(pt, xi):
    """xi_a^mu solders the inverse metric, is orthonormal in the metric
    (the duality of frame and coframe) and has the orientation of the
    volume form, det xi = 1/sqrt|g|."""
    soldered = np.einsum("am,bn,ab->mn", xi, xi, ETA)
    assert np.allclose(soldered, np.diag(inverse_metric_at(pt)), atol=1e-12)
    assert np.allclose(np.einsum("am,bn,mn->ab", xi, xi, metric_at(pt)), ETA,
                       atol=1e-12)
    assert np.linalg.det(xi) == pytest.approx(1.0 / geometry.sqrt_abs_g(pt),
                                              rel=1e-10)


def test_tetrad_solders_metric_and_duality():
    spec = ModelSpec("soler")
    for pt in random_points(20):
        _assert_orthonormal_frame(
            pt, dense(tetrad_at(pt, polar.angle_state(pt, spec)), pt))


def test_frame_and_connection_invariants():
    spec = ModelSpec("njl")
    for pt in random_points(10, seed=31):
        ang = polar.angle_state(pt, spec)
        _assert_orthonormal_frame(pt, dense(tetrad_at(pt, ang), pt))
        R = dense(unpaired(tensorial_connection_at(pt, ang)), pt)
        assert np.array_equal(R, -R.transpose(1, 0, 2))
        P = momentum_covector(spec.E, spec.l)
        assert P[0] == spec.E and P[3] == spec.l
        assert np.isfinite([ang.sinh_alpha, ang.cosh_alpha, ang.sin_gamma,
                            ang.cos_gamma]).all()


def tetrad_postulate_residual(pt, spec):
    """Max violation of the joint covariant constancy of the coframe,

        d_mu xi^a_nu - Lambda^rho_{nu mu} xi^a_rho + C^a_{b mu} xi^b_nu = 0,

    the link between the coordinate connection and the spin connection.
    The coframe xi^a_nu is the inverse transpose of tetrad_at, and its
    partials are complex-step partials."""
    def coframe(p):
        return np.linalg.inv(dense(tetrad_at(p, polar.angle_state(p, spec)),
                                   p)).T

    dxi = np.zeros((4, 4, 4))  # [mu, a, nu]
    dxi[geometry.R], dxi[geometry.TH] = complex_step_partials(coframe, pt)
    co = coframe(pt)
    c_up = np.diag(ETA)[:, None, None] * dense(unpaired(spin_connection_at(
        pt, polar.angle_state(pt, spec))), pt)  # C^a_{b mu}
    total = (dxi - np.einsum("rnm,ar->man", dense(christoffel_at(pt), pt), co)
             + np.einsum("abm,bn->man", c_up, co))
    return float(np.max(np.abs(total)))


def test_tetrad_postulate():
    spec = ModelSpec("njl")
    worst = max(tetrad_postulate_residual(pt, spec) for pt in random_points(20))
    assert worst <= 1e-8


def test_curvature_vanishes_on_solution():
    spec = ModelSpec("njl")
    (rie,) = curvature_strength_residuals(
        GridPoint(1.0, np.pi / 3), lambda p: polar.angle_state(p, spec))
    assert rie <= 1e-8


def test_curvature_residual_detects_perturbation(monkeypatch):
    # the verify control's seam: a position-dependent rescaling of the
    # tensorial connection is no longer flat
    spec = ModelSpec("njl")
    connection = geometry.tensorial_connection_at

    def perturbed(pt, ang):
        bump = 1.0 + 1e-3 * np.sin(3.0 * pt.r) * np.cos(2.0 * pt.theta)
        field = connection(pt, ang)
        return field._replace(values=field.values * bump)

    monkeypatch.setattr(geometry, "tensorial_connection_at", perturbed)
    (rie,) = curvature_strength_residuals(
        GridPoint(1.0, np.pi / 3), lambda p: polar.angle_state(p, spec))
    assert rie >= 1e-4
