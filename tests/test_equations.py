import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nldirac import clifford, equations, geometry, grids, polar
from nldirac.errors import PoleOrOrigin, SingularPoint
from nldirac.equations import (
    FORMS,
    SWEEP_CHUNK,
    covector_components,
    expanded_components,
    is_masked,
    reduced_components,
    residual_expanded,
    residual_polar_covector,
    residual_reduced,
    residual_standard,
    sweep,
)
from nldirac.geometry import GridPoint
from nldirac.polar import ModelSpec


def on_solution(form, pt, spec):
    """``form`` at ``pt`` on the closed-form bundle of ``spec``."""
    return form(pt, spec, polar.closed_form(pt, spec))


def random_points(n, seed=99, m=1.0, r_lo=0.1, r_hi=10.0):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        r = float(np.exp(rng.uniform(np.log(r_lo / m), np.log(r_hi / m))))
        th = float(rng.uniform(0.3, np.pi - 0.3))
        if abs(2 * m * r - 1.0) < 0.05:
            continue
        pts.append(GridPoint(r, th))
    return pts


def test_masking_rules():
    ring_pt = GridPoint(0.5005, np.pi / 2 + 0.001)
    off_equator = GridPoint(0.5005, 1.0)
    far_pt = GridPoint(2.0, np.pi / 2)
    # shell (p = 0): radius alone masks
    assert is_masked(ring_pt, ModelSpec("soler"))
    assert is_masked(off_equator, ModelSpec("soler"))
    assert not is_masked(far_pt, ModelSpec("soler"))
    # ring (p > 0): radius and equator jointly
    assert is_masked(ring_pt, ModelSpec("njl"))
    assert not is_masked(off_equator, ModelSpec("njl"))
    assert not is_masked(far_pt, ModelSpec("p:0.5"))


def test_expanded_residuals_vanish_on_exact_solutions():
    for spec in (ModelSpec("njl"), ModelSpec("soler")):
        worst = max(
            on_solution(residual_expanded, pt, spec).max()
            for pt in random_points(100)
        )
        assert worst <= 1e-8, spec.name


def test_covector_residuals_vanish_on_exact_solutions():
    for spec in (ModelSpec("njl"), ModelSpec("soler")):
        worst = max(
            on_solution(residual_polar_covector, pt, spec).max()
            for pt in random_points(100)
        )
        assert worst <= 1e-8, spec.name


def test_covector_temporal_and_azimuthal_components_vanish():
    spec = ModelSpec("njl")
    for pt in random_points(20):
        chiral, density = on_solution(covector_components, pt, spec)
        assert abs(chiral[0]) <= 1e-14 and abs(chiral[3]) <= 1e-14
        assert abs(density[0]) <= 1e-14 and abs(density[3]) <= 1e-14


def test_expanded_equals_projected_covector():
    # the four scalars are the r- and theta-projections of the two covector
    # equations (radial ones carry a factor r); they must agree even with
    # generic quantum numbers, where neither vanishes
    for model in ("njl", "soler", "p:0.5"):
        spec = ModelSpec(model, m=1.0, E=1.07, l=0.61)
        for pt in random_points(30):
            ex = on_solution(expanded_components, pt, spec)
            chiral, density = on_solution(covector_components, pt, spec)
            assert ex["beta_r"] == pytest.approx(pt.r * chiral[1], abs=1e-10)
            assert ex["beta_theta"] == pytest.approx(chiral[2], abs=1e-10)
            assert ex["density_r"] == pytest.approx(pt.r * density[1], abs=1e-10)
            assert ex["density_theta"] == pytest.approx(density[2], abs=1e-10)


def test_energy_rigidity():
    spec = ModelSpec("njl", m=1.0, E=1.1)
    worst = max(
        on_solution(residual_expanded, pt, spec).max()
        for pt in random_points(50)
    )
    assert worst >= 1e-2


def test_angular_momentum_rigidity():
    spec = ModelSpec("njl", m=1.0, l=0.6)
    worst = max(
        on_solution(residual_expanded, pt, spec).max()
        for pt in random_points(50)
    )
    assert worst >= 1e-2


def fields_of(pt, spec, model, phi2_factor=1.0):
    """The bundle of the model named ``model``, with phi^2 scaled by
    ``phi2_factor``, whatever model the equations are evaluated for."""
    f = polar.closed_form(pt, ModelSpec(model, m=spec.m))
    return f._replace(density=f.density._replace(
        phi2=f.density.phi2 * phi2_factor))


def test_cross_model_fields_leave_residual():
    # chiral-model fields inserted in the scalar-model equations (and the
    # reverse) must fail somewhere: the nonlinearities differ
    pts = random_points(100)
    worst = {}
    for fields, spec in (("njl", ModelSpec("soler")), ("soler", ModelSpec("njl"))):
        worst[spec.name] = max(
            residual_expanded(pt, spec, fields_of(pt, spec, fields)).max()
            for pt in pts)
    assert worst["soler"] >= 1e-2
    assert worst["njl"] >= 1e-2


def test_linear_limit_makes_models_identical():
    # with the nonlinear coupling switched off (phi^2 = 0 in the same
    # fields), the two systems coincide
    njl = ModelSpec("njl", m=1.0, E=1.2, l=0.7)
    soler = ModelSpec("soler", m=1.0, E=1.2, l=0.7)
    for pt in random_points(30):
        f = fields_of(pt, njl, "njl", phi2_factor=0.0)
        a = expanded_components(pt, njl, f)
        b = expanded_components(pt, soler, f)
        for key in a:
            assert a[key] == pytest.approx(b[key], abs=1e-12)
        ca, da = covector_components(pt, njl, f)
        cb, db = covector_components(pt, soler, f)
        assert np.allclose(ca, cb, atol=1e-12)
        assert np.allclose(da, db, atol=1e-12)


def test_expanded_and_covector_forms_hold_for_every_p():
    # on the default grid the interpolating solutions annihilate both forms,
    # and an energy off by one part in a million leaves a residual
    grid = grids.points(grids.GridConfig())
    for p in (0.3, 0.5, 0.9):
        spec = ModelSpec(f"p:{p}")
        wrong = ModelSpec(f"p:{p}", E=spec.E * (1.0 + 1e-6))
        exact = sweep(grid, spec, forms=("expanded", "covector"))
        off = sweep(grid, wrong, forms=("expanded", "covector"))
        for form in exact:
            assert exact[form]["max"] <= 1e-12, (p, form, exact[form]["max"])
            assert off[form]["max"] > 1e-8, (p, form, off[form]["max"])


def test_a_model_name_changes_no_residual():
    # p alone selects the physics: the interpolating runs at p = 1 and
    # p = 0 give the per-point residuals of njl and soler bit for bit
    forms = (residual_expanded, residual_polar_covector, residual_reduced,
             residual_standard)
    for m in (0.5, 1.0, 2.0):
        for endpoint in (ModelSpec("njl", m=m), ModelSpec("soler", m=m)):
            general = ModelSpec(f"p:{endpoint.p}", m=m)
            points = grids.points(grids.GridConfig(), m=m)
            keep = ~is_masked(points, endpoint)
            pt = GridPoint(points.r[keep], points.theta[keep])
            for form in forms:
                assert np.array_equal(on_solution(form, pt, endpoint),
                                      on_solution(form, pt, general)), (
                    endpoint.name, m, form.__name__)


def test_reduced_residuals_vanish_for_all_p():
    for model in ("soler", "p:0.5", "njl"):
        spec = ModelSpec(model, m=1.0)
        worst = max(
            on_solution(residual_reduced, pt, spec).max()
            for pt in random_points(200)
        )
        assert worst <= 1e-8, model


def test_reduced_detects_radial_offset(monkeypatch):
    spec = ModelSpec("njl")
    pt = GridPoint(1.0, np.pi / 3)
    X = polar.X_exact
    monkeypatch.setattr(polar, "X_exact", lambda r, spec: X(r, spec) + 1e-3)
    comps = on_solution(reduced_components, pt, spec)
    assert abs(comps["zeta_radial"]) >= 1e-4


def test_closed_form_and_angle_state_evaluate_the_profile_once(monkeypatch):
    # one density step computes X, cosh zeta, cos theta, sin theta, D and
    # its root for the density, both log-derivatives and the kinematics;
    # the forms read them from the bundle.  angle_state evaluates X once too
    X = polar.X_exact
    calls = []

    def counted(r, spec):
        calls.append(np.shape(r))
        return X(r, spec)

    monkeypatch.setattr(polar, "X_exact", counted)
    for spec in (ModelSpec("njl"), ModelSpec("soler"), ModelSpec("p:0.37")):
        for pt in (GridPoint(1.3, 0.7),
                   GridPoint(np.array([0.2, 1.3, 4.0]), np.array([0.4, 0.7, 2.0]))):
            calls.clear()
            f = polar.closed_form(pt, spec)
            for form in FORMS.values():
                form(pt, spec, f)
            assert calls == [pt.shape], spec.name
            calls.clear()
            polar.angle_state(pt, spec)
            assert calls == [pt.shape], spec.name


def test_reduced_form_refuses_the_singular_locus():
    # on the scalar model's shell 2mr = 1 the reduced form names the first
    # singular point, as every other form does, rather than return inf/NaN
    spec = ModelSpec("soler")
    with pytest.raises(SingularPoint) as err:
        on_solution(reduced_components, GridPoint(0.5, 1.0), spec)
    assert (err.value.r, err.value.theta) == (0.5, 1.0)
    with pytest.raises(SingularPoint) as err:
        on_solution(residual_reduced, GridPoint(np.array([2.0, 0.5, 0.5]),
                                                np.array([1.0, 0.3, 2.0])),
                    spec)
    assert (err.value.r, err.value.theta) == (0.5, 0.3)


def test_standard_residual_vanishes_for_all_p():
    for model in ("soler", "p:0.5", "njl"):
        spec = ModelSpec(model, m=1.0)
        worst = max(
            on_solution(residual_standard, pt, spec)
            for pt in random_points(50)
        )
        assert worst <= 1e-8, model


def test_standard_residual_wrong_coupling_sign_is_large(monkeypatch):
    # the coupling sign of the spin connection, flipped: every pair negated
    spec = ModelSpec("njl")
    pt = GridPoint(1.0, np.pi / 3)
    assert on_solution(residual_standard, pt, spec) <= 1e-12
    connection = geometry.spin_connection_at

    def negated(pt, ang):
        pairs = connection(pt, ang)
        return pairs._replace(values=-pairs.values)

    monkeypatch.setattr(geometry, "spin_connection_at", negated)
    assert on_solution(residual_standard, pt, spec) >= 1e-1


def test_standard_and_reduced_detect_same_perturbation():
    # perturb the equation mass only: the fields stay those of the true
    # model while the forms are evaluated for a mass m(1 + 1e-3) and the
    # same E.  Both presentations must flag it at comparable size (the
    # same physics in two bases); the gamma-matrix residual is measured per
    # unit spinor amplitude to share the reduced system's normalization
    spec = ModelSpec("njl")
    wrong_mass = ModelSpec("njl", m=1.0 + 1e-3, E=spec.E)
    for pt in random_points(10):
        f = polar.closed_form(pt, spec)
        psi = polar.assemble_spinor(f)
        psi_scale = float(np.max(np.abs(psi)))
        std = residual_standard(pt, wrong_mass, f) / psi_scale
        red = residual_reduced(pt, wrong_mass, f).max()
        assert std >= 1e-5 and red >= 1e-5
        ratio = std / red
        assert 0.1 <= ratio <= 10.0


def test_all_forms_vanish_at_non_unit_mass():
    # guards against unit-mass assumptions anywhere in the chain
    from nldirac.polar import polar_decomposition_residual

    for m in (0.25, 3.7):
        worst = 0.0
        for pt in random_points(20, seed=5, m=m):
            worst = max(
                worst,
                on_solution(residual_expanded, pt, ModelSpec("njl", m=m)).max(),
                on_solution(residual_polar_covector, pt,
                            ModelSpec("soler", m=m)).max(),
                on_solution(residual_reduced, pt, ModelSpec("p:0.5", m=m)).max(),
                on_solution(residual_standard, pt, ModelSpec("p:0.5", m=m)),
                polar_decomposition_residual(pt, ModelSpec("njl", m=m)),
            )
        assert worst <= 1e-8, m


def test_sweep_masks_and_aggregates():
    spec = ModelSpec("njl")
    row = GridPoint(np.array([0.5, 1.0, 2.0]),
                    np.array([np.pi / 2 + 1e-4, 1.0, 2.0]))
    stats = sweep(row, spec, forms=("expanded",))["expanded"]
    assert stats["n_points"] == 3
    assert stats["n_masked"] == 1
    assert stats["max"] <= 1e-10


def _numpy_quantiles(values):
    # inf - inf inside np.quantile's interpolation warns; the value is what
    # the sweep must match
    with np.errstate(invalid="ignore"):
        return np.quantile(values, (0.5, 0.95)).tolist()


def test_sweep_quantiles_equal_numpy_quantile():
    # the same floats as np.quantile's linear method, without its import of
    # numpy.ma: seeded arrays of 1 to 4000 values over 30 decades, with ties,
    # +-inf and NaN
    rng = np.random.default_rng(26)
    arrays = [np.array([x]) for x in (0.0, 2.5, np.inf, -np.inf)]
    arrays += [np.array([1.0, np.inf]), np.array([np.inf, np.inf, 3.0]),
               np.array([-np.inf, 1.0, 2.0, np.inf]), np.full(7, 0.25)]
    for k in range(600):
        n = int(rng.integers(1, 4001)) if k % 3 else int(rng.integers(1, 9))
        values = np.abs(rng.standard_normal(n)) * 10.0 ** rng.uniform(
            -15, 15, n)
        if k % 4 == 0:
            values = np.round(values, 1)  # ties
        if k % 5 == 0:
            values[rng.integers(n)] = rng.choice((np.inf, -np.inf))
        arrays.append(values)
    for values in arrays:
        got = equations._quantiles(values, (0.5, 0.95))
        assert np.array_equal(got, _numpy_quantiles(values), equal_nan=True), (
            values.size, got)
    # a NaN: the sweep's max stays NaN, and the median and q95 are what
    # np.quantile returns
    values = rng.standard_normal(50) ** 2
    values[17] = np.nan
    stats = equations._stats(values, 60)
    assert np.isnan(stats["max"])
    assert np.array_equal([stats["median"], stats["q95"]],
                          _numpy_quantiles(values), equal_nan=True)
    assert (stats["n_points"], stats["n_masked"]) == (60, 10)


@settings(max_examples=100, deadline=None)
@given(margin=st.floats(0.0, 1.5),
       model=st.sampled_from(["soler", "p:0.5", "njl"]),
       m=st.sampled_from([0.5, 1.0, 2.0]), n_r=st.integers(2, 12),
       n_theta=st.integers(2, 9))
def test_sweep_masks_exactly_the_masked_points(margin, model, m, n_r, n_theta):
    # the points only are recorded: no bundle is built, so a grid point on
    # the singular locus that margin 0 leaves unmasked raises nothing
    spec = ModelSpec(model, m=m)
    grid = grids.points(grids.GridConfig(r_min=0.2, r_max=3.0, n_r=n_r,
                                         n_theta=n_theta), m=m)
    rows = _rows(grid)
    evaluated = []

    def record(pt, spec, f):
        evaluated.extend(zip(pt.r.tolist(), pt.theta.tolist()))
        return np.zeros(pt.shape)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(equations, "exact_fields", lambda pt, spec: None)
        patch.setitem(FORMS, "expanded", record)
        stats = sweep(grid, spec, margin, forms=("expanded",))["expanded"]
    pts = [GridPoint(r, th) for row in rows
           for r, th in zip(row.r.tolist(), row.theta.tolist())]
    masked = [is_masked(pt, spec, margin) for pt in pts]
    assert stats["n_points"] == len(pts)
    assert stats["n_masked"] == sum(masked)
    assert evaluated == [(pt.r, pt.theta)
                         for pt, skip in zip(pts, masked) if not skip]


def _rows(grid):
    """The rows of a grids.points grid, one GridPoint per radius."""
    return [GridPoint(r, theta) for r, theta in zip(grid.r, grid.theta)]


def _row_sweep(rows, evaluate, spec):
    """The per-row reference of ``sweep``: each row's unmasked points in one
    call, the values in r-major order, and the statistics taken the same
    way."""
    values = []
    for row in rows:
        keep = ~is_masked(row, spec)
        values.append(evaluate(GridPoint(row.r[keep], row.theta[keep])))
    values = np.concatenate(values)
    return values, {"max": float(values.max()), "mean": float(values.mean()),
                    "median": float(np.quantile(values, 0.5)),
                    "q95": float(np.quantile(values, 0.95))}


def test_chunked_sweep_equals_the_row_sweep():
    # over two full chunks and a partial third, every form gives each point
    # the value a per-row evaluation gives it, so the statistics agree
    # exactly; the grid's middle radius is 2mr = 1, whose points are masked
    # (the row for soler, the equator point otherwise).  An odd number of
    # 9-point rows, two chunks' worth and nine more (235 rows for 1024-point
    # chunks), over radii wide enough that no other row comes within the
    # mask's margin of 2mr = 1
    n_r = 2 * (SWEEP_CHUNK // 9) + 9
    cfg = grids.GridConfig(r_min=0.005, r_max=50.0, n_r=n_r, n_theta=9)
    forms = dict(FORMS)
    for spec in (ModelSpec("njl", m=0.7), ModelSpec("soler", m=1.3),
                 ModelSpec("p:0.5")):
        rows = _rows(grids.points(cfg, m=spec.m))
        chunks = {name: [] for name in forms}
        with pytest.MonkeyPatch.context() as patch:
            for name, form in forms.items():
                def evaluate(pt, spec, f, form=form, chunks=chunks[name]):
                    chunks.append(form(pt, spec, f))
                    return chunks[-1]

                patch.setitem(FORMS, name, evaluate)
            sweeps = sweep(grids.points(cfg, m=spec.m), spec)
        for name, form in forms.items():
            stats, chunks_of_form = sweeps[name], chunks[name]
            expected, expected_stats = _row_sweep(
                rows, lambda pt: on_solution(form, pt, spec), spec)
            assert expected.size == 9 * n_r - (9 if spec.p == 0.0 else 1)
            assert 0 < expected.size - 2 * SWEEP_CHUNK < SWEEP_CHUNK
            assert [c.size for c in chunks_of_form] == [
                SWEEP_CHUNK, SWEEP_CHUNK, expected.size - 2 * SWEEP_CHUNK]
            assert np.array_equal(np.concatenate(chunks_of_form), expected), (
                spec, name)
            assert stats == {"n_points": 9 * n_r,
                             "n_masked": 9 * n_r - expected.size,
                             **expected_stats}, (spec, name)


def _leaves(out):
    """The arrays of an evaluator's output, in a fixed order."""
    if isinstance(out, dict):
        out = list(out.values())
    elif not isinstance(out, tuple):
        return [np.asarray(out)]
    return [leaf for item in out for leaf in _leaves(item)]


def test_rows_equal_points():
    # a row evaluated in one call gives what its points give one at a time,
    # with the point axis last
    rng = np.random.default_rng(7)
    for model, m in [(model, m) for model in ("njl", "soler", "p:0.5")
                     for m in (0.5, 2.0)]:
        spec = ModelSpec(model, m=m, E=1.07 * m, l=0.61)
        def on(form):
            return lambda pt: on_solution(form, pt, spec)

        evaluators = {
            "closed_form": lambda pt: polar.closed_form(pt, spec),
            "covariant_derivative": on(polar.covariant_derivative),
            "reduced": on(reduced_components),
            "reduced residual": on(residual_reduced),
            "standard residual": on(residual_standard),
            "expanded": on(expanded_components),
            "covector": on(covector_components),
            "expanded residual": on(residual_expanded),
            "covector residual": on(residual_polar_covector),
        }
        cfg = grids.GridConfig(r_min=rng.uniform(0.03, 0.08),
                               r_max=rng.uniform(10.0, 30.0), n_r=9, n_theta=7)
        for row in _rows(grids.points(cfg, m=m)):
            pts = [GridPoint(r, th)
                   for r, th in zip(row.r.tolist(), row.theta.tolist())]
            assert is_masked(row, spec).tolist() == [
                is_masked(pt, spec) for pt in pts]
            keep = ~is_masked(row, spec)
            row = GridPoint(row.r[keep], row.theta[keep])
            pts = [pt for pt, k in zip(pts, keep) if k]
            if not pts:  # a soler row on the masked shell
                continue
            for name, evaluate in evaluators.items():
                by_point = [_leaves(evaluate(pt)) for pt in pts]
                for k, leaf in enumerate(_leaves(evaluate(row))):
                    expected = np.stack([out[k] for out in by_point], axis=-1)
                    assert leaf.shape == expected.shape, (model, m, name, k)
                    scale = max(1.0, np.max(np.abs(expected)))
                    assert np.max(np.abs(leaf - expected)) <= 1e-12 * scale, (
                        model, m, name, k)
        with pytest.raises(PoleOrOrigin):
            GridPoint(np.full(3, 1.0 / m), np.array([0.5, 0.0, 1.0]))
        with pytest.raises(SingularPoint) as err:
            polar.closed_form(GridPoint(np.array([2.0, 0.5, 0.5]) / m,
                                        np.array([np.pi / 2, np.pi / 2, 1.0])),
                              spec)
        assert (err.value.r, err.value.theta) == (0.5 / m, np.pi / 2)


def test_longdouble_points_give_longdouble_results():
    # no layer rounds longdouble input to float64: the bundle, the spinor,
    # its bilinears, the complex-step partials and the four forms keep the
    # points' precision, on an array of points and on one point
    ld = np.longdouble
    for spec in (ModelSpec("njl"), ModelSpec("soler"), ModelSpec("p:0.5")):
        pts = grids.sample_points(np.random.default_rng(3), 20, m=spec.m,
                                  reject=lambda pt: is_masked(pt, spec))
        for pt in (GridPoint(pts.r.astype(ld), pts.theta.astype(ld)),
                   GridPoint(ld(1.3), ld(0.7))):
            f = polar.closed_form(pt, spec)
            psi = polar.assemble_spinor(f)
            partials = geometry._coordinate_partials(
                lambda p: p.r * np.sin(p.theta), pt)
            real = [*_leaves(f), *_leaves(clifford.bilinears(psi)), partials,
                    *(form(pt, spec, f) for form in FORMS.values())]
            assert {leaf.dtype for leaf in real} == {np.dtype(ld)}, spec.name
            assert psi.dtype == np.result_type(ld, 1j), spec.name
