"""Every verification suite must fail on a perturbed solution.

A wrong solution is fed in one way only: a negative control patches one
layer function that its suite reads with a seeded perturbation, and the
suite must then appear in the report's ``failing_suites``.  The closed
form has three such seams: ``polar.closed_form``, whose bundle a control
changes with ``dataclasses.replace`` (the sweep builds it once per chunk
and the four grid forms read it, as does the polar decomposition),
``polar.zeta_exact``, which the bundle's density step reads, and
``polar.angle_state`` (the transport and curvature-strength suites).  A
suite added to ``verify.SUITES`` without a control fails
``test_every_suite_has_a_negative_control``.  The grid forms take the
point, the model and the bundle and nothing else, and the bundle builders
the point and the model, which ``test_forms_take_no_perturbation_knob``
pins.
"""

import dataclasses
import inspect
import tracemalloc

import numpy as np

from nldirac import clifford, equations, geometry, grids, polar, singular, verify
from nldirac.polar import ModelSpec

GRID = grids.GridConfig(r_min=0.05, r_max=20.0, n_r=5, n_theta=4)
MODELS = (ModelSpec.njl(), ModelSpec.soler(), ModelSpec.interpolating(0.5))


def _scaled_density(f, d):
    """closed_form with phi^2 scaled by 1 + d: the density no longer solves
    the nonlinear equations."""

    def closed_form(pt, spec):
        fields = f(pt, spec)
        return dataclasses.replace(fields, density=dataclasses.replace(
            fields.density, phi2=fields.density.phi2 * (1.0 + d)))

    return closed_form


# suite name -> (module, function, replacement made from the function f and
# a perturbation size d)
CONTROLS = {
    # a scaled velocity vector breaks U.U = Theta^2 + Phi^2
    "fierz": (clifford, "bilinears", lambda f, d: lambda psi: (
        dataclasses.replace(f(psi), U=f(psi).U * (1.0 + d)))),
    # a scaled connection: d Lam + Lam Lam no longer cancel
    "flatness": (geometry, "christoffel_at",
                 lambda f, d: lambda pt: f(pt) * (1.0 + d)),
    # a position-dependent rescaling of the potential is no longer flat
    "curvature-strength": (geometry, "tensorial_connection_at",
                           lambda f, d: lambda pt, ang: f(pt, ang) * (
                               1.0 + d * np.sin(3.0 * pt.r) * np.cos(2.0 * pt.theta))),
    # a tilt partial that disagrees with the tilt the covectors carry
    "transport": (polar, "angle_state", lambda f, d: lambda pt, spec: (
        dataclasses.replace(f(pt, spec), d_gamma_dr=f(pt, spec).d_gamma_dr + d))),
    # a momentum whose l disagrees with the spinor's phase
    "decomposition": (geometry, "momentum_covector",
                      lambda f, d: lambda E, l: f(E, l + d)),
    "expanded-residuals": (polar, "closed_form", _scaled_density),
    "covector-residuals": (polar, "closed_form", _scaled_density),
    # a profile shifted off zeta = ln 2mr
    "reduced-residuals": (polar, "zeta_exact",
                          lambda f, d: lambda r, spec: f(r, spec) + d),
    "standard-residuals": (polar, "closed_form", _scaled_density),
}


def test_every_suite_has_a_negative_control(monkeypatch):
    # for every model, over the suites that model runs
    assert list(CONTROLS) == list(verify.SUITES)
    for spec in MODELS:
        clean = verify.run_suites(spec, GRID)
        assert clean["pass"], spec.name
        rng = np.random.default_rng(2026)
        for name in clean["suites"]:
            module, attr, perturbed = CONTROLS[name]
            d = rng.uniform(1e-3, 1e-2)
            with monkeypatch.context() as patch:
                patch.setattr(module, attr, perturbed(getattr(module, attr), d))
                report = verify.run_suites(spec, GRID)
            assert name in report["failing_suites"], (
                spec.name, name, d, report["suites"][name])


def test_a_wrong_spin_connection_component_fails_the_standard_form(
        monkeypatch):
    # the standard form reads the spin connection through nabla psi; one
    # component off by 1e-3 must fail it, both with antisymmetry kept
    # and as the lower-triangle entry C_{31r} alone: the spin action sums
    # (C_ab - C_ba) sigma^ab over the pairs a < b, so both triangles count
    connection = geometry.spin_connection_at
    for shift in ({(1, 3): 1e-3, (3, 1): -1e-3}, {(3, 1): 1e-3}):

        def wrong(pt, ang, shift=shift):
            C = connection(pt, ang)
            for (a, b), d in shift.items():
                C[a, b, geometry.R] += d
            return C

        with monkeypatch.context() as patch:
            patch.setattr(geometry, "spin_connection_at", wrong)
            for spec in MODELS:
                report = verify.run_suites(spec, GRID)
                assert "standard-residuals" in report["failing_suites"], (
                    spec.name, shift)


def test_exact_solutions_pass_at_the_edges_of_the_stated_mass_range():
    # README states 1e-4 <= m <= 50 on the default grid; at 1e-5 and 100
    # flatness reads 1.164e-10 against its absolute tolerance of 1e-10
    for m in (1e-4, 50.0):
        for model in MODELS:
            spec = dataclasses.replace(model, m=m, E=m)
            report = verify.run_suites(spec)
            assert report["pass"], (spec.name, m, report["failing_suites"])


def test_forms_take_no_perturbation_knob():
    # a wrong solution goes in as a wrong bundle, from a patched layer
    # function, never through an extra parameter of the form that reads it
    forms = [getattr(equations, name) for name in (
        "expanded_components", "residual_expanded", "covector_components",
        "residual_polar_covector", "reduced_components", "residual_reduced",
        "residual_standard")]
    forms += [polar.covariant_derivative]
    for fn in forms:
        assert tuple(inspect.signature(fn).parameters) == (
            "pt", "spec", "f"), fn
    for fn in (polar.closed_form, equations.exact_fields,
               polar.polar_decomposition_residual):
        assert tuple(inspect.signature(fn).parameters) == ("pt", "spec"), fn
    assert tuple(inspect.signature(singular.locate_numerically).parameters) == (
        "spec",)


def test_batched_sampled_residuals_equal_the_per_point_maxima():
    # the sampled suites evaluate their points in one call; flatness,
    # transport and decomposition give the per-point maxima exactly,
    # curvature-strength sums its batched contractions in another order
    for spec in MODELS:
        rng = np.random.default_rng(11)
        batch = grids.sample_points(
            rng, 50, m=spec.m, reject=lambda pt: equations.is_masked(pt, spec))
        pts = [geometry.GridPoint(r, th)
               for r, th in zip(batch.r.tolist(), batch.theta.tolist())]
        def field(p, spec=spec):
            return polar.angle_state(p, spec)

        assert np.max(np.abs(geometry.riemann_at(batch))) == max(
            np.max(np.abs(geometry.riemann_at(pt))) for pt in pts)
        assert polar.polar_decomposition_residual(batch, spec) == max(
            polar.polar_decomposition_residual(pt, spec) for pt in pts)
        by_point = [geometry.transport_residuals(pt, field) for pt in pts]
        assert geometry.transport_residuals(batch, field) == tuple(
            max(res[k] for res in by_point) for k in (0, 1))
        (batched,) = geometry.curvature_strength_residuals(batch, field)
        assert abs(batched - max(geometry.curvature_strength_residuals(
            pt, field)[0] for pt in pts)) <= 1e-13


def test_a_nan_at_a_chunk_edge_fails_its_grid_suite(monkeypatch):
    # the last point of a full chunk and the last unmasked point of the
    # grid, two chunks' worth of 9-point rows and nine more (37 rows for
    # 128-point chunks)
    spec = ModelSpec.njl()
    n_r = 2 * (equations.SWEEP_CHUNK // 9) + 9
    points = grids.points(grids.GridConfig(n_r=n_r, n_theta=9), m=spec.m)
    r, theta = points.r.ravel(), points.theta.ravel()
    keep = ~equations.is_masked(geometry.GridPoint(r, theta), spec)
    unmasked = list(zip(r[keep], theta[keep]))
    n, chunk = len(unmasked), equations.SWEEP_CHUNK
    assert n > 2 * chunk and n % chunk
    for index, size in ((chunk - 1, chunk), (n - 1, n % chunk)):
        target = unmasked[index]
        for form, residual in dict(equations.FORMS).items():
            name = f"{form}-residuals"
            hits = []

            def poisoned(pt, spec, f, residual=residual):
                at = (pt.r == target[0]) & (pt.theta == target[1])
                hits.extend((pt.r.size, i) for i in np.flatnonzero(at))
                return np.where(at, np.nan, residual(pt, spec, f))

            with monkeypatch.context() as patch:
                patch.setitem(equations.FORMS, form, poisoned)
                grid = equations.sweep(points, spec)
                entry = verify.SUITES[name](spec, grid, None, 42, 1e-8)
            assert hits == [(size, size - 1)]  # the last point of its chunk
            assert not entry["pass"], (index, name)
            assert np.isnan(entry["max_residual"]), (index, name)


def test_run_suites_builds_and_masks_the_grid_once(monkeypatch):
    # one grids.points call and one is_masked call over the whole grid per
    # verify, whatever the number of grid suites; the sampled suites share
    # one grids.sample_points draw, which masks at most 50 points per call
    points, is_masked = grids.points, equations.is_masked
    sample_points = grids.sample_points
    for spec in MODELS:
        built, masked, sampled = [], [], []

        def counting_points(cfg, m=1.0):
            built.append(cfg)
            return points(cfg, m)

        def counting_sample_points(rng, n, m=1.0, reject=None):
            sampled.append(n)
            return sample_points(rng, n, m, reject)

        def counting_is_masked(pt, spec, margin=equations.DEFAULT_MASK_MARGIN):
            masked.append(np.size(pt.r))
            return is_masked(pt, spec, margin)

        grid = grids.GridConfig(n_r=25, n_theta=20)
        with monkeypatch.context() as patch:
            patch.setattr(grids, "points", counting_points)
            patch.setattr(grids, "sample_points", counting_sample_points)
            patch.setattr(equations, "is_masked", counting_is_masked)
            report = verify.run_suites(spec, grid)
        assert report["pass"], spec.name
        assert built == [grid]
        assert sampled == [50]
        assert masked.count(500) == 1
        assert all(n <= 50 for n in masked if n != 500), masked
        swept = [s["n_points"] for s in report["suites"].values()
                 if "n_points" in s]
        assert swept == [500] * (4 if spec.name in polar.ENDPOINTS else 2)


# Largest allocation peak of each grid form per point of a SWEEP_CHUNK
# chunk, the closed-form bundle it reads included, in bytes.  A chunk of the
# two heavy forms then stays near 0.8 MB, inside run_suites' 1 MB guard
# with the grid held beside it.
FORM_PEAK_PER_POINT = {
    "residual_expanded": 400,
    "residual_polar_covector": 1600,
    "residual_reduced": 400,
    "residual_standard": 1600,
}


def test_each_grid_form_peaks_under_its_bound_per_point():
    n = equations.SWEEP_CHUNK
    for spec in MODELS:
        pts = grids.sample_points(
            np.random.default_rng(9), n, m=spec.m,
            reject=lambda pt: equations.is_masked(pt, spec))
        for name, bound in FORM_PEAK_PER_POINT.items():
            form = getattr(equations, name)
            form(pts, spec, polar.closed_form(pts, spec))
            tracemalloc.start()
            try:
                values = form(pts, spec, polar.closed_form(pts, spec))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert values.shape == (n,)
            assert peak <= bound * n, (spec.name, name, peak / n)


def test_run_suites_memory_peak_stays_small():
    # the grid suites evaluate chunks of SWEEP_CHUNK points, each form
    # within FORM_PEAK_PER_POINT, and the bilinears stack at most 24 kernel
    # rows per spinor, so one verify's allocations peak under 1 MB on the
    # benchmark's grid sizes
    for spec, grid in (
            (ModelSpec.njl(), grids.GridConfig(0.05, 20.0, 50, 40)),
            (ModelSpec.soler(), grids.GridConfig(0.05, 20.0, 50, 40)),
            (ModelSpec.interpolating(0.37), grids.GridConfig(0.05, 20.0, 70, 50))):
        verify.run_suites(spec, grid)
        tracemalloc.start()
        try:
            report = verify.run_suites(spec, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["pass"], spec.name
        assert peak <= 1_000_000, (spec.name, peak)


def test_each_chunk_builds_its_closed_form_once(monkeypatch):
    # one bundle per sweep chunk, which every grid form reads, and one for
    # the decomposition's 50 sampled points: 4 chunks of a 50x40 grid and 7
    # of a 70x50 one.  The bundle builds the density step once
    for spec, grid, builds in (
            (ModelSpec.njl(), grids.GridConfig(0.05, 20.0, 50, 40), 5),
            (ModelSpec.soler(), grids.GridConfig(0.05, 20.0, 50, 40), 5),
            (ModelSpec.interpolating(0.37),
             grids.GridConfig(0.05, 20.0, 70, 50), 8)):
        calls = {"closed_form": 0, "density": 0}
        with monkeypatch.context() as patch:
            for name in calls:
                def counted(*args, fn=getattr(polar, name), name=name):
                    calls[name] += 1
                    return fn(*args)

                patch.setattr(polar, name, counted)
            assert verify.run_suites(spec, grid)["pass"], spec.name
        assert calls == {"closed_form": builds, "density": builds}, spec.name


# The grid forms that read each leaf of the closed-form bundle: a change of
# 1e-6 in the leaf, relative or absolute, lifts their residual above 1e-8 on
# the default grid and leaves the other forms under it.  Every leaf is read
# by some form, so no leaf is left unchecked.  The covector and standard
# forms build their geometry from the point, so they read neither cos/sin
# theta nor the zeta quantities of the density step; the reduced form reads
# the density step alone.
_BETA_AND_ANGLES = ("expanded", "covector", "standard")
FORMS_READING = {
    **dict.fromkeys(("sin_beta", "cos_beta", "r_d_beta_dr", "d_beta_dtheta"),
                    _BETA_AND_ANGLES),
    **dict.fromkeys((f"ang.{f.name}" for f in dataclasses.fields(
        geometry.AngleState)), _BETA_AND_ANGLES),
    "density.c": ("expanded", "reduced"),
    "density.s": ("expanded", "reduced"),
    **dict.fromkeys(("density.sh", "density.ch", "density.D", "density.S"),
                    ("reduced",)),
    **dict.fromkeys(("density.phi2", "density.r_dlnphi2_dr",
                     "density.dlnphi2_dtheta"),
                    ("expanded", "covector", "reduced", "standard")),
}


def _leaf_paths(f):
    """The dotted path of each leaf of a ClosedForm, such as "ang.d_gamma_dr"."""
    for field in dataclasses.fields(f):
        value = getattr(f, field.name)
        if dataclasses.is_dataclass(value):
            yield from (f"{field.name}.{path}" for path in _leaf_paths(value))
        else:
            yield field.name


def _changed(f, path, change):
    """f with ``change`` applied to the leaf at ``path``."""
    name, _, rest = path.partition(".")
    value = getattr(f, name)
    return dataclasses.replace(f, **{
        name: _changed(value, rest, change) if rest else change(value)})


def test_every_bundle_leaf_is_read_by_a_grid_form():
    assert all(FORMS_READING.values())
    changes = (lambda x: x * (1.0 + 1e-6), lambda x: x + 1e-6)
    for spec in MODELS:
        points = grids.points(grids.GridConfig(), m=spec.m)
        keep = ~equations.is_masked(points, spec)
        pt = geometry.GridPoint(points.r[keep], points.theta[keep])
        f = polar.closed_form(pt, spec)
        seen = {path: {tuple(
            form for form, residual in equations.FORMS.items()
            if np.max(residual(pt, spec, _changed(f, path, change))) > 1e-8)
            for change in changes} for path in _leaf_paths(f)}
        assert seen == {path: {forms} for path, forms in FORMS_READING.items()}, (
            spec.name)
