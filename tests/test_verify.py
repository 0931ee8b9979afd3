"""Every verification suite must fail on a perturbed solution.

A wrong solution is fed in one way only: a negative control patches one
layer function that its suite reads with a seeded perturbation, and the
suite must then appear in the report's ``failing_suites``.  The closed
form has three such seams: ``polar.closed_form``, whose bundle a control
changes with ``dataclasses.replace`` (the expanded, covector and standard
forms and the polar decomposition read it), ``polar.zeta_exact``, which
the density step reads for ``closed_form`` and the reduced form alike, and
``polar.angle_state`` (the transport and curvature-strength suites).  A
suite added to ``verify.SUITES`` without a control fails
``test_every_suite_has_a_negative_control``, and the forms take no argument
beyond the point and the model, which ``test_forms_take_no_perturbation_knob``
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
    the nonlinear equations, which every form but the reduced one reads."""

    def closed_form(pt, spec):
        fields = f(pt, spec)
        return dataclasses.replace(fields, phi2=fields.phi2 * (1.0 + d))

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


def test_forms_take_no_perturbation_knob():
    # a wrong solution goes in through a patched layer function, never
    # through an extra parameter of the form that reads it
    forms = [getattr(equations, name) for name in (
        "expanded_components", "residual_expanded", "covector_components",
        "residual_polar_covector", "reduced_components", "residual_reduced",
        "residual_standard")]
    forms += [polar.closed_form, polar.covariant_derivative,
              polar.polar_decomposition_residual]
    for fn in forms:
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
        field = polar.angle_field(spec)

        def tensorial(r, th):
            return geometry.tensorial_connection_at(geometry.GridPoint(r, th),
                                                    field(r, th))

        P = geometry.momentum_covector(spec.E, spec.l)
        assert np.max(np.abs(geometry.riemann_at(batch))) == max(
            np.max(np.abs(geometry.riemann_at(pt))) for pt in pts)
        assert polar.polar_decomposition_residual(batch, spec) == max(
            polar.polar_decomposition_residual(pt, spec) for pt in pts)
        by_point = [geometry.transport_residuals(pt, field) for pt in pts]
        assert geometry.transport_residuals(batch, field) == tuple(
            max(res[k] for res in by_point) for k in (0, 1))
        by_point = [geometry.curvature_strength_residuals(
            pt, tensorial, lambda r, t: P) for pt in pts]
        batched = geometry.curvature_strength_residuals(
            batch, tensorial, lambda r, t: P)
        for k in (0, 1):
            assert abs(batched[k] - max(res[k] for res in by_point)) <= 1e-13


def test_a_nan_at_a_chunk_edge_fails_its_grid_suite(monkeypatch):
    # the last point of a full chunk and the last unmasked point of the
    # grid, two chunks' worth of 9-point rows and nine more (37 rows for
    # 128-point chunks)
    spec = ModelSpec.njl()
    n_r = 2 * (equations.SWEEP_CHUNK // 9) + 9
    points = grids.points(grids.GridConfig(n_r=n_r, n_theta=9), m=spec.m)
    grid = equations.sweep_grid(points, spec)
    r, theta = points.r.ravel(), points.theta.ravel()
    keep = ~equations.is_masked(geometry.GridPoint(r, theta), spec)
    unmasked = list(zip(r[keep], theta[keep]))
    n, chunk = len(unmasked), equations.SWEEP_CHUNK
    assert n > 2 * chunk and n % chunk
    for index, size in ((chunk - 1, chunk), (n - 1, n % chunk)):
        target = unmasked[index]
        for name, attr in (("expanded-residuals", "residual_expanded"),
                           ("covector-residuals", "residual_polar_covector"),
                           ("reduced-residuals", "residual_reduced"),
                           ("standard-residuals", "residual_standard")):
            form = getattr(equations, attr)
            hits = []

            def poisoned(pt, spec, form=form):
                at = (pt.r == target[0]) & (pt.theta == target[1])
                hits.extend((pt.r.size, i) for i in np.flatnonzero(at))
                return np.where(at, np.nan, form(pt, spec))

            with monkeypatch.context() as patch:
                patch.setattr(equations, attr, poisoned)
                entry = verify.SUITES[name](spec, grid, 42, 1e-8)
            assert hits == [(size, size - 1)]  # the last point of its chunk
            assert not entry["pass"], (index, name)
            assert np.isnan(entry["max_residual"]), (index, name)


def test_run_suites_builds_and_masks_the_grid_once(monkeypatch):
    # one grids.points call and one is_masked call over the whole grid per
    # verify, whatever the number of grid suites; the sampled suites mask
    # their own draws, at most 50 points per call
    points, is_masked = grids.points, equations.is_masked
    for spec in MODELS:
        built, masked = [], []

        def counting_points(cfg, m=1.0):
            built.append(cfg)
            return points(cfg, m)

        def counting_is_masked(pt, spec, margin=equations.DEFAULT_MASK_MARGIN):
            masked.append(np.size(pt.r))
            return is_masked(pt, spec, margin)

        grid = grids.GridConfig(n_r=25, n_theta=20)
        with monkeypatch.context() as patch:
            patch.setattr(grids, "points", counting_points)
            patch.setattr(equations, "is_masked", counting_is_masked)
            report = verify.run_suites(spec, grid)
        assert report["pass"], spec.name
        assert built == [grid]
        assert masked.count(500) == 1
        assert all(n <= 50 for n in masked if n != 500), masked
        swept = [s["n_points"] for s in report["suites"].values()
                 if "n_points" in s]
        assert swept == [500] * (4 if spec.name in polar.ENDPOINTS else 2)


# Largest allocation peak of each grid form per point of a SWEEP_CHUNK
# chunk, in bytes.  A chunk of the two heavy forms then stays near 0.8 MB,
# inside run_suites' 1 MB guard with the grid held beside it.
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
            form(pts, spec)
            tracemalloc.start()
            try:
                values = form(pts, spec)
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
