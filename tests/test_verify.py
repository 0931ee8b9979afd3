"""Every verification suite must fail on a perturbed solution.

A wrong solution is fed in one way only: a negative control patches one
layer function that its suite reads with a seeded perturbation, and the
suite must then appear in the report's ``failing_suites``.  The closed
form has three such seams: ``polar.closed_form``, whose bundle a control
changes with ``_replace`` (the sweep builds it once per chunk
and the four grid forms read it, as does the polar decomposition),
``polar.X_exact``, the one radial profile, which the density step and
the kinematics read, and ``polar.angle_state`` itself (the transport and
curvature-strength suites).  A suite added to ``verify.SUITES`` without a
control fails ``test_every_suite_has_a_negative_control``.  The grid forms take the
point, the model and the bundle and nothing else, and the bundle builders
the point and the model, which ``test_forms_take_no_perturbation_knob``
pins.
"""

import inspect
import tracemalloc

import numpy as np

from nldirac import (clifford, equations, geometry, grids, polar, settings,
                     singular, sparse, verify)
from nldirac.polar import ModelSpec

GRID = grids.GridConfig(r_min=0.05, r_max=20.0, n_r=5, n_theta=4)
MODELS = (ModelSpec("njl"), ModelSpec("soler"), ModelSpec("p:0.5"))


def _scaled_density(f, d):
    """closed_form with phi^2 scaled by 1 + d: the density no longer solves
    the nonlinear equations."""

    def closed_form(pt, spec):
        fields = f(pt, spec)
        return fields._replace(density=fields.density._replace(
            phi2=fields.density.phi2 * (1.0 + d)))

    return closed_form


def _scaled(field, factor):
    """The sparse.Live ``field`` times ``factor``, a factor per point."""
    return field._replace(values=field.values * factor)


# suite name -> (module, function, replacement made from the function f and
# a perturbation size d)
CONTROLS = {
    # a scaled velocity vector breaks U.U = Theta^2 + Phi^2
    "fierz": (clifford, "bilinears", lambda f, d: lambda psi: (
        f(psi)._replace(U=f(psi).U * (1.0 + d)))),
    # a scaled connection: d Lam + Lam Lam no longer cancel
    "flatness": (geometry, "christoffel_at",
                 lambda f, d: lambda pt: _scaled(f(pt), 1.0 + d)),
    # a position-dependent rescaling of the potential is no longer flat
    "curvature-strength": (geometry, "tensorial_connection_at",
                           lambda f, d: lambda pt, ang: _scaled(f(pt, ang), (
                               1.0 + d * np.sin(3.0 * pt.r) * np.cos(2.0 * pt.theta)))),
    # a tilt partial that disagrees with the tilt the covectors carry
    "transport": (polar, "angle_state", lambda f, d: lambda pt, spec: (
        f(pt, spec)._replace(d_gamma_dr=f(pt, spec).d_gamma_dr + d))),
    # a momentum whose l disagrees with the spinor's phase
    "decomposition": (geometry, "momentum_covector",
                      lambda f, d: lambda E, l: f(E, l + d)),
    "expanded-residuals": (polar, "closed_form", _scaled_density),
    "covector-residuals": (polar, "closed_form", _scaled_density),
    # a profile shifted off X = sinh(ln 2mr)
    "reduced-residuals": (polar, "X_exact",
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


def test_a_shifted_profile_fails_the_forms_and_the_kinematic_suites(
        monkeypatch):
    # the bundle and angle_state read the one profile X_exact, so a shifted
    # X reaches the reduced and standard forms and, through the
    # kinematics, the transport and curvature-strength suites
    rng = np.random.default_rng(27)
    X = polar.X_exact
    for spec in MODELS:
        d = rng.uniform(1e-3, 1e-2)
        with monkeypatch.context() as patch:
            patch.setattr(polar, "X_exact", lambda r, spec: X(r, spec) + d)
            report = verify.run_suites(spec, GRID)
        assert {"reduced-residuals", "standard-residuals", "transport",
                "curvature-strength"} <= set(report["failing_suites"]), (
            spec.name, d, report["failing_suites"])


def test_a_wrong_spin_connection_component_fails_the_standard_form(
        monkeypatch):
    # the standard form reads the spin connection through nabla psi; one
    # pair entry off must fail it: by 1e-3, C_{13r} shifted with its
    # antisymmetric partner C_{31r}, and by -5e-4, the pair (C_13 - C_31)/2
    # of the lower-triangle entry C_{31r} alone shifted by 1e-3
    connection = geometry.spin_connection_at
    k = clifford.PAIRS.index((1, 3))
    for shift in (1e-3, -5e-4):

        def wrong(pt, ang, shift=shift):
            pairs = connection(pt, ang)
            pairs.values[pairs.index.index((k, geometry.R))] += shift
            return pairs

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
            spec = ModelSpec(model.name, m=m, E=m, l=model.l)
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
    # grid, two chunks' worth of 9-point rows and nine more (235 rows for
    # 1024-point chunks)
    spec = ModelSpec("njl")
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


# The sampled suites form their products over the entries of a field that
# are nonzero at some point; a NaN or an inf is not zero.  At one point of
# an entry that is zero on the solutions, it must still reach the suites
# that read the field, and fail them through run_suites.
NONFINITE = (np.nan, np.inf)


def _sampled_structure(spec):
    """The sampled suites' points and angle state for ``spec``."""
    sample = grids.sample_points(
        np.random.default_rng(42), 50, m=spec.m,
        reject=lambda pt: equations.is_masked(pt, spec))
    return sample, polar.angle_state(sample, spec)


def _assert_nonfinite_failure(report, names, case):
    for name in names:
        assert not np.isfinite(report["suites"][name]["max_residual"]), (
            name, case)
        assert name in report["failing_suites"], (name, case)


def test_a_nonfinite_zero_christoffel_entry_fails_its_suites(monkeypatch):
    # every entry of the 64 that is zero at every sampled point
    spec = ModelSpec("njl")
    sample, _ = _sampled_structure(spec)
    christoffel = geometry.christoffel_at
    lam = sparse.dense(christoffel(sample), sample.shape)
    zero = [index for index in np.ndindex(4, 4, 4) if not lam[index].any()]
    assert len(zero) == 55
    for value in NONFINITE:
        for index in zero:

            def poisoned(pt, index=index, value=value):
                lam = sparse.dense(christoffel(pt), pt.shape)
                lam[index][7] = value
                return sparse.live(lam, (4, 4, 4))

            with monkeypatch.context() as patch:
                patch.setattr(geometry, "christoffel_at", poisoned)
                with np.errstate(invalid="ignore", over="ignore"):
                    report = verify.run_suites(spec, GRID)
            _assert_nonfinite_failure(
                report, ("flatness", "curvature-strength", "transport"),
                (index, value))


def test_a_nonfinite_zero_pair_row_fails_its_suites(monkeypatch):
    # every row of the tensorial connection's pairs, (pair, mu), that is
    # zero at every sampled point
    for spec in MODELS:
        sample, ang = _sampled_structure(spec)
        connection = geometry.tensorial_connection_at
        pairs = sparse.dense(connection(sample, ang), sample.shape)
        zero = [index for index in np.ndindex(6, 4) if not pairs[index].any()]
        assert len(zero) == 18, spec.name
        for value in NONFINITE:
            for index in zero:

                def poisoned(pt, ang, index=index, value=value):
                    pairs = sparse.dense(connection(pt, ang), pt.shape)
                    pairs[index][7] = value
                    return sparse.live(pairs, (6, 4))

                with monkeypatch.context() as patch:
                    patch.setattr(geometry, "tensorial_connection_at",
                                  poisoned)
                    with np.errstate(invalid="ignore", over="ignore"):
                        report = verify.run_suites(spec, GRID)
                _assert_nonfinite_failure(
                    report, ("curvature-strength", "transport",
                             "decomposition"), (spec.name, index, value))


def test_a_nonfinite_zero_spinor_component_or_kernel_entry_fails_fierz(
        monkeypatch):
    # a component of the random spinors zero but at one spinor, and each
    # kernel's first zero entry
    spec = ModelSpec("njl")
    spinors = clifford.random_spinors
    stacks = clifford._KERNEL_STACKS
    for value in NONFINITE:
        for component in range(4):

            def poisoned(n, seed=42, component=component, value=value):
                psis = spinors(n, seed)
                psis[:, component] = 0.0
                psis[7, component] = value
                return psis

            with monkeypatch.context() as patch:
                patch.setattr(clifford, "random_spinors", poisoned)
                with np.errstate(invalid="ignore", over="ignore"):
                    report = verify.run_suites(spec, GRID)
            _assert_nonfinite_failure(report, ("fierz",), (component, value))
        for s, stack in enumerate(stacks):
            for row in range(0, len(stack), 4):
                broken = stack.copy()
                column = np.flatnonzero(broken[row] == 0)[0]
                broken[row, column] = value
                with monkeypatch.context() as patch:
                    patch.setattr(clifford, "_KERNEL_STACKS", (
                        *stacks[:s], broken, *stacks[s + 1:]))
                    with np.errstate(invalid="ignore", over="ignore"):
                        report = verify.run_suites(spec, GRID)
                _assert_nonfinite_failure(report, ("fierz",),
                                          (s, row, column, value))


# The builders of the heavy forms' operands return the entries their
# formulas write; an entry they leave out, patched in with a NaN or an inf
# at one point, is live and must reach the form that reads the field, and
# fail it through run_suites.  (module, builder, its layout, the form.)
HEAVY_OPERANDS = (
    (geometry, "tetrad_at", (4, 4), "standard-residuals"),
    (geometry, "spin_connection_at", (6, 4), "standard-residuals"),
    (geometry, "tensorial_connection_at", (6, 4), "covector-residuals"),
    (geometry, "velocity_covector", (4,), "covector-residuals"),
    (geometry, "spin_covector", (4,), "covector-residuals"),
    (geometry, "gradient_covector", (4,), "covector-residuals"),
)


def _with_entry(builder, layout, index, value):
    """``builder`` with ``value`` at the point 7 of the entry ``index`` of
    its dense layout, and that entry live."""

    def poisoned(*args):
        field = builder(*args)
        points = field.values.shape[1:]
        dense = sparse.dense(field, points)
        dense[index][7] = value
        return sparse.live(dense, layout)

    return poisoned


def test_a_nonfinite_left_out_entry_fails_its_heavy_form(monkeypatch):
    # every entry of the dense layout that each builder leaves out, on the
    # endpoint models, which run both heavy forms
    for spec in MODELS[:2]:
        sample, ang = _sampled_structure(spec)
        arguments = {"gradient_covector": (sample.r, sample.theta)}
        for module, name, layout, form in HEAVY_OPERANDS:
            builder = getattr(module, name)
            field = builder(*arguments.get(name, (sample, ang)))
            left_out = [index for index in np.ndindex(layout)
                        if index not in field.index]
            assert len(left_out) == np.prod(layout) - len(field.index) > 0
            for value in NONFINITE:
                for index in left_out:
                    with monkeypatch.context() as patch:
                        patch.setattr(module, name, _with_entry(
                            builder, layout, index, value))
                        with np.errstate(invalid="ignore", over="ignore"):
                            report = verify.run_suites(spec, GRID)
                    _assert_nonfinite_failure(report, (form,),
                                              (spec.name, name, index, value))


def test_a_nonfinite_zero_spinor_component_fails_the_standard_form(
        monkeypatch):
    # psi's components 1 and 3 are zero on the solutions; the standard form
    # takes the live components from the assembled spinor itself
    assemble = polar.assemble_spinor
    for spec in MODELS:
        for value in NONFINITE:
            for component in (1, 3):

                def poisoned(f, component=component, value=value):
                    psi = assemble(f)
                    psi[component, 7] = value
                    return psi

                with monkeypatch.context() as patch:
                    patch.setattr(polar, "assemble_spinor", poisoned)
                    with np.errstate(invalid="ignore", over="ignore"):
                        report = verify.run_suites(spec, GRID)
                _assert_nonfinite_failure(report, ("standard-residuals",),
                                          (spec.name, component, value))


def test_sampled_suites_share_their_sample_states(monkeypatch):
    # one angle state at each point set of the sample, the points and the
    # two complex steps off them, which curvature-strength and transport
    # both read, and one Christoffel build at the points, which flatness,
    # curvature-strength and transport read (riemann_at differentiates it
    # at the two steps): three calls of each per verify
    angle_state, christoffel_at = polar.angle_state, geometry.christoffel_at
    for spec in MODELS:
        calls = {"angle_state": [], "christoffel_at": []}

        def counted_angle_state(pt, spec):
            calls["angle_state"].append(pt)
            return angle_state(pt, spec)

        def counted_christoffel_at(pt):
            calls["christoffel_at"].append(pt)
            return christoffel_at(pt)

        with monkeypatch.context() as patch:
            patch.setattr(polar, "angle_state", counted_angle_state)
            patch.setattr(geometry, "christoffel_at", counted_christoffel_at)
            report = verify.run_suites(spec, GRID)
        assert report["pass"], spec.name
        for name, points in calls.items():
            assert len(points) == len({id(pt) for pt in points}) == 3, (
                spec.name, name)


# Largest allocation peak of each sampled suite, in bytes: the five run on
# the same 50 points (fierz on its 1000 spinors), so the bounds do not
# depend on the grid.  The products of flatness and curvature-strength run
# over the live entries of their fields, not over dense rank-5 arrays,
# flatness takes the absolute values of its dense Riemann tensor in place,
# and the bilinears of fierz take two kernels at a time.  Each suite is
# handed the Sample of a verify, which holds the angle states the suites
# share.
SUITE_PEAK = {
    "fierz": 490_000,
    "flatness": 152_000,
    "curvature-strength": 170_000,
    "transport": 120_000,
    "decomposition": 160_000,
}


def test_each_sampled_suite_peaks_under_its_bound():
    assert set(SUITE_PEAK) == set(verify.SUITES) - {
        f"{form}-residuals" for form in equations.FORMS}
    for spec in MODELS:
        for name, bound in SUITE_PEAK.items():
            suite, tol = verify.SUITES[name], verify.DEFAULT_TOLERANCES[name]
            suite(spec, None, verify.draw_sample(spec, 42), 42, tol)
            # a Sample of its own, so that the suite builds what it shares
            sample = verify.draw_sample(spec, 42)
            tracemalloc.start()
            try:
                entry = suite(spec, None, sample, 42, tol)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert entry["pass"], (spec.name, name)
            assert peak <= bound, (spec.name, name, peak)


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
        assert swept == [500] * (4 if spec.name in settings.ENDPOINTS else 2)


# Largest allocation peak of each grid form per point of a SWEEP_CHUNK
# chunk, the closed-form bundle it reads included, in bytes.  The heavy
# forms hold the live entries of their geometry alone, so a chunk of them
# stays near 0.69 MB, inside run_suites' 1 MB guard with the grid held
# beside it.
FORM_PEAK_PER_POINT = {
    "residual_expanded": 300,
    "residual_polar_covector": 550,
    "residual_reduced": 300,
    "residual_standard": 680,
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
    # within FORM_PEAK_PER_POINT, and the sampled suites within SUITE_PEAK
    # (fierz's bilinears take 8 kernel rows per spinor at a time), so one
    # verify's allocations peak under 1 MB on the benchmark's grid sizes
    for spec, grid in (
            (ModelSpec("njl"), grids.GridConfig(0.05, 20.0, 50, 40)),
            (ModelSpec("soler"), grids.GridConfig(0.05, 20.0, 50, 40)),
            (ModelSpec("p:0.37"), grids.GridConfig(0.05, 20.0, 70, 50))):
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
    # the decomposition's 50 sampled points: with 1024-point chunks, 2
    # chunks of a 50x40 grid and 4 of a 70x50 one.  The bundle builds the
    # density step once
    for spec, grid in (
            (ModelSpec("njl"), grids.GridConfig(0.05, 20.0, 50, 40)),
            (ModelSpec("soler"), grids.GridConfig(0.05, 20.0, 50, 40)),
            (ModelSpec("p:0.37"),
             grids.GridConfig(0.05, 20.0, 70, 50))):
        unmasked = np.count_nonzero(
            ~equations.is_masked(grids.points(grid, m=spec.m), spec))
        builds = -(-unmasked // equations.SWEEP_CHUNK) + 1
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
# theta nor the profile quantities of the density step; the reduced form
# reads the density step alone.
_BETA_AND_ANGLES = ("expanded", "covector", "standard")
FORMS_READING = {
    **dict.fromkeys(("sin_beta", "cos_beta", "r_d_beta_dr", "d_beta_dtheta"),
                    _BETA_AND_ANGLES),
    **dict.fromkeys((f"ang.{name}" for name in geometry.AngleState._fields),
                    _BETA_AND_ANGLES),
    "density.c": ("expanded", "reduced"),
    "density.s": ("expanded", "reduced"),
    **dict.fromkeys(("density.sh", "density.ch", "density.D", "density.q",
                     "density.S"), ("reduced",)),
    **dict.fromkeys(("density.phi2", "density.r_dlnphi2_dr",
                     "density.dlnphi2_dtheta"),
                    ("expanded", "covector", "reduced", "standard")),
}


def _leaf_paths(f):
    """The dotted path of each leaf of a ClosedForm, such as "ang.d_gamma_dr"."""
    for name, value in zip(f._fields, f):
        if hasattr(value, "_fields"):
            yield from (f"{name}.{path}" for path in _leaf_paths(value))
        else:
            yield name


def _changed(f, path, change):
    """f with ``change`` applied to the leaf at ``path``."""
    name, _, rest = path.partition(".")
    value = getattr(f, name)
    return f._replace(**{
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
