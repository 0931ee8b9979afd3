import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nldirac import grids, polar
from nldirac.errors import PoleOrOrigin, SingularPoint
from nldirac.equations import (
    MODELS,
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
    assert is_masked(ring_pt, ModelSpec.soler())
    assert is_masked(off_equator, ModelSpec.soler())
    assert not is_masked(far_pt, ModelSpec.soler())
    # ring (p > 0): radius and equator jointly
    assert is_masked(ring_pt, ModelSpec.njl())
    assert not is_masked(off_equator, ModelSpec.njl())
    assert not is_masked(far_pt, ModelSpec(p=0.5))


def test_expanded_residuals_vanish_on_exact_solutions():
    for spec in (ModelSpec.njl(), ModelSpec.soler()):
        worst = max(
            residual_expanded(pt, spec).max() for pt in random_points(100)
        )
        assert worst <= 1e-8, spec.name


def test_covector_residuals_vanish_on_exact_solutions():
    for spec in (ModelSpec.njl(), ModelSpec.soler()):
        worst = max(
            residual_polar_covector(pt, spec).max()
            for pt in random_points(100)
        )
        assert worst <= 1e-8, spec.name


def test_covector_temporal_and_azimuthal_components_vanish():
    spec = ModelSpec.njl()
    for pt in random_points(20):
        chiral, density = covector_components(pt, spec)
        assert abs(chiral[0]) <= 1e-14 and abs(chiral[3]) <= 1e-14
        assert abs(density[0]) <= 1e-14 and abs(density[3]) <= 1e-14


def test_expanded_equals_projected_covector():
    # the four scalars are the r- and theta-projections of the two covector
    # equations (radial ones carry a factor r); they must agree even with
    # generic quantum numbers, where neither vanishes
    for p in (1.0, 0.0):
        spec = ModelSpec(m=1.0, p=p, E=1.07, l=0.61)
        for pt in random_points(30):
            ex = expanded_components(pt, spec)
            chiral, density = covector_components(pt, spec)
            assert ex["beta_r"] == pytest.approx(pt.r * chiral[1], abs=1e-10)
            assert ex["beta_theta"] == pytest.approx(chiral[2], abs=1e-10)
            assert ex["density_r"] == pytest.approx(pt.r * density[1], abs=1e-10)
            assert ex["density_theta"] == pytest.approx(density[2], abs=1e-10)


def test_energy_rigidity():
    spec = ModelSpec(m=1.0, p=1.0, E=1.1)
    worst = max(
        residual_expanded(pt, spec).max() for pt in random_points(50)
    )
    assert worst >= 1e-2


def test_angular_momentum_rigidity():
    spec = ModelSpec(m=1.0, p=1.0, l=0.6)
    worst = max(
        residual_expanded(pt, spec).max() for pt in random_points(50)
    )
    assert worst >= 1e-2


def test_cross_model_fields_leave_residual():
    # chiral-model fields inserted in the scalar-model equations (and the
    # reverse) must fail somewhere: the nonlinearities differ
    pts = random_points(100)
    njl_into_soler = max(
        residual_expanded(pt, ModelSpec.soler(), fields_p=1.0).max()
        for pt in pts
    )
    soler_into_njl = max(
        residual_expanded(pt, ModelSpec.njl(), fields_p=0.0).max()
        for pt in pts
    )
    assert njl_into_soler >= 1e-2
    assert soler_into_njl >= 1e-2


def test_linear_limit_makes_models_identical():
    # with the nonlinear coupling switched off, the two systems coincide
    njl = ModelSpec.njl(m=1.0, E=1.2, l=0.7)
    soler = ModelSpec.soler(m=1.0, E=1.2, l=0.7)
    for pt in random_points(30):
        a = expanded_components(pt, njl, fields_p=1.0, nonlinear_scale=0.0)
        b = expanded_components(pt, soler, fields_p=1.0, nonlinear_scale=0.0)
        for key in a:
            assert a[key] == pytest.approx(b[key], abs=1e-12)
        ca, da = covector_components(pt, njl, fields_p=1.0, nonlinear_scale=0.0)
        cb, db = covector_components(pt, soler, fields_p=1.0,
                                     nonlinear_scale=0.0)
        assert np.allclose(ca, cb, atol=1e-12)
        assert np.allclose(da, db, atol=1e-12)


def test_reduced_residuals_vanish_for_all_p():
    for p in (0.0, 0.5, 1.0):
        spec = ModelSpec(m=1.0, p=p)
        worst = max(
            residual_reduced(pt, spec).max() for pt in random_points(200)
        )
        assert worst <= 1e-8, p


def test_reduced_detects_radial_offset():
    spec = ModelSpec.njl()
    pt = GridPoint(1.0, np.pi / 3)
    comps = reduced_components(pt, spec, zeta_offset=1e-3)
    assert abs(comps["zeta_radial"]) >= 1e-4


def test_reduced_detects_angular_dependence():
    spec = ModelSpec.njl()
    pt = GridPoint(1.0, 1.0)
    comps = reduced_components(pt, spec, zeta_theta_amplitude=0.01)
    assert abs(comps["separation_consistency"]) >= 1e-3


def test_standard_residual_vanishes_for_all_p():
    for p in (0.0, 0.5, 1.0):
        spec = ModelSpec(m=1.0, p=p)
        worst = max(
            residual_standard(pt, spec) for pt in random_points(50)
        )
        assert worst <= 1e-8, p


def test_standard_residual_wrong_coupling_sign_is_large():
    spec = ModelSpec.njl()
    res = residual_standard(GridPoint(1.0, np.pi / 3), spec,
                            coupling_sign=-1.0)
    assert res >= 1e-1


def test_standard_and_reduced_detect_same_perturbation():
    # perturb the equation mass only: both presentations must flag it at
    # comparable size (the same physics in two bases); the gamma-matrix
    # residual is measured per unit spinor amplitude to share the reduced
    # system's normalization
    from nldirac.polar import assemble_spinor

    spec = ModelSpec.njl()
    for pt in random_points(10):
        m_eq = 1.0 + 1e-3
        psi_scale = float(np.max(np.abs(assemble_spinor(pt, spec))))
        std = residual_standard(pt, spec, equation_mass=m_eq) / psi_scale
        red = residual_reduced(pt, spec, equation_mass=m_eq).max()
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
                residual_expanded(pt, ModelSpec.njl(m=m)).max(),
                residual_polar_covector(pt, ModelSpec.soler(m=m)).max(),
                residual_reduced(pt, ModelSpec(m=m, p=0.5)).max(),
                residual_standard(pt, ModelSpec(m=m, p=0.5)),
                polar_decomposition_residual(pt, ModelSpec.njl(m=m)),
            )
        assert worst <= 1e-8, m


def test_sweep_masks_and_aggregates():
    spec = ModelSpec.njl()
    row = GridPoint(np.array([0.5, 1.0, 2.0]),
                    np.array([np.pi / 2 + 1e-4, 1.0, 2.0]))
    stats = sweep([row], lambda pt: residual_expanded(pt, spec), spec)
    assert stats["n_points"] == 3
    assert stats["n_masked"] == 1
    assert stats["max"] <= 1e-10


@settings(max_examples=100, deadline=None)
@given(margin=st.floats(0.0, 1.5), p=st.sampled_from([0.0, 0.5, 1.0]),
       m=st.sampled_from([0.5, 1.0, 2.0]), n_r=st.integers(2, 12),
       n_theta=st.integers(2, 9))
def test_sweep_masks_exactly_the_masked_points(margin, p, m, n_r, n_theta):
    spec = ModelSpec(m=m, p=p)
    rows = grids.points(grids.GridConfig(r_min=0.2, r_max=3.0, n_r=n_r,
                                         n_theta=n_theta), m=m)
    evaluated = []

    def record(pt):
        evaluated.extend(zip(pt.r.tolist(), pt.theta.tolist()))
        return np.zeros(pt.shape)

    stats = sweep(rows, record, spec, margin)
    pts = [GridPoint(r, th) for row in rows
           for r, th in zip(row.r.tolist(), row.theta.tolist())]
    masked = [is_masked(pt, spec, margin) for pt in pts]
    assert stats["n_points"] == len(pts)
    assert stats["n_masked"] == sum(masked)
    assert evaluated == [(pt.r, pt.theta)
                         for pt, skip in zip(pts, masked) if not skip]


def _leaves(out):
    """The arrays of an evaluator's output, in a fixed order."""
    if dataclasses.is_dataclass(out):
        out = [getattr(out, f.name) for f in dataclasses.fields(out)]
    elif isinstance(out, dict):
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
        p = {"njl": 1.0, "soler": 0.0}.get(model, 0.5)
        spec = ModelSpec(m=m, p=p, E=1.07 * m, l=0.61)
        evaluators = {
            "closed_form": lambda pt: polar.closed_form(pt, spec),
            "covariant_derivative": lambda pt: polar.covariant_derivative(pt, spec),
            "reduced": lambda pt: reduced_components(pt, spec),
            "reduced, angular zeta": lambda pt: reduced_components(
                pt, spec, zeta_theta_amplitude=0.01),
            "reduced residual": lambda pt: residual_reduced(pt, spec),
            "standard residual": lambda pt: residual_standard(pt, spec),
        }
        if spec.name in MODELS:
            evaluators["expanded"] = lambda pt: expanded_components(pt, spec)
            evaluators["covector"] = lambda pt: covector_components(pt, spec)
            evaluators["expanded residual"] = (
                lambda pt: residual_expanded(pt, spec))
            evaluators["covector residual"] = (
                lambda pt: residual_polar_covector(pt, spec))
        cfg = grids.GridConfig(r_min=rng.uniform(0.03, 0.08),
                               r_max=rng.uniform(10.0, 30.0), n_r=9, n_theta=7)
        for row in grids.points(cfg, m=m):
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
