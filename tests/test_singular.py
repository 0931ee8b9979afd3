import numpy as np
import pytest

from nldirac import singular
from nldirac.polar import ModelSpec, phi2_grid
from nldirac.singular import (
    asymptotics_report,
    decay_fit,
    locate_numerically,
    singular_locus,
    singularity_report,
)


def test_analytic_locus_kinds():
    ring = singular_locus(ModelSpec.njl())
    assert ring.kind == "ring"
    assert ring.radius == pytest.approx(0.5)
    assert ring.angular_constraint == "cos(theta) = 0"
    shell = singular_locus(ModelSpec.soler())
    assert shell.kind == "shell"
    assert shell.radius == pytest.approx(0.5)
    assert shell.angular_constraint is None
    # any chiral admixture confines the divergence to the equator
    assert singular_locus(ModelSpec(p=0.3)).kind == "ring"
    # radius scales with the inverse mass
    assert singular_locus(ModelSpec(m=4.0)).radius == pytest.approx(1 / 8)


def test_numerical_locus_ring():
    est = locate_numerically(ModelSpec.njl())
    assert est.kind == "ring"
    assert est.diverged
    assert abs(2.0 * est.radius - 1.0) < 0.01
    assert abs(est.theta - np.pi / 2) < 0.02
    assert est.radius_uncertainty <= 1e-3 / 2.0


def test_numerical_locus_shell():
    est = locate_numerically(ModelSpec.soler())
    assert est.kind == "shell"
    assert est.diverged
    assert abs(2.0 * est.radius - 1.0) < 0.01
    assert est.radius_uncertainty <= 1e-3 / 2.0
    assert est.theta is None


def test_window_without_singular_radius_stays_bounded(monkeypatch):
    # the density shifted outwards by 0.55/m: the search window, r in
    # [0.1, 1.0], then sees the bounded density of r in [0.65, 1.55]
    density = singular.phi2_grid
    monkeypatch.setattr(singular, "phi2_grid",
                        lambda spec, r, theta: density(spec, r + 0.55, theta))
    est = locate_numerically(ModelSpec.njl())
    assert not est.diverged
    assert est.kind == "none"
    assert est.refinements == 6


def test_decay_exponent_and_limit():
    for spec in (ModelSpec.njl(), ModelSpec.soler()):
        exponent, _ = decay_fit(spec)
        assert exponent == pytest.approx(-2.0, abs=0.01)
        rep = asymptotics_report(spec)
        assert rep["phi2_r2_at_100_over_m"] == pytest.approx(2.0, rel=1e-4)
        assert rep["origin_value"] == pytest.approx(8.0, rel=1e-10)
        assert len(rep["table"]) == 6


def test_asymptotics_scale_with_mass():
    m = 2.5
    rep = asymptotics_report(ModelSpec.njl(m=m))
    assert rep["limit_constant"] == pytest.approx(2.0 / m)
    assert rep["phi2_r2_at_100_over_m"] == pytest.approx(2.0 / m, rel=1e-3)
    assert rep["origin_value"] == pytest.approx(8.0 * m, rel=1e-10)


def test_origin_values_both_models():
    for spec in (ModelSpec.njl(), ModelSpec.soler()):
        val = float(phi2_grid(spec, 1e-6, 0.9))
        assert val == pytest.approx(8.0, rel=1e-10)


def test_chiral_density_is_finite_on_the_axis():
    # the ring divergence is cylindrically symmetric: along theta = 0 the
    # chiral density stays bounded for every radius, including 2mr = 1
    rs = np.geomspace(1e-3, 1e3, 300)
    vals = phi2_grid(ModelSpec.njl(), rs, np.zeros_like(rs))
    assert np.all(np.isfinite(vals))
    assert np.all(vals > 0.0)
    assert vals.max() <= 8.0 + 1e-12


def test_scalar_density_diverges_uniformly_on_the_shell():
    thetas = np.linspace(0.05, np.pi - 0.05, 50)
    near = phi2_grid(ModelSpec.soler(), np.full_like(thetas, 0.5 + 1e-7), thetas)
    assert np.all(near > 1e6)


def test_singularity_report_schema():
    rep = singularity_report(ModelSpec.njl())
    assert rep["model"] == "njl"
    assert rep["locus"]["kind"] == "ring"
    assert rep["numerical_locus"]["diverged"] is True
    assert rep["decay_exponent"] == pytest.approx(-2.0, abs=0.01)
    assert rep["limit_constant"] == pytest.approx(2.0)
    rep = singularity_report(ModelSpec(m=1.0, p=0.5))
    assert rep["model"] == "p:0.5"
    assert rep["locus"]["kind"] == "ring"