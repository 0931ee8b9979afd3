import mpmath
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
    ring = singular_locus(ModelSpec("njl"))
    assert ring.kind == "ring"
    assert ring.radius == pytest.approx(0.5)
    assert ring.angular_constraint == "cos(theta) = 0"
    shell = singular_locus(ModelSpec("soler"))
    assert shell.kind == "shell"
    assert shell.radius == pytest.approx(0.5)
    assert shell.angular_constraint is None
    # any chiral admixture confines the divergence to the equator
    assert singular_locus(ModelSpec("p:0.3")).kind == "ring"
    # radius scales with the inverse mass
    assert singular_locus(ModelSpec(m=4.0)).radius == pytest.approx(1 / 8)


def test_numerical_locus_ring():
    est = locate_numerically(ModelSpec("njl"))
    assert est.kind == "ring"
    assert est.diverged
    assert abs(2.0 * est.radius - 1.0) <= 1e-9
    # the innermost approach point sits 1e-12 of the radius from it, and
    # the bounded path at pi/4 is pi/4 away from the ring
    assert est.radius_uncertainty == pytest.approx(0.5e-12, rel=1e-15)
    assert est.theta == np.pi / 2
    assert est.theta_uncertainty == np.pi / 4


def test_numerical_locus_shell():
    est = locate_numerically(ModelSpec("soler"))
    assert est.kind == "shell"
    assert est.diverged
    assert abs(2.0 * est.radius - 1.0) <= 1e-9
    assert est.radius_uncertainty == pytest.approx(0.5e-12, rel=1e-15)
    assert est.theta is None
    assert est.theta_uncertainty is None


@pytest.mark.parametrize("m", (0.5, 1.0, 3.0, 1e-200, 1e-250))
@pytest.mark.parametrize("p", (1.0, 0.5, 0.05, 1e-3, 1e-6, 1e-9, 1e-15,
                               1e-20, 0.0))
def test_numerical_locus_matches_the_analytic_kind(p, m):
    # a ring at any resolvable p > 0, however thin (the bounded value at
    # pi/4 is 2/(r p cos theta)), and a shell at p = 0; at the tiny masses
    # 1/phi^2 is about 1/m, and the secant must not overflow on it
    spec = ModelSpec(f"p:{p}", m=m)
    est = locate_numerically(spec)
    assert est.kind == singular_locus(spec).kind
    assert est.diverged
    assert abs(2.0 * m * est.radius - 1.0) <= 1e-9
    assert est.refinements == 2


def test_locus_search_evaluates_ten_points_at_most(monkeypatch):
    # four paths of two points each; the radius reuses the outside equator
    # samples
    density, sizes = singular.phi2_grid, []

    def counted(spec, r, theta):
        sizes.append(np.size(r))
        return density(spec, r, theta)

    monkeypatch.setattr(singular, "phi2_grid", counted)
    locate_numerically(ModelSpec("p:0.5"))
    assert len(sizes) <= 5 and sum(sizes) <= 10, sizes


def test_window_without_singular_radius_stays_bounded(monkeypatch):
    # the density shifted outwards by 0.55/m: the approach paths to r = 0.5
    # then see the bounded density next to r = 1.05
    density = singular.phi2_grid
    monkeypatch.setattr(singular, "phi2_grid",
                        lambda spec, r, theta: density(spec, r + 0.55, theta))
    for spec in (ModelSpec("njl"), ModelSpec("soler")):
        est = locate_numerically(spec)
        assert not est.diverged
        assert est.kind == "none"
        assert est.radius is None
        assert est.refinements == 2


def phi2_r2_at_100_over_m(spec):
    """phi^2 r^2 on the equator at r = 100/m, which approaches 2/m."""
    r = 100.0 / spec.m
    return float(phi2_grid(spec, r, np.pi / 2)) * r * r


def test_decay_exponent_and_limit():
    for spec in (ModelSpec("njl"), ModelSpec("soler")):
        exponent, _ = decay_fit(spec)
        assert exponent == pytest.approx(-2.0, abs=0.01)
        rep = asymptotics_report(spec)
        assert phi2_r2_at_100_over_m(spec) == pytest.approx(2.0, rel=1e-4)
        assert rep["origin_value"] == pytest.approx(8.0, rel=1e-10)


def test_asymptotics_scale_with_mass():
    m = 2.5
    rep = asymptotics_report(ModelSpec("njl", m=m))
    assert rep["limit_constant"] == pytest.approx(2.0 / m)
    assert phi2_r2_at_100_over_m(ModelSpec("njl", m=m)) == pytest.approx(
        rep["limit_constant"], rel=1e-3)
    assert rep["origin_value"] == pytest.approx(8.0 * m, rel=1e-10)


def test_origin_values_both_models():
    for spec in (ModelSpec("njl"), ModelSpec("soler")):
        val = float(phi2_grid(spec, 1e-6, 0.9))
        assert val == pytest.approx(8.0, rel=1e-10)


def test_chiral_density_is_finite_on_the_axis():
    # the ring divergence is cylindrically symmetric: along theta = 0 the
    # chiral density stays bounded for every radius, including 2mr = 1
    rs = np.geomspace(1e-3, 1e3, 300)
    vals = phi2_grid(ModelSpec("njl"), rs, np.zeros_like(rs))
    assert np.all(np.isfinite(vals))
    assert np.all(vals > 0.0)
    assert vals.max() <= 8.0 + 1e-12


def test_scalar_density_diverges_uniformly_on_the_shell():
    thetas = np.linspace(0.05, np.pi - 0.05, 50)
    near = phi2_grid(ModelSpec("soler"), np.full_like(thetas, 0.5 + 1e-7), thetas)
    assert np.all(near > 1e6)


def test_singularity_report_schema():
    rep = singularity_report(ModelSpec("njl"))
    assert rep["model"] == "njl"
    assert rep["locus"]["kind"] == "ring"
    assert rep["numerical_locus"]["diverged"] is True
    assert set(rep["numerical_locus"]) == {
        "kind", "radius", "radius_uncertainty", "theta", "theta_uncertainty",
        "diverged", "refinements"}
    assert set(rep["locus"]) == {"kind", "radius", "angular_constraint"}
    assert rep["decay_exponent"] == pytest.approx(-2.0, abs=0.01)
    assert rep["limit_constant"] == pytest.approx(2.0)
    rep = singularity_report(ModelSpec("p:0.5", m=1.0))
    assert rep["model"] == "p:0.5"
    assert rep["locus"]["kind"] == "ring"


def _density_mp(spec, r, theta):
    """2 sqrt(sh^2 + cos^2 theta) / (r [sh^2 + p cos^2 theta]), sh = sinh(ln
    2mr), in 50-digit arithmetic."""
    with mpmath.workdps(50):
        r, theta = mpmath.mpf(r), mpmath.mpf(theta)
        sh2 = mpmath.sinh(mpmath.log(2 * mpmath.mpf(spec.m) * r)) ** 2
        c2 = mpmath.cos(theta) ** 2
        return 2 * mpmath.sqrt(sh2 + c2) / (r * (sh2 + spec.p * c2))


def test_density_keeps_full_precision_next_to_the_ring():
    # on the equator at 2mr = 1 -+ d, against the density at the float r
    # passed: the radicand spellings of the endpoint densities cancel there
    # (relative error 0.2 at d = 1e-8, inf or 0 closer in).  The density
    # reads r through the float product 2mr, exact at m = 0.5; at m = 3 it
    # rounds, and the density's change under that one rounding (5.6e-5 at
    # d = 1e-12) is allowed on top of the 1e-14
    theta = np.pi / 2
    for m in (0.5, 3.0):
        for spec in (ModelSpec("njl", m=m), ModelSpec("soler", m=m),
                     ModelSpec("p:0.5", m=m)):
            for d in (1e-4, 1e-6, 1e-8, 1e-12):
                for r in ((1.0 - d) / (2.0 * m), (1.0 + d) / (2.0 * m)):
                    exact = _density_mp(spec, r, theta)
                    with mpmath.workdps(50):
                        # the r at which 2mr is the float product
                        r_product = mpmath.mpf(2.0 * m * r) / (2 * m)
                    rounding = abs(_density_mp(spec, r_product, theta) - exact)
                    error = abs(float(phi2_grid(spec, r, theta)) - exact)
                    assert error <= 1e-14 * exact + rounding, (
                        spec.name, m, d, r, float(error / exact))
                    if m == 0.5:
                        assert rounding == 0
