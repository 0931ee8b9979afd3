"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from nldirac import clifford, equations, geometry, grids, ode, polar, singular
from nldirac.geometry import GridPoint
from nldirac.polar import ModelSpec


def _report(number, description, worst, tol, elapsed=None, limit=None):
    ok = worst <= tol and (limit is None or elapsed <= limit)
    line = f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {description}: " \
           f"max residual {worst:.3e} (tol {tol:.1e})"
    if elapsed is not None:
        line += f", {elapsed:.2f}s"
        if limit is not None:
            line += f" (limit {limit:.0f}s)"
    print(line)
    return ok


def unmasked_points(n, spec, seed):
    rng = np.random.default_rng(seed)
    return grids.sample_points(
        rng, n, m=spec.m,
        reject=lambda pt: equations.is_masked(pt, spec),
    )


def test_criterion_01_fierz_identities():
    t0 = time.perf_counter()
    res = clifford.fierz_residuals(clifford.random_spinors(1000, seed=42))
    worst = max(r.max() for r in res)
    elapsed = time.perf_counter() - t0
    assert _report(1, "Fierz identities, 1000 seeded spinors", worst, 1e-10,
                   elapsed, 1.0)


def test_criterion_02_flat_background():
    spec = ModelSpec.njl()
    t0 = time.perf_counter()
    pts = unmasked_points(50, spec, seed=42)
    worst = float(np.max(np.abs(geometry.riemann_at(pts))))
    (rie,) = geometry.curvature_strength_residuals(
        pts, lambda p: polar.angle_state(p, spec))
    worst = max(worst, rie)
    elapsed = time.perf_counter() - t0
    assert _report(2, "flat background and vanishing potentials", worst, 1e-8,
                   elapsed, 5.0)


def test_criterion_03_transport_identities():
    spec = ModelSpec.njl()
    pts = unmasked_points(50, spec, seed=43)
    worst = max(geometry.transport_residuals(
        pts, lambda p: polar.angle_state(p, spec)))
    assert _report(3, "transport identities, complex-step partials", worst, 1e-8)


def test_criterion_04_polar_decomposition():
    worst = 0.0
    for spec in (ModelSpec.njl(), ModelSpec.soler()):
        pts = unmasked_points(50, spec, seed=44)
        worst = max(worst, polar.polar_decomposition_residual(pts, spec))
    assert _report(4, "polar decomposition on both exact solutions", worst, 1e-8)


def test_criterion_05_all_equation_forms():
    cfg = grids.GridConfig(r_min=0.05, r_max=20.0, n_r=25, n_theta=20)
    t0 = time.perf_counter()
    values = []

    def unmasked(spec):
        # the unmasked points of each grid row, as one GridPoint per row
        grid = grids.points(cfg, m=spec.m)
        assert grid.r.size == 500
        for r, theta in zip(grid.r, grid.theta):
            row = GridPoint(r, theta)
            keep = ~equations.is_masked(row, spec)
            yield GridPoint(row.r[keep], row.theta[keep])

    for spec in (ModelSpec.njl(), ModelSpec.soler()):
        for pt in unmasked(spec):
            f = polar.closed_form(pt, spec)
            values.append(equations.residual_expanded(pt, spec, f))
            values.append(equations.residual_polar_covector(pt, spec, f))
    for p in (0.0, 0.5, 1.0):
        spec = ModelSpec(m=1.0, p=p)
        for pt in unmasked(spec):
            f = polar.closed_form(pt, spec)
            values.append(equations.residual_reduced(pt, spec, f))
            values.append(equations.residual_standard(pt, spec, f))
    worst = float(np.max(np.concatenate(values)))
    elapsed = time.perf_counter() - t0
    assert _report(5, "all four equation forms on 500-point grids", worst, 1e-8,
                   elapsed, 30.0)


def test_criterion_06_quantum_number_rigidity():
    spec = ModelSpec(m=1.0)
    result = ode.quantum_number_scan(spec)
    zero = result.zero_cells()
    ok = zero == [(1.0, 0.5)]
    i0 = int(np.argmin(np.abs(result.e_over_m - 1.0)))
    j0 = int(np.argmin(np.abs(result.l_values - 0.5)))
    neighbours = [
        result.surface[i0 + di, j0 + dj]
        for di, dj in ((0, 1), (0, -1), (1, 0), (-1, 0))
    ]
    ok = ok and min(neighbours) >= 1e-3
    print(f"criterion  6 [{'PASS' if ok else 'FAIL'}] quantum-number rigidity: "
          f"zero cells {zero}, min neighbour {min(neighbours):.3e}")
    assert ok


def test_criterion_07_ode_tracking():
    spec = ModelSpec.soler(m=1.0)
    t0 = time.perf_counter()
    cfg = ode.IntegratorConfig(r_span=(1.0, 10.0), rtol=1e-9, atol=1e-12)
    traj = ode.integrate(cfg, ode.exact_state(1.0, spec), spec)
    dev = ode.tracking_deviation(traj, spec)["max_rel"]
    elapsed = time.perf_counter() - t0
    assert _report(7, "radial system tracks the closed form", dev, 1e-6,
                   elapsed, 5.0)


def test_criterion_08_singular_loci_and_origin():
    njl, soler = ModelSpec.njl(m=1.0), ModelSpec.soler(m=1.0)
    ring = singular.locate_numerically(njl)
    shell = singular.locate_numerically(soler)
    cell = 1e-3 / (2.0 * njl.m)
    ok = (
        ring.kind == "ring" and ring.diverged
        and abs(ring.radius - 0.5) <= cell
        and abs(ring.theta - np.pi / 2) <= 0.02
        and shell.kind == "shell" and shell.diverged
        and abs(shell.radius - 0.5) <= cell
    )
    origin_worst = max(
        abs(float(polar.phi2_grid(spec, 1e-6, 0.9)) - 8.0) / 8.0
        for spec in (njl, soler)
    )
    ok = ok and origin_worst <= 1e-10
    print(f"criterion  8 [{'PASS' if ok else 'FAIL'}] singular loci: ring at "
          f"(r={ring.radius:.6f}, th={ring.theta:.4f}), shell at "
          f"r={shell.radius:.6f}, origin rel err {origin_worst:.2e}")
    assert ok


def test_criterion_09_asymptotics():
    ok = True
    for spec in (ModelSpec.njl(), ModelSpec.soler()):
        rep = singular.asymptotics_report(spec)
        # phi^2 r^2 on the equator at r = 100/m, against its limit 2/m
        r = 100.0 / spec.m
        tail = float(polar.phi2_grid(spec, r, np.pi / 2)) * r * r
        exp_ok = abs(rep["decay_exponent"] + 2.0) <= 0.01
        tail_ok = abs(tail - 2.0) / 2.0 <= 1e-3
        ok = ok and exp_ok and tail_ok
        print(f"criterion  9 [{'PASS' if exp_ok and tail_ok else 'FAIL'}] "
              f"{spec.name} decay exponent {rep['decay_exponent']:.4f}, "
              f"phi2 r^2 at 100/m = {tail:.6f}")
    assert ok


def test_criterion_10_interpolation_endpoints():
    rng = np.random.default_rng(45)
    spec = ModelSpec(m=1.0, p=0.5)
    pts = grids.sample_points(
        rng, 100, m=1.0,
        reject=lambda pt: abs(2 * pt.r - 1.0) < 0.05,
    )
    # the paper's endpoint densities at m = 1, through the radicand
    # 16 r^4 + 8 r^2 cos 2theta + 1
    radicand = 16.0 * pts.r**4 + 8.0 * pts.r**2 * np.cos(2.0 * pts.theta) + 1.0
    njl = 8.0 / np.sqrt(radicand)
    soler = 8.0 * np.sqrt(radicand) / (4.0 * pts.r**2 - 1.0) ** 2
    worst = max(
        np.max(abs(polar.density(pts, ModelSpec.interpolating(1.0)).phi2
                   - njl) / njl),
        np.max(abs(polar.density(pts, ModelSpec.interpolating(0.0)).phi2
                   - soler) / soler),
    )
    assert _report(10, "interpolated density endpoint agreement", worst, 1e-12)
