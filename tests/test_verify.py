"""Every verification suite must fail on a perturbed solution.

Each negative control patches one layer function that its suite reads with
a seeded perturbation, and the suite must then appear in the report's
``failing_suites``.  A suite added to ``verify.SUITES`` without a control
fails ``test_every_suite_has_a_negative_control``.
"""

import dataclasses

import numpy as np

from nldirac import clifford, equations, geometry, grids, verify
from nldirac.polar import ModelSpec

GRID = grids.GridConfig(r_min=0.05, r_max=20.0, n_r=5, n_theta=4)


# suite name -> (module, function, replacement made from the function f and
# a perturbation size d)
CONTROLS = {
    # a scaled velocity vector breaks U.U = Theta^2 + Phi^2
    "fierz": (clifford, "bilinears", lambda f, d: lambda psi: (
        dataclasses.replace(f(psi), U=f(psi).U * (1.0 + d)))),
    "flatness": (geometry, "christoffel_partials_at",
                 lambda f, d: lambda pt: f(pt) * (1.0 + d)),
    # a position-dependent rescaling of the potential is no longer flat
    "curvature-strength": (geometry, "tensorial_connection_at",
                           lambda f, d: lambda pt, ang: f(pt, ang) * (
                               1.0 + d * np.sin(3.0 * pt.r) * np.cos(2.0 * pt.theta))),
    # shifted coordinate partials of the spin covector
    "transport": (geometry, "velocity_spin_partials",
                  lambda f, d: lambda pt, ang: (f(pt, ang)[0], f(pt, ang)[1] + d)),
    # a momentum whose l disagrees with the spinor's phase
    "decomposition": (geometry, "momentum_covector",
                      lambda f, d: lambda E, l: f(E, l + d)),
    "expanded-residuals": (equations, "residual_expanded", lambda f, d: (
        lambda pt, spec: f(pt, spec, nonlinear_scale=1.0 + d))),
    "covector-residuals": (equations, "residual_polar_covector", lambda f, d: (
        lambda pt, spec: f(pt, spec, nonlinear_scale=1.0 + d))),
    "reduced-residuals": (equations, "residual_reduced", lambda f, d: (
        lambda pt, spec: f(pt, spec, zeta_offset=d))),
    "standard-residuals": (equations, "residual_standard", lambda f, d: (
        lambda pt, spec: f(pt, spec, equation_mass=spec.m * (1.0 + d)))),
}


def test_every_suite_has_a_negative_control(monkeypatch):
    spec = ModelSpec.njl()
    assert verify.run_suites(spec, GRID)["pass"]
    rng = np.random.default_rng(2026)
    assert list(CONTROLS) == list(verify.SUITES)
    for name in verify.SUITES:
        module, attr, perturbed = CONTROLS[name]
        d = rng.uniform(1e-3, 1e-2)
        with monkeypatch.context() as patch:
            patch.setattr(module, attr, perturbed(getattr(module, attr), d))
            report = verify.run_suites(spec, GRID)
        assert name in report["failing_suites"], (name, d, report["suites"][name])
