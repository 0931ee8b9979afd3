"""Polar-form machinery of the nonlinear Dirac equation on a flat spherical
background, with verified closed-form solutions of the chiral
(Nambu--Jona-Lasinio), scalar (Soler) and interpolating models.

The public names are imported from their modules on first access, so that
importing the package, as ``python -m nldirac.cli`` does, loads no numpy.
"""

import importlib

__version__ = "0.1.0"

# each public name and the module that defines it
_HOMES = {
    "AngleState": "geometry",
    "BilinearSet": "clifford",
    "DivergingState": "errors",
    "G_exact": "polar",
    "GridPoint": "geometry",
    "ModelSpec": "settings",
    "NonRealBilinear": "errors",
    "PoleOrOrigin": "errors",
    "SingularG": "errors",
    "SingularLocus": "singular",
    "SingularPoint": "errors",
    "StepUnderflow": "errors",
    "X_exact": "polar",
    "assemble_spinor": "polar",
    "asymptotics_report": "singular",
    "bilinears": "clifford",
    "sigma": "clifford",
    "singular_locus": "singular",
}

__all__ = list(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value
