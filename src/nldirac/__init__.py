"""Polar-form machinery of the nonlinear Dirac equation on a flat spherical
background, with verified closed-form solutions of the chiral
(Nambu--Jona-Lasinio), scalar (Soler) and interpolating models."""

from .clifford import BilinearSet, bilinears, gamma_basis, sigma
from .errors import (
    DivergingState,
    NonRealBilinear,
    PoleOrOrigin,
    SingularG,
    SingularPoint,
    StepUnderflow,
)
from .geometry import AngleState, GridPoint
from .polar import (
    G_exact,
    ModelSpec,
    X_exact,
    assemble_spinor,
    module_general_p,
    module_njl,
    module_soler,
)
from .singular import SingularLocus, asymptotics_report, singular_locus

__version__ = "0.1.0"

__all__ = [
    "AngleState",
    "BilinearSet",
    "DivergingState",
    "G_exact",
    "GridPoint",
    "ModelSpec",
    "NonRealBilinear",
    "PoleOrOrigin",
    "SingularG",
    "SingularLocus",
    "SingularPoint",
    "StepUnderflow",
    "X_exact",
    "assemble_spinor",
    "asymptotics_report",
    "bilinears",
    "gamma_basis",
    "module_general_p",
    "module_njl",
    "module_soler",
    "sigma",
    "singular_locus",
]
