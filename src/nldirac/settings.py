"""The settings of a run that are checked before anything is evaluated: the
model, the grid and its radii at a mass, the mask margin, the suite
tolerances and the version of the JSON documents.

This module imports no numpy, so that the command line reports a usage
error, or prints its help, before it loads a numerical layer.  Its checks
compare Python floats with math.inf and math.pi; the numerical layers
import these records and constants from here, so each has one definition.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# The version of every JSON document the commands write.
SCHEMA = "1"

# p of the models named by a word
ENDPOINTS = {"njl": 1.0, "soler": 0.0}

# Half-width of the singular-region mask of a grid sweep (equations.is_masked).
DEFAULT_MASK_MARGIN = 0.02

# Seed of the random spinors and points of the sampled suites.
DEFAULT_SEED = 42

DEFAULT_TOLERANCES = {
    "fierz": 1e-10,
    "flatness": 1e-10,
    "curvature-strength": 1e-8,
    "transport": 1e-8,
    "decomposition": 1e-8,
    "expanded-residuals": 1e-8,
    "covector-residuals": 1e-8,
    "reduced-residuals": 1e-8,
    "standard-residuals": 1e-8,
}


class _ModelFields(NamedTuple):
    name: str
    m: float
    E: float
    l: float
    p: float


class ModelSpec(_ModelFields):
    """Model, mass and quantum numbers of a run.

    ``name`` is the model's text, njl, soler or p:<value>, parsed here and
    nowhere else: p, which cannot be passed, is 1, 0 or the value, and a
    "p:" name becomes the canonical "p:<p:g>" (p:0.50 reads p:0.5), at an
    endpoint value too, or "p:<p!r>" where the %g text would not read back
    as p, so that a name always gives back its p.  Every formula reads p
    alone; the name labels the output and selects what a report holds
    (verify.ENDPOINT_ONLY).  E defaults to the mass and l to one half: the
    only values the chiral model admits, and the ones the closed-form
    solutions carry.  Build a changed copy with the constructor:
    ``_replace`` would skip the checks.
    """

    __slots__ = ()

    def __new__(cls, name="njl", m=1.0, E=None, l=0.5):
        if name in ENDPOINTS:
            p = ENDPOINTS[name]
        elif isinstance(name, str) and name.startswith("p:"):
            try:
                p = float(name[2:])
            except ValueError:
                raise ValueError(f"p must be a number, got {name[2:]!r}") from None
            name = f"p:{p:g}" if float(f"{p:g}") == p else f"p:{p!r}"
        else:
            raise ValueError(f"unknown model {name!r}; expected njl, soler "
                             "or p:<value>")
        if not 0.0 < m < math.inf:
            raise ValueError(f"mass must be positive and finite, got {m!r}")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"interpolation parameter must lie in [0,1], got {p!r}")
        if E is None:
            E = m
        for key, value in (("E", E), ("l", l)):
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
        return super().__new__(cls, name, m, E, l, p)

    def __reduce__(self):
        # pickle and copy restore the checked fields as they are: p is
        # derived, so __new__ takes one argument fewer than the fields
        return type(self)._make, (tuple(self),)


def over_mass(lengths, m):
    """The radii r/m of ``lengths`` r in units of 1/m.  Raises
    FloatingPointError, naming the mass, unless each is finite and
    positive: at an extreme mass r/m over- or underflows."""
    out = [r / m for r in lengths]
    if not all(0.0 < r < math.inf for r in out):
        raise FloatingPointError(f"grid radii r/m over- or underflow at mass "
                                 f"{m!r}")
    return out


class _GridFields(NamedTuple):
    r_min: float
    r_max: float
    n_r: int
    n_theta: int
    theta_margin: float


class GridConfig(_GridFields):
    """Rectangular (r, theta) grid; radii are log-spaced.

    r_min and r_max are in units of 1/m (Compton lengths); theta spans
    [theta_margin, pi - theta_margin] uniformly.
    """

    __slots__ = ()

    def __new__(cls, r_min=0.05, r_max=20.0, n_r=25, n_theta=20,
                theta_margin=1e-3):
        if not (r_min > 0 and r_max > r_min):
            raise ValueError("need 0 < r_min < r_max")
        if not r_max < math.inf:
            raise ValueError(f"grid r_max must be finite, got {r_max!r}")
        if n_r < 2 or n_theta < 2:
            raise ValueError("need at least 2 points per axis")
        if not (0 < theta_margin < math.pi / 2):
            raise ValueError("theta_margin must lie in (0, pi/2)")
        return super().__new__(cls, r_min, r_max, n_r, n_theta, theta_margin)


# The grid of a fieldmap run without --grid.
FIELDMAP_GRID = GridConfig(r_min=0.01, r_max=100.0, n_r=200, n_theta=100)
