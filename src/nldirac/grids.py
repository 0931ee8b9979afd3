"""Evaluation grids: log-spaced radii, pole-clipped polar angles."""

from __future__ import annotations

import numpy as np

from .geometry import GridPoint
from .settings import GridConfig

# The box of sample_points: radii in units of 1/m, and polar angles.
SAMPLE_R = (0.1, 10.0)
SAMPLE_THETA = (0.3, np.pi - 0.3)


def over_mass(lengths, m):
    """The radii r/m of ``lengths`` r in units of 1/m.  Raises
    FloatingPointError, naming the mass, unless each is finite and
    positive: at an extreme mass r/m over- or underflows."""
    out = [r / m for r in lengths]
    if not all(0.0 < r < np.inf for r in out):
        raise FloatingPointError(f"grid radii r/m over- or underflow at mass "
                                 f"{m!r}")
    return out


def radii(cfg: GridConfig, m=1.0):
    """The grid's radii, log-spaced from r_min/m to r_max/m (see
    over_mass)."""
    return np.geomspace(*over_mass((cfg.r_min, cfg.r_max), m), cfg.n_r)


def thetas(cfg: GridConfig):
    return np.linspace(cfg.theta_margin, np.pi - cfg.theta_margin, cfg.n_theta)


def points(cfg: GridConfig, m=1.0):
    """The whole grid as one GridPoint of (n_r, n_theta) arrays in r-major
    order: row i holds radius i at every theta.

    Both arrays are read-only broadcast views of the two axes, so the grid
    takes no more memory than they do, and it is validated once.
    """
    shape = (cfg.n_r, cfg.n_theta)
    return GridPoint(np.broadcast_to(radii(cfg, m)[:, None], shape),
                     np.broadcast_to(thetas(cfg), shape))


def sample_points(rng, n, m=1.0, reject=None):
    """n random evaluation points as one GridPoint of arrays: radii
    log-uniform in [0.1, 10]/m, angles uniform in [0.3, pi - 0.3], at most
    10000 draws.

    ``reject(pt)`` gets a GridPoint of arrays and returns a boolean mask of
    the points to exclude, e.g. masked points.  The (ln r, theta) pairs are
    drawn in blocks of the points still missing, so the points, and the
    draws taken from ``rng``, are those of drawing one pair at a time.
    """
    low = (np.log(SAMPLE_R[0]), SAMPLE_THETA[0])
    high = (np.log(SAMPLE_R[1]), SAMPLE_THETA[1])
    r_parts, theta_parts = [], []
    missing, draws = n, 0
    while missing > 0:
        block = min(missing, 10000 - draws)
        if block == 0:
            raise RuntimeError("rejection sampling did not terminate")
        draws += block
        log_r, theta = rng.uniform(low, high, size=(block, 2)).T
        pt = GridPoint(np.exp(log_r) / m, theta)
        keep = np.ones(block, dtype=bool) if reject is None else ~reject(pt)
        r_parts.append(pt.r[keep])
        theta_parts.append(pt.theta[keep])
        missing -= np.count_nonzero(keep)
    return GridPoint(np.concatenate(r_parts), np.concatenate(theta_parts))
