"""Radial system of the scalar (Soler) model and the quantum-number scan.

The scalar model leaves two free radial fields, X and G, governed by

    r X' / sqrt(X^2+1) = 2mr sqrt(X^2+1) - 2mr X - 2 + r X^2 G
    2 + r G'/G        = 2mr sqrt(X^2+1) - r G X sqrt(X^2+1) - 2mr X

The closed-form pair X = sinh(ln 2mr), G = 2/(r X^2) is an exact solution
but not necessarily the only one; trajectories from perturbed data are
integrated and reported descriptively.  G diverges on the sphere 2mr = 1,
so every integration is confined to one side of that radius.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DivergingState, StepUnderflow
from .polar import G_exact, ModelSpec, X_exact

OVERFLOW_GUARD = 1e12


@dataclass(frozen=True)
class OdeState:
    r: float
    X: float
    G: float


@dataclass(frozen=True)
class IntegratorConfig:
    """Adaptive explicit Runge-Kutta (order 4/5) settings; the rtol and atol
    defaults are every command's defaults."""

    r_span: tuple
    rtol: float = 1e-9
    atol: float = 1e-12
    max_step: float = np.inf

    def __post_init__(self):
        if not (self.rtol > 0 and self.atol > 0):
            raise ValueError("tolerances must be positive")


@dataclass
class Trajectory:
    r: np.ndarray
    X: np.ndarray
    G: np.ndarray
    sol: object  # dense-output interpolant
    n_steps: int
    min_step: float


def soler_rhs(r, y, spec: ModelSpec):
    """(dX/dr, dG/dr) of the radial system; G = 0 is an invariant manifold."""
    X, G = y
    if abs(X) > OVERFLOW_GUARD or abs(G) > OVERFLOW_GUARD:
        raise DivergingState(r, "radial state exceeded overflow guard")
    m = spec.m
    ch = np.sqrt(X * X + 1.0)
    dX = (ch / r) * (2.0 * m * r * ch - 2.0 * m * r * X - 2.0 + r * X * X * G)
    dG = (G / r) * (2.0 * m * r * ch - r * G * X * ch - 2.0 * m * r * X - 2.0)
    return np.array([dX, dG])


def exact_state(r, spec: ModelSpec) -> OdeState:
    return OdeState(r=r, X=X_exact(r, spec), G=G_exact(r, spec))


def _check_span(r_span, spec: ModelSpec):
    r0, r1 = r_span
    if r0 <= 0 or r1 <= 0:
        raise ValueError("radial span must be positive")
    rc = 1.0 / (2.0 * spec.m)
    if (r0 - rc) * (r1 - rc) < 0 or r0 == rc or r1 == rc:
        raise ValueError(
            f"integration span {r_span!r} straddles the singular radius "
            f"1/(2m) = {rc!r}; split the run into r < 1/(2m) and r > 1/(2m) "
            "segments"
        )


def integrate(config: IntegratorConfig, initial: OdeState, spec: ModelSpec):
    """Integrate the radial system with dense output.

    Raises DivergingState when the overflow guard trips, StepUnderflow when
    the adaptive step collapses (the signature of running into 2mr = 1), and
    ValueError when the requested span straddles the singular radius.
    """
    _check_span(config.r_span, spec)
    # imported here, not at the top: scipy.integrate is most of the cold
    # start, and no other command needs it
    from scipy.integrate import solve_ivp

    def guard(r, y):
        return max(abs(y[0]), abs(y[1])) - OVERFLOW_GUARD

    guard.terminal = True

    def rhs(r, y):
        return soler_rhs(r, y, spec)

    out = solve_ivp(
        rhs,
        config.r_span,
        [initial.X, initial.G],
        method="RK45",
        rtol=config.rtol,
        atol=config.atol,
        max_step=config.max_step,
        dense_output=True,
        events=guard,
    )
    if out.status == 1:  # guard event fired
        raise DivergingState(float(out.t[-1]))
    steps = np.abs(np.diff(out.t))
    min_step = float(steps.min()) if steps.size else np.inf
    if out.status < 0:
        if steps.size and min_step < 1e-10 * max(abs(config.r_span[0]),
                                                 abs(config.r_span[1])):
            raise StepUnderflow(
                f"step collapsed to {min_step:.3e} near r = {out.t[-1]!r}"
            )
        raise DivergingState(float(out.t[-1]), out.message)
    interior = steps[:-1]  # the last step is truncated to land on r_end
    if interior.size and interior.min() < 1e-10 * np.abs(
        out.t[np.argmin(interior)]
    ):
        # the system is non-stiff away from 2mr = 1; collapsing steps mean
        # the run is grazing the singular radius
        warnings.warn(
            f"step size {interior.min():.3e} suggests stiffness near the "
            "singular radius", RuntimeWarning, stacklevel=2,
        )
    return Trajectory(
        r=out.t, X=out.y[0], G=out.y[1], sol=out.sol,
        n_steps=len(out.t) - 1, min_step=min_step,
    )


def _branch(rs, X, G, spec: ModelSpec):
    """Closed-form (X, G) at the radii rs and the relative deviations of the
    values X, G from them: (Xe, Ge, dev_X, dev_G)."""
    Xe = X_exact(rs, spec)
    Ge = 2.0 / (rs * Xe * Xe)
    dev_X = np.abs(X - Xe) / np.maximum(np.abs(Xe), 1e-300)
    dev_G = np.abs(G - Ge) / np.maximum(np.abs(Ge), 1e-300)
    return Xe, Ge, dev_X, dev_G


def tracking_deviation(traj: Trajectory, spec: ModelSpec):
    """Max relative deviation of a trajectory from the closed-form branch at
    200 evenly spaced radii."""
    rs = np.linspace(traj.r[0], traj.r[-1], 200)
    _, _, dev_X, dev_G = _branch(rs, *traj.sol(rs), spec)
    return {
        "max_rel_X": float(dev_X.max()),
        "max_rel_G": float(dev_G.max()),
        "max_rel": float(np.max([dev_X.max(), dev_G.max()])),
    }


def departure_norms(traj: Trajectory, spec: ModelSpec):
    """Euclidean distance from the closed-form branch at 50 evenly spaced
    radii along a trajectory.

    Used to report, without interpretation, how perturbed initial data
    leaves the known solution (the scalar model is not known to be unique).
    """
    rs = np.linspace(traj.r[0], traj.r[-1], 50)
    y = traj.sol(rs)
    Xe, Ge, _, _ = _branch(rs, *y, spec)
    return rs, np.hypot(y[0] - Xe, y[1] - Ge)


def trajectory_to_csv(traj: Trajectory, spec: ModelSpec, path):
    """Write r, X, G, the closed-form values and relative deviations."""
    columns = (traj.r, traj.X, traj.G, *_branch(traj.r, traj.X, traj.G, spec))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "X", "G", "X_exact", "G_exact", "dev_X", "dev_G"])
        writer.writerows(zip(*(col.tolist() for col in columns)))


# -- quantum-number rigidity scan ------------------------------------------------


@dataclass
class ScanResult:
    """Residual surface of the generic-(E, l) chiral system.

    surface[i, j] is the max residual of the separated equations with the
    profile X built from E = e_over_m[i] * m at angular momentum l_values[j];
    separation[i, j] isolates the (2l - 1) obstruction.
    """

    e_over_m: np.ndarray
    l_values: np.ndarray
    surface: np.ndarray
    separation: np.ndarray

    def best_cell(self):
        """(E/m, l) of the smallest finite cell; None if no cell is finite."""
        finite = np.isfinite(self.surface)
        lowest = np.min(self.surface, where=finite, initial=np.inf)
        cells = self._cells(finite & (self.surface == lowest))
        return cells[0] if cells else None

    def _cells(self, where):
        return [(float(self.e_over_m[i]), float(self.l_values[j]))
                for i, j in np.argwhere(where)]

    def nonfinite_cells(self):
        """(E/m, l) of every cell whose residual is NaN or infinite."""
        return self._cells(~np.isfinite(self.surface))

    def zero_cells(self):
        """(E/m, l) of every cell whose residual is at most 1e-10."""
        return self._cells(self.surface <= 1e-10)


def generic_el_components(r, theta, E, l, spec: ModelSpec):
    """Signed residuals of the chiral system before fixing E and l.

    The profile is the would-be solution X = sinh(ln 2Er); the angular
    structure separates only if 2l = 1, and the radial one only if E = m.
    """
    m = spec.m
    v = 2.0 * E * r
    X = 0.5 * (v - 1.0 / v)
    ch = 0.5 * (v + 1.0 / v)  # = sqrt(X^2 + 1) = r X'
    c2 = np.cos(theta) ** 2
    s2 = np.sin(theta) ** 2
    rxp_over_ch = 1.0  # r X' / sqrt(X^2+1) on this profile
    eq1 = rxp_over_ch + 1.0 - 2.0 * E * r * ch + 2.0 * l - 2.0 + 2.0 * m * r * X
    eq3 = X * (-ch + X + ch - 2.0 * E * r + 2.0 * l * ch) + (
        1.0 - 2.0 * m * r * ch + 2.0 * E * r * X
    ) * c2
    eq4 = (-2.0 * m * r * X - rxp_over_ch + 2.0 * E * r * ch) * s2 - (
        2.0 * l - 1.0
    ) * (X * X + 1.0)
    separation = -(2.0 * l - 1.0) * (X * X + 1.0)
    return {"eq1": eq1, "eq3": eq3, "eq4": eq4, "separation": separation}


def quantum_number_scan(spec: ModelSpec) -> ScanResult:
    """Max-residual surface over an 11 x 11 (E/m, l) grid, each cell the
    maximum over 7 radii and 2 polar angles."""
    e_over_m = np.linspace(0.5, 1.5, 11)
    l_values = np.linspace(0.0, 1.0, 11)
    radii = np.geomspace(0.3, 3.0, 7) / spec.m
    thetas = np.array([np.pi / 3, np.pi / 5])
    # axes (E, l, r, theta); the reductions propagate NaN
    E, l, r, th = np.ix_(e_over_m * spec.m, l_values, radii, thetas)
    comp = generic_el_components(r, th, E, l, spec)
    surface = np.max([np.max(np.abs(comp[k]), axis=(2, 3))
                      for k in ("eq1", "eq3", "eq4")], axis=0)
    separation = np.max(np.abs(comp["separation"]), axis=(2, 3))
    return ScanResult(e_over_m=e_over_m, l_values=l_values, surface=surface,
                      separation=separation)
