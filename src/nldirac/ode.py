"""Radial system of the scalar (Soler) model and the quantum-number scan.

The scalar model leaves two free radial fields, X and G.  In units of 1/m
(r for mr and G for G/m) their system holds no mass, 2r is its only scale:

    r X' / sqrt(X^2+1) = 2r sqrt(X^2+1) - 2r X - 2 + r X^2 G
    2 + r G'/G        = 2r sqrt(X^2+1) - r G X sqrt(X^2+1) - 2r X

and every run here is in those units; verify.ode_summary and
trajectory_to_csv alone convert it to a mass.  The closed-form pair X =
sinh(ln 2r), G = 2/(r X^2) is an exact solution but not necessarily the
only one; integrate takes any initial data, so a perturbed trajectory can
be set against it.  G diverges on the sphere 2r = 1, so every integration
is confined to one side of that radius.

The integrator is the explicit Dormand-Prince 5(4) pair with adaptive
steps, numpy only.  Its initial-step rule, RMS error norm and step-size
control follow the standard RK45 of Hairer, Norsett & Wanner;
tests/test_ode.py pins every step, state and the divergence radius to a
reference RK45 implementation, bit for bit.  A run is judged at the steps it
took: the deviation from the closed form is read at the accepted radii, the
same rows the trajectory CSV holds.

The quantum-number scan holds no equations of its own: it evaluates the
expanded form of equations on the would-be solutions of trial energies.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from . import equations, polar
from .errors import DivergingState, StepUnderflow
from .geometry import GridPoint
from .polar import G_exact, X_exact
from .settings import ModelSpec

OVERFLOW_GUARD = 1e12
# the scalar model in units of 1/m, whose closed form the radial run tracks
UNIT_MASS = ModelSpec("soler")
EPS = np.finfo(float).eps


class OdeState(NamedTuple):
    """Initial data (X, G); the start radius is the run's r_span[0]."""

    X: float
    G: float


class _IntegratorFields(NamedTuple):
    r_span: tuple
    rtol: float
    atol: float


class IntegratorConfig(_IntegratorFields):
    """Settings of the Dormand-Prince 5(4) integrator: a step is accepted
    when the RMS of its error estimate, scaled by atol + rtol |y|, is below
    1, for y = (X, G) in units of 1/m: atol applies to X and to G/m.  The
    rtol and atol defaults are every command's defaults; an rtol below 100
    machine epsilons is raised to it."""

    __slots__ = ()

    def __new__(cls, r_span, rtol=1e-9, atol=1e-12):
        if not (rtol > 0 and atol > 0):
            raise ValueError("tolerances must be positive")
        if rtol < 100 * EPS:
            warnings.warn(f"rtol {rtol!r} raised to 100 eps", stacklevel=2)
            rtol = 100 * EPS
        return super().__new__(cls, r_span, rtol, atol)


class Trajectory(NamedTuple):
    r: np.ndarray
    X: np.ndarray
    G: np.ndarray
    n_steps: int
    min_step: float


def soler_rhs(r, y):
    """(dX/dr, dG/dr) in units of 1/m; G = 0 is an invariant manifold."""
    X, G = y
    if abs(X) > OVERFLOW_GUARD or abs(G) > OVERFLOW_GUARD:
        raise DivergingState(r, "radial state exceeded overflow guard")
    ch = np.sqrt(X * X + 1.0)
    # 2r (ch - X); for X > 0 as 2r / (ch + X), which does not cancel
    u = 2.0 * r * (1.0 / (ch + X) if X > 0 else ch - X)
    dX = (ch / r) * (u - 2.0 + r * X * X * G)
    dG = (G / r) * (u - r * G * X * ch - 2.0)
    return np.array([dX, dG])


def exact_state(r) -> OdeState:
    return OdeState(X=X_exact(r, UNIT_MASS), G=G_exact(r, UNIT_MASS))


def check_span(r_span):
    """Raise ValueError unless the span is positive, non-empty and on one
    side of the singular radius 1/2."""
    r0, r1 = r_span
    if r0 <= 0 or r1 <= 0 or r0 == r1:
        raise ValueError("radial span must be positive and non-empty")
    if (r0 - 0.5) * (r1 - 0.5) <= 0:
        raise ValueError(
            f"integration span {r_span!r} straddles the singular radius "
            "1/(2m) = 0.5; split the run into r < 1/(2m) and r > 1/(2m) "
            "segments"
        )


# Dormand & Prince's 5(4) pair (Hairer, Norsett & Wanner, Solving ODEs I,
# Sec. II.5).
C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
A = np.array([[0, 0, 0, 0, 0], [1/5, 0, 0, 0, 0], [3/40, 9/40, 0, 0, 0],
              [44/45, -56/15, 32/9, 0, 0],
              [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
              [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10
ERROR_EXPONENT = -1 / 5  # the error estimate is of order 4


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(r0, y0, f0, r_end, direction, rtol, atol):
    """First step size from the scales of y, y' and y'' at r0 (Hairer,
    Norsett & Wanner, Sec. II.4)."""
    length = abs(r_end - r0)
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, length)
    f1 = soler_rhs(r0 + h0 * direction, y0 + h0 * direction * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, length)


def _step_failure(r, r_span):
    """The error of a run whose step fell below the float-spacing floor
    after the accepted radii r."""
    steps = np.abs(np.diff(r))
    if steps.size and steps.min() < 1e-10 * max(map(abs, r_span)):
        return StepUnderflow(
            f"step collapsed to {steps.min():.3e} near r = {float(r[-1])!r}")
    return DivergingState(r[-1], "Required step size is less than "
                          "spacing between numbers.")


def integrate(config: IntegratorConfig, initial: OdeState):
    """Integrate the radial system from ``initial`` at r_span[0]: adaptive
    steps of the Dormand-Prince pair, advancing with the 5th-order solution
    and controlling the RMS of the 4th-order error estimate.

    Raises DivergingState when the overflow guard trips, StepUnderflow when
    the adaptive step collapses (the signature of running into 2r = 1), and
    ValueError when the requested span straddles the singular radius.
    """
    check_span(config.r_span)
    r, r_end = map(float, config.r_span)
    y = np.array([initial.X, initial.G], dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("the initial state must be finite")
    rtol, atol = config.rtol, config.atol
    direction = np.sign(r_end - r)
    f = soler_rhs(r, y)
    h_abs = _initial_step(r, y, f, r_end, direction, rtol, atol)
    K = np.empty((len(C) + 1, y.size))
    rs, ys = [r], [y]
    while direction * (r - r_end) < 0:
        min_step = 10 * np.abs(np.nextafter(r, direction * np.inf) - r)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise _step_failure(np.array(rs), config.r_span)
            r_new = r + h_abs * direction
            if direction * (r_new - r_end) > 0:
                r_new = r_end
            h = r_new - r
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, len(C)):
                K[s] = soler_rhs(r + C[s] * h,
                                 y + np.dot(K[:s].T, A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, B)
            K[-1] = f_new = soler_rhs(r + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error = _rms(np.dot(K.T, E) * h / scale)
            if error < 1:
                factor = (MAX_FACTOR if error == 0 else
                          min(MAX_FACTOR, SAFETY * error ** ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error ** ERROR_EXPONENT)
            rejected = True
        r, y, f = r_new, y_new, f_new
        rs.append(r)
        ys.append(y)
    r_all, y_all = np.array(rs), np.vstack(ys)
    return Trajectory(
        r=r_all, X=y_all[:, 0], G=y_all[:, 1],
        n_steps=len(r_all) - 1, min_step=float(np.abs(np.diff(r_all)).min()),
    )


def _branch(rs, X, G):
    """Closed-form (X, G) at the radii rs and the relative deviations of the
    values X, G from them: (Xe, Ge, dev_X, dev_G)."""
    Xe, Ge = X_exact(rs, UNIT_MASS), G_exact(rs, UNIT_MASS)
    dev_X = np.abs(X - Xe) / np.maximum(np.abs(Xe), 1e-300)
    dev_G = np.abs(G - Ge) / np.maximum(np.abs(Ge), 1e-300)
    return Xe, Ge, dev_X, dev_G


def tracking_deviation(traj: Trajectory):
    """Max relative deviation of a trajectory from the closed-form branch at
    its accepted steps: the maxima of the CSV's dev_X and dev_G columns."""
    _, _, dev_X, dev_G = _branch(traj.r, traj.X, traj.G)
    return {
        "max_rel_X": float(dev_X.max()),
        "max_rel_G": float(dev_G.max()),
        "max_rel": float(np.max([dev_X.max(), dev_G.max()])),
    }


def trajectory_to_csv(traj: Trajectory, m, path):
    """Write the run at the mass m: r/m, X, G*m, the closed-form X and G*m,
    and the relative deviations.  Each value is its repr, comma-separated,
    each row ending in CRLF, as csv.writer writes them.  Raises
    FloatingPointError, naming the mass, before anything is written where a
    G*m is 0 or infinite and its G is not: G*m has left the floats."""
    Xe, Ge, dev_X, dev_G = _branch(traj.r, traj.X, traj.G)
    unit = np.array([traj.G, Ge])
    with np.errstate(over="ignore"):  # the edges are what is checked
        G = unit * m
    if np.any((np.isinf(G) | (G == 0)) != (np.isinf(unit) | (unit == 0))):
        raise FloatingPointError(f"trajectory G*m over- or underflows at mass "
                                 f"{m!r}")
    columns = (traj.r / m, traj.X, G[0], Xe, G[1], dev_X, dev_G)
    with open(path, "w", newline="") as fh:
        fh.write("r,X,G,X_exact,G_exact,dev_X,dev_G\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in zip(
            *(map(repr, col.tolist()) for col in columns)))


# -- quantum-number rigidity scan ------------------------------------------------


class ScanResult(NamedTuple):
    """Residual surface of the field equations at trial quantum numbers.

    surface[i, j] is the largest expanded-form residual, over 7 radii and 2
    polar angles, of the model at E = e_over_m[i] * m and l = l_values[j],
    evaluated on the closed form of mass E: the would-be solution X =
    sinh(ln 2Er) of that energy.  It vanishes only at E = m, l = 1/2.
    """

    e_over_m: np.ndarray
    l_values: np.ndarray
    surface: np.ndarray

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


def quantum_number_scan(spec: ModelSpec) -> ScanResult:
    """Max-residual surface over an 11 x 11 (E/m, l) grid of the run's model,
    each cell the maximum of equations.residual_expanded over 7 radii and 2
    polar angles; the maximum propagates NaN."""
    e_over_m = np.linspace(0.5, 1.5, 11)
    l_values = np.linspace(0.0, 1.0, 11)
    pt = GridPoint(*np.meshgrid(np.geomspace(0.3, 3.0, 7) / spec.m,
                                [np.pi / 3, np.pi / 5], indexing="ij"))
    surface = np.empty((e_over_m.size, l_values.size))
    for i, E in enumerate(e_over_m * spec.m):
        f = polar.closed_form(pt, ModelSpec(spec.name, E, spec.E, spec.l))
        for j, l in enumerate(l_values):
            surface[i, j] = np.max(equations.residual_expanded(
                pt, ModelSpec(spec.name, spec.m, E, l), f))
    return ScanResult(e_over_m=e_over_m, l_values=l_values, surface=surface)
