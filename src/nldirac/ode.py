"""Radial system of the scalar (Soler) model and the quantum-number scan.

The scalar model leaves two free radial fields, X and G.  In units of 1/m
(r for mr and G for G/m) their system holds no mass, 2r is its only scale:

    r X' / sqrt(X^2+1) = 2r sqrt(X^2+1) - 2r X - 2 + r X^2 G
    2 + r G'/G        = 2r sqrt(X^2+1) - r G X sqrt(X^2+1) - 2r X

and every run here is in those units; tracking_summary and
trajectory_to_csv alone convert it to a mass.  The closed-form pair X =
sinh(ln 2r), G = 2/(r X^2) is an exact solution but not necessarily the
only one; integrate takes any initial data, so a perturbed trajectory can
be set against it.  G diverges on the sphere 2r = 1, so every integration
is confined to one side of that radius.

The integrator is the explicit Dormand-Prince 5(4) pair with adaptive
steps, in Python floats: the state and each stage are (X, G) pairs, and
this module imports no numpy.  Its initial-step rule, RMS error norm and
step-size control follow the standard RK45 of Hairer, Norsett & Wanner;
each stage sum and error sum runs left to right, a product rounded before
its addition, so tests/test_ode.py pins every step, state and the
divergence radius to a reference RK45 implementation, bit for bit, where
that reference's matrix-vector products do not fuse multiply and add.  A
run is judged at the steps it took: the deviation from the closed form is
read at the accepted radii, the same rows the trajectory CSV holds.

The quantum-number scan holds no equations of its own: it evaluates the
expanded form of equations on the would-be solutions of trial energies,
and loads numpy and the array layers when it runs.
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import TYPE_CHECKING, NamedTuple

from . import formulas
from .errors import DivergingState, SingularG, StepUnderflow
from .settings import ModelSpec, over_mass

if TYPE_CHECKING:
    import numpy as np

OVERFLOW_GUARD = 1e12
EPS = sys.float_info.epsilon


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
    """The accepted radii and the states there, as lists of floats."""

    r: list
    X: list
    G: list
    n_steps: int
    min_step: float


def soler_rhs(r, y):
    """(dX/dr, dG/dr) in units of 1/m; G = 0 is an invariant manifold."""
    X, G = y
    if abs(X) > OVERFLOW_GUARD or abs(G) > OVERFLOW_GUARD:
        raise DivergingState(r, "radial state exceeded overflow guard")
    ch = math.sqrt(X * X + 1.0)
    # 2r (ch - X); for X > 0 as 2r / (ch + X), which does not cancel
    u = 2.0 * r * (1.0 / (ch + X) if X > 0 else ch - X)
    dX = (ch / r) * (u - 2.0 + r * X * X * G)
    dG = (G / r) * (u - r * G * X * ch - 2.0)
    return dX, dG


def _exact_pair(r):
    """The closed-form (X, G) at r; raises SingularG where X vanishes to
    rounding (2r = 1) and G has no value, as polar.G_exact does."""
    X = formulas.profile(r, 1.0)
    if abs(X) < 1e-15 * max(1.0, 2.0 * r):
        raise SingularG(r, None, "G = 2/(r X^2) with X = 0 at 2mr = 1")
    return X, formulas.companion(r, X)


def exact_state(r) -> OdeState:
    return OdeState(*_exact_pair(r))


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
# Sec. II.5): the nodes C, the rows A[s] of the stages' weights of the
# stages before them, the 5th-order weights B and the error weights E.
C = (0.0, 1/5, 3/10, 4/5, 8/9, 1.0)
A = ((), (1/5,), (3/40, 9/40), (44/45, -56/15, 32/9),
     (19372/6561, -25360/2187, 64448/6561, -212/729),
     (9017/3168, -355/33, 46732/5247, 49/176, -5103/18656))
B = (35/384, 0.0, 500/1113, 125/192, -2187/6784, 11/84)
E = (-71/57600, 0.0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40)
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10
ERROR_EXPONENT = -1 / 5  # the error estimate is of order 4


def _combine(K, weights):
    """The pair sum_j weights[j] K[j] of the stage pairs K, each component
    summed left to right from 0, every product rounded before it is
    added: a matrix-vector product that does not fuse."""
    X = G = 0.0
    for (kX, kG), w in zip(K, weights):
        X += kX * w
        G += kG * w
    return X, G


def _rms(a, b):
    """RMS of the pair (a, b): its 2-norm over sqrt 2."""
    return math.sqrt(a * a + b * b) / 2 ** 0.5


def _initial_step(r0, y0, f0, r_end, direction, rtol, atol):
    """First step size from the scales of y, y' and y'' at r0 (Hairer,
    Norsett & Wanner, Sec. II.4)."""
    length = abs(r_end - r0)
    (X, G), (fX, fG) = y0, f0
    sX, sG = atol + abs(X) * rtol, atol + abs(G) * rtol
    d0, d1 = _rms(X / sX, G / sG), _rms(fX / sX, fG / sG)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, length)
    step = h0 * direction
    f1X, f1G = soler_rhs(r0 + step, (X + step * fX, G + step * fG))
    d2 = _rms((f1X - fX) / sX, (f1G - fG) / sG) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, length)


def _steps(r):
    """The step lengths |r[i+1] - r[i]| of the accepted radii r."""
    return [abs(b - a) for a, b in zip(r, r[1:])]


def _step_failure(r, r_span):
    """The error of a run whose step fell below the float-spacing floor
    after the accepted radii r."""
    steps = _steps(r)
    if steps and min(steps) < 1e-10 * max(map(abs, r_span)):
        return StepUnderflow(
            f"step collapsed to {min(steps):.3e} near r = {float(r[-1])!r}")
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
    X, G = float(initial.X), float(initial.G)
    if not (math.isfinite(X) and math.isfinite(G)):
        raise ValueError("the initial state must be finite")
    rtol, atol = config.rtol, config.atol
    direction = 1.0 if r_end > r else -1.0
    f = soler_rhs(r, (X, G))
    h_abs = _initial_step(r, (X, G), f, r_end, direction, rtol, atol)
    rs, Xs, Gs = [r], [X], [G]
    while direction * (r - r_end) < 0:
        min_step = 10 * abs(math.nextafter(r, direction * math.inf) - r)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise _step_failure(rs, config.r_span)
            r_new = r + h_abs * direction
            if direction * (r_new - r_end) > 0:
                r_new = r_end
            h = r_new - r
            h_abs = abs(h)
            K = [f]
            for a, c in zip(A[1:], C[1:]):
                dX, dG = _combine(K, a)
                K.append(soler_rhs(r + c * h, (X + dX * h, G + dG * h)))
            dX, dG = _combine(K, B)
            X_new, G_new = X + h * dX, G + h * dG
            f_new = soler_rhs(r + h, (X_new, G_new))
            K.append(f_new)
            eX, eG = _combine(K, E)
            error = _rms(eX * h / (atol + max(abs(X), abs(X_new)) * rtol),
                         eG * h / (atol + max(abs(G), abs(G_new)) * rtol))
            if error < 1:
                factor = (MAX_FACTOR if error == 0 else
                          min(MAX_FACTOR, SAFETY * error ** ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error ** ERROR_EXPONENT)
            rejected = True
        r, X, G, f = r_new, X_new, G_new, f_new
        rs.append(r)
        Xs.append(X)
        Gs.append(G)
    return Trajectory(r=rs, X=Xs, G=Gs, n_steps=len(rs) - 1,
                      min_step=min(_steps(rs)))


def _deviation(values, exact):
    """|v - e| / |e| of each value v and its closed-form e, |e| at least
    1e-300."""
    return [abs(v - e) / max(abs(e), 1e-300) for v, e in zip(values, exact)]


def _branch(rs, X, G):
    """Closed-form (X, G) at the radii rs and the relative deviations of the
    values X, G from them: (Xe, Ge, dev_X, dev_G), lists of floats."""
    Xe, Ge = map(list, zip(*map(_exact_pair, rs)))
    return Xe, Ge, _deviation(X, Xe), _deviation(G, Ge)


def _max(values):
    """The largest of ``values``; NaN if one is NaN, as numpy's max."""
    return math.nan if any(map(math.isnan, values)) else max(values)


def tracking_deviation(traj: Trajectory):
    """Max relative deviation of a trajectory from the closed-form branch at
    its accepted steps: the maxima of the CSV's dev_X and dev_G columns."""
    _, _, dev_X, dev_G = _branch(traj.r, traj.X, traj.G)
    max_X, max_G = _max(dev_X), _max(dev_G)
    return {"max_rel_X": max_X, "max_rel_G": max_G,
            "max_rel": _max((max_X, max_G))}


def tracking_summary(spec: ModelSpec, r_span=(1.0, 10.0), tolerances=None):
    """The exact-branch tracking run of the ode command at the mass of
    ``spec``: (summary, trajectory in units of 1/m, the names of the
    summary's non-finite results).

    The run is in units of 1/m: ``r_span`` is in those units, as a grid's
    radii are, and the summary's r_span and min_step are converted to radii
    of the mass here.  The integrator reads "rtol" and "atol" from
    ``tolerances`` (the suite tolerances there are ignored) and keeps its
    own default for each one missing.  Raises FloatingPointError, naming
    the mass, where the span r/m leaves the floats (settings.over_mass).
    """
    radii = over_mass(r_span, spec.m)
    check_span(r_span)  # before exact_state, which fails at 2r = 1
    cfg = IntegratorConfig(
        r_span=r_span,
        **{k: v for k, v in (tolerances or {}).items() if k in ("rtol", "atol")},
    )
    traj = integrate(cfg, exact_state(r_span[0]))
    dev = tracking_deviation(traj)
    out = {
        "r_span": radii,
        "rtol": cfg.rtol,
        "atol": cfg.atol,
        "n_steps": traj.n_steps,
        "min_step": traj.min_step / spec.m,
        "max_deviation": dev["max_rel"],
        "max_rel_X": dev["max_rel_X"],
        "max_rel_G": dev["max_rel_G"],
    }
    nonfinite = ([] if math.isfinite(dev["max_rel"])
                 else [f"max_deviation {dev['max_rel']!r}"])
    return out, traj, nonfinite


def _at_edge(v):
    """Whether v is 0 or infinite, the edges of the floats."""
    return v == 0 or math.isinf(v)


def trajectory_to_csv(traj: Trajectory, m, path):
    """Write the run at the mass m: r/m, X, G*m, the closed-form X and G*m,
    and the relative deviations.  Each value is its repr, comma-separated,
    each row ending in CRLF, as csv.writer writes them.  Raises
    FloatingPointError, naming the mass, before anything is written where a
    G*m is 0 or infinite and its G is not: G*m has left the floats."""
    Xe, Ge, dev_X, dev_G = _branch(traj.r, traj.X, traj.G)
    G, Gm = [g * m for g in traj.G], [g * m for g in Ge]
    if any(_at_edge(gm) != _at_edge(g)
           for g, gm in zip((*traj.G, *Ge), (*G, *Gm))):
        raise FloatingPointError(f"trajectory G*m over- or underflows at mass "
                                 f"{m!r}")
    columns = ([r / m for r in traj.r], traj.X, G, Xe, Gm, dev_X, dev_G)
    with open(path, "w", newline="") as fh:
        fh.write("r,X,G,X_exact,G_exact,dev_X,dev_G\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n"
                      for row in zip(*columns))


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
        lowest = min(filter(math.isfinite, self.surface.ravel().tolist()),
                     default=None)
        return next(iter(self._cells(lambda v: v == lowest)), None)

    def _cells(self, where):
        """(E/m, l) of every cell whose residual v has ``where(v)``, row
        by row."""
        return [(e, l) for e, row in zip(self.e_over_m.tolist(),
                                         self.surface.tolist())
                for l, v in zip(self.l_values.tolist(), row) if where(v)]

    def nonfinite_cells(self):
        """(E/m, l) of every cell whose residual is NaN or infinite."""
        return self._cells(lambda v: not math.isfinite(v))

    def zero_cells(self):
        """(E/m, l) of every cell whose residual is at most 1e-10."""
        return self._cells(lambda v: v <= 1e-10)


def quantum_number_scan(spec: ModelSpec) -> ScanResult:
    """Max-residual surface over an 11 x 11 (E/m, l) grid of the run's model,
    each cell the maximum of equations.residual_expanded over 7 radii and 2
    polar angles; the maximum propagates NaN."""
    import numpy as np

    from . import equations, polar
    from .geometry import GridPoint

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
