"""Checks of the program's outputs that do not trust its own verdict.

Every check returns a list of problems; an empty list means the output is
right.  Tolerances and closed forms are the benchmark's own copies, so a
change that loosens a tolerance in the program or breaks a formula fails
here.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import (ENDPOINT_SUITES, GRID_SUITES, IDENTITY_SUITES,
                       MASK_MARGIN, THETA_MARGIN)

TOLERANCES = {
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
FIELDMAP_COLUMNS = ["r", "theta", "phi2", "sin_beta", "cos_beta", "X", "masked"]
PHI2_RTOL = 1e-10
ODE_MAX_DEVIATION = 1e-6


def grid_axes(op):
    r_min, r_max, n_r, n_theta = op.grid
    rs = np.geomspace(r_min / op.mass, r_max / op.mass, n_r)
    ths = np.linspace(THETA_MARGIN, math.pi - THETA_MARGIN, n_theta)
    return rs, ths


def mask_rule(r, theta, mass, p, margin=MASK_MARGIN):
    """The singular-region mask: the shell |2mr - 1| < margin for p = 0,
    and that shell intersected with |cos theta| < margin for p > 0."""
    near = np.abs(2.0 * mass * r - 1.0) < margin
    if p == 0.0:
        return near
    return near & (np.abs(np.cos(theta)) < margin)


def masked_count(op):
    rs, ths = grid_axes(op)
    R, T = np.meshgrid(rs, ths, indexing="ij")
    return int(np.count_nonzero(mask_rule(R, T, op.mass, op.p)))


def _finite_within(value, tol):
    return isinstance(value, (int, float)) and math.isfinite(value) and value <= tol


def check_verify_report(doc, op, exit_code, stderr, sentinel=None):
    """A verify report: every residual finite and within its tolerance (or,
    for a negative control, the expected suites failing), and the verdict
    consistent with those numbers."""
    problems = []
    expected = set(IDENTITY_SUITES) | {"reduced-residuals", "standard-residuals"}
    if op.endpoint:
        expected |= set(ENDPOINT_SUITES)
    suites = doc.get("suites", {})
    if set(suites) != expected:
        problems.append(f"suites {sorted(suites)} != {sorted(expected)}")
        return problems
    if doc.get("model") != _model_name(op) or doc.get("mass") != op.mass:
        problems.append(f"report is for {doc.get('model')} m={doc.get('mass')}")
    failing = []
    n_masked = masked_count(op) if op.grid else None
    for name in sorted(suites):
        entry = suites[name]
        value = entry.get("max_residual")
        if entry.get("tolerance") != TOLERANCES[name]:
            problems.append(f"{name}: tolerance {entry.get('tolerance')!r}")
        ok = _finite_within(value, TOLERANCES[name])
        if not ok:
            failing.append(name)
        if entry.get("pass") is not ok:
            problems.append(f"{name}: pass={entry.get('pass')} but max {value!r}")
        if name in GRID_SUITES and op.grid:
            if entry.get("n_points") != op.grid_points:
                problems.append(f"{name}: n_points {entry.get('n_points')}")
            if entry.get("n_masked") != n_masked:
                problems.append(f"{name}: n_masked {entry.get('n_masked')} "
                                f"!= {n_masked}")
            if entry.get("max") != value:
                problems.append(f"{name}: sweep max {entry.get('max')!r}")
    if doc.get("failing_suites") != failing:
        problems.append(f"failing_suites {doc.get('failing_suites')} "
                        f"!= {failing}")
    if doc.get("pass") is not (not failing):
        problems.append(f"pass={doc.get('pass')} with failing {failing}")
    if op.kind == "negative":
        missing = [s for s in op.expect_failing if s not in failing]
        if missing:
            problems.append(f"negative control passed {missing}")
        if exit_code != 1:
            problems.append(f"negative control exit code {exit_code}")
        for name in op.expect_failing:
            if name not in stderr:
                problems.append(f"stderr does not name {name}")
    elif failing:
        problems.append(f"failing suites {failing}")
    if sentinel is not None:
        problems += sentinel.compare(suites)
    return problems


def _model_name(op):
    if op.endpoint:
        return op.model
    return f"p:{op.p:g}"


def _parse_fieldmap(data, fmt, op):
    """(columns as float arrays, masked as bool array) or a problem string."""
    if fmt == "json":
        doc = json.loads(data)
        if doc.get("columns") != FIELDMAP_COLUMNS:
            return f"columns {doc.get('columns')}"
        if doc.get("model") != _model_name(op):
            return f"model {doc.get('model')}"
        rows = doc["rows"]
        masked = np.array([row[6] for row in rows], dtype=object)
        if not all(isinstance(v, bool) for v in masked):
            return "masked column is not boolean"
        values = np.array([row[:6] for row in rows], dtype=float).reshape(-1, 6)
        return values, masked.astype(bool)
    text = data.decode("utf-8")
    header, _, body = text.partition("\n")
    if header != ",".join(FIELDMAP_COLUMNS):
        return f"header {header!r}"
    cells = body.replace("\n", ",").split(",")
    if cells[-1] != "" or (len(cells) - 1) % 7:
        return "ragged rows"
    cells.pop()
    flags = cells[6::7]
    if any(f not in ("true", "false") for f in flags):
        return "masked column is not true/false"
    values = np.empty((len(flags), 6))
    for j in range(6):
        values[:, j] = np.array(cells[j::7], dtype=float)
    return values, np.array(flags) == "true"


def check_fieldmap(data, op):
    """Header, row count, r-major order, the closed forms of X, the chiral
    pair and phi2 (1e-10 relative on unmasked rows) and the mask column.

    Returns (problems, rows, masked rows).
    """
    fmt = op.out_suffix.lstrip(".")
    parsed = _parse_fieldmap(data, fmt, op)
    if isinstance(parsed, str):
        return [parsed], 0, 0
    values, masked = parsed
    _, _, n_r, n_theta = op.grid
    if values.shape[0] != n_r * n_theta:
        return [f"{values.shape[0]} rows, expected {n_r * n_theta}"], 0, 0
    r, th, phi2, sb, cb, X = values.T
    problems = []
    R = r.reshape(n_r, n_theta)
    T = th.reshape(n_r, n_theta)
    rs, ths = grid_axes(op)
    if not (np.all(R == R[:, :1]) and np.all(np.diff(R[:, 0]) > 0)
            and np.allclose(R[:, 0], rs, rtol=1e-12, atol=0)):
        problems.append("radii are not r-major log-spaced over the grid")
    if not (np.all(T == T[:1, :]) and np.all(np.diff(T[0]) > 0)
            and np.allclose(T[0], ths, rtol=1e-12, atol=0)):
        problems.append("angles do not repeat the theta axis in every r block")
    m, p = op.mass, op.p
    u = 2.0 * m * r
    X_ref = 0.5 * (u - 1.0 / u)
    c = np.cos(th)
    q = np.sqrt(X_ref * X_ref + c * c)
    if not np.allclose(X, X_ref, rtol=1e-12, atol=1e-14):
        problems.append("X differs from (2mr - 1/(2mr))/2")
    if not (np.allclose(sb, -c / q, rtol=0, atol=1e-12)
            and np.allclose(cb, X_ref / q, rtol=0, atol=1e-12)):
        problems.append("(sin beta, cos beta) differ from (-cos th, X)/q")
    expected_mask = mask_rule(r, th, m, p)
    if not np.array_equal(masked, expected_mask):
        problems.append(f"masked column differs from the mask rule on "
                        f"{int(np.count_nonzero(masked != expected_mask))} rows")
    keep = ~expected_mask
    with np.errstate(divide="ignore", invalid="ignore"):
        phi2_ref = 2.0 * q / (r * (X_ref * X_ref + p * c * c))
        rel = np.abs(phi2[keep] - phi2_ref[keep]) / np.abs(phi2_ref[keep])
    bad = ~(np.isfinite(phi2[keep]) & (rel <= PHI2_RTOL))
    if np.any(bad):
        worst = int(np.flatnonzero(keep)[np.flatnonzero(bad)[0]])
        problems.append(f"phi2 off the closed form on {int(bad.sum())} unmasked "
                        f"rows (first bad at r={r[worst]!r}, "
                        f"theta={th[worst]!r})")
    return problems, int(values.shape[0]), int(np.count_nonzero(masked))


def check_locus(doc, op):
    problems = []
    target = 1.0 / (2.0 * op.mass)
    kind = "shell" if op.p == 0.0 else "ring"
    for part in ("locus", "numerical_locus"):
        entry = doc.get(part, {})
        radius = entry.get("radius")
        if not (isinstance(radius, float) and abs(radius - target) <= 1e-3 / op.mass):
            problems.append(f"{part} radius {radius!r}, expected {target!r}")
        if entry.get("kind") != kind:
            problems.append(f"{part} kind {entry.get('kind')!r}, expected {kind}")
    return problems


def check_ode(doc, op):
    problems = []
    dev = doc.get("max_deviation")
    if not _finite_within(dev, ODE_MAX_DEVIATION):
        problems.append(f"max_deviation {dev!r}")
    if op.scan and doc.get("scan", {}).get("unique_zero") is not True:
        problems.append("(E, l) scan does not single out (1, 1/2)")
    return problems


def check_trajectory(data, doc):
    lines = data.decode("utf-8").splitlines()
    problems = []
    if not lines or lines[0] != "r,X,G,X_exact,G_exact,dev_X,dev_G":
        problems.append("trajectory header")
    elif len(lines) - 1 != doc.get("n_steps", -2) + 1:
        problems.append(f"{len(lines) - 1} trajectory rows for "
                        f"{doc.get('n_steps')} steps")
    return problems


def check_op(op, exit_code, stdout, stderr, out_data, sentinel=None):
    """All checks of one operation; returns (problems, facts) where facts
    carries counts the metrics need (rows, masked rows, residual points)."""
    facts = {}
    if op.kind == "usage-error":
        problems = [] if exit_code == 2 else [f"exit code {exit_code}, expected 2"]
        if "Traceback" in stderr:
            problems.append("traceback on invalid input")
        return problems, facts
    if op.kind != "negative" and exit_code != 0:
        return [f"exit code {exit_code}: {stderr.strip()[-200:]}"], facts
    try:
        if op.kind in ("verify", "negative"):
            doc = json.loads(out_data if op.out_suffix else stdout)
            problems = check_verify_report(doc, op, exit_code, stderr, sentinel)
            _residual_facts(doc, facts)
        elif op.kind == "fieldmap":
            problems, rows, masked = check_fieldmap(out_data, op)
            facts.update(rows=rows, masked=masked, points=rows)
        elif op.kind == "locus":
            problems = check_locus(json.loads(stdout), op)
        elif op.kind == "ode":
            doc = json.loads(stdout)
            problems = check_ode(doc, op) + check_trajectory(out_data, doc)
        elif op.kind == "report":
            doc = json.loads(stdout)
            problems = check_verify_report(doc["verify"], op, exit_code, stderr)
            problems += check_locus(doc["singularity"], op)
            problems += check_ode(doc["ode"], op)
            _residual_facts(doc["verify"], facts)
        else:
            raise ValueError(f"unknown op kind {op.kind!r}")
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return problems, facts


def _residual_facts(doc, facts):
    """Unmasked points times residual forms evaluated, and the masked share."""
    points = masked = evaluated = 0
    for name in GRID_SUITES:
        entry = doc.get("suites", {}).get(name)
        if entry:
            points += entry["n_points"]
            masked += entry["n_masked"]
            evaluated += entry["n_points"] - entry["n_masked"]
    facts.update(points=points, masked=masked, residual_points=evaluated)


class NanSentinel:
    """Watches the per-point residuals of the five sampled suites.

    The suites reduce with Python's ``max``, which drops a NaN that is not
    its first argument, so a report can read ``pass`` over a non-finite
    residual.  The sentinel sees every value at the layer boundary and
    recomputes each suite's maximum with NaN propagation.
    """

    TARGETS = (
        ("clifford", "fierz_residuals", "fierz",
         lambda res: [float(np.max(r)) for r in res]),
        ("geometry", "riemann_at", "flatness",
         lambda res: [float(np.max(np.abs(res)))]),
        ("geometry", "curvature_strength_residuals", "curvature-strength",
         lambda res: list(res)),
        ("geometry", "transport_residuals", "transport", lambda res: list(res)),
        ("polar", "polar_decomposition_residual", "decomposition",
         lambda res: [res]),
    )

    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self):
        self.worst = {}

    def _wrap(self, fn, suite, values_of):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            worst = self.worst.get(suite, 0.0)
            for v in values_of(result):
                worst = math.nan if math.isnan(v + worst) else max(worst, v)
            self.worst[suite] = worst
            return result
        return wrapper

    def install(self):
        import sys

        for module, attr, suite, values_of in self.TARGETS:
            mod = sys.modules[f"nldirac.{module}"]
            fn = getattr(mod, attr)
            self._patches.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, suite, values_of))
        return self

    def uninstall(self):
        while self._patches:
            mod, attr, fn = self._patches.pop()
            setattr(mod, attr, fn)

    def compare(self, suites):
        problems = []
        for suite, worst in sorted(self.worst.items()):
            if not math.isfinite(worst):
                problems.append(f"{suite}: non-finite residual {worst!r} "
                                f"behind max_residual "
                                f"{suites[suite]['max_residual']!r}")
            elif suites[suite]["max_residual"] != worst:
                problems.append(f"{suite}: max_residual "
                                f"{suites[suite]['max_residual']!r} but the "
                                f"largest residual seen is {worst!r}")
        missing = {t[2] for t in self.TARGETS} - set(self.worst)
        if missing:
            problems.append(f"no residuals seen for {sorted(missing)}")
        return problems
