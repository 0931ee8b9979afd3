"""Command-line interface: verification runs, field maps, ODE runs, reports.

Natural units throughout (hbar = c = 1); with the default mass 1.0 all grid
radii read directly in Compton lengths.  Precedence: command-line flags
override the --config JSON file, which overrides built-in defaults.  All
outputs are deterministic functions of the resolved configuration (random
suites are seeded, no wall-clock data is emitted).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import equations, grids, ode, singular, verify
from .errors import DivergingState, SingularPoint, StepUnderflow
from .geometry import GridPoint
from .polar import ENDPOINTS, ModelSpec, X_exact, chiral_components, phi2_grid
from .verify import SCHEMA


FIELDMAP_GRID = grids.GridConfig(r_min=0.01, r_max=100.0, n_r=200, n_theta=100)


# Every key the --config file accepts; a flag of the same name overrides it.
# "energy" and "angular_momentum" are aliases of "E" and "l"; within one
# layer a later key in this order wins over an earlier one.
CONFIG_KEYS = ("model", "p", "mass", "grid", "seed", "tolerances",
               "mask_margin", "E", "energy", "l", "angular_momentum", "out",
               "format")
ALIASES = {"energy": "E", "angular_momentum": "l"}
DEFAULTS = {"model": "njl", "mass": 1.0, "grid": {}, "seed": 42,
            "tolerances": {}, "mask_margin": equations.DEFAULT_MASK_MARGIN}
TOLERANCE_NAMES = (*verify.DEFAULT_TOLERANCES, "rtol", "atol")
# The settings each command reads: config keys (the flags of the same name),
# tolerance names, and "scan_el" for --scan-el.  A command given any other
# setting fails with a usage error rather than ignore it.
_VERIFY_READS = ("model", "p", "mass", "grid", "seed", *verify.DEFAULT_TOLERANCES,
                 "mask_margin", "E", "l", "out")
COMMAND_READS = {
    "verify": _VERIFY_READS,
    "report": (*_VERIFY_READS, "rtol", "atol", "scan_el"),
    "fieldmap": ("model", "p", "mass", "grid", "mask_margin", "out", "format"),
    "ode": ("model", "p", "mass", "grid", "rtol", "atol", "out", "scan_el"),
    "locus": ("model", "p", "mass", "out"),
}


@dataclasses.dataclass
class RunConfig:
    spec: ModelSpec
    grid: grids.GridConfig      # None: the command's own default grid
    seed: int
    tolerances: dict
    mask_margin: float
    out: str
    fmt: str                    # "csv" | "json" | None
    scan_el: bool

    def grid_or(self, default: grids.GridConfig) -> grids.GridConfig:
        return self.grid if self.grid is not None else default


def _parse_model(text):
    """(canonical name, p) of a model given as njl, soler or p:<value>."""
    if text in ENDPOINTS:
        return text, ENDPOINTS[text]
    if isinstance(text, str) and text.startswith("p:"):
        p = float(text[2:])
        return f"p:{p:g}", p
    raise argparse.ArgumentTypeError(
        f"unknown model {text!r}; expected njl, soler or p:<value>"
    )


def _parse_grid(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("--grid expects r_min,r_max,n_r,n_theta")
    return {"r_min": float(parts[0]), "r_max": float(parts[1]),
            "n_r": int(parts[2]), "n_theta": int(parts[3])}


def _parse_tol(items):
    out = {}
    for item in items or ():
        if "=" not in item:
            raise argparse.ArgumentTypeError("--tol expects name=value")
        name, value = item.split("=", 1)
        out[name.strip()] = float(value)
    return out


def _common_flags():
    """The flags every subcommand takes, on a parser each subcommand names as
    a parent."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", default=None,
                        help="njl | soler | p:<value> (default njl)")
    common.add_argument("--mass", type=float, default=None,
                        help="field mass m > 0 (default 1.0)")
    common.add_argument("--p", dest="p_flag", type=float, default=None,
                        help="interpolation parameter; shorthand for --model p:<v>")
    common.add_argument("--grid", default=None, metavar="r_min,r_max,n_r,n_theta",
                        help="radii in units of 1/m, log-spaced")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for the random-spinor/point suites (default 42)")
    common.add_argument("--tol", action="append", default=None, metavar="name=value",
                        help="override a suite tolerance (or rtol/atol of the "
                             "radial integration in ode and report)")
    common.add_argument("--mask-margin", type=float, default=None,
                        help="half-width of the singular-region mask (default 0.02)")
    common.add_argument("--out", default=None, help="output file path")
    common.add_argument("--format", dest="fmt", choices=("csv", "json"),
                        default=None,
                        help="fieldmap: csv (default) or json")
    common.add_argument("--scan-el", action="store_true",
                        help="ode and report: add the (E/m, l) quantum-number scan")
    common.add_argument("--config", default=None,
                        help="JSON config file; flags take precedence")
    return common


class _Parser(argparse.ArgumentParser):
    """A parser whose errors raise, so that main reports them as it does
    every other usage error; its subcommand parsers are of this class too."""

    def error(self, message):
        raise argparse.ArgumentTypeError(message)


@functools.cache
def build_parser():
    """The command-line parser, built on the first call and shared by every
    later one: parsing keeps no state in the parser."""
    parser = _Parser(
        prog="nldirac",
        description="Verify and explore the closed-form solutions of the "
                    "nonlinear Dirac models on a flat spherical background.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_flags()
    for name, help_text in (
        ("verify", "run all identity and field-equation suites"),
        ("fieldmap", "write the matter distribution on a grid as CSV or JSON"),
        ("ode", "integrate the scalar-model radial system"),
        ("locus", "report singular locus and asymptotics"),
        ("report", "aggregate verify + locus (+ ode) into one JSON document"),
    ):
        sub.add_parser(name, help=help_text, parents=[common])
    return parser


def _whole(name, value):
    """``value`` as an int; only an int or an integral float is valid."""
    if type(value) not in (int, float) or not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _number(name, value):
    """``value`` as a float; only a number is valid, not a bool or a string."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _read_config(path):
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: the config must be a JSON object")
    unknown = sorted(set(doc) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError(f"{path}: unknown config key(s) {', '.join(unknown)}; "
                         f"expected {', '.join(CONFIG_KEYS)}")
    return doc


def resolve_config(args) -> RunConfig:
    """Merge the built-in defaults, the --config file and the flags, each
    layer overriding the one before it key by key.

    Every value is checked here: an unknown name, an invalid value or a
    setting that the command does not read (COMMAND_READS) raises
    ValueError, TypeError or argparse.ArgumentTypeError, which ``main``
    reports as a usage error.
    """
    flags = {"model": args.model, "p": args.p_flag, "mass": args.mass,
             "grid": _parse_grid(args.grid) if args.grid else None,
             "seed": args.seed, "tolerances": _parse_tol(args.tol),
             "mask_margin": args.mask_margin, "out": args.out,
             "format": args.fmt}
    config = _read_config(args.config)
    raw = dict(DEFAULTS)
    for layer, names in ((config, (f"{args.config}: model", "p")),
                         (flags, ("--model", "--p"))):
        if layer.get("model") is not None and layer.get("p") is not None:
            raise ValueError(f"{' and '.join(names)} both set the model; "
                             "give one of them")
        for key in CONFIG_KEYS:
            value = layer.get(key)
            if value is None:
                continue
            if key == "p":
                raw["model"] = f"p:{_number('p', value)}"
            elif key in ("grid", "tolerances"):
                raw[key] = {**raw[key], **value}
            else:
                raw[ALIASES.get(key, key)] = value
    name, p = _parse_model(raw["model"])
    spec = ModelSpec(m=_number("mass", raw["mass"]), p=p, name=name,
                     **{k: _number(k, raw[k]) for k in ("E", "l") if k in raw})
    tolerances = {k: _number(f"tolerance {k}", v)
                  for k, v in raw["tolerances"].items()}
    unknown = sorted(set(tolerances) - set(TOLERANCE_NAMES))
    if unknown:
        raise ValueError(f"unknown tolerance name(s) {', '.join(unknown)}; "
                         f"expected {', '.join(TOLERANCE_NAMES)}")
    for k, v in tolerances.items():
        if not 0.0 < v < np.inf:
            raise ValueError(f"tolerance {k} must be positive and finite, "
                             f"got {v!r}")
    margin = _number("mask margin", raw["mask_margin"])
    if not 0.0 <= margin < np.inf:
        raise ValueError(f"mask margin must be non-negative and finite, got "
                         f"{margin!r}")
    if raw.get("format") not in (None, "csv", "json"):
        raise ValueError(f"format must be csv or json, got {raw['format']!r}")
    if not isinstance(raw.get("out", ""), str):
        raise ValueError(f"out must be a string, got {raw['out']!r}")
    grid = {k: _whole(f"grid {k}", v) if k in ("n_r", "n_theta")
            else _number(f"grid {k}", v) for k, v in raw["grid"].items()}
    seed = _whole("seed", raw["seed"])
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed!r}")
    cfg = RunConfig(
        spec=spec,
        grid=grids.GridConfig(**grid) if grid else None,
        seed=seed,
        tolerances=tolerances,
        mask_margin=margin,
        out=raw.get("out"),
        fmt=raw.get("format"),
        scan_el=bool(args.scan_el),
    )
    # after the value checks, so that an invalid value is named as such
    given = ([(ALIASES.get(k, k), k) for k, v in config.items()
              if v is not None and k != "tolerances"]
             + [(k, "--" + k.replace("_", "-")) for k, v in flags.items()
                if v is not None and k != "tolerances"]
             + [(k, f"tolerance {k}") for k in tolerances]
             + [("scan_el", "--scan-el")] * args.scan_el)
    for name, label in given:
        if name not in COMMAND_READS[args.command]:
            readers = [c for c in sorted(COMMAND_READS) if name in COMMAND_READS[c]]
            listed = (", ".join(readers[:-1]) + " and " if readers[1:] else
                      "") + readers[-1]
            raise ValueError(f"{label} applies to {listed} only, not "
                             f"{args.command}")
    return cfg


def _emit_json(doc, out_path):
    """Stream ``doc`` as indented JSON to the file or to stdout."""
    with (open(out_path, "w", encoding="utf-8") if out_path
          else contextlib.nullcontext(sys.stdout)) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_verify(cfg: RunConfig):
    report = verify.run_suites(
        cfg.spec, grid_cfg=cfg.grid_or(grids.GridConfig()),
        seed=cfg.seed, tolerances=cfg.tolerances, margin=cfg.mask_margin,
    )
    for name in sorted(report["suites"]):
        suite = report["suites"][name]
        status = "pass" if suite["pass"] else "FAIL"
        masked = (", every point masked" if suite.get("n_masked") == suite["n"]
                  else "")
        print(f"{status}  {name}: max residual {suite['max_residual']:.3e} "
              f"(tol {suite['tolerance']:.1e}{masked})", file=sys.stderr)
    _emit_json(report, cfg.out)
    if not report["pass"]:
        print("failing suites: " + ", ".join(report["failing_suites"]),
              file=sys.stderr)
        return 1
    return 0


FIELDMAP_COLUMNS = ["r", "theta", "phi2", "sin_beta", "cos_beta", "X", "masked"]
_FLAGS = ("false", "true")
# json's spelling of the non-finite floats that repr spells nan, inf, -inf
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _fieldmap_layout(fmt, model):
    """(head, line, separator, tail, non-finite spellings) of a fieldmap.

    ``line`` is one row: ``{r}`` and ``{X}`` are filled once per grid row,
    and each ``{{}}`` becomes a slot for theta, phi2, sin_beta, cos_beta and
    the flag.  The JSON layout is that of ``json.dump(..., indent=2,
    sort_keys=True)`` of {"columns", "model", "rows", "schema"}.
    """
    if fmt == "csv":
        return (",".join(FIELDMAP_COLUMNS) + "\n",
                "{r},{{}},{{}},{{}},{{}},{X},{{}}\n", "", "", None)
    head = json.dumps({"columns": FIELDMAP_COLUMNS, "model": model},
                      indent=2, sort_keys=True)
    line = ("    [\n      {r},\n      {{}},\n      {{}},\n      {{}},\n"
            "      {{}},\n      {X},\n      {{}}\n    ]")
    return (head[:-len("\n}")] + ',\n  "rows": [\n', line, ",\n",
            f'\n  ],\n  "schema": {json.dumps(SCHEMA)}\n}}\n', _JSON_NONFINITE)


def _float_text(values, spelling):
    """repr of each float in ``values``; a non-finite one as ``spelling``
    spells it, if given."""
    text = list(map(repr, values.tolist()))
    if spelling and not np.isfinite(values).all():
        text = [spelling.get(t, t) for t in text]
    return text


def _write_fieldmap_rows(fh, spec, grid_cfg, margin, line, sep, spelling):
    """Evaluate the fieldmap one grid row (one radius, every theta) at a time
    in r-major order and write each grid row's text in one ``fh.write``."""
    grid = grids.points(grid_cfg, m=spec.m)
    # every grid row shares one theta axis
    theta_text = _float_text(grid.theta[0], spelling)
    for i, (r, theta) in enumerate(zip(grid.r, grid.theta)):
        pt = GridPoint(r, theta)
        X = X_exact(pt.r, spec)
        with np.errstate(divide="ignore", invalid="ignore"):
            sb, cb = chiral_components(X, pt.theta)
        row_line = line.format(r=_float_text(pt.r[:1], spelling)[0],
                               X=_float_text(X[:1], spelling)[0])
        text = sep.join(map(
            row_line.format, theta_text,
            _float_text(phi2_grid(spec, pt.r, pt.theta), spelling),
            _float_text(sb, spelling), _float_text(cb, spelling),
            map(_FLAGS.__getitem__,
                equations.is_masked(pt, spec, margin).tolist())))
        fh.write(sep + text if i else text)


def cmd_fieldmap(cfg: RunConfig):
    spec = cfg.spec
    grid_cfg = cfg.grid_or(FIELDMAP_GRID)
    fmt = cfg.fmt or "csv"
    out_path = cfg.out or ("fieldmap.csv" if fmt == "csv" else None)
    head, line, sep, tail, spelling = _fieldmap_layout(fmt, spec.name)
    with (open(out_path, "w", encoding="utf-8",
               newline="" if fmt == "csv" else None) if out_path
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write(head)
        _write_fieldmap_rows(fh, spec, grid_cfg, cfg.mask_margin,
                             line, sep, spelling)
        fh.write(tail)
    if out_path:
        print(f"wrote {grid_cfg.n_r * grid_cfg.n_theta} rows to {out_path}",
              file=sys.stderr)
    return 0


def _ode_summary(cfg: RunConfig, **span):
    """verify.ode_summary of the run; None, after one ``error:`` line on
    stderr, when the radial run fails or its span is invalid."""
    try:
        return verify.ode_summary(cfg.spec, tolerances=cfg.tolerances,
                                  scan=cfg.scan_el, **span)
    except (DivergingState, SingularPoint, StepUnderflow, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def cmd_ode(cfg: RunConfig):
    spec = cfg.spec
    if spec.p != 0.0:
        print("error: the radial system belongs to the scalar model; "
              "run with --model soler or p:0", file=sys.stderr)
        return 2
    # the span is the grid's radii; without a grid, ode_summary's default
    span = {} if cfg.grid is None else {"r_span": (cfg.grid.r_min,
                                                   cfg.grid.r_max)}
    result = _ode_summary(cfg, **span)
    if result is None:
        return 1
    summary, traj, nonfinite = result
    out_path = cfg.out or "trajectory.csv"
    ode.trajectory_to_csv(traj, spec, out_path)
    doc = {"schema": SCHEMA, "model": spec.name, "mass": spec.m,
           "trajectory_csv": out_path, **summary}
    _emit_json(doc, None)
    return 1 if _ode_failed(nonfinite) else 0


def _ode_failed(nonfinite):
    """Name the ODE summary's non-finite results on stderr, if there are any;
    returns whether there were."""
    if nonfinite:
        print("ode: non-finite " + ", ".join(nonfinite), file=sys.stderr)
    return bool(nonfinite)


def cmd_locus(cfg: RunConfig):
    doc = {"schema": SCHEMA, **singular.singularity_report(cfg.spec)}
    _emit_json(doc, cfg.out)
    return 0


def cmd_report(cfg: RunConfig):
    spec = cfg.spec
    doc = {
        "schema": SCHEMA,
        "verify": verify.run_suites(
            spec, grid_cfg=cfg.grid_or(grids.GridConfig()),
            seed=cfg.seed, tolerances=cfg.tolerances, margin=cfg.mask_margin,
        ),
        "singularity": singular.singularity_report(spec),
    }
    nonfinite = []
    if spec.p == 0.0:
        result = _ode_summary(cfg)
        if result is None:
            return 1
        doc["ode"], _, nonfinite = result
    _emit_json(doc, cfg.out)
    return 1 if _ode_failed(nonfinite) or not doc["verify"]["pass"] else 0


COMMANDS = {
    "verify": cmd_verify,
    "fieldmap": cmd_fieldmap,
    "ode": cmd_ode,
    "locus": cmd_locus,
    "report": cmd_report,
}


def _check_writable(path):
    """Raise OSError, naming ``path``, if it cannot be opened for writing.

    The file is opened for appending, so an existing one keeps its content,
    and one that this check created is removed again."""
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror}") from None
    if not existed:
        os.remove(path)


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        cfg = resolve_config(args)
        if cfg.out:
            _check_writable(cfg.out)
    except (argparse.ArgumentTypeError, ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](cfg)
    except SingularPoint as exc:  # a verify or report grid point unmasked
        print(f"error: {exc}; raise --mask-margin to mask the singular region",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
