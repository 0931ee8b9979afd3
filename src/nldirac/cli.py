"""Command-line interface: verification runs, field maps, ODE runs, reports.

Natural units throughout (hbar = c = 1); with the default mass 1.0 all grid
radii read directly in Compton lengths.  Precedence: command-line flags
override the --config JSON file, which overrides built-in defaults.  All
outputs are deterministic functions of the resolved configuration (random
suites are seeded, no wall-clock data is emitted).

Every argument and config check runs before numpy or a numerical layer is
loaded (see _load_layers), so a usage error or --help costs the interpreter
and argparse alone.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from typing import NamedTuple

from .errors import DivergingState, SingularPoint, StepUnderflow
from .settings import (DEFAULT_MASK_MARGIN, DEFAULT_TOLERANCES, FIELDMAP_GRID,
                       SCHEMA, GridConfig, ModelSpec)


@functools.cache
def _load_layers():
    """Import numpy and the numerical layers into this module, on the first
    call only.  ``main`` calls it once the usage checks have passed; an
    import of this module calls it at once, so every layer module is
    loaded when ``import nldirac.cli`` returns, and a name patched in this
    module stays patched."""
    global np, equations, grids, ode, singular, verify, GridPoint
    global X_exact, chiral_components, phi2_grid, _FLAGS
    import numpy as np

    from . import equations, grids, ode, singular, verify
    from .geometry import GridPoint
    from .polar import X_exact, chiral_components, phi2_grid

    # the masked column's texts, as an object array so that a block's mask,
    # read as 0 and 1, picks them in one numpy call
    _FLAGS = np.array(["false", "true"], dtype=object)


if __name__ != "__main__":
    _load_layers()


# Every key the --config file accepts; a flag of the same name overrides it.
# "energy" and "angular_momentum" are aliases of "E" and "l"; within one
# layer a later key in this order wins over an earlier one.
CONFIG_KEYS = ("model", "p", "mass", "grid", "seed", "tolerances",
               "mask_margin", "E", "energy", "l", "angular_momentum", "out",
               "format")
ALIASES = {"energy": "E", "angular_momentum": "l"}
DEFAULTS = {"model": "njl", "mass": 1.0, "grid": {}, "seed": 42,
            "tolerances": {}, "mask_margin": DEFAULT_MASK_MARGIN}
TOLERANCE_NAMES = (*DEFAULT_TOLERANCES, "rtol", "atol")
# The settings each command reads: config keys (the flags of the same name),
# tolerance names, and "scan_el" for --scan-el.  A command given any other
# setting fails with a usage error rather than ignore it.
_VERIFY_READS = ("model", "p", "mass", "grid", "seed", *DEFAULT_TOLERANCES,
                 "mask_margin", "E", "l", "out")
COMMAND_READS = {
    "verify": _VERIFY_READS,
    "report": (*_VERIFY_READS, "rtol", "atol", "scan_el"),
    "fieldmap": ("model", "p", "mass", "grid", "mask_margin", "out", "format"),
    "ode": ("model", "p", "mass", "grid", "rtol", "atol", "out", "scan_el"),
    "locus": ("model", "p", "mass", "out"),
}
# the file a command writes when no out is given (fieldmap only as CSV)
DEFAULT_OUT = {"fieldmap": "fieldmap.csv", "ode": "trajectory.csv"}


class RunConfig(NamedTuple):
    spec: ModelSpec
    grid: GridConfig            # None: the command's own default grid
    seed: int
    tolerances: dict
    mask_margin: float
    out: str                    # None: stdout
    fmt: str                    # "csv" | "json" | None
    scan_el: bool


def _float(name, text):
    """``text``, a value within a flag, as a float; one that is not a number
    is an error that names the setting."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {text!r}") from None


def _parse_grid(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("--grid expects r_min,r_max,n_r,n_theta")
    return {k: _float(f"grid {k}", v)
            for k, v in zip(("r_min", "r_max", "n_r", "n_theta"), parts)}


def _parse_tol(items):
    out = {}
    for item in items or ():
        if "=" not in item:
            raise argparse.ArgumentTypeError("--tol expects name=value")
        name, value = (part.strip() for part in item.split("=", 1))
        out[name] = _float(f"tolerance {name}", value)
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


def _refuse_unknown(what, names, expected):
    """Raise ValueError naming each of ``names`` that is not ``expected``."""
    unknown = sorted(set(names) - set(expected))
    if unknown:
        raise ValueError(f"{what}(s) {', '.join(unknown)}; "
                         f"expected {', '.join(expected)}")


def _read_config(path):
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: the config must be a JSON object")
    _refuse_unknown(f"{path}: unknown config key", doc, CONFIG_KEYS)
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
                if not isinstance(value, dict):
                    raise ValueError(f"{key} must be an object, got {value!r}")
                raw[key] = {**raw[key], **value}
            else:
                raw[ALIASES.get(key, key)] = value
    spec = ModelSpec(name=raw["model"], m=_number("mass", raw["mass"]),
                     **{k: _number(k, raw[k]) for k in ("E", "l") if k in raw})
    tolerances = {k: _number(f"tolerance {k}", v)
                  for k, v in raw["tolerances"].items()}
    _refuse_unknown("unknown tolerance name", tolerances, TOLERANCE_NAMES)
    for k, v in tolerances.items():
        if not 0.0 < v < math.inf:
            raise ValueError(f"tolerance {k} must be positive and finite, "
                             f"got {v!r}")
    margin = _number("mask margin", raw["mask_margin"])
    if not 0.0 <= margin < math.inf:
        raise ValueError(f"mask margin must be non-negative and finite, got "
                         f"{margin!r}")
    if raw.get("format") not in (None, "csv", "json"):
        raise ValueError(f"format must be csv or json, got {raw['format']!r}")
    if not isinstance(raw.get("out", ""), str):
        raise ValueError(f"out must be a string, got {raw['out']!r}")
    _refuse_unknown("unknown grid key", raw["grid"], GridConfig._fields)
    grid = {k: _whole(f"grid {k}", v) if k in ("n_r", "n_theta")
            else _number(f"grid {k}", v) for k, v in raw["grid"].items()}
    seed = _whole("seed", raw["seed"])
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed!r}")
    cfg = RunConfig(
        spec=spec,
        grid=GridConfig(**grid) if grid else None,
        seed=seed,
        tolerances=tolerances,
        mask_margin=margin,
        out=raw.get("out", None if raw.get("format") == "json"
                    else DEFAULT_OUT.get(args.command)),
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
    verify.check_mass(cfg.spec, cfg.grid)
    report = verify.run_suites(
        cfg.spec, grid_cfg=cfg.grid,
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
# json's spelling of the non-finite floats that repr spells nan, inf, -inf
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _fieldmap_layout(fmt, model):
    """(head, separator, row separator, tail, non-finite spellings) of a
    fieldmap as ``fmt``, csv (the default) or json.

    The separator joins a row's seven texts and the row separator joins
    rows; the head ends with the first row's start and the tail begins with
    the last row's end.  The JSON layout is that of ``json.dump(...,
    indent=2, sort_keys=True)`` of {"columns", "model", "rows", "schema"}.
    """
    if fmt != "json":
        return ",".join(FIELDMAP_COLUMNS) + "\n", ",", "\n", "\n", None
    head = json.dumps({"columns": FIELDMAP_COLUMNS, "model": model},
                      indent=2, sort_keys=True)
    return (head[:-len("\n}")] + ',\n  "rows": [\n    [\n      ',
            ",\n      ", "\n    ],\n    [\n      ",
            f'\n    ]\n  ],\n  "schema": {json.dumps(SCHEMA)}\n}}\n',
            _JSON_NONFINITE)


def _float_text(values, spelling):
    """repr of each float in ``values``, in C order; a non-finite one as
    ``spelling`` spells it, if given."""
    text = list(map(repr, values.ravel().tolist()))
    if spelling and not np.isfinite(values).all():
        text = [spelling.get(t, t) for t in text]
    return text


def _mirrored_text(values, spelling):
    """``_float_text`` of ``values``, grid rows over the theta axis, which
    is symmetric about pi/2, formatting only what the mirror cannot give.

    The front ceil(n/2) columns are formatted.  Back column j takes the text
    of column n-1-j where the bits are equal, or that text with its sign
    flipped where they are negated (not for a NaN: repr(-nan) is 'nan');
    spelled texts flip too, Infinity <-> -Infinity."""
    n = values.shape[1]
    half = n - n // 2
    front = np.array(_float_text(values[:, :half], spelling),
                     dtype=object).reshape(-1, half)
    back = front[:, :n // 2][:, ::-1].copy()
    bits = values.view(np.int64)
    mirror = bits[:, :n // 2][:, ::-1]
    same = bits[:, half:] == mirror
    flip = ((bits[:, half:] == mirror ^ np.iinfo(np.int64).min)
            & ~np.isnan(values[:, half:]))
    back[flip] = [t[1:] if t[0] == "-" else "-" + t for t in back[flip]]
    rest = ~(same | flip)
    back[rest] = _float_text(values[:, half:][rest], spelling)
    return np.concatenate((front, back), axis=1).ravel().tolist()


# grid points per fieldmap block, which holds at least one grid row; a
# larger block pays numpy's per-call cost less often but holds more text
# before its write
FIELDMAP_BLOCK = 1024


def _write_fieldmap_rows(fh, spec, radii, theta, margin, sep, row_sep,
                         spelling):
    """Evaluate the fieldmap of the grid axes ``radii`` and ``theta`` in
    blocks of whole grid rows (one radius, every theta), about
    FIELDMAP_BLOCK points each, in r-major order, and write each block's
    text in one ``fh.write``.

    A block is evaluated on its column of radii and the theta axis, which
    numpy broadcasts to the block's points: what depends on r alone is
    computed and formatted once per radius, and what depends on theta alone
    once per angle.  A point's value that repeats, or negates, that of its
    mirror across the equator reuses the mirror's text.
    """
    rows = max(1, FIELDMAP_BLOCK // len(theta))
    theta_text = _float_text(theta, spelling)
    lead = ""  # the map's first row follows the head
    for i in range(0, len(radii), rows):
        r = radii[i:i + rows, None]
        X = X_exact(r, spec)
        with np.errstate(divide="ignore", invalid="ignore"):
            sb, cb = chiral_components(X, theta)
        masked = equations.is_masked(GridPoint(r, theta), spec, margin)
        columns = ([t for t in _float_text(r, spelling) for _ in theta_text],
                   theta_text * len(r),
                   *(_mirrored_text(v, spelling)
                     for v in (phi2_grid(spec, r, theta), sb, cb)),
                   [t for t in _float_text(X, spelling) for _ in theta_text],
                   _FLAGS[masked.ravel().astype(int)].tolist())
        fh.write(lead + row_sep.join(map(sep.join, zip(*columns))))
        lead = row_sep


def cmd_fieldmap(cfg: RunConfig):
    spec, grid_cfg = cfg.spec, cfg.grid or FIELDMAP_GRID
    # before anything is written: the radii refuse an extreme mass
    radii, theta = grids.radii(grid_cfg, m=spec.m), grids.thetas(grid_cfg)
    head, sep, row_sep, tail, spelling = _fieldmap_layout(cfg.fmt, spec.name)
    with (open(cfg.out, "w", encoding="utf-8",
               newline=None if cfg.fmt == "json" else "") if cfg.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write(head)
        _write_fieldmap_rows(fh, spec, radii, theta, cfg.mask_margin, sep,
                             row_sep, spelling)
        fh.write(tail)
    if cfg.out:
        print(f"wrote {grid_cfg.n_r * grid_cfg.n_theta} rows to {cfg.out}",
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
    # the span is the grid's radii; without a grid, ode_summary's default
    span = {} if cfg.grid is None else {"r_span": (cfg.grid.r_min,
                                                   cfg.grid.r_max)}
    result = _ode_summary(cfg, **span)
    if result is None:
        return 1
    summary, traj, nonfinite = result
    ode.trajectory_to_csv(traj, spec, cfg.out)
    doc = {"schema": SCHEMA, "model": spec.name, "mass": spec.m,
           "trajectory_csv": cfg.out, **summary}
    _emit_json(doc, None)
    return 1 if _ode_failed(summary, nonfinite) else 0


def _ode_failed(summary, nonfinite):
    """Name on stderr what fails the ODE summary: its non-finite results, and
    an (E/m, l) scan that does not single out (1, 1/2); returns whether
    anything did."""
    if nonfinite:
        print("ode: non-finite " + ", ".join(nonfinite), file=sys.stderr)
    scan = summary.get("scan")
    wrong_scan = scan is not None and not scan["unique_zero"]
    if wrong_scan:
        cells = ", ".join(map(str, scan["zero_cells"])) or "none"
        print(f"ode: the (E/m, l) scan's zero cells are {cells}, not only "
              "(1.0, 0.5)", file=sys.stderr)
    return bool(nonfinite) or wrong_scan


def cmd_locus(cfg: RunConfig):
    doc = {"schema": SCHEMA, **singular.singularity_report(cfg.spec)}
    _emit_json(doc, cfg.out)
    return 0


def cmd_report(cfg: RunConfig):
    spec = cfg.spec
    # the grid's radii, the singularity part and then the metric entries
    # refuse an extreme mass before the verify part evaluates them
    grids.radii(cfg.grid or GridConfig(), spec.m)
    singularity = singular.singularity_report(spec)
    verify.check_mass(spec, cfg.grid)
    doc = {
        "schema": SCHEMA,
        "verify": verify.run_suites(
            spec, grid_cfg=cfg.grid,
            seed=cfg.seed, tolerances=cfg.tolerances, margin=cfg.mask_margin,
        ),
        "singularity": singularity,
    }
    nonfinite = []
    if spec.p == 0.0:
        result = _ode_summary(cfg)
        if result is None:
            return 1
        doc["ode"], _, nonfinite = result
    _emit_json(doc, cfg.out)
    failed = _ode_failed(doc.get("ode", {}), nonfinite)
    return 1 if failed or not doc["verify"]["pass"] else 0


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
        if args.command == "ode" and cfg.spec.p != 0.0:
            raise ValueError("the radial system belongs to the scalar model; "
                             "run with --model soler or p:0")
    except (argparse.ArgumentTypeError, ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _load_layers()
    try:
        return COMMANDS[args.command](cfg)
    except SingularPoint as exc:  # a verify or report grid point unmasked
        print(f"error: {exc}; raise --mask-margin to mask the singular region",
              file=sys.stderr)
        return 2
    except FloatingPointError as exc:  # a command at an extreme mass
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
