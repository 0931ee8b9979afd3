"""Compare the command-line outputs of two source trees, byte for byte.

    python tools/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the ``nldirac`` package (a
checkout's ``src``).  Every command of COMMANDS runs as ``python -m
nldirac.cli`` once with each tree on PYTHONPATH, each run in a fresh
temporary directory, and the two runs' exit codes, stdout, stderr and
written files are compared.  The tree's own path, which a traceback would
name, reads ``<src>`` in both.  One line is printed per difference, and the
exit code is 1 if there is any, else 0.

The commands are the 108 verify configurations (njl, soler, p:0.37 and
p:0.5; m in {0.5, 1, 2}; the default 25 x 20 grid, 50 x 40 and 70 x 50;
no override, E = 1.1m or l = 0.6), then locus, CSV and JSON fieldmap,
report and ode of those models and masses, then the edges of the radial
run (a long span, a run into 2mr = 1 from inside, the inner branch, loose
tolerances and the (E/m, l) scan), then a few usage errors.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tempfile
from typing import NamedTuple

MODELS = ("njl", "soler", "p:0.37", "p:0.5")
MASSES = ("0.5", "1", "2")


class Command(NamedTuple):
    argv: tuple      # the arguments of nldirac.cli
    config: dict     # written to config.json and passed as --config; or None

    def label(self):
        extra = f" --config {json.dumps(self.config)}" if self.config else ""
        return " ".join(self.argv) + extra


def _commands():
    commands = []
    for model in MODELS:
        for mass in MASSES:
            for grid in ((), ("--grid", "0.05,20,50,40"),
                         ("--grid", "0.05,20,70,50")):
                for config in (None, {"E": 1.1 * float(mass)}, {"l": 0.6}):
                    commands.append(Command(
                        ("verify", "--model", model, "--mass", mass, *grid),
                        config))
    for model in MODELS:
        for mass in MASSES:
            flags = ("--model", model, "--mass", mass)
            commands += [Command(argv, None) for argv in (
                ("locus", *flags), ("fieldmap", *flags),
                ("fieldmap", *flags, "--format", "json"),
                ("report", *flags), ("ode", *flags))]
    commands += [Command(("ode", "--model", "soler", *argv.split()), None)
                 for argv in ("--grid 0.6,1e7,2,2", "--grid 0.1,0.4999999,2,2",
                              "--grid 0.05,0.45,2,2",
                              "--tol rtol=1e-3 --tol atol=1e-5", "--scan-el")]
    commands += [Command(tuple(argv.split()), None) for argv in (
        "verify --model p:2", "ode --model njl", "locus --model p:1.5",
        "fieldmap --model p:-0.1", "verify --mass inf",
        "verify --model soler --p 0.3", "report --grid 1,2,3")]
    return commands


COMMANDS = _commands()


def run(src, command):
    """(exit code, stdout, stderr, {name: bytes} of every file written) of
    ``command`` with the tree ``src`` on PYTHONPATH, in a fresh directory."""
    src = str(pathlib.Path(src).resolve())
    env = {**os.environ, "PYTHONPATH": src}
    with tempfile.TemporaryDirectory() as work:
        argv = list(command.argv)
        if command.config is not None:
            config = pathlib.Path(work, "config.json")
            config.write_text(json.dumps(command.config), encoding="utf-8")
            argv += ["--config", config.name]
        proc = subprocess.run([sys.executable, "-m", "nldirac.cli", *argv],
                              cwd=work, env=env, capture_output=True)
        files = {path.name: path.read_bytes()
                 for path in sorted(pathlib.Path(work).iterdir())
                 if path.name != "config.json"}
    tree = src.encode()
    return (proc.returncode, proc.stdout.replace(tree, b"<src>"),
            proc.stderr.replace(tree, b"<src>"), files)


def differences(old_src, new_src, commands=COMMANDS):
    """One line per difference between the runs of ``commands`` on the two
    trees, in command order."""
    lines = []
    for command in commands:
        old, new = run(old_src, command), run(new_src, command)
        where = command.label()
        if old[0] != new[0]:
            lines.append(f"{where}: exit code {old[0]} -> {new[0]}")
        for name, a, b in (("stdout", old[1], new[1]),
                           ("stderr", old[2], new[2])):
            if a != b:
                lines.append(f"{where}: {name} differs")
        for name in sorted(old[3].keys() | new[3].keys()):
            if old[3].get(name) != new[3].get(name):
                lines.append(f"{where}: file {name} differs")
    return lines


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/compare_outputs.py OLD_SRC NEW_SRC",
              file=sys.stderr)
        return 2
    lines = differences(*args)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
