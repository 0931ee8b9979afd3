"""Run one nldirac command in this interpreter with the span tracer installed.

    python perfbench/launch.py SPANS_FILE COMMAND [ARGS...]

Behaves like ``python -m nldirac.cli COMMAND [ARGS...]`` (``nldirac`` must be
importable, e.g. through PYTHONPATH) and saves the spans of the run to
SPANS_FILE when the command ends, including the import of ``nldirac.cli``.
"""

import sys
import time
from pathlib import Path


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    from nldirac import cli
    t1 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from spans import Tracer

    tracer = Tracer()
    tracer.add("import.nldirac_cli", t0, t1)
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.save(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
