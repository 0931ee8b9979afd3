"""Benchmark runner: set-up timing, the timed closed loop, the traced run and
the metrics.

One client in one process sends the next operation only after the previous
one has finished (closed loop).  In-process workloads call
``nldirac.cli.main`` directly; ``cli-cold`` starts ``python -m nldirac.cli``
once per operation.
"""

from __future__ import annotations

import compileall
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

import checks
import spans
import workloads
from run import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
# On a shared host the same command can take up to twice as long from one
# minute to the next.  Every timed command and set-up import is bracketed by
# a short fixed probe of the same kind (in-process work, or a fresh
# interpreter for commands that start one), and the end-to-end times are
# scaled by the probe's slowdown against its time on a quiet 2-core Xeon host.
PROBE_REF_S = {"in-process": 0.010, "subprocess": 0.075}
PROBE_IMPORTS = "import json, decimal, email.parser"
IMPORTTIME_REPEATS = 3
SUBPROCESS_TIMEOUT = 120
RUN_SUITES_KINDS = ("verify", "negative", "report")
SUITE_FUNCTIONS = {
    "fierz": "suite_fierz",
    "flatness": "suite_flatness",
    "curvature-strength": "suite_curvature_strength",
    "transport": "suite_transport",
    "decomposition": "suite_decomposition",
    "expanded-residuals": "suite_expanded",
    "covector-residuals": "suite_covector",
    "reduced-residuals": "suite_reduced",
    "standard-residuals": "suite_standard",
}
# Workload-specific names of op_s and work_per_s, printed in the summary.
ALIASES = {
    "verify-sweep": ("verdict_s", "residual_points_per_s"),
    "fieldmap-export": ("fieldmap_s", "fieldmap_rows_per_s"),
    "cli-cold": ("command_s", "commands_per_s"),
}
# Names each workload's traced run must call at least once; a refactor that
# bypasses one of them would silently zero the layer metrics built on it.
EXPECTED_CALLS = {
    "verify-sweep": (
        "cli.main", "cli.cmd_verify", "verify.run_suites", "grids.points",
        "equations.sweep", "equations.is_masked", "equations.exact_fields",
        "equations.residual_expanded", "equations.residual_polar_covector",
        "equations.residual_reduced", "equations.residual_standard",
        "polar.covariant_derivative", "polar.angle_state",
        "geometry.tensorial_connection_at", "geometry.tetrad_at",
        "geometry.inverse_metric_at", "geometry.coordinate_epsilon_lower",
        "clifford.bilinears",
        *(f"verify.{fn}" for fn in SUITE_FUNCTIONS.values()),
    ),
    "fieldmap-export": (
        "cli.main", "cli.cmd_fieldmap", "grids.radii", "grids.thetas",
        "polar.phi2_grid", "polar.chiral_components", "polar.X_exact",
        "equations.is_masked",
    ),
    "cli-cold": (
        "cli.main", "cli.cmd_verify", "cli.cmd_locus", "cli.cmd_ode",
        "cli.cmd_report", "cli.cmd_fieldmap", "verify.run_suites",
        "verify.ode_summary", "ode.integrate", "ode.soler_rhs",
        "ode.quantum_number_scan", "ode.trajectory_to_csv",
        "singular.singularity_report", "singular.locate_numerically",
        "singular.asymptotics_report",
    ),
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


@dataclass
class OpResult:
    wall: float
    exit_code: int
    stdout: str
    stderr: str
    out_data: bytes = None


class Runner:
    """Runs operations and checks their outputs, in order, one at a time."""

    def __init__(self, mode, work, tracer=None, sentinel=None):
        self.mode = mode
        self.work = work
        self.tracer = tracer
        self.sentinel = sentinel
        self.env = child_env()
        self.digests = {}
        self.records = []      # (op, wall seconds, facts, problems)
        self._count = 0

    def run(self, op):
        index = self._count
        self._count += 1
        argv = list(op.argv)
        out_path = None
        if op.out_suffix:
            out_path = self.work / f"op{index}{op.out_suffix}"
            argv += ["--out", str(out_path)]
        if op.config is not None:
            config_path = self.work / f"op{index}.config.json"
            config_path.write_text(json.dumps(op.config), encoding="utf-8")
            argv += ["--config", str(config_path)]
        if self.sentinel is not None:
            self.sentinel.reset()
        span = None
        if self.tracer is not None:
            span = self.tracer.begin("harness.op")
        try:
            if self.mode == "in-process":
                result = self._in_process(argv)
            else:
                result = self._subprocess(argv, index)
        finally:
            if span is not None:
                self.tracer.end(span)
        if self.tracer is not None and self.mode == "subprocess":
            spans_file = self.work / f"op{index}.spans.npz"
            if spans_file.exists():
                self.tracer.merge(spans_file, span)
        if out_path is not None and out_path.exists():
            result.out_data = out_path.read_bytes()
        problems, facts = checks.check_op(
            op, result.exit_code, result.stdout, result.stderr,
            result.out_data, self.sentinel)
        if result.out_data is not None:
            facts["bytes"] = len(result.out_data)
            if op.key is not None:
                digest = hashlib.sha256(result.out_data).hexdigest()
                first = self.digests.setdefault(op.key, digest)
                if first != digest:
                    problems.append("output differs from the earlier run of "
                                    "the same configuration")
        for path in self.work.glob(f"op{index}.*"):
            path.unlink()
        self.records.append((op, result.wall, facts, problems))

    def _in_process(self, argv):
        from nldirac import cli

        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # the op failed; record it and keep measuring
                traceback.print_exc()
                code = None
        wall = time.perf_counter() - t0
        return OpResult(wall, code, out.getvalue(), err.getvalue())

    def _subprocess(self, argv, index):
        if self.tracer is not None:
            cmd = [sys.executable, str(HERE / "launch.py"),
                   str(self.work / f"op{index}.spans.npz"), *argv]
        else:
            cmd = [sys.executable, "-m", "nldirac.cli", *argv]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.work, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=SUBPROCESS_TIMEOUT)
        except subprocess.TimeoutExpired as exc:
            return OpResult(time.perf_counter() - t0, None, "",
                            f"timed out after {exc.timeout} s")
        wall = time.perf_counter() - t0
        return OpResult(wall, proc.returncode, proc.stdout, proc.stderr)

    def failures(self):
        return [(op.label, problems) for op, _, _, problems in self.records
                if problems]


def fresh_import(work, extra=()):
    """(wall time, stderr) of ``import nldirac.cli`` in a fresh interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *extra, "-c", "import nldirac.cli"],
                          cwd=work, env=child_env(), capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"import nldirac.cli failed:\n{proc.stderr}")
    return wall, proc.stderr


def importtime_cumulative(work):
    """Median cumulative -X importtime seconds of three modules."""
    modules = {"nldirac.cli": "import.nldirac_cli.cum_s",
               "scipy.integrate": "import.scipy_integrate.cum_s",
               "numpy": "import.numpy.cum_s"}
    samples = {name: [] for name in modules.values()}
    for _ in range(IMPORTTIME_REPEATS):
        _, stderr = fresh_import(work, extra=("-X", "importtime"))
        for line in stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in modules:
                samples[modules[parts[2].strip()]].append(
                    int(parts[1].strip()) * 1e-6)
    return {name: statistics.median(v) if v else 0.0
            for name, v in samples.items()}


def tail(values):
    """(value, percentile): the highest percentile with at least ten samples
    beyond it, never below the median; the maximum below eleven samples."""
    s = sorted(values)
    n = len(s)
    k = n - 1 if n <= 10 else max(n - 11, n // 2)
    return s[k], 100.0 * (k + 1) / n


def environment(workload, seed, why):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor() or "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
        "workload": workload,
        "why": why,
    }


def probe(mode):
    """Wall time of a fixed piece of work: a gauge of how fast the host runs
    right now.  In-process: interpreter, float-formatting and small-array
    work.  Subprocess: a fresh interpreter importing a few stdlib modules."""
    t0 = time.perf_counter()
    if mode == "subprocess":
        subprocess.run([sys.executable, "-c", PROBE_IMPORTS], env=child_env(),
                       capture_output=True, check=True,
                       timeout=SUBPROCESS_TIMEOUT)
        return time.perf_counter() - t0
    total = 0
    for i in range(90000):
        total += i * i
    ",".join([repr(i * 0.1) for i in range(6000)])
    a = np.arange(64.0)
    for _ in range(1500):
        a = np.sqrt(a + 1.0)
    return time.perf_counter() - t0


def host_factors(probes, mode):
    """Host slowdown against the reference over each interval between two
    consecutive probes."""
    ref = 2.0 * PROBE_REF_S[mode]
    return [(a + b) / ref for a, b in zip(probes, probes[1:])]


def measure(runner, ops, seconds):
    """Closed loop for ``seconds``; returns the probe times taken before the
    first op and after every op."""
    probes = [probe(runner.mode)]
    start = time.perf_counter()
    for op in ops:
        if time.perf_counter() - start >= seconds:
            break
        runner.run(op)
        probes.append(probe(runner.mode))
    return probes


def setup_times(work):
    """(walls, probes) of SETUP_REPEATS fresh-interpreter imports, with a
    probe before the first and after each."""
    compileall.compile_dir(SRC / "nldirac", quiet=1)  # time imports only
    probes = [probe("subprocess")]
    walls = []
    for _ in range(SETUP_REPEATS):
        walls.append(fresh_import(work)[0])
        probes.append(probe("subprocess"))
    return walls, probes


def end_to_end(workload, runner, probes, setup, out):
    """The end-to-end metrics; times are scaled by the host probe taken around
    each one (``raw`` values are printed alongside)."""
    walls = [wall for _, wall, _, _ in runner.records]
    scaled = [w / f for w, f in zip(walls, host_factors(probes, runner.mode))]
    setup_walls, setup_probes = setup
    setup_scaled = [w / f for w, f in
                    zip(setup_walls, host_factors(setup_probes, "subprocess"))]
    if workload == "verify-sweep":
        work = sum(f.get("residual_points", 0) for _, _, f, _ in runner.records)
    elif workload == "fieldmap-export":
        work = sum(f.get("rows", 0) for _, _, f, _ in runner.records)
    else:
        work = len(walls)
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    tail_value, tail_pct = tail(scaled)
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "op_s.p50": (statistics.median(scaled), "s"),
        "op_s.tail": (tail_value, "s"),
        "work_per_s": (work / sum(scaled), "1/s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    time_alias, work_alias = ALIASES[workload]
    n = len(walls)
    out(f"host speed: {runner.mode} probe median "
        f"{statistics.median(probes) * 1e3:.4g} ms (reference "
        f"{PROBE_REF_S[runner.mode] * 1e3:g} ms); times below are scaled to "
        f"the reference")
    out(f"{time_alias}.p50 = {metrics['op_s.p50'][0]:.6g} s (op_s.p50, n={n}; "
        f"raw {statistics.median(walls):.6g} s)")
    out(f"{time_alias}.tail = {tail_value:.6g} s "
        f"(op_s.tail, p{tail_pct:.0f} of n={n}; raw {tail(walls)[0]:.6g} s)")
    out(f"{work_alias} = {metrics['work_per_s'][0]:.6g} 1/s (work_per_s; "
        f"raw {work / sum(walls):.6g} 1/s)")
    out(f"setup_s = {metrics['setup_s'][0]:.6g} s (median of {SETUP_REPEATS} "
        f"fresh imports; raw {statistics.median(setup_walls):.6g} s)")
    out(f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.6g} MB")
    return metrics


def layer_metrics(workload, runner, tracer, overhead, imports):
    records = runner.records
    prof = spans.Profile(tracer)
    in_suites = spans.Profile(tracer, spans.subtree_mask(tracer,
                                                         "verify.run_suites"))
    n_ops = len(records)
    suite_runs = prof.calls("verify.run_suites")
    grid_points = sum(op.grid_points for op, _, _, _ in records
                      if op.kind in RUN_SUITES_KINDS)
    fieldmap = [(f.get("rows", 0), f.get("bytes", 0))
                for op, _, f, _ in records if op.kind == "fieldmap"]
    rows = sum(r for r, _ in fieldmap)
    points = sum(f.get("points", 0) for _, _, f, _ in records)
    masked = sum(f.get("masked", 0) for _, _, f, _ in records)
    integrations = prof.calls("ode.integrate")
    locates = prof.calls("singular.locate_numerically")

    def ratio(a, b):
        return a / b if b else 0.0

    m = dict(imports)
    for form, fn in (("expanded", "residual_expanded"),
                     ("covector", "residual_polar_covector"),
                     ("reduced", "residual_reduced"),
                     ("standard", "residual_standard")):
        m[f"equations.residual_{form}.us_per_call"] = prof.per_call(
            f"equations.{fn}", 1e6)
    m["equations.sweep.self_s"] = ratio(prof.self_time("equations.sweep"),
                                        suite_runs)
    for fn in ("exact_fields", "is_masked"):
        m[f"equations.{fn}.calls_per_point"] = ratio(
            in_suites.calls(f"equations.{fn}"), grid_points)
    m["equations.masked_ratio"] = ratio(masked, points)
    for name in ("polar.covariant_derivative", "polar.angle_state",
                 "geometry.tensorial_connection_at", "geometry.tetrad_at",
                 "geometry.inverse_metric_at", "geometry.coordinate_epsilon_lower",
                 "clifford.bilinears", "polar.phi2_grid",
                 "polar.chiral_components", "polar.X_exact",
                 "equations.is_masked"):
        m[f"{name}.us"] = prof.per_call(name, 1e6)
    for suite, fn in SUITE_FUNCTIONS.items():
        m[f"verify.suite_s.{suite}"] = prof.per_call(f"verify.{fn}")
    m["grids.points.s_per_op"] = ratio(prof.incl("grids.points"), suite_runs)
    m["cli.cmd_fieldmap.self_us_per_row"] = ratio(
        prof.self_time("cli.cmd_fieldmap") * 1e6, rows)
    m["cli.output_bytes_per_row"] = ratio(sum(b for _, b in fieldmap), rows)
    m["ode.integrate.s"] = prof.per_call("ode.integrate")
    m["ode.soler_rhs.calls"] = ratio(prof.calls("ode.soler_rhs"), integrations)
    m["ode.steps"] = ratio(tracer.counts.get("ode.steps", 0), integrations)
    m["ode.quantum_number_scan.s"] = prof.per_call("ode.quantum_number_scan")
    m["ode.trajectory_to_csv.s"] = prof.per_call("ode.trajectory_to_csv")
    m["singular.locate_numerically.s"] = prof.per_call(
        "singular.locate_numerically")
    m["singular.refinements"] = ratio(tracer.counts.get("singular.refinements", 0),
                                      locates)
    m["singular.asymptotics_report.s"] = prof.per_call(
        "singular.asymptotics_report")
    layer_self = prof.layer_self()
    for layer in spans.LAYERS + ("import", "harness"):
        m[f"self_s.{layer}"] = ratio(layer_self.get(layer, 0.0), n_ops)
    m["trace.overhead_ratio"] = overhead
    op_wall = prof.incl("harness.op")
    shares = {layer: ratio(value, op_wall) for layer, value in layer_self.items()}
    shares["cli.cmd_fieldmap"] = ratio(prof.self_time("cli.cmd_fieldmap"), op_wall)
    zero = [name for name in EXPECTED_CALLS[workload] if prof.calls(name) == 0]
    return m, shares, zero


def load_program():
    """Import nldirac.cli into this process for the in-process workloads."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nldirac.cli  # noqa: F401


@contextmanager
def instrumented(workload, tracer=None):
    """Install the tracer (if given) and, on verify-sweep, the NaN sentinel
    on top of it; yields the sentinel or None."""
    guard = checks.NanSentinel() if workload == "verify-sweep" else None
    try:
        if tracer is not None:
            tracer.install()
        if guard is not None:
            guard.install()
        yield guard
    finally:
        if guard is not None:
            guard.uninstall()
        if tracer is not None:
            tracer.uninstall()


def timed_run(workload, seed, seconds, work):
    """The untraced closed loop; returns its Runner and probe times."""
    factory, mode, _ = workloads.WORKLOADS[workload]
    with instrumented(workload) as guard:
        runner = Runner(mode, work, sentinel=guard)
        probes = measure(runner, factory(seed), seconds)
    return runner, probes


def traced_run(workload, seed, work):
    """The fixed op prefix, each op run plain and then under the tracer, so
    that host drift does not bias the overhead ratio.

    Returns (plain Runner, traced Runner, Tracer).
    """
    factory, mode, n_ops = workloads.WORKLOADS[workload]
    tracer = spans.Tracer()
    plain = Runner(mode, work)
    traced = Runner(mode, work, tracer=tracer)
    # subprocess ops install the tracer in the child (launch.py)
    in_process_tracer = tracer if mode == "in-process" else None
    for op, _ in zip(factory(seed), range(n_ops)):
        with instrumented(workload) as plain.sentinel:
            plain.run(op)
        with instrumented(workload, in_process_tracer) as traced.sentinel:
            traced.run(op)
    return plain, traced, tracer


def pin_to_one_cpu():
    """Keep the benchmark, its probes and its children on one CPU, so a probe
    gauges the CPU the commands run on.  The loop is closed, so nothing else
    of the benchmark competes for it."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run(workload, seed, seconds, trace, why, out=print):
    """Run one workload; returns the result object the benchmark prints."""
    mode = workloads.WORKLOADS[workload][1]
    pin_to_one_cpu()
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir()
    try:
        out(f"env {json.dumps(environment(workload, seed, why), sort_keys=True)}")
        if mode == "in-process":
            load_program()
        if trace:
            plain, traced, tracer = traced_run(workload, seed, work)
            tracer.save(WORK / f"spans-{workload}.npz")
            overhead = (sum(w for _, w, _, _ in traced.records)
                        / sum(w for _, w, _, _ in plain.records) - 1.0)
            values, shares, zero = layer_metrics(
                workload, traced, tracer, overhead, importtime_cumulative(work))
            metrics = {name: (values[name], unit)
                       for name, unit in per_layer_units()}
            runners = [plain, traced]
            out("self time share of traced op wall time: " + ", ".join(
                f"{k}={v:.3f}" for k, v in sorted(shares.items())))
            if zero:
                out(f"warning: no calls recorded for {', '.join(zero)}")
        else:
            setup = setup_times(work)
            runner, probes = timed_run(workload, seed, seconds, work)
            metrics = end_to_end(workload, runner, probes, setup, out)
            runners = [runner]
        if workload == "cli-cold":
            defects = Runner("subprocess", work)
            for op in workloads.KNOWN_DEFECT_OPS:
                defects.run(op)
            for label, problems in defects.failures():
                out(f"known defect (not in the timed mix): {label}: "
                    f"{'; '.join(problems)}")
    finally:
        shutil.rmtree(work)
    attempted = sum(len(r.records) for r in runners)
    failures = [f for r in runners for f in r.failures()]
    for label, problems in failures:
        out(f"FAILED {label}: {'; '.join(problems)}")
    out(f"failed_ratio = {len(failures)}/{attempted}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def per_layer_units():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]
