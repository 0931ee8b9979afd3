"""In-memory span tracer for the nldirac modules.

``Tracer.install`` wraps every public function defined in the nldirac layer
modules and rebinds the wrapper in every nldirac namespace that holds the
original (``ode`` and ``singular`` import ``X_exact`` and ``phi2_grid`` by
name, so those bindings are wrapped too).  Each call appends one span
(function id, parent span, start, end) to flat arrays; nothing is written
until ``save`` is called at the end of a run.  Child processes started by
``launch.py`` save their spans to a file that the parent ``merge``s under the
span of the operation that started them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "verify", "equations", "polar", "geometry", "clifford",
          "grids", "ode", "singular")

# Exact per-call counts taken from return values at the layer boundary.
RESULT_COUNTS = {
    "ode.integrate": ("ode.steps", lambda traj: traj.n_steps),
    "singular.locate_numerically": ("singular.refinements",
                                    lambda est: est.refinements),
}


class Tracer:
    """Spans of one benchmark run, kept in flat arrays."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.fid = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counts = {}
        self._stack = [-1]
        self._patches = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name):
        """Open a span that is not a wrapped call (an operation, an import)."""
        i = len(self.fid)
        self.fid.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.t0.append(time.perf_counter())
        self.t1.append(0.0)
        self._stack.append(i)
        return i

    def end(self, i):
        self.t1[i] = time.perf_counter()
        self._stack.pop()

    def add(self, name, t0, t1):
        """Record a finished span under the current one."""
        self.fid.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.t0.append(t0)
        self.t1.append(t1)

    def _wrap(self, fn, name):
        fid_value = self._name_id(name)
        fid, parent, t0, t1 = self.fid, self.parent, self.t0, self.t1
        stack = self._stack
        clock = time.perf_counter
        counter = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(fid)
            fid.append(fid_value)
            parent.append(stack[-1])
            t1.append(0.0)
            stack.append(i)
            t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[i] = clock()
                stack.pop()
            if counter is not None:
                key, take = counter
                self.counts[key] = self.counts.get(key, 0) + take(result)
            return result

        return wrapper

    def install(self):
        """Wrap the public functions of every layer module; returns self."""
        import nldirac.cli  # noqa: F401  (loads every layer module)

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"nldirac.{layer}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for modname, mod in list(sys.modules.items()):
            if modname != "nldirac" and not modname.startswith("nldirac."):
                continue
            namespace = vars(mod)
            # module globals, and module-level tables such as cli.COMMANDS
            tables = [namespace] + [v for v in namespace.values()
                                    if isinstance(v, dict)]
            for table in tables:
                for key, obj in list(table.items()):
                    entry = wrappers.get(id(obj))
                    if entry is not None and entry[0] is obj:
                        self._patches.append((table, key, obj))
                        table[key] = entry[1]
        return self

    def uninstall(self):
        while self._patches:
            table, key, obj = self._patches.pop()
            table[key] = obj

    def arrays(self):
        """(fid, parent, t0, t1) as numpy copies."""
        return (np.array(self.fid, dtype=np.int32),
                np.array(self.parent, dtype=np.int32),
                np.array(self.t0, dtype=float),
                np.array(self.t1, dtype=float))

    def save(self, path):
        fid, parent, t0, t1 = self.arrays()
        counts = sorted(self.counts.items())
        np.savez(path, names=np.array(self.names, dtype=str), fid=fid,
                 parent=parent, t0=t0, t1=t1,
                 count_names=np.array([k for k, _ in counts], dtype=str),
                 count_values=np.array([v for _, v in counts], dtype=float))

    def merge(self, path, under):
        """Append the spans saved at ``path``; their roots become children of
        span ``under``."""
        with np.load(path) as data:
            remap = np.array([self._name_id(str(n)) for n in data["names"]],
                             dtype=np.int32)
            base = len(self.fid)
            parent = data["parent"]
            parent = np.where(parent < 0, under, parent + base).astype(np.int32)
            self.fid.extend(remap[data["fid"]].tolist())
            self.parent.extend(parent.tolist())
            self.t0.extend(data["t0"].tolist())
            self.t1.extend(data["t1"].tolist())
            for key, value in zip(data["count_names"], data["count_values"]):
                self.counts[str(key)] = self.counts.get(str(key), 0) + float(value)


class Profile:
    """Per-name call counts, inclusive and self time over a set of spans."""

    def __init__(self, tracer: Tracer, mask=None):
        fid, parent, t0, t1 = tracer.arrays()
        dur = t1 - t0
        n = fid.size
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        self_time = dur - child
        if mask is None:
            mask = np.ones(n, dtype=bool)
        k = len(tracer.names)
        sel = fid[mask]
        self._index = {name: i for i, name in enumerate(tracer.names)}
        self.calls_by_id = np.bincount(sel, minlength=k)
        self.incl_by_id = np.bincount(sel, weights=dur[mask], minlength=k)
        self.self_by_id = np.bincount(sel, weights=self_time[mask], minlength=k)
        self.names = list(tracer.names)

    def calls(self, name):
        i = self._index.get(name)
        return int(self.calls_by_id[i]) if i is not None else 0

    def incl(self, name):
        i = self._index.get(name)
        return float(self.incl_by_id[i]) if i is not None else 0.0

    def self_time(self, name):
        i = self._index.get(name)
        return float(self.self_by_id[i]) if i is not None else 0.0

    def per_call(self, name, scale=1.0):
        n = self.calls(name)
        return scale * self.incl(name) / n if n else 0.0

    def layer_self(self):
        """Self time summed by layer (the part of the name before the dot)."""
        out = {}
        for name, value in zip(self.names, self.self_by_id):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + float(value)
        return out


def subtree_mask(tracer: Tracer, name):
    """Spans that are ``name`` spans or run inside one.

    Spans are stored in start order by a single thread, so the subtree of
    span i is the contiguous range of spans starting before span i ends.
    """
    fid, _, t0, t1 = tracer.arrays()
    mask = np.zeros(fid.size + 1, dtype=np.int64)
    target = tracer._ids.get(name)
    if target is None:
        return mask[:-1].astype(bool)
    roots = np.flatnonzero(fid == target)
    stops = np.searchsorted(t0, t1[roots], side="left")
    np.add.at(mask, roots, 1)
    np.add.at(mask, stops, -1)
    return np.cumsum(mask)[:-1] > 0
