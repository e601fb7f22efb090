"""Spans around the public functions of each layer, from outside the program.

``Tracer.install`` rebinds each listed function in every ``finsleroid.*``
module namespace that holds it (and on the class, for
``Tetrad.canonical``); ``Tracer.restore`` puts every original back.  A
span records its name, start, end, parent span and operation id; spans
stay in memory until the run writes them out.  The program's own code is
not modified: wrappers only time, count and pass values through.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import finsleroid as fs

# (layer, attribute) of every wrapped function; the span name is
# "<layer>.<attribute>".  limits (an oracle) and errors (no work) are not
# traced.
TRACED = (
    ("kernel", "eta_from_r"),
    ("kernel", "hyperbolic_profile"),
    ("kernel", "radial_from_ratios"),
    ("kernel", "angles_from_vector"),
    ("kernel", "finsler_norm"),
    ("tensors", "metric_tensor"),
    ("tensors", "unit_covector"),
    ("tensors", "angular_metric"),
    ("tensors", "metric_determinant_closed"),
    ("dual", "hessian"),
    ("frame", "Tetrad.canonical"),
    ("frame", "frame_components"),
    ("indicatrix", "indicatrix_metric"),
    ("indicatrix", "section_metric"),
    ("indicatrix", "indicatrix_curvature"),
    ("indicatrix", "section_curvature"),
    ("curvature", "christoffel"),
    ("curvature", "coordinate_plane_curvatures"),
    ("sampling", "sample_vectors"),
    ("sampling", "sample_angles"),
    ("cli", "evaluate_document"),
)

SETUP_OP = -1


class Tracer:
    """In-memory span recorder; install, run, restore, then summarise."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.newton_iterations: list[int] = []
        self.op = SETUP_OP
        self._stack: list[int] = []
        self._saved: list = []

    def _timed(self, name, call):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return call()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            return self._timed(name, lambda: fn(*args, **kwargs))

        return wrapper

    def _wrap_eta(self, name, fn):
        """eta_from_r wrapper: always asks for the Newton count, returns as asked."""

        def wrapper(r, params, *, with_iterations=False):
            eta, iterations = self._timed(
                name, lambda: fn(r, params, with_iterations=True)
            )
            self.newton_iterations.append(iterations)
            return (eta, iterations) if with_iterations else eta

        return wrapper

    def install(self):
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "finsleroid" or key.startswith("finsleroid."))
        ]
        for layer, attr in TRACED:
            name = f"{layer}.{attr}"
            if attr == "Tetrad.canonical":
                original = fs.Tetrad.__dict__["canonical"]
                wrapped = self._wrap(name, original.__func__)
                self._rebind(fs.Tetrad, "canonical", original, classmethod(wrapped))
                continue
            original = getattr(sys.modules[f"finsleroid.{layer}"], attr)
            make = self._wrap_eta if attr == "eta_from_r" else self._wrap
            wrapped = make(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, original, wrapped)

    def _rebind(self, owner, key, original, replacement):
        setattr(owner, key, replacement)
        self._saved.append((owner, key, original))

    def restore(self):
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def summary(self) -> dict:
        """Per span name: operation calls and self seconds, set-up seconds.

        Self time is a span's duration minus the time its direct children
        cover; spans of one thread nest, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "setup_total_s": 0.0})
        for index, (name, start, end, _, op) in enumerate(self.spans):
            entry = out[name]
            if op == SETUP_OP:
                entry["setup_total_s"] += end - start
            else:
                entry["calls"] += 1
                entry["self_s"] += end - start - child[index]
        return dict(out)

    def write(self, path: str):
        """Spans as JSON: a name table and one [name, start, end, parent, op] row each."""
        names = sorted({span[0] for span in self.spans})
        index = {name: k for k, name in enumerate(names)}
        doc = {
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [[index[n], s, e, p, o] for n, s, e, p, o in self.spans],
            "newton_iterations": self.newton_iterations,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
