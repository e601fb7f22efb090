#!/usr/bin/env python3
"""Layered benchmark of finsleroid: end-to-end figures or a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tensor_scan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` runs a fixed list of operations once plain and once
with every layer's public functions wrapped, checks that both give
bit-identical outputs, and prints the per-layer metrics.  Human-readable
lines come first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Workloads, metrics and their layers are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

WORKLOAD_NAMES = ("tensor_scan", "norm_inversion", "curvature")
WINDOW_S = 0.05
SETUP_PROBES = 7
IMPORT_PROBES = 3
SUBPROCESS_TIMEOUT_S = 60.0
MAX_LISTED_FAILURES = 20
SRC_MODULES = (
    "__init__", "__main__", "cli", "curvature", "dual", "errors", "frame",
    "indicatrix", "kernel", "limits", "sampling", "tensors",
)

E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_us": "us",
    "latency_tail_us": "us",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _require_program():
    """Put the checkout's src/ first on the path, or stop without a result."""
    if not os.path.isfile(os.path.join(SRC, "finsleroid", "__init__.py")):
        print(f"perfbench: no finsleroid package under {SRC}; "
              "run from the root of a finsleroid checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)


def _attempt(op, item, errors):
    """Run one operation; a program error is returned, not raised."""
    try:
        return op(item), None
    except errors as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _item_text(item) -> str:
    params, *rest = item
    parts = [f"H={params.H!r}", f"p={params.p!r}"]
    for value in rest:
        parts.append(repr(value.tolist() if hasattr(value, "tolist") else value))
    return " ".join(parts)


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def _warm_up(wl, inputs, op):
    for item in inputs[: wl.warmup_ops]:
        op(item)


class TimedLoop:
    """Closed loop over `inputs` in windows of at least WINDOW_S.

    The inputs are cycled in order across calls of `run`, so that the
    repetitions of each are spread over the whole run; `best` holds each
    input's best time (see measure.py).  Checks run between windows,
    outside the timed section.
    """

    def __init__(self, wl, inputs, chooser, errors):
        self.wl = wl
        self.inputs = inputs
        self.chooser = chooser
        self.errors = errors
        self.best = array("d", [math.inf]) * len(inputs)
        self.failures = []
        self.attempted = 0

    def run(self, seconds):
        n = len(self.inputs)
        timed = 0.0
        while timed < seconds:
            self.chooser.choose()
            done = []
            start = time.perf_counter()
            while True:
                k = self.attempted % n
                item = self.inputs[k]
                t0 = time.perf_counter()
                out, error = _attempt(self.wl.op, item, self.errors)
                t1 = time.perf_counter()
                self.best[k] = min(self.best[k], t1 - t0)
                self.attempted += 1
                done.append((item, out, error))
                if t1 - start >= WINDOW_S:
                    break
            timed += t1 - start
            for item, out, error in done:
                problem = error or self.wl.check(item, out)
                if problem:
                    self.failures.append((item, problem))


def _setup_sample(name, seed, chooser):
    """Time from process start to the first timed operation.

    The sample is a fresh interpreter that imports the program, builds the
    seeded inputs and warms up, then reports ready.
    """
    from workloads import program_env

    chooser.choose()
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=program_env()) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=SUBPROCESS_TIMEOUT_S)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {name} exited {code}")
    return elapsed


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _print_failures(name, failures):
    for item, problem in failures[:MAX_LISTED_FAILURES]:
        print(f"FAIL {name} {_item_text(item)}: {problem}")
    if len(failures) > MAX_LISTED_FAILURES:
        print(f"FAIL {name} ... {len(failures) - MAX_LISTED_FAILURES} more")


def run_end_to_end(wl, seed, seconds):
    import measure
    from workloads import PROGRAM_ERRORS

    inputs = wl.build(seed)
    _warm_up(wl, inputs, wl.op)
    chooser = measure.CoreChooser()
    loop = TimedLoop(wl, inputs, chooser, PROGRAM_ERRORS)
    # Set-up samples are spread over the run, so that one busy spell of
    # the host does not take them all.
    setup_samples = []
    for _ in range(SETUP_PROBES):
        loop.run(seconds / SETUP_PROBES)
        setup_samples.append(_setup_sample(wl.name, seed, chooser))
    chooser.release()
    rss = _peak_rss_mb()
    stats = measure.timing_stats(loop.best)
    failures, attempted = loop.failures, loop.attempted

    values = {
        "setup_s": statistics.median(setup_samples),
        "throughput_per_s": stats["throughput_per_s"],
        "latency_p50_us": stats["latency_p50_us"],
        "latency_tail_us": stats["latency_tail_us"],
        "peak_rss_mb": rss,
    }
    print(f"workload {wl.name}  seed {seed}  seconds {seconds:g}  env {json.dumps(_environment())}")
    print(f"  inputs: {wl.describe(inputs)}")
    notes = {
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setup_samples),
        "throughput_per_s": (f"{stats['inputs']} inputs at their best of "
                             f"{attempted // len(inputs)}+ repetitions; {attempted} ops"),
        "latency_p50_us": f"over {stats['inputs']} inputs",
        "latency_tail_us": f"p{stats['tail_percentile']:.4g} over {stats['inputs']} inputs",
        "peak_rss_mb": "this process",
    }
    for key, value in values.items():
        print(f"  {key:<18} {value:>14.6g} {E2E_UNITS[key]:<4} ({notes[key]})")
    print(f"  {'error_rate':<18} {len(failures) / attempted:>14.6g} {'1':<4} "
          f"({len(failures)} of {attempted} failed)")
    _print_failures(wl.name, failures)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()},
    }


def _import_seconds(module: str) -> float:
    """Median import time of `module` over fresh interpreters."""
    from workloads import program_env

    code = (f"import time; t = time.perf_counter(); import {module}; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], env=program_env(), capture_output=True,
                              text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True)
        samples.append(float(proc.stdout.strip()))
    return statistics.median(samples)


def _src_lines() -> dict:
    counts = {}
    total = 0
    package = os.path.join(SRC, "finsleroid")
    for filename in sorted(os.listdir(package)):
        if filename.endswith(".py"):
            with open(os.path.join(package, filename)) as fh:
                lines = sum(1 for _ in fh)
            total += lines
            counts[filename[:-3]] = lines
    out = {"src.lines": total}
    for module in SRC_MODULES:
        out[f"src.{module}.lines"] = counts.get(module, 0)
    return out


def _cli_layer(seed):
    """Self time per call of cli.evaluate_document on the CLI vectors, in process.

    Its own tracer keeps these calls out of the workload's counts; the
    vectors and the result are the same on every workload.
    """
    import tracing
    from workloads import PROGRAM_ERRORS, build_cli, check_cli, cli_in_process

    items = build_cli(seed)
    tracer = tracing.Tracer()
    with tracer:
        tracer.op = 0
        docs = [_attempt(cli_in_process, item, PROGRAM_ERRORS) for item in items]
    failures = []
    for item, (doc, error) in zip(items, docs):
        problem = error or check_cli(item, doc)
        if problem:
            failures.append((item, f"cli: {problem}"))
    self_s = tracer.summary().get("cli.evaluate_document", {}).get("self_s", 0.0)
    return self_s / len(items) * 1e6, len(items), failures


def run_traced(wl, seed):
    """Fixed operation list, plain then traced; per-layer metrics per operation.

    The list length is fixed per workload, so counts repeat exactly for a
    seed; --seconds does not apply.
    """
    import measure
    import tracing
    from workloads import PROGRAM_ERRORS as errors

    op = wl.op
    tracer = tracing.Tracer()
    with tracer:
        inputs = wl.build(seed)
    _warm_up(wl, inputs, op)
    items = [inputs[k % len(inputs)] for k in range(wl.trace_ops)]
    chooser = measure.CoreChooser()

    chooser.choose()
    start = time.perf_counter()
    plain = [_attempt(op, item, errors) for item in items]
    plain_s = time.perf_counter() - start

    chooser.choose()
    traced = []
    with tracer:
        start = time.perf_counter()
        for k, item in enumerate(items):
            tracer.op = k
            traced.append(_attempt(op, item, errors))
        traced_s = time.perf_counter() - start
        tracer.op = tracing.SETUP_OP
    chooser.release()

    failures = []
    mismatches = 0
    for item, (out, error), (ref, ref_error) in zip(items, traced, plain):
        problem = error or wl.check(item, out)
        if problem:
            failures.append((item, problem))
        elif ref_error or wl.fingerprint(out) != wl.fingerprint(ref):
            mismatches += 1
            failures.append((item, "traced output differs from untraced output"))

    cli_us, cli_items, cli_failures = _cli_layer(seed)
    failures += cli_failures
    n = len(items)
    summary = tracer.summary()

    def calls(name):
        return summary.get(name, {}).get("calls", 0) / n

    def self_us(name):
        return summary.get(name, {}).get("self_s", 0.0) / n * 1e6

    def setup_s(name):
        return summary.get(name, {}).get("setup_total_s", 0.0)

    iterations = tracer.newton_iterations
    per_op = "calls/op"
    values = {
        "kernel.eta_from_r.calls_per_op": (calls("kernel.eta_from_r"), per_op),
        "kernel.eta_from_r.self_us_per_op": (self_us("kernel.eta_from_r"), "us/op"),
        "kernel.newton_iters_mean": (statistics.fmean(iterations) if iterations else 0.0, "iters"),
        "kernel.newton_iters_max": (max(iterations, default=0), "iters"),
        "kernel.hyperbolic_profile.calls_per_op": (calls("kernel.hyperbolic_profile"), per_op),
        "kernel.radial_from_ratios.calls_per_op": (calls("kernel.radial_from_ratios"), per_op),
        "kernel.angles_from_vector.self_us_per_op": (self_us("kernel.angles_from_vector"), "us/op"),
        "kernel.finsler_norm.self_us_per_op": (self_us("kernel.finsler_norm"), "us/op"),
        "tensors.metric_tensor.self_us_per_op": (self_us("tensors.metric_tensor"), "us/op"),
        "tensors.unit_covector.self_us_per_op": (self_us("tensors.unit_covector"), "us/op"),
        "tensors.angular_metric.calls_per_op": (calls("tensors.angular_metric"), per_op),
        "tensors.angular_metric.self_us_per_op": (self_us("tensors.angular_metric"), "us/op"),
        "tensors.metric_determinant_closed.self_us_per_op":
            (self_us("tensors.metric_determinant_closed"), "us/op"),
        "dual.hessian.calls_per_op": (calls("dual.hessian"), per_op),
        "dual.hessian.self_us_per_op": (self_us("dual.hessian"), "us/op"),
        "frame.Tetrad.canonical.calls_per_op": (calls("frame.Tetrad.canonical"), per_op),
        "frame.frame_components.self_us_per_op": (self_us("frame.frame_components"), "us/op"),
        "indicatrix.indicatrix_metric.calls_per_op": (calls("indicatrix.indicatrix_metric"), per_op),
        "indicatrix.section_metric.calls_per_op": (calls("indicatrix.section_metric"), per_op),
        "indicatrix.indicatrix_curvature.self_us_per_op":
            (self_us("indicatrix.indicatrix_curvature"), "us/op"),
        "curvature.christoffel.calls_per_op": (calls("curvature.christoffel"), per_op),
        "curvature.coordinate_plane_curvatures.self_us_per_op":
            (self_us("curvature.coordinate_plane_curvatures"), "us/op"),
        "sampling.sample_vectors.s": (setup_s("sampling.sample_vectors"), "s"),
        "sampling.sample_angles.s": (setup_s("sampling.sample_angles"), "s"),
        "cli.import_finsleroid_s": (_import_seconds("finsleroid"), "s"),
        "cli.import_numpy_s": (_import_seconds("numpy"), "s"),
        "cli.evaluate_document.self_us_per_op": (cli_us, "us/op"),
        "trace.spans_per_op": (sum(1 for s in tracer.spans if s[4] >= 0) / n, "spans/op"),
        "trace.untraced_us_per_op": (plain_s / n * 1e6, "us/op"),
        "trace.overhead_us_per_op": ((traced_s - plain_s) / n * 1e6, "us/op"),
    }
    values.update({k: (v, "lines") for k, v in _src_lines().items()})

    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"trace-{wl.name}-seed{seed}.json")
    tracer.write(spans_path)

    print(f"workload {wl.name}  seed {seed}  traced ops {n}  env {json.dumps(_environment())}")
    print(f"  inputs: {wl.describe(inputs)}")
    print(f"  spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
    print(f"  outputs bit-identical to the untraced run: {mismatches == 0}")
    for key, (value, unit) in values.items():
        print(f"  {key:<52} {value:>14.6g} {unit}")
    _print_failures(wl.name, failures)
    return {
        "correct": not failures,
        "attempted": n + cli_items,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    _require_program()
    from workloads import WORKLOADS

    if args.setup_probe:
        wl = WORKLOADS[args.workload]
        _warm_up(wl, wl.build(args.seed), wl.op)
        print("ready", flush=True)
        return 0
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        if args.trace:
            result = run_traced(WORKLOADS[name], args.seed)
        else:
            result = run_end_to_end(WORKLOADS[name], args.seed, args.seconds)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
