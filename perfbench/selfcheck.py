#!/usr/bin/env python3
"""Self-test of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/selfcheck.py

Checks that a short run of every workload emits every metric named in
BENCHMARK.json with its unit and no failed operation; that corrupted
outputs are caught and counted as failures; that inputs depend on the
seed and on nothing else; that the traced run counts the calls the seed
code makes and restores every function it wrapped; and that the command
fails without a result where the program is missing.  Exits 1 if any
check fails.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import finsleroid as fs  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import PROGRAM_ERRORS, WORKLOADS, build_cli, check_cli, cli_in_process  # noqa: E402

SEED = 1


class CheckFailed(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def _result(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=run.SUBPROCESS_TIMEOUT_S)
    expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_small_runs():
    """Every workload, both modes: all declared metrics, right units, nothing failed."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        for workload in run.WORKLOAD_NAMES:
            result = _result(workload, trace)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload}: result keys {sorted(result)}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == declared, f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                   f"{sorted(set(got) ^ set(declared))}")
            expect(result["attempted"] >= 1, f"{workload}: nothing attempted")
            expect(result["failed"] == 0 and result["correct"],
                   f"{workload} trace={trace}: {result['failed']} of {result['attempted']} failed")


def _corrupt_scan(out, how):
    coords, bundle, tb, det_closed = out
    if how == "det":
        return coords, bundle, tb, det_closed * (1.0 + 1e-6)
    if how == "l":
        return coords, bundle, dataclasses.replace(tb, l=tb.l * (1.0 + 1e-8)), det_closed
    if how == "g":
        return coords, bundle, dataclasses.replace(tb, g=tb.g * (1.0 + 1e-8)), det_closed
    return coords, bundle, dataclasses.replace(tb, g=-tb.g, det_g=tb.det_g), det_closed


def _corruptions(name, out):
    """Outputs that are each wrong in one checked quantity."""
    if name == "tensor_scan":
        return [_corrupt_scan(out, how) for how in ("det", "l", "g", "signature")]
    if name == "norm_inversion":
        return [out * (1.0 + 1e-8)]
    if name == "curvature":
        planes, k_section = out
        worse = dict(planes)
        worse[(0, 1)] += 2e-3
        return [(worse, k_section), (planes, k_section + 2e-3)]
    wrong_det = copy.deepcopy(out)
    wrong_det["tensors"]["det_g_closed"] *= 1.0 + 1e-6
    return [wrong_det, {**out, "status": "error"}, None]


def check_corruption_is_caught():
    """The checker is not vacuous: each corrupted output fails, the real one passes."""
    cases = [(name, wl.build, wl.op, wl.check) for name, wl in WORKLOADS.items()]
    cases.append(("cli", build_cli, cli_in_process, check_cli))
    for name, build, op, check in cases:
        item = build(SEED)[0]
        out = op(item)
        expect(check(item, out) is None, f"{name}: correct output rejected")
        for k, bad in enumerate(_corruptions(name, out)):
            expect(check(item, bad) is not None, f"{name}: corruption {k} not caught")
    # and the timed loop counts them
    wl = WORKLOADS["norm_inversion"]
    broken = dataclasses.replace(wl, op=lambda item: wl.op(item) * (1.0 + 1e-8))
    loop = run.TimedLoop(broken, wl.build(SEED), measure.CoreChooser(), PROGRAM_ERRORS)
    loop.run(0.2)
    expect(loop.attempted > 0 and len(loop.failures) == loop.attempted,
           f"timed loop counted {len(loop.failures)} failures of {loop.attempted} corrupted operations")


def _input_bytes(inputs) -> bytes:
    parts = []
    for item in inputs:
        for value in item:
            if isinstance(value, np.ndarray):
                parts.append(value.tobytes())
            else:
                parts.append(repr(value).encode())
    return b"|".join(parts)


def check_seeding():
    builders = {name: wl.build for name, wl in WORKLOADS.items()}
    builders["cli"] = build_cli
    for name, build in builders.items():
        first = _input_bytes(build(SEED))
        expect(first == _input_bytes(build(SEED)), f"{name}: same seed, different inputs")
        expect(first != _input_bytes(build(SEED + 1)), f"{name}: different seeds, same inputs")


def _traced_calls(fn) -> dict:
    tracer = tracing.Tracer()
    with tracer:
        tracer.op = 0
        fn()
    return {name: entry["calls"] for name, entry in tracer.summary().items()}


def _bindings():
    out = {}
    for key, module in sys.modules.items():
        if key == "finsleroid" or key.startswith("finsleroid."):
            for attr, value in vars(module).items():
                if callable(value):
                    out[(key, attr)] = value
    out[("Tetrad", "canonical")] = fs.Tetrad.__dict__["canonical"]
    return out


def check_traced_counts():
    """Seed call counts per operation, and every wrapped name restored."""
    before = _bindings()
    scan = WORKLOADS["tensor_scan"]
    row = next(item for item in scan.build(SEED) if item[0].p < 1.0)
    calls = _traced_calls(lambda: scan.op(row))
    for name, count in (("kernel.eta_from_r", 5), ("dual.hessian", 2),
                        ("frame.Tetrad.canonical", 5), ("kernel.radial_from_ratios", 14)):
        expect(calls.get(name) == count, f"tensor_scan row: {name} {calls.get(name)} != {count}")

    params, angles = WORKLOADS["curvature"].build(SEED)[1]
    calls = _traced_calls(lambda: fs.indicatrix_curvature(angles, params))
    for name in ("indicatrix.indicatrix_metric", "tensors.angular_metric",
                 "kernel.eta_from_r", "dual.hessian"):
        expect(calls.get(name) == 169, f"curvature point: {name} {calls.get(name)} != 169")
    calls = _traced_calls(lambda: fs.section_curvature(angles.theta, params))
    expect(calls.get("indicatrix.section_metric") == 81,
           f"section point: section_metric {calls.get('indicatrix.section_metric')} != 81")

    norm = WORKLOADS["norm_inversion"]
    calls = _traced_calls(lambda: norm.op(norm.build(SEED)[0]))
    expect(calls.get("kernel.eta_from_r") == 1, f"norm: eta_from_r {calls.get('kernel.eta_from_r')} != 1")

    after = _bindings()
    changed = [key for key in before if before[key] is not after.get(key)]
    expect(not changed, f"not restored after tracing: {changed}")


def check_missing_program_fails():
    """In a directory with only BENCHMARK.json and perfbench/, no result is printed."""
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for filename in os.listdir(HERE):
            if filename.endswith((".py", ".md")):
                shutil.copy(os.path.join(HERE, filename), os.path.join(bare, "perfbench"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "tensor_scan", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=run.SUBPROCESS_TIMEOUT_S)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "benchmark succeeded without the program")
    expect(not proc.stdout.strip(), f"printed a result without the program: {proc.stdout[-200:]}")


CHECKS = (
    check_seeding,
    check_corruption_is_caught,
    check_traced_counts,
    check_missing_program_fails,
    check_small_runs,
)


def main() -> int:
    failed = 0
    for check in CHECKS:
        try:
            check()
            print(f"PASS {check.__name__}", flush=True)
        except CheckFailed as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
