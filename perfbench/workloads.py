"""The three benchmark workloads: seeded inputs, one operation, its check.

Every workload is a closed loop with one caller: the next operation starts
only after the last one returned.  Inputs are built from the seed alone,
so the same seed gives the same inputs.  Each operation's output is
checked against the acceptance-suite tolerances after it has been timed.

The operations call the program through the ``finsleroid`` package
namespace at call time, so that the traced run, which rebinds those names,
sees every call.  The CLI vectors at the end are not a workload: the
traced run evaluates them in process to time the cli layer.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import finsleroid as fs
from finsleroid import cli

# (H, p) pairs.  tensor_scan and norm_inversion mix p = 1 with p < 1;
# curvature uses the acceptance-suite pairs.
SCAN_PAIRS = ((1.0, 1.0), (1.25, 1.0), (1.25, 0.8), (1.5, 0.9), (2.0, 0.5))
CURVATURE_PAIRS = ((1.0, 1.0), (1.25, 0.8), (1.5, 0.9), (2.0, 0.5))
CLI_PAIRS_AXIAL = ((1.25, 0.8), (1.5, 0.9), (2.0, 0.5))
CLI_PAIRS_ISOTROPIC = ((1.0, 1.0), (1.25, 1.0))

# Inputs per pair.  The timed loop cycles through them in order, pairs
# interleaved, so every stretch of the run sees the same mix of pairs.
# Each input is timed at its best repetition (see measure.py), so a run
# must repeat every input many times: a few dozen times in a 25 s run.
SCAN_PER_PAIR = 100
NORM_PER_PAIR = 400
CURVATURE_PER_PAIR = 6
CLI_VECTORS = 40

# norm_inversion: eta - eta_min is log-uniform on [FLOOR_LO, FLOOR_HI].
FLOOR_LO = 1e-10
FLOOR_HI = 5.0
NEAR_FLOOR = 1e-3
NORM_THETA_MARGIN = 0.15

CURVATURE_MARGIN = 0.2
CURVATURE_TOLERANCE = 1e-3
DET_TOLERANCE = 1e-9
IDENTITY_TOLERANCE = 1e-10

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(fs.__file__)))


@dataclass(frozen=True)
class Workload:
    """One workload: how to build its inputs, run an operation, check it."""

    name: str
    build: Callable[[int], list]
    op: Callable
    check: Callable
    fingerprint: Callable
    describe: Callable[[list], str]
    warmup_ops: int
    trace_ops: int


def _params(pairs):
    return [fs.Parameters(H=h, p=p) for h, p in pairs]


def _interleave(per_pair: list[list]) -> list:
    """Round-robin merge of equally long per-pair lists."""
    return [item for group in zip(*per_pair) for item in group]


def _frame_vector(fc) -> np.ndarray:
    """Vector in the canonical frame (natural coordinates) from its components."""
    return np.array([fc.b, fc.b * fc.w1, fc.b * fc.w2, fc.b * fc.w3])


def _floats(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


# --- tensor_scan --------------------------------------------------------

def build_scan(seed: int) -> list:
    rng = np.random.default_rng(seed)
    per_pair = []
    for params in _params(SCAN_PAIRS):
        vectors = fs.sample_vectors(params, SCAN_PER_PAIR, rng)
        per_pair.append([(params, y) for y in vectors])
    return _interleave(per_pair)


def scan_row(item):
    """One row of ``report scan`` with the default (canonical) frame."""
    params, y = item
    fc = fs.frame_components(y)
    coords, bundle = fs.angles_from_vector(fc, params)
    tb = fs.metric_tensor(y, None, params)
    det_closed = fs.metric_determinant_closed(y, None, params)
    return coords, bundle, tb, det_closed


def check_scan(item, out) -> str | None:
    params, y = item
    _, bundle, tb, det_closed = out
    f = bundle.F
    if not abs(tb.det_g - det_closed) < DET_TOLERANCE * abs(det_closed):
        return f"det_LU={tb.det_g!r} det_closed={det_closed!r}"
    if not abs(float(tb.l @ y) - f) <= IDENTITY_TOLERANCE * f:
        return f"l.y={float(tb.l @ y)!r} F={f!r}"
    if not abs(float(y @ tb.g @ y) - f * f) <= IDENTITY_TOLERANCE * f * f:
        return f"y.g.y={float(y @ tb.g @ y)!r} F^2={f * f!r}"
    signs = tuple(int(np.sign(e)) for e in sorted(np.linalg.eigvalsh(tb.g), reverse=True))
    if signs != (1, -1, -1, -1):
        return f"signature {signs}"
    return None


def scan_fingerprint(out) -> bytes:
    coords, bundle, tb, det_closed = out
    return _floats(
        [coords.eta, coords.theta, coords.phi, bundle.F, tb.det_g, tb.F, det_closed,
         *tb.l, *tb.h.ravel(), *tb.g.ravel()]
    )


def describe_scan(inputs) -> str:
    return (
        f"{len(inputs)} vectors from sample_vectors, {SCAN_PER_PAIR} per pair "
        f"(H,p) in {list(SCAN_PAIRS)}"
    )


# --- norm_inversion -----------------------------------------------------

def build_norm(seed: int) -> list:
    """Vectors whose hyperbolic angle sits log-uniformly above the floor."""
    rng = np.random.default_rng(seed)
    per_pair = []
    for params in _params(SCAN_PAIRS):
        dom = fs.domain_info(params)
        pole = fs.theta_pole(params)
        items = []
        for _ in range(NORM_PER_PAIR):
            gap = math.exp(rng.uniform(math.log(FLOOR_LO), math.log(FLOOR_HI)))
            angles = fs.AngleCoords(
                eta=dom.eta_min + gap,
                theta=rng.uniform(NORM_THETA_MARGIN, pole - NORM_THETA_MARGIN),
                phi=rng.uniform(0.0, 2.0 * math.pi),
            )
            norm = rng.uniform(0.5, 3.0)
            y = _frame_vector(fs.vector_from_angles(angles, norm, params))
            items.append((params, y, norm, gap))
        per_pair.append(items)
    return _interleave(per_pair)


def norm_op(item):
    params, y, _, _ = item
    return fs.finsler_norm(y, None, params)


def check_norm(item, out) -> str | None:
    norm = item[2]
    if not abs(out - norm) <= IDENTITY_TOLERANCE * norm:
        return f"F={out!r} expected {norm!r}"
    return None


def describe_norm(inputs) -> str:
    near = sum(1 for item in inputs if item[3] < NEAR_FLOOR)
    return (
        f"{len(inputs)} vectors, {NORM_PER_PAIR} per pair (H,p) in {list(SCAN_PAIRS)}; "
        f"eta-eta_min log-uniform on [{FLOOR_LO:g}, {FLOOR_HI:g}], "
        f"{near / len(inputs):.1%} within {NEAR_FLOOR:g} of the floor"
    )


# --- curvature ----------------------------------------------------------

def build_curvature(seed: int) -> list:
    rng = np.random.default_rng(seed)
    per_pair = []
    for params in _params(CURVATURE_PAIRS):
        points = fs.sample_angles(
            params, CURVATURE_PER_PAIR, rng,
            eta_margin=CURVATURE_MARGIN, theta_margin=CURVATURE_MARGIN,
        )
        per_pair.append([(params, angles) for angles in points])
    return _interleave(per_pair)


def curvature_op(item):
    params, angles = item
    planes = fs.indicatrix_curvature(angles, params)
    return planes, fs.section_curvature(angles.theta, params)


def check_curvature(item, out) -> str | None:
    params, _ = item
    planes, k_section = out
    for plane, k in sorted(planes.items()):
        if not abs(k + params.H ** 2) < CURVATURE_TOLERANCE:
            return f"K{plane}={k!r} expected {-params.H ** 2!r}"
    if not abs(k_section - params.p ** 2) < CURVATURE_TOLERANCE:
        return f"K_section={k_section!r} expected {params.p ** 2!r}"
    return None


def curvature_fingerprint(out) -> bytes:
    planes, k_section = out
    return _floats([planes[key] for key in sorted(planes)] + [k_section])


def describe_curvature(inputs) -> str:
    return (
        f"{len(inputs)} points from sample_angles (margins {CURVATURE_MARGIN}), "
        f"{CURVATURE_PER_PAIR} per pair (H,p) in {list(CURVATURE_PAIRS)}"
    )


# --- cli (timed in the traced run only) --------------------------------

def build_cli(seed: int) -> list:
    """Alternate p < 1 vectors with p = 1 vectors mirrored to w3 < 0.

    The mirrored ones take the isotropic branch of evaluate_document.
    """
    rng = np.random.default_rng(seed)
    axial = _params(CLI_PAIRS_AXIAL)
    isotropic = _params(CLI_PAIRS_ISOTROPIC)
    items = []
    for k in range(CLI_VECTORS):
        if k % 2 == 0:
            params = axial[(k // 2) % len(axial)]
            y = fs.sample_vectors(params, 1, rng)[0]
        else:
            params = isotropic[(k // 2) % len(isotropic)]
            y = fs.sample_vectors(params, 1, rng)[0] * np.array([1.0, 1.0, 1.0, -1.0])
        items.append((params, y))
    return items


def cli_in_process(item):
    """What one ``python -m finsleroid eval`` process computes, called in this process."""
    params, y = item
    return cli.evaluate_document(params, fs.Tetrad.canonical(), y)


def check_cli(item, doc) -> str | None:
    if not isinstance(doc, dict) or doc.get("status") != "ok":
        return f"not an ok document: {str(doc)[:200]}"
    try:
        det_lu = float(doc["tensors"]["det_g_numeric"])
        det_closed = float(doc["tensors"]["det_g_closed"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"no determinants in the document: {exc!r}"
    if not abs(det_lu - det_closed) < DET_TOLERANCE * abs(det_closed):
        return f"det_LU={det_lu!r} det_closed={det_closed!r}"
    return None


def program_env() -> dict:
    """Environment for a fresh interpreter that imports this checkout's program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# An operation raising one of these failed; anything else is a benchmark bug.
PROGRAM_ERRORS = (fs.FinsleroidError,)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tensor_scan",
            build=build_scan, op=scan_row, check=check_scan,
            fingerprint=scan_fingerprint, describe=describe_scan,
            warmup_ops=len(SCAN_PAIRS), trace_ops=1000,
        ),
        Workload(
            name="norm_inversion",
            build=build_norm, op=norm_op, check=check_norm,
            fingerprint=_floats, describe=describe_norm,
            warmup_ops=len(SCAN_PAIRS), trace_ops=4000,
        ),
        Workload(
            name="curvature",
            build=build_curvature, op=curvature_op, check=check_curvature,
            fingerprint=curvature_fingerprint, describe=describe_curvature,
            warmup_ops=len(CURVATURE_PAIRS), trace_ops=12,
        ),
    )
}
