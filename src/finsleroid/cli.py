"""Command-line front end: single-point evaluation and batch reports.

Exit codes: 0 success, 1 usage or malformed input, 2 domain error (the
admissible bounds are printed to stderr).  Output is deterministic for a
fixed configuration and seed; CSV floats carry 17 significant digits so
values round-trip exactly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import (
    EmptyDomain,
    FinsleroidError,
    NotFutureTimelike,
    OutsideAxialRegion,
    OutsideClosedFormDomain,
    OutsideEtaDomain,
    OutsideRadialDomain,
    PolarAxisSingular,
    StencilOutOfDomain,
    ThetaPole,
)
from .frame import Parameters, Tetrad, frame_components, projections
from .kernel import (
    angles_from_vector,
    domain_info,
    eta_from_r,
    radial_from_ratios,
    structural_profile,
)
from .indicatrix import indicatrix_curvature
from .limits import reduction_report
from .sampling import DEFAULT_SEED, sample_angles, sample_vectors
from .tensors import metric_determinant_closed, metric_tensor
from . import dual as dm

DOMAIN_ERRORS = (
    NotFutureTimelike,
    OutsideAxialRegion,
    OutsideEtaDomain,
    ThetaPole,
    OutsideRadialDomain,
    EmptyDomain,
    OutsideClosedFormDomain,
    PolarAxisSingular,
    StencilOutOfDomain,
)

CURVATURE_TOLERANCE = 1e-3
REDUCTION_TOLERANCE = 1e-10

EVAL_CSV_COLUMNS = [
    "H", "p", "y0", "y1", "y2", "y3", "b", "w1", "w2", "w3",
    "eta", "theta", "phi", "r", "V", "F", "det_g_numeric", "det_g_closed",
]
SCAN_CSV_COLUMNS = [
    "y0", "y1", "y2", "y3", "eta", "theta", "phi", "F",
    "det_g_numeric", "det_g_closed",
]
CURVATURE_CSV_COLUMNS = [
    "eta", "theta", "phi", "k_eta_theta", "k_eta_phi", "k_theta_phi",
]
DOMAIN_CSV_COLUMNS = ["H", "p", "status", "eta_min", "r_min", "r_sup"]
REDUCTION_CSV_COLUMNS = [
    "H", "p", "samples", "max_abs_dev_v_squared",
    "max_abs_dev_f_squared", "max_abs_det_plus_one", "pass",
]


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _parse_vector(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"--y expects four comma-separated numbers, got {text!r}")
    return np.array([float(t) for t in parts])


def _parse_grid(text: str) -> list[float]:
    return [float(t) for t in text.split(",")]


def _load_tetrad(path: str | None) -> Tetrad:
    if path is None:
        return Tetrad.canonical()
    return Tetrad.from_dict(json.loads(Path(path).read_text()))


def _resolve_seed(args) -> int:
    env = os.environ.get("FINSLEROID_SEED")
    if env is not None:
        return int(env)
    return args.seed


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _to_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _to_csv(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(c)) for c in columns])
    return buf.getvalue()


def evaluate_document(params: Parameters, tetrad: Tetrad, y: np.ndarray) -> dict:
    """Full evaluation document for one vector; keys are schema-stable."""
    dom = domain_info(params)
    b, w1, w2, w3 = projections(y, tetrad)
    if params.p == 1.0 and w3 <= 0.0:
        # axial restriction lifted in the isotropic case
        frame = {
            "b": b, "w1": w1, "w2": w2, "w3": w3,
            "w_perp": math.hypot(w1, w2), "w": None, "t": None,
            "y_perp": b * math.hypot(w1, w2),
            "s2": float(y @ tetrad.a @ y),
        }
        r = float(dm.value(radial_from_ratios(w1, w2, w3, params)))
        eta = eta_from_r(r, params)
        prof = structural_profile(eta, params)
        theta = math.atan2(math.hypot(w1, w2), w3)
        angles = {"eta": eta, "theta": theta, "phi": math.atan2(w2, w1) % (2 * math.pi)}
        bundle = {**vars(prof), "r": r, "F": b * prof.V}
    else:
        fc = frame_components(y, tetrad)
        coords, eb = angles_from_vector(fc, params)
        frame = {**vars(fc), "t": fc.t if math.isfinite(fc.t) else None}
        angles = vars(coords)
        bundle = vars(eb)
    tb = metric_tensor(y, tetrad, params)
    det_closed = metric_determinant_closed(y, tetrad, params)
    return {
        "status": "ok",
        "input": {"H": params.H, "p": params.p, "y": [float(t) for t in y]},
        "domain": {"eta_min": dom.eta_min, "r_min": dom.r_min, "r_sup": dom.r_sup},
        "frame": frame,
        "angles": angles,
        "bundle": bundle,
        "tensors": {
            "l": tb.l.tolist(),
            "h": tb.h.tolist(),
            "g": tb.g.tolist(),
            "det_g_numeric": tb.det_g,
            "det_g_closed": det_closed,
        },
    }


def _cmd_eval(args) -> int:
    params = Parameters(H=args.H, p=args.p)
    tetrad = _load_tetrad(args.tetrad)
    y = _parse_vector(args.y)
    doc = evaluate_document(params, tetrad, y)
    if args.format == "json":
        _emit(_to_json(doc), args.out)
    else:
        row = {
            "H": params.H, "p": params.p,
            "y0": y[0], "y1": y[1], "y2": y[2], "y3": y[3],
            "b": doc["frame"]["b"], "w1": doc["frame"]["w1"],
            "w2": doc["frame"]["w2"], "w3": doc["frame"]["w3"],
            "eta": doc["angles"]["eta"], "theta": doc["angles"]["theta"],
            "phi": doc["angles"]["phi"], "r": doc["bundle"]["r"],
            "V": doc["bundle"]["V"], "F": doc["bundle"]["F"],
            "det_g_numeric": doc["tensors"]["det_g_numeric"],
            "det_g_closed": doc["tensors"]["det_g_closed"],
        }
        _emit(_to_csv(EVAL_CSV_COLUMNS, [row]), args.out)
    return 0


def _cmd_report_curvature(args) -> int:
    params = Parameters(H=args.H, p=args.p)
    rng = np.random.default_rng(_resolve_seed(args))
    rows = []
    worst = 0.0
    for angles in sample_angles(params, args.samples, rng):
        ks = indicatrix_curvature(angles, params)
        row = {
            "eta": angles.eta, "theta": angles.theta, "phi": angles.phi,
            "k_eta_theta": ks[(0, 1)], "k_eta_phi": ks[(0, 2)],
            "k_theta_phi": ks[(1, 2)],
        }
        rows.append(row)
        for v in (ks[(0, 1)], ks[(0, 2)], ks[(1, 2)]):
            worst = max(worst, abs(v + params.H ** 2))
    verdict = "pass" if worst < CURVATURE_TOLERANCE else "fail"
    summary = (
        f"max|K+H^2| = {worst:.6g} "
        f"({'<' if verdict == 'pass' else '>='} {CURVATURE_TOLERANCE:g}: {verdict})"
    )
    if args.format == "json":
        doc = {
            "config": {
                "H": params.H, "p": params.p, "samples": args.samples,
                "seed": _resolve_seed(args),
            },
            "rows": rows,
            "max_abs_k_plus_h_squared": worst,
            "summary": summary,
        }
        _emit(_to_json(doc), args.out)
    else:
        _emit(_to_csv(CURVATURE_CSV_COLUMNS, rows), args.out)
    print(summary, file=sys.stderr)
    return 0


def _cmd_report_domain(args) -> int:
    h_grid = _parse_grid(args.Hgrid) if args.Hgrid else [args.H]
    p_grid = _parse_grid(args.pgrid) if args.pgrid else [args.p]
    rows = []
    for h_val in h_grid:
        for p_val in p_grid:
            row = {"H": h_val, "p": p_val}
            try:
                dom = domain_info(Parameters(H=h_val, p=p_val))
                row.update(
                    status="ok", eta_min=dom.eta_min,
                    r_min=dom.r_min, r_sup=dom.r_sup,
                )
            except EmptyDomain:
                row.update(status="empty", eta_min=None, r_min=None, r_sup=None)
            rows.append(row)
    if args.format == "json":
        _emit(_to_json({"rows": rows}), args.out)
    else:
        _emit(_to_csv(DOMAIN_CSV_COLUMNS, rows), args.out)
    return 0


def _cmd_report_reduction(args) -> int:
    h_grid = _parse_grid(args.Hgrid) if args.Hgrid else [1.1, 1.25, 2.0]
    report = reduction_report(h_grid, args.samples, seed=_resolve_seed(args))
    rows = []
    for key in sorted(report):
        entry = report[key]
        devs = [
            entry.get("max_abs_dev_v_squared"),
            entry.get("max_abs_dev_f_squared"),
            entry.get("max_abs_det_plus_one"),
        ]
        ok = all(d is None or d < REDUCTION_TOLERANCE for d in devs)
        rows.append({
            "H": entry["H"], "p": entry["p"], "samples": entry["samples"],
            "max_abs_dev_v_squared": devs[0],
            "max_abs_dev_f_squared": devs[1],
            "max_abs_det_plus_one": devs[2],
            "pass": ok,
        })
    if args.format == "json":
        doc = {"tolerance": REDUCTION_TOLERANCE, "report": report,
               "rows": rows}
        _emit(_to_json(doc), args.out)
    else:
        _emit(_to_csv(REDUCTION_CSV_COLUMNS, rows), args.out)
    return 0


def _cmd_report_scan(args) -> int:
    params = Parameters(H=args.H, p=args.p)
    tetrad = _load_tetrad(args.tetrad)
    rng = np.random.default_rng(_resolve_seed(args))
    rows = []
    for y in sample_vectors(params, args.samples, rng, tetrad):
        fc = frame_components(y, tetrad)
        coords, eb = angles_from_vector(fc, params)
        tb = metric_tensor(y, tetrad, params)
        rows.append({
            "y0": y[0], "y1": y[1], "y2": y[2], "y3": y[3],
            "eta": coords.eta, "theta": coords.theta, "phi": coords.phi,
            "F": eb.F, "det_g_numeric": tb.det_g,
            "det_g_closed": metric_determinant_closed(y, tetrad, params),
        })
    if args.format == "json":
        _emit(_to_json({"rows": rows}), args.out)
    else:
        _emit(_to_csv(SCAN_CSV_COLUMNS, rows), args.out)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="finsleroid",
        description=(
            "Evaluate the axially anisotropic relativistic norm, its metric "
            "tensors, and the constant-curvature reports."
        ),
        epilog=(
            "CSV columns -- eval: " + ",".join(EVAL_CSV_COLUMNS)
            + " | scan: " + ",".join(SCAN_CSV_COLUMNS)
            + " | curvature: " + ",".join(CURVATURE_CSV_COLUMNS)
            + " | domain: " + ",".join(DOMAIN_CSV_COLUMNS)
            + " | reduction: " + ",".join(REDUCTION_CSV_COLUMNS)
            + ". Floats are printed with 17 significant digits. "
            "FINSLEROID_SEED overrides --seed."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_y=False):
        p.add_argument("--H", type=float, required=True, help="curvature scale, H >= 1")
        p.add_argument("--p", type=float, required=True, help="section scale, 0 < p <= 1")
        p.add_argument("--tetrad", help="JSON file with a 4x4 covector frame")
        if with_y:
            p.add_argument("--y", required=True, help="vector components a,b,c,d")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="write the document here instead of stdout")

    p_eval = sub.add_parser("eval", help="evaluate one vector")
    add_common(p_eval, with_y=True)

    p_report = sub.add_parser("report", help="batch reports")
    rsub = p_report.add_subparsers(dest="kind", required=True)

    p_curv = rsub.add_parser("curvature", help="sectional curvatures of the unit surface")
    add_common(p_curv)
    p_curv.add_argument("--samples", type=int, default=20)
    p_curv.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_dom = rsub.add_parser("domain", help="admissible radial interval over a grid")
    p_dom.add_argument("--H", type=float, default=1.0)
    p_dom.add_argument("--p", type=float, default=1.0)
    p_dom.add_argument("--Hgrid", help="comma list of H values")
    p_dom.add_argument("--pgrid", help="comma list of p values")
    p_dom.add_argument("--format", choices=("json", "csv"), default="json")
    p_dom.add_argument("--out")

    p_red = rsub.add_parser("reduction", help="isotropic closed-form comparison")
    p_red.add_argument("--Hgrid", help="comma list of H values (p = 1 implied)")
    p_red.add_argument("--samples", type=int, default=200)
    p_red.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_red.add_argument("--format", choices=("json", "csv"), default="json")
    p_red.add_argument("--out")

    p_scan = rsub.add_parser("scan", help="norm and determinant over sampled vectors")
    add_common(p_scan)
    p_scan.add_argument("--samples", type=int, default=50)
    p_scan.add_argument("--seed", type=int, default=DEFAULT_SEED)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "report":
            if args.kind == "curvature":
                return _cmd_report_curvature(args)
            if args.kind == "domain":
                return _cmd_report_domain(args)
            if args.kind == "reduction":
                return _cmd_report_reduction(args)
            if args.kind == "scan":
                return _cmd_report_scan(args)
        parser.error(f"unknown command {args.command!r}")
    except DOMAIN_ERRORS as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        try:
            dom = domain_info(Parameters(H=args.H, p=args.p))
            print(
                f"admissible domain: eta_min={dom.eta_min!r}, "
                f"r_min={dom.r_min!r}, r_sup={dom.r_sup!r}",
                file=sys.stderr,
            )
        except (FinsleroidError, AttributeError):
            pass
        return 2
    except (ValueError, OSError, json.JSONDecodeError, FinsleroidError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
