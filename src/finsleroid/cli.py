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

from .errors import DomainError, EmptyDomain, FinsleroidError
from .frame import FrameComponents, Parameters, Tetrad, _s2, frame_components, projections
from .kernel import (EvalBundle, _azimuth, _inverted_profile, _log_spiral, angles_from_vector,
                     domain_info)
from .indicatrix import indicatrix_curvature
from .limits import reduction_report
from .sampling import DEFAULT_SEED, sample_angles, sample_vectors
from .tensors import metric_determinant_closed, metric_tensor

CURVATURE_TOLERANCE = 1e-3  # on max|K + H^2| / H^2
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
REDUCTION_DEVIATIONS = [
    "max_abs_dev_v_squared", "max_abs_dev_f_squared", "max_abs_det_plus_one",
]
REDUCTION_CSV_COLUMNS = ["H", "p", "samples", *REDUCTION_DEVIATIONS, "pass"]


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        if message.startswith("argument --y:"):  # "-2,..." reads as an option
            message += "; write --y=-2,... when the first component is negative"
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        # a sub-command reports what it does not recognize under its own usage line
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _parse_floats(text: str, option: str, what: str = "comma-separated numbers") -> list[float]:
    try:
        return [float(t) for t in text.split(",")]
    except ValueError:
        raise ValueError(f"{option} expects {what}, got {text!r}") from None


def _parse_vector(text: str) -> np.ndarray:
    what = "four comma-separated numbers"
    values = _parse_floats(text, "--y", what)
    if len(values) != 4:
        raise ValueError(f"--y expects {what}, got {text!r}")
    return np.array(values)


def _sample_count(text: str) -> int:
    """argparse type of ``--samples``: a positive integer."""
    try:
        count = int(text)
    except ValueError:  # argparse's own wording for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {count}")
    return count


def _load_tetrad(path: str | None) -> Tetrad:
    if path is None:
        return Tetrad.canonical()
    try:
        return Tetrad.from_dict(json.loads(Path(path).read_text()))
    except json.JSONDecodeError as exc:
        raise ValueError(f"tetrad file {path} is not JSON: {exc}") from None


def _resolve_seed(args) -> int:
    env = os.environ.get("FINSLEROID_SEED")
    if env is None:
        return args.seed
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"FINSLEROID_SEED must be an integer, got {env!r}") from None


def _write(args, doc, columns, rows) -> None:
    """``doc`` as JSON, or ``rows`` as CSV under ``columns``, to ``--out`` or stdout."""
    if args.format == "json":
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(row.get(c)) for c in columns] for row in rows)
        text = buf.getvalue()
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)


def evaluate_document(params: Parameters, tetrad: Tetrad, y: np.ndarray) -> dict:
    """Full evaluation document for one vector; keys are schema-stable."""
    dom = domain_info(params)
    b, w1, w2, w3 = projections(y, tetrad)
    if params.p == 1.0 and w3 <= 0.0:
        # axial restriction lifted in the isotropic case
        w_perp, _, _, _, theta, _, r = _log_spiral(w1, w2, w3, params)
        frame = vars(FrameComponents(b, w1, w2, w3, w_perp, None, None, b * w_perp,
                                     _s2(b, w1, w2, w3)))
        eta, prof = _inverted_profile(r, params)  # metric_tensor and det g reuse it
        angles = {"eta": eta, "theta": theta, "phi": _azimuth(w1, w2)}
        bundle = vars(EvalBundle(*prof[:5], r, F=b * prof[4]))
    else:
        fc = frame_components(y, tetrad)
        coords, eb = angles_from_vector(fc, params)
        frame = {**vars(fc), "t": fc.t if math.isfinite(fc.t) else None}
        angles = vars(coords)
        bundle = vars(eb)
    det_closed = metric_determinant_closed(y, tetrad, params)  # raises before LU warns
    tb = metric_tensor(y, tetrad, params)
    return {
        "status": "ok",
        "input": {"H": params.H, "p": params.p, "y": [float(t) for t in y]},
        "domain": dict(vars(dom)),  # a copy: the record is shared through params
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


def _cmd_eval(args) -> None:
    doc = evaluate_document(
        Parameters(H=args.H, p=args.p), _load_tetrad(args.tetrad), _parse_vector(args.y)
    )
    row = {f"y{k}": v for k, v in enumerate(doc["input"]["y"])}
    for section in ("input", "frame", "angles", "bundle", "tensors"):
        row.update(doc[section])
    _write(args, doc, EVAL_CSV_COLUMNS, [row])


def _cmd_report_curvature(args) -> None:
    params = Parameters(H=args.H, p=args.p)
    seed = _resolve_seed(args)
    rows = []
    worst = 0.0
    for angles in sample_angles(params, args.samples, np.random.default_rng(seed)):
        ks = indicatrix_curvature(angles, params)
        planes = dict(zip(CURVATURE_CSV_COLUMNS[3:], ks.values()))  # ks: (0, 1), (0, 2), (1, 2)
        rows.append({"eta": angles.eta, "theta": angles.theta, "phi": angles.phi, **planes})
        worst = max(worst, *(abs(v + params.H ** 2) for v in planes.values()))
    relative = worst / params.H ** 2
    verdict = "pass" if relative < CURVATURE_TOLERANCE else "fail"
    summary = (
        f"max|K+H^2|/H^2 = {relative:.6g} "
        f"({'<' if verdict == 'pass' else '>='} {CURVATURE_TOLERANCE:g}: {verdict}), "
        f"max|K+H^2| = {worst:.6g}"
    )
    doc = {
        "config": {"H": params.H, "p": params.p, "samples": args.samples, "seed": seed},
        "rows": rows,
        "max_abs_k_plus_h_squared": worst,
        "summary": summary,
    }
    _write(args, doc, CURVATURE_CSV_COLUMNS, rows)
    print(summary, file=sys.stderr)


def _cmd_report_domain(args) -> None:
    h_grid = _parse_floats(args.Hgrid, "--Hgrid") if args.Hgrid else [args.H]
    p_grid = _parse_floats(args.pgrid, "--pgrid") if args.pgrid else [args.p]
    rows = []
    for h_val in h_grid:
        for p_val in p_grid:
            row = {"H": h_val, "p": p_val}
            try:
                dom = domain_info(Parameters(H=h_val, p=p_val))
                row.update(status="ok", **vars(dom))
            except EmptyDomain:
                row.update(status="empty", **dict.fromkeys(DOMAIN_CSV_COLUMNS[3:]))
            rows.append(row)
    _write(args, {"rows": rows}, DOMAIN_CSV_COLUMNS, rows)


def _cmd_report_reduction(args) -> None:
    h_grid = _parse_floats(args.Hgrid, "--Hgrid") if args.Hgrid else [1.1, 1.25, 2.0]
    report = reduction_report(h_grid, args.samples, seed=_resolve_seed(args))
    rows = []
    for key in sorted(report):
        entry = report[key]
        devs = [entry.get(d) for d in REDUCTION_DEVIATIONS]
        ok = all(d is None or d < REDUCTION_TOLERANCE for d in devs)
        rows.append({**{c: entry.get(c) for c in REDUCTION_CSV_COLUMNS}, "pass": ok})
    doc = {"tolerance": REDUCTION_TOLERANCE, "report": report, "rows": rows}
    _write(args, doc, REDUCTION_CSV_COLUMNS, rows)


def _cmd_report_scan(args) -> None:
    params = Parameters(H=args.H, p=args.p)
    tetrad = _load_tetrad(args.tetrad)
    rng = np.random.default_rng(_resolve_seed(args))
    rows = []
    for y in sample_vectors(params, args.samples, rng, tetrad):
        fc = frame_components(y, tetrad)
        coords, eb = angles_from_vector(fc, params)
        rows.append({
            "y0": y[0], "y1": y[1], "y2": y[2], "y3": y[3],
            "eta": coords.eta, "theta": coords.theta, "phi": coords.phi, "F": eb.F,
            "det_g_closed": metric_determinant_closed(y, tetrad, params),  # raises before LU warns
            "det_g_numeric": metric_tensor(y, tetrad, params).det_g,
        })
    _write(args, {"rows": rows}, SCAN_CSV_COLUMNS, rows)


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

    def add_output(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="write the document here instead of stdout")

    def add_common(p, with_tetrad=True, with_y=False):
        p.add_argument("--H", type=float, required=True, help="curvature scale, H >= 1")
        p.add_argument("--p", type=float, required=True, help="section scale, 0 < p <= 1")
        if with_tetrad:
            p.add_argument("--tetrad", help="JSON file with a 4x4 covector frame")
        if with_y:
            p.add_argument("--y", required=True, help="vector components a,b,c,d")
        add_output(p)

    p_eval = sub.add_parser("eval", help="evaluate one vector")
    add_common(p_eval, with_y=True)
    p_eval.set_defaults(run=_cmd_eval)

    p_report = sub.add_parser("report", help="batch reports")
    rsub = p_report.add_subparsers(dest="kind", required=True)

    p_curv = rsub.add_parser("curvature", help="sectional curvatures of the unit surface")
    add_common(p_curv, with_tetrad=False)
    p_curv.add_argument("--samples", type=_sample_count, default=20)
    p_curv.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_curv.set_defaults(run=_cmd_report_curvature)

    p_dom = rsub.add_parser("domain", help="admissible radial interval over a grid")
    p_dom.add_argument("--H", type=float, default=1.0)
    p_dom.add_argument("--p", type=float, default=1.0)
    p_dom.add_argument("--Hgrid", help="comma list of H values")
    p_dom.add_argument("--pgrid", help="comma list of p values")
    add_output(p_dom)
    p_dom.set_defaults(run=_cmd_report_domain)

    p_red = rsub.add_parser("reduction", help="isotropic closed-form comparison")
    p_red.add_argument("--Hgrid", help="comma list of H values (p = 1 implied)")
    p_red.add_argument("--samples", type=_sample_count, default=200)
    p_red.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_output(p_red)
    p_red.set_defaults(run=_cmd_report_reduction)

    p_scan = rsub.add_parser("scan", help="norm and determinant over sampled vectors")
    add_common(p_scan)
    p_scan.add_argument("--samples", type=_sample_count, default=50)
    p_scan.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_scan.set_defaults(run=_cmd_report_scan)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.run(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        try:
            dom = domain_info(Parameters(H=args.H, p=args.p))
            print("admissible domain: " + ", ".join(f"{k}={v!r}" for k, v in vars(dom).items()),
                  file=sys.stderr)
        except (FinsleroidError, AttributeError):
            pass
        return 2
    except (ValueError, OSError, FinsleroidError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
