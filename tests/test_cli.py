"""Command-line interface: exit codes, formats, determinism, golden file."""

import ast
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from finsleroid import FinsleroidError, Parameters, Tetrad, finsler_norm, sample_vectors
from finsleroid.cli import evaluate_document
from finsleroid.frame import _s2, projections

GOLDEN = Path(__file__).parent / "golden" / "eval_H1_p1.json"
GOLDEN_ISOTROPIC = Path(__file__).parent / "golden" / "eval_H1.25_p1_w3neg.json"
# p < 1: the radial inversion's Newton loop runs for every vector
GOLDEN_AXIAL = Path(__file__).parent / "golden" / "eval_H2_p0.5.json"
GOLDEN_SCAN = Path(__file__).parent / "golden" / "scan_H1.25_p0.8_n20.csv"
# a second p < 1 scan: rows whose angle, tensor and determinant radii agree share one inversion
GOLDEN_SCAN_H2 = Path(__file__).parent / "golden" / "scan_H2_p0.5_n20.csv"
# the Gauss route's k = 3 contraction, bit for bit (the summary goes to stderr)
GOLDEN_CURVATURE = Path(__file__).parent / "golden" / "curvature_H2_p0.5_n20.csv"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("FINSLEROID_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "finsleroid", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_eval_golden_document():
    r = run_cli("eval", "--H", "1", "--p", "1", "--y", "2,1,0,0.0001")
    assert r.returncode == 0
    assert r.stdout == GOLDEN.read_text()


def test_eval_golden_isotropic_negative_axial():
    # p = 1 with w3 <= 0: the isotropic branch outside the axial half
    r = run_cli("eval", "--H", "1.25", "--p", "1", "--y", "2,0.3,0.2,-0.4")
    assert r.returncode == 0
    assert r.stdout == GOLDEN_ISOTROPIC.read_text()


def test_eval_golden_axial_newton_inversion():
    r = run_cli("eval", "--H", "2", "--p", "0.5",
                "--y", "4.65668704,0.03959194,-0.11861117,0.18268289")
    assert r.returncode == 0, r.stderr
    assert r.stdout == GOLDEN_AXIAL.read_text()


def test_report_scan_golden_csv():
    r = run_cli("report", "scan", "--H", "1.25", "--p", "0.8", "--samples", "20", "--format", "csv")
    assert r.returncode == 0, r.stderr
    assert r.stdout == GOLDEN_SCAN.read_text()


def test_report_scan_golden_csv_h2_p05():
    r = run_cli("report", "scan", "--H", "2", "--p", "0.5", "--samples", "20", "--format", "csv")
    assert r.returncode == 0, r.stderr
    assert r.stdout == GOLDEN_SCAN_H2.read_text()


def test_report_curvature_golden_csv():
    r = run_cli("report", "curvature", "--H", "2", "--p", "0.5", "--samples", "20", "--format", "csv")
    assert r.returncode == 0, r.stderr
    assert r.stdout == GOLDEN_CURVATURE.read_text()


def test_eval_values_and_schema():
    r = run_cli("eval", "--H", "1", "--p", "1", "--y", "2,1,0,0.0001")
    doc = json.loads(r.stdout)
    assert doc["status"] == "ok"
    assert abs(doc["bundle"]["F"] - 3**0.5) < 1e-6
    assert abs(doc["tensors"]["det_g_numeric"] + 1.0) < 1e-9
    assert abs(doc["tensors"]["det_g_closed"] + 1.0) < 1e-9
    assert set(doc) == {
        "angles", "bundle", "domain", "frame", "input", "status", "tensors",
    }


def test_eval_internal_determinant_cross_check():
    # anisotropic point sampled inside the admissible cone
    r = run_cli("eval", "--H", "1.25", "--p", "0.8", "--y", "2,0.22,0.147,0.44")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    det_n = doc["tensors"]["det_g_numeric"]
    det_c = doc["tensors"]["det_g_closed"]
    assert abs(det_n - det_c) < 1e-9 * abs(det_c)


def test_eval_domain_error_exit_code_and_bounds():
    r = run_cli("eval", "--H", "1.25", "--p", "0.8", "--y", "1,0,0,0")
    assert r.returncode == 2
    assert "domain error" in r.stderr
    assert "r_sup" in r.stderr  # admissible bounds are printed


def test_eval_radial_domain_error_carries_bounds():
    # outside the radial interval (this is beyond the cone for these params)
    r = run_cli("eval", "--H", "1.25", "--p", "0.8", "--y", "2,0.3,0.2,0.6")
    assert r.returncode == 2
    assert "outside the admissible interval" in r.stderr


@pytest.mark.parametrize("args", [
    ("--H", "1.25", "--p", "0.8",
     "--y", "7.8741253e200,0.40093653e200,0.51128664e200,0.17089195e200"),
    ("--H", "1.25", "--p", "1", "--y=2e200,0.3e200,0.2e200,-0.4e200"),  # p = 1, w3 <= 0
])
def test_eval_s2_overflow_exits_1(args):
    # F, l, h and g are finite; s2 = y.a.y alone overflows, which was written
    # as the invalid JSON token Infinity with exit code 0
    r = run_cli("eval", *args)
    assert r.returncode == 1
    assert r.stdout == ""
    assert "s2" in r.stderr and "Warning" not in r.stderr


def test_usage_error_exit_code():
    r = run_cli("eval", "--H", "1", "--p", "1", "--y", "1,2,3")
    assert r.returncode == 1
    r = run_cli("eval", "--H", "1", "--p", "1")
    assert r.returncode == 1
    r = run_cli("nonsense")
    assert r.returncode == 1
    for y in ("2,0.2,0.1,nan", "2,0.2,0.1,inf"):
        r = run_cli("eval", "--H", "1.25", "--p", "0.8", "--y", y)
        assert r.returncode == 1
        assert "finite" in r.stderr
        assert "Warning" not in r.stderr


def test_import_leaves_scipy_unloaded():
    r = subprocess.run(
        [sys.executable, "-c",
         "import sys, finsleroid; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_package_imports_only_the_standard_library_and_numpy():
    # scipy, sympy and mpmath may be installed where the tests run; an import of
    # one would pass here and fail on a clean install of the declared dependencies
    allowed = set(sys.stdlib_module_names) | {"numpy", "finsleroid"}
    stray = []
    for path in sorted((Path(__file__).parents[1] / "src" / "finsleroid").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            stray += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in allowed]
    assert stray == []


def test_every_traced_name_resolves():
    # the benchmark's tracer wraps these (layer, attribute) pairs; read from its
    # source, so a deleted or renamed name fails here, not only under --trace 1
    import importlib

    tracing = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    traced = next(
        ast.literal_eval(node.value) for node in ast.parse(tracing.read_text()).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]
    )
    assert ("frame", "Tetrad.canonical") in traced and len(traced) > 20
    missing = []
    for layer, attribute in traced:
        value = importlib.import_module(f"finsleroid.{layer}")
        for part in attribute.split("."):
            value = getattr(value, part, None)
        if not callable(value):
            missing.append(f"{layer}.{attribute}")
    assert missing == []


def test_eval_csv_format_columns():
    r = run_cli("eval", "--H", "1", "--p", "1", "--y", "2,1,0,0.0001",
                "--format", "csv")
    rows = list(csv.reader(r.stdout.splitlines()))
    assert rows[0] == [
        "H", "p", "y0", "y1", "y2", "y3", "b", "w1", "w2", "w3",
        "eta", "theta", "phi", "r", "V", "F", "det_g_numeric", "det_g_closed",
    ]
    assert len(rows) == 2
    assert float(rows[1][15]) == json.loads(GOLDEN.read_text())["bundle"]["F"]


def test_eval_out_file(tmp_path):
    target = tmp_path / "doc.json"
    r = run_cli("eval", "--H", "1", "--p", "1", "--y", "2,1,0,0.0001",
                "--out", str(target))
    assert r.returncode == 0
    assert r.stdout == ""
    assert json.loads(target.read_text())["status"] == "ok"


def test_eval_with_tetrad_file(tmp_path):
    tetrad_file = tmp_path / "tetrad.json"
    tetrad_file.write_text(json.dumps({
        "tetrad": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    }))
    r = run_cli("eval", "--H", "1", "--p", "1", "--y", "2,1,0,0.0001",
                "--tetrad", str(tetrad_file))
    assert r.returncode == 0
    assert json.loads(r.stdout) == json.loads(GOLDEN.read_text())


def test_scan_determinism_and_seed_sensitivity():
    args = ("report", "scan", "--H", "1.25", "--p", "0.8",
            "--samples", "4", "--seed", "7", "--format", "csv")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    other = run_cli("report", "scan", "--H", "1.25", "--p", "0.8",
                    "--samples", "4", "--seed", "8", "--format", "csv")
    assert other.stdout != first.stdout


def test_environment_seed_overrides_flag():
    base = ("report", "scan", "--H", "1.25", "--p", "0.8",
            "--samples", "3", "--seed", "7", "--format", "csv")
    with_env = run_cli(*base, env_extra={"FINSLEROID_SEED": "99"})
    plain_99 = run_cli("report", "scan", "--H", "1.25", "--p", "0.8",
                       "--samples", "3", "--seed", "99", "--format", "csv")
    assert with_env.stdout == plain_99.stdout
    plain_7 = run_cli(*base)
    assert with_env.stdout != plain_7.stdout


def test_report_curvature_summary_and_rows():
    r = run_cli("report", "curvature", "--H", "1.25", "--p", "0.8",
                "--samples", "3", "--seed", "5")
    assert r.returncode == 0
    assert "max|K+H^2|" in r.stderr
    doc = json.loads(r.stdout)
    assert doc["max_abs_k_plus_h_squared"] < 1e-3
    assert len(doc["rows"]) == 3
    assert "pass" in doc["summary"]


def test_report_curvature_verdict_is_relative_to_h_squared():
    # |K + H^2| ~ 1e37 at H = 1e26 is 1e-15 of H^2: an absolute 1e-3 read "fail"
    r = run_cli("report", "curvature", "--H", "1e26", "--p", "0.8", "--samples", "2")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["max_abs_k_plus_h_squared"] > 1e30
    assert doc["summary"].startswith("max|K+H^2|/H^2 = ")
    assert "(< 0.001: pass), max|K+H^2| = " in doc["summary"]
    assert doc["summary"] in r.stderr


def test_report_curvature_takes_no_tetrad(tmp_path):
    # the option was accepted and never read: a missing file still exited 0
    r = run_cli("report", "curvature", "--H", "2", "--p", "0.5", "--samples", "2",
                "--tetrad", str(tmp_path / "nokey.json"))
    assert r.returncode == 1
    assert "unrecognized arguments" in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize(
    "args, prog, unknown",
    [
        (("eval", "--H", "2", "--p", "0.5", "--y", "4,0.1,0.1,0.5", "--bogus"),
         "finsleroid eval", "--bogus"),
        (("report", "curvature", "--H", "2", "--p", "0.5", "--tetrad", "x"),
         "finsleroid report curvature", "--tetrad x"),
    ],
)
def test_unknown_option_prints_the_sub_command_usage(args, prog, unknown):
    # the usage line lists the options the sub-command does take, not the root's
    r = run_cli(*args)
    assert r.returncode == 1
    lines = r.stderr.splitlines()
    assert lines[0].startswith(f"usage: {prog} [-h] --H H --p P"), r.stderr
    assert lines[-1] == f"{prog}: error: unrecognized arguments: {unknown}"


@pytest.mark.parametrize(
    "args",
    [
        ("eval", "--H", "3.5795676089825723", "--p", "0.003641003953434029",
         "--y=1,0.001,0,1e-300"),
        ("report", "scan", "--H", "3.5795676089825723", "--p", "0.003641003953434029",
         "--samples", "5"),
    ],
    ids=["eval-vector", "scan-chart"],
)
def test_overflowing_exp_gp_angle_is_a_domain_error(args):
    # exp(gp angle) overflows at p = 0.0036: the vector's r lies above r_sup, and
    # the sampler's chart theta maps w3 to 0; a traceback (exit 1) or, for the
    # batch chart, a RuntimeWarning turned into an error, before
    r = run_cli(*args, env_extra={"PYTHONWARNINGS": "error::RuntimeWarning"})
    assert r.returncode == 2, r.stderr
    assert "domain error" in r.stderr and "Traceback" not in r.stderr


def test_underflowing_frame_ratios_are_a_domain_error():
    # a chart vector at p = 0.0036 whose frame ratios (~1e-272) square to 0: the
    # tensor route divided by k^2 = X^2 + Y^2 = 0, a traceback and exit 1, before
    r = run_cli("eval", "--H", "3.5795676089825723", "--p", "0.003641003953434029",
                "--y=2.86037939e+002,1.36523286e-272,-4.12504660e-272,4.36226097e-272")
    assert r.returncode == 2, r.stderr
    assert "domain error: r=0.0 " in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("args", [
    ("--H", "1.25", "--p", "1", "--y=2,1e-170,1e-170,1e-170"),
    ("--H", "2", "--p", "0.01", "--y=116.4356774903161,5.341513523503264e-102,"
     "1.4056044271191692e-102,5.5714188562784366e-102"),
], ids=("p=1", "p=0.01"))
def test_vector_numerically_on_the_time_axis_is_a_domain_error(args):
    # the radial Hessian divided by (w.w)^1.5 = 0 at p = 1 and by k^4 = 0 (k^2 ~ 4e-211)
    # at p = 0.01: a ZeroDivisionError traceback and exit 1, before
    r = run_cli("eval", *args)
    assert r.returncode == 2, r.stderr
    assert "on the time axis" in r.stderr and "Traceback" not in r.stderr


def test_eval_next_to_the_equator_reports_the_norm_of_its_tensors():
    # 3.2e-17 above the equator the bundle's F is the Euler sum l.y; the angle map from
    # f = p w_perp/w3 with R2 = cos theta + gp sin theta reported F = 0.939, 29 % off
    r = run_cli("eval", "--H", "2.4802699708352587", "--p", "0.9538221065310725",
                "--y=1,0.26036398342138056,0,3.228188371379577e-17")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    norm = doc["bundle"]["F"]
    euler = math.fsum(l * y for l, y in zip(doc["tensors"]["l"], doc["input"]["y"]))
    assert abs(euler - norm) <= 1e-12 * norm, (euler, norm)


def test_overflowing_determinant_is_a_domain_error():
    # at p = 0.02 det g exceeds the largest double: exit 0 with "det_g_closed":
    # -Infinity under "status": "ok" and numpy's overflow warning from LU, before
    r = run_cli("eval", "--H", "2", "--p", "0.02", "--y=47.17978965035082,-7.876622695296942e-54,"
                "4.118232670337632e-54,8.993258062840328e-54")
    assert r.returncode == 2, r.stderr
    assert r.stdout == "" and "det g overflows" in r.stderr
    assert "Warning" not in r.stderr and "Traceback" not in r.stderr


def _floats(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [x for item in node for x in _floats(item)]
    return [node] if isinstance(node, float) else []


@pytest.mark.parametrize("pair", [(2.0, 0.03), (2.0, 0.02)], ids=str)
def test_eval_document_is_finite_or_a_domain_error(pair):
    # where det g overflows for some sampled vectors: every document either holds
    # finite floats only or is refused with a FinsleroidError
    params = Parameters(*pair)
    refused = 0
    for y in sample_vectors(params, 200, 13):
        try:
            doc = evaluate_document(params, Tetrad.canonical(), y)
        except FinsleroidError:
            refused += 1
            continue
        assert all(math.isfinite(x) for x in _floats(doc)), doc
    assert 0 < refused < 200


@pytest.mark.parametrize("pair, y", [
    ((2.0, 0.5), (4.65668704, 0.12504451751969176, -1e-20, 0.18268289)),
    ((1.25, 1.0), (2.0, 0.3, -1e-20, 0.5)),
], ids=str)
def test_tiny_negative_azimuth_is_phi_zero(pair, y):
    # atan2 of a tiny negative w2 is a tiny negative angle, whose remainder mod 2 pi rounds
    # up to 2 pi itself, which AngleCoords rejects: the azimuth takes it to 0.0
    doc = evaluate_document(Parameters(*pair), Tetrad.canonical(), list(y))
    assert doc["status"] == "ok"
    assert doc["angles"]["phi"] == 0.0


def test_isotropic_negative_axial_azimuth_is_below_two_pi():
    # the p = 1, w3 < 0 branch forms its own angles, with the same azimuth
    doc = evaluate_document(Parameters(1.25, 1.0), Tetrad.canonical(), [2.0, 0.3, -1e-20, -0.5])
    assert doc["status"] == "ok"
    assert 0.0 <= doc["angles"]["phi"] < 2.0 * math.pi


def test_eval_isotropic_branch_at_exactly_w3_zero():
    # p = 1, w3 = 0: the isotropic branch, whose ratios w = w_perp/w3 and t, and the
    # azimuthal R2, I, U and f, are not defined there
    r = run_cli("eval", "--H", "1.25", "--p", "1", "--y=2,0.3,0.2,0")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["frame"]["w3"] == 0.0
    for section, key in [("frame", "w"), ("frame", "t"), ("bundle", "R2"), ("bundle", "I"),
                         ("bundle", "U"), ("bundle", "f")]:
        assert doc[section][key] is None, (section, key)
    y = [2.0, 0.3, 0.2, 0.0]
    assert doc["bundle"]["F"].hex() == finsler_norm(y, None, Parameters(1.25, 1.0)).hex()
    assert doc["frame"]["s2"] == _s2(*projections(y))


def test_report_domain_grid_with_empty_row():
    r = run_cli("report", "domain", "--Hgrid", "1,1.25", "--pgrid", "0.8,1",
                "--format", "csv")
    assert r.returncode == 0
    rows = list(csv.DictReader(r.stdout.splitlines()))
    assert len(rows) == 4
    by_key = {(row["H"], row["p"]): row for row in rows}
    empty = by_key[("1", "0.80000000000000004")]
    assert empty["status"] == "empty"
    assert empty["eta_min"] == ""
    ok = by_key[("1.25", "0.80000000000000004")]
    assert ok["status"] == "ok"
    assert abs(float(ok["eta_min"]) - 1.0475930126492587) < 1e-12


def test_report_domain_underflowed_interval_is_empty():
    r = run_cli("report", "domain", "--Hgrid", "1.25", "--pgrid", "0.001")
    assert r.returncode == 0
    (row,) = json.loads(r.stdout)["rows"]
    assert row["status"] == "empty"
    assert row["r_min"] is None and row["r_sup"] is None


def test_report_reduction_rows_pass():
    r = run_cli("report", "reduction", "--Hgrid", "1.1,2", "--samples", "40",
                "--format", "csv")
    assert r.returncode == 0
    rows = list(csv.DictReader(r.stdout.splitlines()))
    assert len(rows) == 3  # two grid values plus the flat reduction point
    assert all(row["pass"] == "true" for row in rows)


def test_report_scan_csv_columns():
    r = run_cli("report", "scan", "--H", "1", "--p", "1",
                "--samples", "2", "--format", "csv")
    rows = list(csv.reader(r.stdout.splitlines()))
    assert rows[0] == [
        "y0", "y1", "y2", "y3", "eta", "theta", "phi", "F",
        "det_g_numeric", "det_g_closed",
    ]
    assert len(rows) == 3


def test_float_round_trip_in_csv():
    r = run_cli("report", "domain", "--H", "1.25", "--p", "0.8",
                "--format", "csv")
    row = list(csv.DictReader(r.stdout.splitlines()))[0]
    # 17 significant digits reproduce the double exactly
    from finsleroid import Parameters, domain_info
    dom = domain_info(Parameters(H=1.25, p=0.8))
    assert float(row["r_sup"]) == dom.r_sup
    assert float(row["eta_min"]) == dom.eta_min


EVAL_CSV_SOURCES = {
    "H": ("input", "H"), "p": ("input", "p"),
    "y0": ("input", "y", 0), "y1": ("input", "y", 1),
    "y2": ("input", "y", 2), "y3": ("input", "y", 3),
    "b": ("frame", "b"), "w1": ("frame", "w1"),
    "w2": ("frame", "w2"), "w3": ("frame", "w3"),
    "eta": ("angles", "eta"), "theta": ("angles", "theta"),
    "phi": ("angles", "phi"), "r": ("bundle", "r"),
    "V": ("bundle", "V"), "F": ("bundle", "F"),
    "det_g_numeric": ("tensors", "det_g_numeric"),
    "det_g_closed": ("tensors", "det_g_closed"),
}


def test_eval_csv_row_equals_json_document():
    # every CSV column, parsed, is the document's field bit for bit
    for point in (("1", "1", "2,1,0,0.0001"), ("1.25", "1", "2,0.3,0.2,-0.4"),
                  ("1.25", "0.8", "2,0.22,0.147,0.44")):
        H, p, y = point
        args = ("eval", "--H", H, "--p", p, "--y", y)
        doc = json.loads(run_cli(*args).stdout)
        header, row = list(csv.reader(run_cli(*args, "--format", "csv").stdout.splitlines()))
        assert header == list(EVAL_CSV_SOURCES)
        for column, text in zip(header, row):
            section, key, *index = EVAL_CSV_SOURCES[column]
            want = doc[section][key][index[0]] if index else doc[section][key]
            assert float(text) == want, (point, column)


def test_samples_must_be_positive():
    reports = {
        "curvature": ("--H", "1.25", "--p", "0.8"),
        "reduction": (),
        "scan": ("--H", "1.25", "--p", "0.8"),
    }
    for kind, params in reports.items():
        for count in ("0", "-1"):
            r = run_cli("report", kind, *params, "--samples", count)
            assert r.returncode == 1, (kind, count)
            assert r.stdout == ""
            assert f"argument --samples: expected a positive integer, got {count}" in r.stderr


@pytest.mark.parametrize("args, env, message", [
    (("report", "scan", "--H", "1.25", "--p", "0.8", "--samples", "2"),
     {"FINSLEROID_SEED": "abc"}, "FINSLEROID_SEED must be an integer, got 'abc'"),
    (("eval", "--H", "1.25", "--p", "0.8", "--y", "2,abc,0,0"),
     None, "--y expects four comma-separated numbers, got '2,abc,0,0'"),
    (("eval", "--H", "1.25", "--p", "0.8", "--y", "2,0.1,0.1"),
     None, "--y expects four comma-separated numbers, got '2,0.1,0.1'"),
    (("report", "domain", "--Hgrid", "1,x"),
     None, "--Hgrid expects comma-separated numbers, got '1,x'"),
    (("report", "domain", "--pgrid", "0.5,"),
     None, "--pgrid expects comma-separated numbers, got '0.5,'"),
], ids=["FINSLEROID_SEED", "y", "y-length", "Hgrid", "pgrid"])
def test_malformed_input_names_its_source(args, env, message):
    r = run_cli(*args, env_extra=env)
    assert r.returncode == 1
    assert r.stderr == f"error: {message}\n"


def test_negative_first_component_of_y_names_the_equals_form():
    r = run_cli("eval", "--H", "1.25", "--p", "0.8", "--y", "-2,0.1,0.1,0.1")
    if r.returncode == 1:  # argparse reads "-2,0.1,..." as an option string
        assert "argument --y: expected one argument; write --y=-2," in r.stderr
    else:  # an argparse that takes it for a negative number reaches the evaluator
        assert r.returncode == 2
        assert "timelike projection b=-2.0 is not positive" in r.stderr
    r = run_cli("eval", "--H", "1.25", "--p", "0.8", "--y=-2,0.1,0.1,0.1")
    assert r.returncode == 2
    assert "timelike projection b=-2.0 is not positive" in r.stderr


def test_degenerate_tetrad_is_bad_input(tmp_path):
    tetrad_file = tmp_path / "tetrad.json"
    tetrad_file.write_text(json.dumps({
        "tetrad": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    }))
    r = run_cli("eval", "--H", "2", "--p", "0.5", "--y", "2,0.1,0.1,0.5",
                "--tetrad", str(tetrad_file))
    assert r.returncode == 1
    assert "linearly dependent" in r.stderr


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", 'tetrad document must be a JSON object with a "tetrad" entry'),
    ('{"tetrad": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, NaN, 0], [0, 0, 0, 1]]}',
     "tetrad entries must be finite"),
    ('{"tetrad": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, Infinity, 0], [0, 0, 0, 1]]}',
     "tetrad entries must be finite"),
    ('{"frame": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}',
     'tetrad document must be a JSON object with a "tetrad" entry'),
    ("nope", "tetrad file"),
], ids=["list", "nan", "infinity", "no-key", "not-json"])
def test_malformed_tetrad_file_blames_the_tetrad(tmp_path, text, message):
    # a list ended in an AttributeError traceback, NaN and Infinity blamed the
    # vector's s2, a file with no "tetrad" entry ran in the canonical frame,
    # and a file that is not JSON named neither the file nor the tetrad
    tetrad_file = tmp_path / "tetrad.json"
    tetrad_file.write_text(text)
    r = run_cli("eval", "--H", "1.25", "--p", "0.8", "--y", "2,0.22,0.147,0.44",
                "--tetrad", str(tetrad_file))
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("error: ") and message in r.stderr
    assert "Traceback" not in r.stderr and "Warning" not in r.stderr
    assert "s2" not in r.stderr


@pytest.mark.parametrize("args, code, message", [
    (("eval", "--H", "1e52", "--p", "0.5",
      "--y", "4.65668704,0.03959194,-0.11861117,0.18268289"), 1, "H must be >= 1 and below 1e+50"),
    (("report", "domain", "--H", "1e300", "--p", "0.9"), 1, "H must be >= 1 and below 1e+50"),
    (("eval", "--H", "1.25", "--p", "1e-170", "--y", "2,0.1,0.1,0.5"), 2, "p^2 underflows to 0"),
], ids=["eval-H", "domain-H", "eval-p"])
def test_extreme_parameters_end_in_typed_errors(args, code, message):
    # OverflowError from H ** 6 or H ** 2, ZeroDivisionError from 1 / p^2
    r = run_cli(*args)
    assert r.returncode == code
    assert r.stdout == ""
    assert message in r.stderr and "Traceback" not in r.stderr


def test_report_domain_p_whose_square_underflows_is_empty():
    r = run_cli("report", "domain", "--H", "1.25", "--p", "1e-300")
    assert r.returncode == 0
    (row,) = json.loads(r.stdout)["rows"]
    assert row["status"] == "empty"


def test_domain_error_is_the_base_of_exactly_the_domain_classes():
    # main exits 2 on a DomainError and 1 on any other FinsleroidError
    import finsleroid
    from finsleroid import errors

    domain = {
        "EmptyDomain", "NotFutureTimelike", "OutsideAxialRegion",
        "OutsideClosedFormDomain", "OutsideEtaDomain", "OutsideRadialDomain",
        "PolarAxisSingular", "ThetaPole",
    }
    classes = {
        name: obj for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.FinsleroidError)
    }
    below = {n for n, c in classes.items() if issubclass(c, errors.DomainError)}
    assert below == domain | {"DomainError"}
    assert not issubclass(errors.TetradDegenerate, errors.DomainError)
    assert finsleroid.DomainError is errors.DomainError


def test_package_exports_its_imported_names_and_no_module():
    # __all__ is derived from the package's imports: every public name, sorted,
    # and none of the submodules that importing them binds on the package
    import types

    import finsleroid

    names = finsleroid.__all__
    assert names == sorted(names) and len(names) == 56
    assert not any(isinstance(getattr(finsleroid, n), types.ModuleType) for n in names)
    assert {"Parameters", "finsler_norm", "DomainError", "sample_vectors"} <= set(names)
    assert not {"kernel", "errors", "dual", "__version__"} & set(names)
