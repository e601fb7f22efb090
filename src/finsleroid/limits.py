"""Spatially isotropic closed form and pseudo-Euclidean reduction checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutsideClosedFormDomain
from .frame import Parameters, Tetrad
from .kernel import domain_info, eta_from_r, hyperbolic_profile
from .sampling import DEFAULT_SEED
from .tensors import metric_tensor

EDGE_MARGIN = 1e-6  # radial samples stay this fraction below r_sup: the powers lose precision


@dataclass(frozen=True)
class ClosedFormConstants:
    """Sign-split constants of the isotropic closed form.

    g_plus * g_minus = -1 and g_plus + g_minus = -2 sqrt(H^2 - 1) hold
    exactly; c_tilde is the scaled integration constant (= H here).
    """

    g_plus: float
    g_minus: float
    c_tilde: float


def closed_form_constants(H: float) -> ClosedFormConstants:
    root = math.sqrt(H * H - 1.0)
    return ClosedFormConstants(g_plus=H - root, g_minus=-H - root, c_tilde=H)


def isotropic_v_squared(r: float, H: float) -> float:
    """Closed-form V^2 of the isotropic (p = 1) norm at radial value r.

    Product of two fractional powers of affine functions of r; defined
    while both bases stay positive, i.e. r below the radial supremum.
    """
    if r < 0.0:
        raise OutsideClosedFormDomain(f"radial value must be >= 0, got {r}")
    c = closed_form_constants(H)
    base_minus = c.c_tilde + c.g_minus * r
    base_plus = c.c_tilde + c.g_plus * r
    if base_minus <= 0.0 or base_plus <= 0.0:
        raise OutsideClosedFormDomain(
            f"fractional-power base not positive at r={r} (H={H})"
        )
    return (
        base_minus ** (c.g_plus / H)
        * base_plus ** (-c.g_minus / H)
        / (c.c_tilde * c.c_tilde)
    )


def pipeline_v_squared(r: float, H: float) -> float:
    """V^2 through the general pipeline at p = 1 (radial inversion included)."""
    params = Parameters(H=H, p=1.0)
    eta = eta_from_r(r, params)
    v = hyperbolic_profile(eta, params)[4]
    return v * v


def reduction_report(h_grid, sample_count: int = 200, seed: int = DEFAULT_SEED) -> dict:
    """Deviation of the p = 1 pipeline from the closed form, per H value.

    For each H in ``h_grid``: max |V^2_pipeline - V^2_closed| over radial
    samples up to EDGE_MARGIN below the supremum.  The pseudo-Euclidean pair
    H = p = 1 is always included and additionally checks F^2 against
    b^2 - |y_spatial|^2 and det(g) against -1.
    """
    rng = np.random.default_rng(seed)
    report = {}
    for h_val in h_grid:
        params = Parameters(H=float(h_val), p=1.0)
        dom = domain_info(params)
        r_samples = rng.uniform(1e-4, dom.r_sup * (1.0 - EDGE_MARGIN), size=sample_count)
        dev = 0.0
        for r in r_samples:
            dev = max(dev, abs(pipeline_v_squared(r, params.H) - isotropic_v_squared(r, params.H)))
        report[f"H={h_val:g},p=1"] = {
            "H": float(h_val),
            "p": 1.0,
            "samples": int(sample_count),
            "max_abs_dev_v_squared": dev,
            "r_sup": dom.r_sup,
        }

    # pseudo-Euclidean reduction point
    params = Parameters(H=1.0, p=1.0)
    tetrad = Tetrad.canonical()
    dev_f2 = 0.0
    dev_det = 0.0
    for _ in range(sample_count):
        w = rng.uniform(-0.55, 0.55, size=3)
        while np.linalg.norm(w) >= 0.97 or np.linalg.norm(w) < 1e-3:
            w = rng.uniform(-0.55, 0.55, size=3)
        b = rng.uniform(0.5, 3.0)
        y = np.array([b, b * w[0], b * w[1], b * w[2]])
        bundle = metric_tensor(y, tetrad, params)
        f2_expected = b * b - float(np.sum(y[1:] ** 2))
        dev_f2 = max(dev_f2, abs(bundle.F ** 2 - f2_expected))
        dev_det = max(dev_det, abs(bundle.det_g + 1.0))
    report["H=1,p=1"] = {
        "H": 1.0,
        "p": 1.0,
        "samples": int(sample_count),
        "max_abs_dev_f_squared": dev_f2,
        "max_abs_det_plus_one": dev_det,
    }
    return report
