"""Acceptance gate: every advertised identity at its stated tolerance.

One criterion per test, one pass/fail line per criterion on stdout
(run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live).
"""

import math
import time

import numpy as np
import pytest

from finsleroid import (
    AngleCoords,
    Parameters,
    angular_metric,
    angular_metric_angle_form,
    domain_info,
    eta_from_r,
    finsler_norm,
    indicatrix_curvature,
    indicatrix_metric,
    isotropic_v_squared,
    metric_determinant_closed,
    metric_tensor,
    metric_tensor_numeric,
    oracle_quadrature,
    pipeline_v_squared,
    reduction_report,
    sample_angles,
    sample_vectors,
    section_curvature,
    theta_pole,
    unit_covector,
    vector_from_angles,
)
from finsleroid.indicatrix import _unit_surface, section_metric
from finsleroid.kernel import hyperbolic_profile

from packing import gauss_tensor

PAIRS = [
    Parameters(H=1.0, p=1.0),
    Parameters(H=1.25, p=0.8),
    Parameters(H=1.5, p=0.9),
    Parameters(H=2.0, p=0.5),
]


def _line(number, name, ok):
    print(f"[acceptance {number}] {name}: {'PASS' if ok else 'FAIL'}")


def _isometry_error(c, m, diagonal):
    """max_ij |c m_ij - ref_ij| / sqrt(ref_ii ref_jj) against ref = diag(diagonal)."""
    d = np.sqrt(diagonal)
    return np.max(np.abs(c * m - np.diag(diagonal)) / np.outer(d, d))


def test_criterion_1_indicatrix_curvature_constant():
    # and the metric: hyperbolic 3-space (d eta^2 + sinh^2 eta dOmega^2)/H^2, within
    # 1e-13 per entry (measured worst 2.4e-14, at (2, 0.5))
    ok = False
    try:
        start = time.perf_counter()
        for params in PAIRS:
            tol = 1e-4 if params.H == 1.0 else 1e-3
            rng = np.random.default_rng(101)
            count = 0
            for angles in sample_angles(params, 20, rng, eta_margin=0.2, theta_margin=0.2):
                ks = indicatrix_curvature(angles, params)
                for plane, k in ks.items():
                    assert abs(k + params.H**2) < tol, (params, angles, plane, k)
                # the off-diagonal components R_ijkl, (i, j) != (k, l), of the Gauss
                # equation's whole tensor, over sqrt(G_ijij G_klkl) as K over its area G_ijij
                r, gauss = gauss_tensor(*_unit_surface(angles, params))
                for (i, j), (k, l) in (((0, 1), (0, 2)), ((0, 1), (1, 2)), ((0, 2), (1, 2))):
                    area = math.sqrt(gauss[i, j, i, j] * gauss[k, l, k, l])
                    mixed = (r[i, j, k, l] + params.H**2 * gauss[i, j, k, l]) / area
                    assert abs(mixed) < tol, (params, angles, (i, j, k, l), mixed)
                sh2 = math.sinh(angles.eta) ** 2
                ref = [1.0, sh2, sh2 * math.sin(angles.theta) ** 2]
                err = _isometry_error(params.H**2, indicatrix_metric(angles, params), ref)
                assert err < 1e-13, (params, angles, err)
                count += 1
            assert count >= 20
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"curvature suite took {elapsed:.1f}s"
        ok = True
    finally:
        _line(1, "indicatrix sectional curvature = -H^2, metric = hyperbolic 3-space", ok)


def test_criterion_2_determinant_closed_form():
    ok = False
    try:
        for params in PAIRS:
            rng = np.random.default_rng(103)
            for y in sample_vectors(params, 100, rng):
                det_lu = metric_tensor(y, None, params).det_g
                det_cf = metric_determinant_closed(y, None, params)
                assert abs(det_lu - det_cf) < 1e-9 * abs(det_cf), (params, y)
            # polar-angle independence
            dom = domain_info(params)
            dets = []
            for phi in np.linspace(0.05, 6.2, 9):
                angles = AngleCoords(eta=dom.eta_min + 0.7, theta=0.6, phi=phi)
                fc = vector_from_angles(angles, 1.3, params)
                y = np.array([fc.b, fc.b * fc.w1, fc.b * fc.w2, fc.b * fc.w3])
                dets.append(metric_determinant_closed(y, None, params))
            dets = np.array(dets)
            assert np.max(np.abs(dets - dets[0])) < 1e-10 * abs(dets[0]), params
        ok = True
    finally:
        _line(2, "det(g) closed form = LU determinant, phi-independent", ok)


def test_criterion_3_three_route_angular_metric():
    ok = False
    try:
        for params in PAIRS:
            rng = np.random.default_rng(107)
            for y in sample_vectors(params, 25, rng):
                h1 = angular_metric(y, None, params)
                h2 = angular_metric_angle_form(y, None, params)
                h3 = metric_tensor_numeric(y, None, params).h
                scale = np.max(np.abs(h1))
                assert np.max(np.abs(h1 - h2)) < 1e-8 * scale, (params, y)
                assert np.max(np.abs(h1 - h3)) < 1e-8 * scale, (params, y)
                assert np.max(np.abs(h2 - h3)) < 1e-8 * scale, (params, y)
        ok = True
    finally:
        _line(3, "component / angle / numeric angular metrics agree", ok)


def test_criterion_4_euler_identities():
    ok = False
    try:
        for params in PAIRS:
            rng = np.random.default_rng(109)
            for y in sample_vectors(params, 25, rng):
                f = finsler_norm(y, params=params)
                for lam in (0.5, 2.0, 7.0):
                    assert abs(finsler_norm(lam * y, params=params) - lam * f) <= (
                        1e-10 * lam * f
                    ), (params, y, lam)
                l = unit_covector(y, None, params)
                assert abs(float(l @ y) - f) <= 1e-10 * f, (params, y)
                h = angular_metric(y, None, params)
                h_scale = np.max(np.abs(h)) * float(np.linalg.norm(y))
                assert np.max(np.abs(h @ y)) <= 1e-10 * h_scale, (params, y)
                g = metric_tensor(y, None, params).g
                assert abs(float(y @ g @ y) - f * f) <= 1e-10 * f * f, (params, y)
        ok = True
    finally:
        _line(4, "Euler identities: F 1-homogeneous, l.y=F, h.y=0, g.y.y=F^2", ok)


def test_criterion_5_isotropic_reduction():
    ok = False
    try:
        rng = np.random.default_rng(113)
        for h_val in (1.1, 1.25, 2.0):
            sup = domain_info(Parameters(H=h_val, p=1.0)).r_sup
            for r in rng.uniform(1e-4, sup * (1.0 - 1e-6), size=200):
                dev = abs(pipeline_v_squared(r, h_val) - isotropic_v_squared(r, h_val))
                assert dev < 1e-10, (h_val, r, dev)
        flat = reduction_report([], sample_count=200, seed=113)["H=1,p=1"]
        assert flat["max_abs_dev_f_squared"] < 1e-10
        assert flat["max_abs_det_plus_one"] < 1e-10
        ok = True
    finally:
        _line(5, "p=1 pipeline matches the isotropic closed form", ok)


def test_criterion_6_section_curvature_constant():
    # and the metric at polar angle 0.9: the round sphere of radius 1/p, within 1e-14
    # per entry (measured worst 1.8e-15, at p = 0.6)
    ok = False
    try:
        for p_val in (1.0, 0.9, 0.8, 0.6):
            params = Parameters(H=1.5, p=p_val)
            pole = theta_pole(params)
            for theta in np.linspace(0.25, pole - 0.25, 7):
                k = section_curvature(theta, params)
                assert abs(k - p_val**2) < 1e-3, (p_val, theta, k)
                metric = section_metric(theta, 0.9, params)
                err = _isometry_error(p_val**2, metric, [1.0, math.sin(theta) ** 2])
                assert err < 1e-14, (p_val, theta, err)
        ok = True
    finally:
        _line(6, "section Gaussian curvature = p^2, metric = round sphere of radius 1/p", ok)


def test_criterion_7_quadrature_oracle_equivalence():
    ok = False
    try:
        for params in (
            Parameters(H=1.5, p=0.9),  # branch transition inside the domain
            Parameters(H=1.25, p=0.8),
            Parameters(H=2.0, p=0.5),
            Parameters(H=1.1, p=1.0),
        ):
            dom = domain_info(params)
            rng = np.random.default_rng(127)
            intervals = [
                tuple(sorted(dom.eta_min + rng.uniform(0.05, 4.0, size=2)))
                for _ in range(10)
            ]
            gp = params.azimuthal_skew
            hh = params.boost_skew
            if hh > gp > 0.0:
                # straddle the arctangent denominator zero
                crossing = math.acosh(math.sqrt((hh**2 + gp**2) / (hh**2 - gp**2)))
                assert crossing > dom.eta_min
                intervals += [(crossing - 0.3, crossing + 0.3), (crossing - 0.05, crossing + 0.8)]
            for e0, e1 in intervals:
                if e1 - e0 < 1e-6:
                    continue
                deltas = oracle_quadrature(e0, e1, params)
                p0 = hyperbolic_profile(e0, params)
                p1 = hyperbolic_profile(e1, params)
                dev_r = abs(deltas.delta_ln_r - math.log(float(p1[5]) / float(p0[5])))
                dev_v = abs(deltas.delta_ln_v - math.log(float(p1[4]) / float(p0[4])))
                assert dev_r < 1e-8, (params, e0, e1, dev_r)
                assert dev_v < 1e-8, (params, e0, e1, dev_v)
        ok = True
    finally:
        _line(7, "quadrature oracle matches the closed forms", ok)


def test_criterion_8_inversion_round_trips():
    ok = False
    try:
        from finsleroid import angles_from_vector

        per_pair = 250
        for params in PAIRS:
            dom = domain_info(params)
            pole = theta_pole(params)
            rng = np.random.default_rng(131)
            for _ in range(per_pair):
                # radial round trip
                eta = dom.eta_min + rng.uniform(1e-3, 5.0)
                r = float(hyperbolic_profile(eta, params)[5])
                back, iters = eta_from_r(r, params, with_iterations=True)
                assert iters <= 6, (params, r, iters)
                assert abs(back - eta) <= 1e-10 * max(eta, 1.0), (params, eta, back)
                # angle chart round trip
                angles = AngleCoords(
                    eta=dom.eta_min + rng.uniform(0.01, 3.5),
                    theta=rng.uniform(0.02, pole - 0.02),
                    phi=rng.uniform(0.0, 2.0 * math.pi),
                )
                norm = rng.uniform(0.1, 8.0)
                fc = vector_from_angles(angles, norm, params)
                coords, bundle = angles_from_vector(fc, params)
                assert abs(coords.eta - angles.eta) <= 1e-10 * max(angles.eta, 1.0)
                assert abs(coords.theta - angles.theta) <= 1e-10 * max(angles.theta, 1.0)
                assert abs(coords.phi - angles.phi) <= 1e-10 * max(angles.phi, 1.0)
                assert abs(bundle.F - norm) <= 1e-10 * norm
        ok = True
    finally:
        _line(8, "angle and radial round trips at 1e-10, Newton <= 30 iterations", ok)


def test_criterion_9_metric_signature():
    ok = False
    try:
        for params in PAIRS:
            rng = np.random.default_rng(137)
            for y in sample_vectors(params, 100, rng):
                eigs = np.linalg.eigvalsh(metric_tensor(y, None, params).g)
                assert np.sum(eigs > 0.0) == 1, (params, y, eigs)
                assert np.sum(eigs < 0.0) == 3, (params, y, eigs)
        ok = True
    finally:
        _line(9, "metric signature (+,-,-,-) on the sampled domain", ok)
