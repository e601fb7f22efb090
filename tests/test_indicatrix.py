"""Induced unit-surface geometry: derivatives, metric, constant curvatures."""

import math
import warnings

import numpy as np
import pytest

from finsleroid import (
    AngleCoords,
    DomainError,
    OutsideAxialRegion,
    OutsideEtaDomain,
    Parameters,
    PolarAxisSingular,
    ThetaPole,
    angular_metric,
    domain_info,
    indicatrix_curvature,
    indicatrix_metric,
    sample_angles,
    sample_vectors,
    section_curvature,
    theta_pole,
    unit_vector,
    unit_vector_angle_derivatives,
)
from finsleroid import dual as dm
from finsleroid import frame, indicatrix, kernel, tensors

from packing import gauss_tensor, packing


def _angles(params, d_eta=0.9, theta=0.6, phi=1.2):
    dom = domain_info(params)
    return AngleCoords(eta=dom.eta_min + d_eta, theta=theta, phi=phi)


def test_angle_derivatives_match_finite_differences():
    rng = np.random.default_rng(3)
    for params in (Parameters(H=1.25, p=0.8), Parameters(H=1.5, p=0.9)):
        dom = domain_info(params)
        pole = theta_pole(params)
        for _ in range(25):
            angles = AngleCoords(
                eta=dom.eta_min + rng.uniform(0.3, 1.5),
                theta=rng.uniform(0.15, pole - 0.15),
                phi=rng.uniform(0.2, 2.0 * math.pi - 0.2),
            )
            d = unit_vector_angle_derivatives(angles, params)
            step = 1e-6
            for k, name in enumerate(("eta", "theta", "phi")):
                hi = dict(eta=angles.eta, theta=angles.theta, phi=angles.phi)
                lo = dict(hi)
                hi[name] += step
                lo[name] -= step
                fd = (
                    unit_vector(AngleCoords(**hi), params)
                    - unit_vector(AngleCoords(**lo), params)
                ) / (2 * step)
                np.testing.assert_allclose(d[:, k], fd, rtol=1e-6, atol=1e-6)


def test_angle_derivatives_reduce_to_hyperboloid_chart():
    # pseudo-Euclidean case: unit vector is the standard hyperboloid chart
    params = Parameters(H=1.0, p=1.0)
    eta, theta, phi = 0.8, 0.7, 1.1
    d = unit_vector_angle_derivatives(AngleCoords(eta=eta, theta=theta, phi=phi), params)
    sh, ch = math.sinh(eta), math.cosh(eta)
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    expected = np.array(
        [
            [sh, 0.0, 0.0],
            [ch * st * cp, sh * ct * cp, -sh * st * sp],
            [ch * st * sp, sh * ct * sp, sh * st * cp],
            [ch * ct, -sh * st, 0.0],
        ]
    )
    np.testing.assert_allclose(d, expected, atol=1e-12)


def test_time_component_has_no_angular_derivatives():
    d = unit_vector_angle_derivatives(
        _angles(Parameters(H=1.5, p=0.9)), Parameters(H=1.5, p=0.9)
    )
    assert d[0, 1] == 0.0
    assert d[0, 2] == 0.0


def test_axial_component_azimuthal_derivative_closed_form():
    # d l^3 / d theta = -(sin(theta) / (p^2 R2)) l^3
    params = Parameters(H=1.25, p=0.8)
    angles = _angles(params)
    d = unit_vector_angle_derivatives(angles, params)
    lvec = unit_vector(angles, params)
    r2 = math.cos(angles.theta) + params.azimuthal_skew * math.sin(angles.theta)
    expected = -math.sin(angles.theta) / (params.p**2 * r2) * lvec[3]
    assert d[3, 1] == pytest.approx(expected, rel=1e-12)
    assert d[3, 2] == 0.0


def test_indicatrix_metric_unit_hyperboloid():
    params = Parameters(H=1.0, p=1.0)
    m = indicatrix_metric(AngleCoords(eta=1.0, theta=math.pi / 4, phi=0.3), params)
    sh2 = math.sinh(1.0) ** 2
    np.testing.assert_allclose(m, np.diag([1.0, sh2, sh2 * 0.5]), atol=1e-10)


def test_pullback_is_transversal():
    # the angular metric annihilates the unit vector along every chart direction
    params = Parameters(H=1.25, p=0.8)
    angles = _angles(params)
    y = unit_vector(angles, params)
    h = angular_metric(y, None, params)
    d = unit_vector_angle_derivatives(angles, params)
    contraction = d.T @ h @ y
    assert np.max(np.abs(contraction)) < 1e-10


def test_indicatrix_metric_known_eta_chain(monkeypatch):
    # the chart's own eta: one profile, no frame resolution, no inversion; against the
    # pullback -(d^T h d) of the component-route h through eta_from_r(r), the one check
    # of that h on the unit surface, in the default box (gaps 0.2 to 2.4) where the
    # pullback's e^(2 eta) cancellation stays below 1e-11
    calls = {"projections": 0, "eta_from_r": 0, "hyperbolic_profile": 0}

    def counted(name):
        original = getattr(kernel, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        for module in (frame, kernel, tensors, indicatrix):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)

    for name in calls:
        counted(name)
    for params in (
        Parameters(H=1.0, p=1.0),
        Parameters(H=1.25, p=0.8),
        Parameters(H=1.5, p=0.9),
        Parameters(H=2.0, p=0.5),
        Parameters(H=5.0, p=0.9),
    ):
        domain_info(params)  # fill the domain cache outside the count
        for angles in sample_angles(params, 12, 29):
            for key in calls:
                calls[key] = 0
            metric = indicatrix_metric(angles, params)
            assert calls == {"projections": 0, "eta_from_r": 0, "hyperbolic_profile": 1}
            d = unit_vector_angle_derivatives(angles, params)
            oracle = -(d.T @ angular_metric(unit_vector(angles, params), None, params) @ d)
            assert np.max(np.abs(metric - oracle)) <= 1e-11 * np.max(np.abs(oracle))


def test_indicatrix_metric_records_positive_convention():
    params = Parameters(H=1.5, p=0.9)
    assert np.all(np.linalg.eigvalsh(indicatrix_metric(_angles(params), params)) > 0.0)


@pytest.mark.parametrize("H, p", [(1.0, 1.0), (1.25, 0.8), (2.0, 0.5), (1.5, 0.9), (50.0, 0.05)])
def test_indicatrix_metric_is_positive_definite_up_to_gap_15(H, p):
    # at every sampled gap up to 15, where a frame pullback -(d^T h d), whose eta row
    # cancels by e^(2 eta), has a non-positive eigenvalue at 480 to 562 of these points
    params = Parameters(H=H, p=p)
    points = sample_angles(params, 3000, 5, eta_margin=1e-6, theta_margin=0.05, eta_span=15)
    assert 14.9 < max(a.eta for a in points) - params.eta_min < 15.0
    for angles in points:
        assert np.linalg.eigvalsh(indicatrix_metric(angles, params))[0] > 0.0


def test_indicatrix_curvature_unit_hyperboloid():
    params = Parameters(H=1.0, p=1.0)
    ks = indicatrix_curvature(AngleCoords(eta=1.1, theta=0.8, phi=0.9), params)
    for k in ks.values():
        assert k == pytest.approx(-1.0, abs=1e-12)


def test_indicatrix_curvature_anisotropic_value():
    params = Parameters(H=1.5, p=0.9)
    ks = indicatrix_curvature(_angles(params), params)
    for k in ks.values():
        assert k == pytest.approx(-2.25, abs=1e-9)


def test_indicatrix_curvature_constant_over_sample_points():
    params = Parameters(H=1.25, p=0.8)
    rng = np.random.default_rng(13)
    dom = domain_info(params)
    pole = theta_pole(params)
    values = []
    for _ in range(20):
        angles = AngleCoords(
            eta=dom.eta_min + rng.uniform(0.25, 1.8),
            theta=rng.uniform(0.2, pole - 0.2),
            phi=rng.uniform(0.3, 5.8),
        )
        ks = indicatrix_curvature(angles, params)
        values.extend(ks.values())
    values = np.array(values)
    assert np.max(values) - np.min(values) < 1e-9


@pytest.fixture
def recorded(monkeypatch):
    """The (cartan, chart_metric, sign) of every gauss_curvatures call of either surface,
    with the sign of the metric's definiteness, as gauss_curvatures derives it.  Every
    packed entry is a Python float: a numpy scalar would put the scalar contraction on
    numpy's far slower scalar arithmetic."""
    calls = []
    original = indicatrix.gauss_curvatures

    def spy(cartan, chart_metric):
        assert (len(cartan), len(chart_metric)) in ((4, 3), (10, 6))
        assert all(type(x) is float for x in (*cartan, *chart_metric)), (cartan, chart_metric)
        calls.append((cartan, chart_metric, math.copysign(1.0, chart_metric[0])))
        return original(cartan, chart_metric)

    monkeypatch.setattr(indicatrix, "gauss_curvatures", spy)
    return calls


@pytest.mark.parametrize(
    "H, p", [(1.0, 1.0), (1.25, 0.8), (1.5, 0.9), (2.0, 0.5), (3.0, 0.3), (50.0, 0.05), (100.0, 0.999)]
)
def test_whole_curvature_tensor_is_constant(recorded, H, p):
    # the Gauss equation's whole tensor, not only its three coordinate planes:
    # R_ijkl = sign [(m_ik m_jl - m_il m_jk) - (C_ik. m^-1 C_jl. - C_il. m^-1 C_jk.)]
    # from the packed Cartan tensor and chart metric that gauss_curvatures receives,
    # must be -H^2 (m_ik m_jl - m_il m_jk) in all six components, and in m-orthonormal
    # 2-planes (Gaussian ones reach 1.6e-10 H^2 at (2, 0.5) from near-degenerate areas)
    params = Parameters(H=H, p=p)
    pair_at = np.array(packing(3)[2])
    rng = np.random.default_rng(3)
    h2 = H * H
    for angles in sample_angles(params, 300, 3):
        recorded.clear()
        indicatrix_curvature(angles, params)
        (cartan, chart_metric, _), = recorded
        r, gauss = gauss_tensor(cartan, chart_metric)
        planes = [(0, 1), (0, 2), (1, 2)]
        for a, (i, j) in enumerate(planes):
            for k, l in planes[a:]:
                norm = math.sqrt(gauss[i, j, i, j] * gauss[k, l, k, l])
                assert abs(r[i, j, k, l] + h2 * gauss[i, j, k, l]) <= 1e-9 * h2 * norm
        definite = -np.array(chart_metric)[pair_at]  # the unit surface's m is negative definite
        for _ in range(3):
            x, y = rng.normal(size=(2, 3))
            x = x / math.sqrt(x @ definite @ x)
            y = y - (x @ definite @ y) * x
            y = y / math.sqrt(y @ definite @ y)
            k = np.einsum("ijkl,i,j,k,l->", r, x, y, x, y)
            assert abs(k + h2) <= 1e-9 * h2


@pytest.mark.parametrize("H", [1.0001, 1.01, 1.25, 2.0, 10.0, 100.0])
def test_cartan_tensor_has_the_special_form_at_p_1(recorded, H):
    # at p = 1 the norm is Asanov's finsleroid: on the chart metric m and Cartan tensor
    # that gauss_curvatures receives, with C_k = m^ij C_ijk and C^2 = m^ij C_i C_j,
    # C_ijk = (m_ij C_k + m_ik C_j + m_jk C_i - C_i C_j C_k/C^2)/4 and H^2 = 1 - C^2/16;
    # the first residual grows as 1/hh towards H = 1 (worst 1.1e-15 max|C|/hh, and the
    # second 1.8e-15 H^2, over 300 points per H)
    params = Parameters(H=H, p=1.0)
    _, _, pair_at, triple_at = packing(3)
    for angles in sample_angles(params, 300, 3):
        recorded.clear()
        indicatrix_curvature(angles, params)
        (cartan, chart_metric, _), = recorded
        m = np.array(chart_metric)[np.array(pair_at)]
        c = np.array(cartan)[np.array(triple_at)]
        inv = np.linalg.inv(m)
        ck = np.einsum("ij,ijk->k", inv, c)
        c2 = ck @ inv @ ck
        form = (np.einsum("ij,k->ijk", m, ck) + np.einsum("ik,j->ijk", m, ck)
                + np.einsum("jk,i->ijk", m, ck) - np.einsum("i,j,k->ijk", ck, ck, ck) / c2) / 4.0
        assert np.max(np.abs(form - c)) <= 4e-15 * np.max(np.abs(c)) / params.boost_skew
        assert abs(1.0 - c2 / 16.0 - H * H) <= 6e-15 * H * H


# Worst measured error, each entry |c m_ij - ref_ij| over sqrt(ref_ii ref_jj), of
# section_metric (c = p^2) against the round sphere diag(1, sin^2 theta), at 2000 points
# and at 1000 in the axis band theta < AXIS_BAND, and of indicatrix_metric (c = H^2)
# against hyperbolic 3-space in polar form diag(1, sinh^2 eta, sinh^2 eta sin^2 theta),
# below the gap 2.2, in the axis band (1000 points, gaps up to 2.2) and from 2.2 to 15
# (3000 points); tolerances ~3x
AXIS_BAND = 0.05
ISOMETRY_TOLERANCES = {  # (H, p): (section, axis band, unit surface, axis band, gap 2.2 to 15)
    (1.0, 1.0): (2e-15, 2e-15, 4e-15, 4e-15, 7e-10),  # 6.7e-16, 6.7e-16, 1.3e-15, 1.3e-15, 2.3e-10
    (1.25, 1.0): (2e-15, 2e-15, 4e-15, 4e-15, 1.4e-9),  # 6.7e-16, 6.7e-16, 1.3e-15, 1.3e-15, 4.4e-10
    (1.25, 0.8): (6e-15, 3.5e-15, 3e-14, 9e-15, 1.2e-8),  # 1.9e-15, 1.1e-15, 5.3e-15, 3.0e-15, 3.2e-9
    (1.5, 0.9): (4e-15, 3.5e-15, 2e-14, 5e-15, 4.5e-9),  # 1.3e-15, 1.1e-15, 3.7e-15, 2.6e-15, 1.7e-9
    (2.0, 0.5): (1.6e-14, 4e-15, 7e-14, 1.5e-14, 3e-8),  # 5.3e-15, 1.3e-15, 2.2e-14, 4.9e-15, 7.1e-9
    (3.0, 0.3): (6e-14, 4e-15, 2e-13, 1.4e-14, 1.2e-7),  # 1.8e-14, 1.3e-15, 1.0e-13, 4.6e-15, 3.3e-8
    (50.0, 0.05): (2.2e-12, 6e-15, 1.2e-11, 3e-14, 4e-6),  # 7.3e-13, 2.0e-15, 3.0e-12, 9.2e-15, 1.0e-6
    (100.0, 0.999): (3e-15, 3e-15, 7e-15, 5.5e-15, 3e-9),  # 1.0e-15, 9.5e-16, 3.3e-15, 1.4e-15, 9.3e-10
    # small p, where the ratios of the unit vector, unlike those of the chart at r = 1,
    # are subnormal or 0
    (2.0, 0.006): (1.2e-10, 4e-13, 6e-10, 1.6e-12, 3e-4),  # 4.1e-11, 1.2e-13, 1.9e-10, 5.2e-13, 8.9e-5
    (28.39204609561534, 0.0045755159348809015): (2.2e-10, 7e-13, 1e-9, 1.8e-12, 4e-4),
    # 7.5e-11, 2.4e-13, 3.2e-10, 6.1e-13, 1.3e-4
}


def _gap_bound(params):
    """The unit surface's measured gap bound at params: GAP_MIN, or GAP_MIN_P1 at p = 1."""
    return indicatrix.GAP_MIN if params.p < 1.0 else indicatrix.GAP_MIN_P1


def _isometry_error(c, m, ref):
    """max_ij |c m_ij - ref_ij| / sqrt(ref_ii ref_jj)."""
    d = np.sqrt(np.diag(ref))
    return np.max(np.abs(c * m - ref) / np.outer(d, d))


def _axis_band(rng, count):
    """count thetas uniform from THETA_MIN to AXIS_BAND, then count phis."""
    return (rng.uniform(indicatrix.THETA_MIN, AXIS_BAND, count).tolist(),
            rng.uniform(0.0, 2.0 * math.pi, count).tolist())


@pytest.mark.parametrize("H, p", ISOMETRY_TOLERANCES)
def test_section_metric_is_the_round_sphere(recorded, H, p):
    # in (theta, phi) the section is the sphere of radius 1/p, up to the pole and in the
    # axis band; section_metric is, bit for bit, the chart metric that gauss_curvatures
    # receives in section_curvature (at phi = 0.9)
    params = Parameters(H=H, p=p)
    pair_at = np.array(packing(2)[2])
    rng = np.random.default_rng(3)
    theta = rng.uniform(1e-3, theta_pole(params) - 1e-3, 2000).tolist()
    phi = rng.uniform(0.0, 2.0 * math.pi, 2000).tolist()
    tol, band_tol = ISOMETRY_TOLERANCES[(H, p)][:2]
    for thetas, phis, bound in ((theta, phi, tol), (*_axis_band(rng, 1000), band_tol)):
        for t, f in zip(thetas, phis):
            ref = np.diag([1.0, math.sin(t) ** 2])
            assert _isometry_error(p * p, indicatrix.section_metric(t, f, params), ref) <= bound
            recorded.clear()
            section_curvature(t, params)
            (_, chart_metric, _), = recorded
            metric = indicatrix.section_metric(t, 0.9, params)
            assert np.array_equal(metric, np.array(chart_metric)[pair_at])


@pytest.mark.parametrize("H, p", ISOMETRY_TOLERANCES)
def test_indicatrix_metric_is_hyperbolic_space(recorded, H, p):
    # in (eta, theta, phi) the unit surface is hyperbolic 3-space of curvature -H^2 in
    # geodesic polar form, radius eta/H, from 1e-6 above the floor (GAP_MIN_P1 at p = 1) up
    # to the gap 15 and in the axis band (gaps up to 2.2); indicatrix_metric is the chart
    # metric gauss_curvatures receives, negated, bit for bit, and every curvature is -H^2 to
    # 1e-9 H^2 (worst 4.3e-10 H^2, at (2, 0.006))
    params = Parameters(H=H, p=p)
    pair_at = np.array(packing(3)[2])
    _, _, near, band_tol, far = ISOMETRY_TOLERANCES[(H, p)]
    low = max(1e-6, _gap_bound(params))
    rng = np.random.default_rng(5)
    gaps = rng.uniform(low, 2.2, 1000).tolist()
    band = [AngleCoords(params.eta_min + g, t, f) for g, t, f in zip(gaps, *_axis_band(rng, 1000))]
    points = sample_angles(params, 3000, 5, eta_margin=low, theta_margin=0.05, eta_span=15)
    for k, angles in enumerate(points + band):
        metric = indicatrix_metric(angles, params)
        recorded.clear()
        ks = indicatrix_curvature(angles, params)
        (_, chart_metric, _), = recorded
        assert np.array_equal(metric, -np.array(chart_metric)[pair_at])
        assert max(abs(k + H * H) for k in ks.values()) <= 1e-9 * H * H
        sh2 = math.sinh(angles.eta) ** 2
        ref = np.diag([1.0, sh2, sh2 * math.sin(angles.theta) ** 2])
        tol = band_tol if k >= 3000 else near if angles.eta - params.eta_min < 2.2 else far
        assert _isometry_error(H * H, metric, ref) <= tol


def _bands(params, rng):
    """Three bands of 300 AngleCoords each: the sample_angles box, the floor band (gaps
    log-uniform from the gap bound to 1e-2) and the axis band (thetas from THETA_MIN to
    AXIS_BAND, gaps from 1e-6, or the gap bound if larger, up to 2.2)."""
    box = sample_angles(params, 300, rng)
    bound = _gap_bound(params)
    gaps = np.exp(rng.uniform(math.log(bound), math.log(1e-2), 300)).tolist()
    thetas = rng.uniform(0.15, theta_pole(params) - 0.15, 300).tolist()
    phis = rng.uniform(0.0, 2.0 * math.pi, 300).tolist()
    floor = [AngleCoords(params.eta_min + g, t, f) for g, t, f in zip(gaps, thetas, phis)]
    gaps = rng.uniform(max(1e-6, bound), 2.2, 300).tolist()
    band = [AngleCoords(params.eta_min + g, t, f) for g, t, f in zip(gaps, *_axis_band(rng, 300))]
    return box, floor, band


def _gauss_bands(params, rng):
    """Per band of ``_bands``, the dense Gauss-equation tensors (gauss_tensor) and the chart
    metrics, from _unit_surface's packed Cartan tensor and chart metric."""
    pair_at = np.array(packing(3)[2])
    for points in _bands(params, rng):
        cartan, chart_metric = zip(*(indicatrix._unit_surface(a, params) for a in points))
        yield (*gauss_tensor(np.array(cartan), np.array(chart_metric)),
               np.array(chart_metric)[:, pair_at])


# Worst measured max|R + H^2 (m m - m m)| / max|R| over all 81 entries of the Gauss
# equation's whole tensor (gauss_tensor), over seeds 0 to 19 at 300 points per band of
# _bands; bounds c ~3x.  Next to the floor the error grows as ~1.5 eps/sqrt(gap) for p < 1
# and ~2 eps/gap at p = 1, where eta = 0 is the chart's pole; at H = 1 the Cartan tensor is 0
# and R is -(m m - m m) all but exactly
WHOLE_TENSOR_TOLERANCES = {  # (H, p): (box, floor band, axis band)
    (1.0, 1.0): (7e-31, 2e-26, 6e-30),  # 2.2e-31, 6.0e-27, 1.8e-30
    (1.25, 1.0): (7e-15, 2.2e-10, 6e-12),  # 2.4e-15, 7.4e-11, 2.0e-12
    (1.25, 0.8): (2e-15, 5e-12, 3.5e-14),  # 6.4e-16, 1.6e-12, 1.1e-14
    (1.5, 0.9): (3.5e-15, 1.1e-11, 2.6e-14),  # 1.0e-15, 3.5e-12, 8.6e-15
    (2.0, 0.5): (4e-15, 1.2e-11, 6e-14),  # 1.2e-15, 3.7e-12, 1.9e-14
    (3.0, 0.3): (4.5e-15, 1.4e-11, 1.4e-13),  # 1.5e-15, 4.4e-12, 4.7e-14
    (50.0, 0.05): (9e-14, 7e-12, 2.7e-14),  # 2.9e-14, 2.4e-12, 8.8e-15
    (100.0, 0.999): (1.2e-14, 6e-11, 1e-13),  # 3.9e-15, 2.1e-11, 3.3e-14
    (2.0, 0.006): (5e-12, 4e-12, 2e-13),  # 1.6e-12, 1.2e-12, 6.5e-14
    (28.39204609561534, 0.0045755159348809015): (1e-11, 7e-12, 2.4e-13),  # 3.3e-12, 2.3e-12, 7.9e-14
}


@pytest.mark.parametrize("H, p", ISOMETRY_TOLERANCES)
def test_every_entry_of_the_curvature_tensor_is_constant(H, p):
    # the whole tensor of the unit surface by the Gauss equation, from _unit_surface's packed
    # Cartan tensor and chart metric, is -H^2 (m_ik m_jl - m_il m_jk) in all 81 entries
    params = Parameters(H=H, p=p)
    bands = _gauss_bands(params, np.random.default_rng(5))
    for (r, gauss, _), c in zip(bands, WHOLE_TENSOR_TOLERANCES[(H, p)]):
        err = np.abs(r + H * H * gauss).max(axis=(1, 2, 3, 4))
        assert np.all(err <= c * np.abs(r).max(axis=(1, 2, 3, 4)))


# Worst measured |K + H^2| / (H^2 cond) of random 2-planes, K = R(X,Y,X,Y)/A(X,Y) with
# A = m(X,X) m(Y,Y) - m(X,Y)^2 and the area condition cond = m(X,X) m(Y,Y)/A, over seeds 0 to
# 19 at 300 planes per band of _bands; bounds c ~3x.  At small p the floor band misses
# 1e-9 H^2 cond: the (eta, phi) coordinate plane itself is off by up to 3.0e-8 H^2 in
# indicatrix_curvature at gaps below ~1e-6, which its other tests start above
PLANE_TOLERANCES = {  # (H, p): (box, floor band, axis band)
    (1.0, 1.0): (2.5e-15, 2.2e-15, 2.5e-15),  # 8.0e-16, 7.4e-16, 8.2e-16
    (1.25, 1.0): (5e-15, 6.5e-11, 1e-13),  # 1.6e-15, 2.1e-11, 3.2e-14
    (1.25, 0.8): (2.7e-15, 1.9e-12, 2.5e-15),  # 9.0e-16, 6.2e-13, 8.4e-16
    (1.5, 0.9): (4e-15, 2.3e-12, 2.7e-15),  # 1.3e-15, 7.5e-13, 9.1e-16
    (2.0, 0.5): (2.7e-15, 5e-12, 3e-15),  # 9.0e-16, 1.7e-12, 1.0e-15
    (3.0, 0.3): (2.7e-15, 2.2e-11, 6e-15),  # 9.1e-16, 7.2e-12, 1.9e-15
    (50.0, 0.05): (4.2e-14, 1.2e-9, 4.2e-15),  # 1.4e-14, 3.9e-10, 1.4e-15
    (100.0, 0.999): (7e-15, 3e-11, 1.6e-14),  # 2.4e-15, 9.7e-12, 5.2e-15
    (2.0, 0.006): (2.3e-12, 1.8e-8, 3e-14),  # 7.7e-13, 6.0e-9, 1.0e-14
    (28.39204609561534, 0.0045755159348809015): (8e-12, 1.1e-7, 2.8e-14),  # 2.6e-12, 3.7e-8, 9.4e-15
}


@pytest.mark.parametrize("H, p", ISOMETRY_TOLERANCES)
def test_sectional_curvature_of_random_planes(H, p):
    # every 2-plane, not only the coordinate ones: X and Y are not m-orthonormal, each
    # component scaled by the chart metric's diagonal, and Y is turned off X by an angle
    # log-uniform from 1e-4 to 1, so thin planes, whose area cancels, are drawn too
    params = Parameters(H=H, p=p)
    rng = np.random.default_rng(7)
    for (r, _, m), c in zip(_gauss_bands(params, rng), PLANE_TOLERANCES[(H, p)]):
        scale = 1.0 / np.sqrt(np.abs(np.diagonal(m, axis1=1, axis2=2)))
        x, z = rng.normal(size=(2, *scale.shape)) * scale
        turn = np.exp(rng.uniform(math.log(1e-4), 0.0, len(m)))[:, None]
        y = np.cos(turn) * x + np.sin(turn) * z
        xx, yy, xy = (np.einsum("nij,ni,nj->n", m, u, v) for u, v in ((x, x), (y, y), (x, y)))
        area = xx * yy - xy * xy
        k = np.einsum("nijkl,ni,nj,nk,nl->n", r, x, y, x, y) / area
        assert np.all(np.abs(k + H * H) <= c * H * H * xx * yy / area)


def test_indicatrix_curvature_polar_translation_invariance():
    params = Parameters(H=1.25, p=0.8)
    dom = domain_info(params)
    ks = []
    for phi in (0.4, 1.7, 3.0, 5.1):
        angles = AngleCoords(eta=dom.eta_min + 0.8, theta=0.7, phi=phi)
        ks.append(indicatrix_curvature(angles, params)[(0, 1)])
    ks = np.array(ks)
    assert np.max(ks) - np.min(ks) < 1e-9


@pytest.mark.parametrize("H, p", [(1.25, 0.8), (1.25, 1.0)])
def test_chart_above_the_domain_raises_outside_eta_domain(H, p):
    # From eta - eta_min ~ 18, r(eta) rounds to r_sup, where the chart point's
    # vector leaves the open radial interval; further out the profile gave
    # NaN, ZeroDivisionError or OverflowError.  Past ETA_CAP no profile runs.
    params = Parameters(H=H, p=p)
    calls = (
        lambda a: kernel.structural_profile(a.eta, params).V,
        lambda a: kernel.vector_from_angles(a, 1.0, params).b,
        lambda a: unit_vector(a, params),
        lambda a: indicatrix_metric(a, params),
        lambda a: list(indicatrix_curvature(a, params).values()),
    )
    for call in calls:
        assert np.isfinite(call(_angles(params, d_eta=15.0))).all()
    for gap in (20.0, 100.0, 400.0, 800.0):
        for call in calls:
            with pytest.raises(OutsideEtaDomain, match="eta=.*(r_sup|cap)"):
                call(_angles(params, d_eta=gap))


@pytest.mark.parametrize(
    "H, p",
    [(1.0, 1.0), (1.25, 1.0), (1.25, 0.8), (1.5, 0.9), (2.0, 0.5), (50.0, 0.05), (100.0, 0.999)],
)
def test_curvature_holds_up_to_the_chart_ceiling(H, p):
    # With the chart's ceiling one eta per pair (15.9 to 17 above the floor),
    # no curvature bound of its own is needed up there: the Gauss route stays
    # within 3e-13 H^2 from a gap of 0.01 up to the last accepted eta, where a
    # bound GAP_MAX = 16 raised for the pairs whose ceiling lies above 16.
    params = Parameters(H=H, p=p)
    floor = domain_info(params).eta_min
    lo, hi = 10.0, 40.0  # bisect the chart's ceiling gap
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        try:
            kernel.structural_profile(floor + mid, params)
            lo = mid
        except OutsideEtaDomain:
            hi = mid
    assert 15.9 < lo < 17.0
    gaps = np.concatenate([np.linspace(0.01, lo, 12), lo - np.geomspace(1e-9, 0.5, 6)])
    for gap in gaps:
        for theta, phi in ((0.3, 0.5), (0.9, 4.0), (0.5 * theta_pole(params), 2.0)):
            ks = indicatrix_curvature(AngleCoords(floor + gap, theta, phi), params)
            for k in ks.values():
                assert abs(k + H * H) <= 1e-9 * H * H, (gap, theta, phi, k)
    with pytest.raises(OutsideEtaDomain, match="r_sup"):
        indicatrix_curvature(AngleCoords(floor + hi, 0.6, 1.2), params)


def test_curvature_domain_bounds():
    # the measured bounds of the Gauss route raise typed errors that name them, in the
    # unit surface's metric as in its curvatures
    params = Parameters(H=1.25, p=0.8)
    floor = domain_info(params).eta_min
    for gap in (0.0, 0.5 * indicatrix.GAP_MIN):
        for call in (indicatrix_curvature, indicatrix_metric):
            with pytest.raises(OutsideEtaDomain, match="GAP_MIN = "):
                call(AngleCoords(eta=floor + gap, theta=0.7, phi=1.0), params)
    # at p = 1, where eta = 0 is the chart's pole, the bound is GAP_MIN_P1: at a gap of 1e-8
    # the curvatures were off by up to 1.3e-7 H^2; at the bound they are within 1e-9 H^2
    unit = Parameters(H=1e3, p=1.0)
    for gap in (2.0 * indicatrix.GAP_MIN, 0.5 * indicatrix.GAP_MIN_P1):
        for call in (indicatrix_curvature, indicatrix_metric):
            with pytest.raises(OutsideEtaDomain, match="GAP_MIN_P1 = 1e-05"):
                call(AngleCoords(eta=gap, theta=0.7, phi=1.0), unit)
    for k in indicatrix_curvature(AngleCoords(indicatrix.GAP_MIN_P1, 0.7, 1.0), unit).values():
        assert abs(k + 1e6) <= 1e-9 * 1e6
    # points the chart accepted while r(eta) dithered around r_sup, where the
    # curvature was off by up to 1e-6 at gap 20 and by 7 at 30, so a bound
    # GAP_MAX = 16 rejected them; the chart's own ceiling rejects them now, in
    # every chart call
    for pair, gap in (((1.5, 0.9), 20.0), ((1.5, 0.9), 24.0), ((2.0, 0.5), 22.0)):
        far = Parameters(*pair)
        for call in (indicatrix_curvature, indicatrix_metric, unit_vector,
                     unit_vector_angle_derivatives,
                     lambda a, q: kernel.vector_from_angles(a, 1.0, q),
                     lambda a, q: kernel.structural_profile(a.eta, q)):
            with pytest.raises(OutsideEtaDomain, match="eta=.*r_sup"):
                call(_angles(far, d_eta=gap), far)
    for theta in (0.0, 0.9 * indicatrix.THETA_MIN):
        for call in (indicatrix_curvature, indicatrix_metric):
            with pytest.raises(PolarAxisSingular, match="THETA_MIN"):
                call(_angles(params, theta=theta), params)
        with pytest.raises(PolarAxisSingular, match="THETA_MIN"):
            section_curvature(theta, params)
    with pytest.raises(ThetaPole):
        section_curvature(theta_pole(params), params)
    # just inside the bounds: 1e-4 above the floor, 1e-4 below the pole and
    # theta from THETA_MIN up to 0.006
    ks = indicatrix_curvature(AngleCoords(eta=floor + 1e-4, theta=0.7, phi=1.0), params)
    for k in ks.values():
        assert abs(k + params.H ** 2) < 1e-9 * params.H ** 2
    assert abs(section_curvature(theta_pole(params) - 1e-4, params) - params.p ** 2) < 1e-9
    for theta in (indicatrix.THETA_MIN, 0.0045, 0.005, 0.0059):
        assert abs(section_curvature(theta, Parameters(H=1.5, p=0.9)) - 0.81) < 1e-9
        for k in indicatrix_curvature(_angles(params, theta=theta), params).values():
            assert abs(k + params.H ** 2) < 1e-9 * params.H ** 2


def test_chart_metric_whose_determinant_underflows_is_a_domain_error():
    # at p = 1 with H near 3e49, next to eta = 0 (above GAP_MIN_P1), the chart metric is of
    # order 1/H^2 and its 3 x 3 cofactor determinant underflows below the normal floats, to
    # -3e-323, where the curvatures would be off by 6.9e-2 and 2.1e-2 H^2; the metric itself
    # still holds the closed form
    for H, angles in (
        (3.831642594508353e49, (1.548442026958528e-05, 0.001232395882317426, 4.996759922332686)),
        (2.8226178674228885e49, (1.0021609286595079e-05, 0.0012063603419593177, 5.776427275498227)),
    ):
        angles = AngleCoords(*angles)
        params = Parameters(H, 1.0)
        with pytest.raises(DomainError, match="determinant underflows"):
            indicatrix_curvature(angles, params)
        sh2 = math.sinh(angles.eta) ** 2
        ref = np.diag([1.0, sh2, sh2 * math.sin(angles.theta) ** 2])
        assert _isometry_error(H * H, indicatrix_metric(angles, params), ref) <= 4e-15


@pytest.mark.parametrize(
    "H, p, gap, theta",
    [
        (1.25, 0.9, 0.01, 0.006),
        (2.0, 0.9, 0.006, 0.006),
        (5.0, 0.9, 0.1, 0.006),
        (1.0, 1.0, 0.05, 0.01),
        (2.0, 1.0, 0.2, 0.006),
        (2.0, 1.0, 0.003, 0.05),
        (1.25, 0.8, 0.5, 0.7),
    ],
)
def test_curvature_near_axis_and_floor_table(H, p, gap, theta):
    # rows where the stencil missed by up to 9e-2, worst over 16 phi
    params = Parameters(H=H, p=p)
    for phi in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
        ks = indicatrix_curvature(_angles(params, d_eta=gap, theta=theta, phi=phi), params)
        for k in ks.values():
            assert abs(k + H * H) < 1e-9


def test_curvature_at_inputs_the_stencil_missed():
    # the section near the axis, where the stencil was off by 2.3e-3
    assert abs(section_curvature(0.0045, Parameters(H=1.5, p=0.9)) - 0.81) < 1e-9 * 0.81
    # H = p = 1, 3e-3 above the chart pole eta = 0: the stencil was off by 2.3e-2
    unit = Parameters(H=1.0, p=1.0)
    for theta in (0.05, 0.6):
        for k in indicatrix_curvature(AngleCoords(eta=0.003, theta=theta, phi=1.2), unit).values():
            assert abs(k + 1.0) < 1e-9
    # theta at the old floor 0.006 and eta near eta_min at once (off by 4.9e-2 and
    # 9.8e-3), worst over 72 phi
    for params, gap in ((Parameters(H=5.0, p=0.9), 0.1), (Parameters(H=2.0, p=0.9), 0.006)):
        h2 = params.H ** 2
        for phi in np.linspace(0.0, 2.0 * math.pi, 72, endpoint=False):
            ks = indicatrix_curvature(_angles(params, d_eta=gap, theta=0.006, phi=phi), params)
            for k in ks.values():
                assert abs(k + h2) < 1e-9 * h2


def _metric_rows(params):
    """``indicatrix_metric`` at each of (m, 3) angle rows, as an (m, 3, 3) array."""
    return lambda x: np.array([indicatrix_metric(AngleCoords(*row), params) for row in x])


def _section_rows(params):
    """``section_metric`` at each of (m, 2) angle rows, as an (m, 2, 2) array."""
    return lambda x: np.array([indicatrix.section_metric(t, f, params) for t, f in x.tolist()])


# Both chart metrics against their closed forms, hyperbolic 3-space
# diag(1, sinh^2 eta, sinh^2 eta sin^2 theta)/H^2 and the sphere diag(1, sin^2 theta)/p^2:
# worst 3.6e-15 and 1.8e-15 (_isometry_error) over the points of the two tests below
CLOSED_FORM_BOUND = 1e-14


def _hyperbolic_space(eta, theta):
    """H^2 times the unit surface's closed-form metric at (eta, theta)."""
    sh2 = math.sinh(eta) ** 2
    return np.diag([1.0, sh2, sh2 * math.sin(theta) ** 2])


def _sphere(theta):
    """p^2 times the section's closed-form metric at theta."""
    return np.diag([1.0, math.sin(theta) ** 2])


@pytest.mark.parametrize("H, p", [(1.0, 1.0), (1.25, 0.8), (1.5, 0.9), (2.0, 0.5), (5.0, 0.9)])
def test_gauss_route_matches_the_closed_forms_at_interior_points(H, p):
    # the Gauss route's inputs, both chart metrics, are the closed forms of spaces of
    # curvature -H^2 and p^2, and its curvatures are those values
    params = Parameters(H=H, p=p)
    h2 = H * H
    for angles in sample_angles(params, 4, 31):
        ref = _hyperbolic_space(angles.eta, angles.theta)
        assert _isometry_error(h2, indicatrix_metric(angles, params), ref) <= CLOSED_FORM_BOUND
        section = indicatrix.section_metric(angles.theta, 0.9, params)
        assert _isometry_error(p * p, section, _sphere(angles.theta)) <= CLOSED_FORM_BOUND
        for k in indicatrix_curvature(angles, params).values():
            assert abs(k + h2) < 1e-11 * h2
        assert abs(section_curvature(angles.theta, params) - p * p) < 1e-12


def test_unit_surface_metric_and_curvatures_build_no_unit_vector(monkeypatch):
    # _chart_vector, which builds the unit vector, is read by unit_vector_angle_derivatives:
    # the metric and the curvatures read the chart at r = 1 and build no unit vector
    calls = []
    original = indicatrix._chart_vector

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(indicatrix, "_chart_vector", counted)
    params = Parameters(H=1.25, p=0.8)
    angles = _angles(params)
    indicatrix_metric(angles, params)
    indicatrix_curvature(angles, params)
    assert not calls
    unit_vector_angle_derivatives(angles, params)
    assert len(calls) == 1


def test_curvature_at_near_axis_theta_floor():
    for params in (
        Parameters(H=1.25, p=0.8),
        Parameters(H=1.5, p=0.9),
        Parameters(H=2.0, p=0.5),
    ):
        for theta in (0.006, 0.008):
            assert abs(section_curvature(theta, params) - params.p**2) < 1e-9
        ks = indicatrix_curvature(_angles(params, theta=0.006), params)
        for k in ks.values():
            assert abs(k + params.H**2) < 1e-9


def test_section_curvature_round_sphere():
    assert section_curvature(0.8, Parameters(H=1.5, p=1.0)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_section_curvature_anisotropic_value():
    assert section_curvature(0.7, Parameters(H=1.5, p=0.8)) == pytest.approx(
        0.64, abs=1e-9
    )


def test_section_curvature_constant_over_chart():
    params = Parameters(H=1.25, p=0.6)
    pole = theta_pole(params)
    values = [
        section_curvature(theta, params)
        for theta in np.linspace(0.2, pole - 0.2, 9)
    ]
    values = np.array(values)
    assert np.max(values) - np.min(values) < 1e-9
    assert values[0] == pytest.approx(0.36, abs=1e-9)


@pytest.mark.parametrize("H, p", [(1.0, 1.0), (1.25, 0.8), (2.0, 0.5)])
def test_metric_rows_match_the_scalar_metrics_and_the_closed_forms(H, p):
    # each metric taken on a block of rows around one point (37 and 17 of them): every row
    # is the scalar metric at the row's chart point and the closed form there
    params = Parameters(H=H, p=p)
    angles = _angles(params)
    rng = np.random.default_rng(11)
    points3 = np.array([angles.eta, angles.theta, angles.phi]) + rng.uniform(-2e-3, 2e-3, (37, 3))
    points2 = np.array([0.6, 0.9]) + rng.uniform(-2e-3, 2e-3, (17, 2))
    metrics3, metrics2 = _metric_rows(params)(points3), _section_rows(params)(points2)
    assert metrics3.shape == (37, 3, 3) and metrics2.shape == (17, 2, 2)
    for point, metric in zip(points3, metrics3):
        scalar = indicatrix_metric(AngleCoords(*point), params)
        assert np.max(np.abs(metric - scalar)) <= 1e-13 * np.max(np.abs(scalar))
        # exactly symmetric, at a point and in a batch
        assert np.array_equal(metric, metric.T) and np.array_equal(scalar, scalar.T)
        assert _isometry_error(H * H, metric, _hyperbolic_space(*point[:2])) <= CLOSED_FORM_BOUND
    for point, metric in zip(points2, metrics2):
        scalar = indicatrix.section_metric(point[0], point[1], params)
        assert np.max(np.abs(metric - scalar)) <= 1e-13 * np.max(np.abs(scalar))
        assert np.array_equal(metric, metric.T) and np.array_equal(scalar, scalar.T)
        assert _isometry_error(p * p, metric, _sphere(point[0])) <= CLOSED_FORM_BOUND


def test_section_chart_jacobian_matches_hyperdual_pass():
    # the closed-form chart Jacobian against one hyper-dual pass per angle
    # through the chart as written before it had a closed form
    for H, p in ((1.5, 1.0), (1.25, 0.8), (1.5, 0.9), (2.0, 0.5), (1.25, 0.6), (5.0, 0.9)):
        params = Parameters(H=H, p=p)
        gp = params.azimuthal_skew

        def chart(th, ph):
            big_i = dm.exp(gp * th)
            w_perp = dm.sin(th) / (p * big_i)
            w3 = (dm.cos(th) + gp * dm.sin(th)) / big_i
            return w_perp * dm.cos(ph), w_perp * dm.sin(ph), w3

        rows = [
            (theta, phi)
            for theta in np.linspace(0.006, theta_pole(params) - 0.01, 30)
            for phi in (0.0, 0.9, 2.5, 4.4)
        ]
        _, batch_w, batch_jac = kernel._section_chart(*np.array(rows).T, params)
        batch_w, batch_jac = np.array(batch_w[:3]).T, np.array(batch_jac).T
        for k, row in enumerate(rows):
            w0, jac0 = dm.gradient(chart, row)
            _, w, jac = kernel._section_chart(*row, params)
            w, jac = np.array(w[:3]), np.array(jac)
            assert np.max(np.abs(w - w0)) <= 1e-14 * np.max(np.abs(w0))
            assert np.max(np.abs(jac - jac0)) <= 1e-14 * np.max(np.abs(jac0))
            assert np.max(np.abs(batch_w[k] - w)) <= 1e-14 * np.max(np.abs(w))
            assert np.max(np.abs(batch_jac[k].T - jac)) <= 1e-14 * np.max(np.abs(jac))


def test_eta_derivatives_at_the_p_1_floor_raise_outside_eta_domain():
    # d ln r/d eta = 1/(p^2 R1 sinh eta) at eta = 0, the p = 1 floor, which AngleCoords and
    # the chart accept: a float point raised ZeroDivisionError, a batch row gave inf with a
    # RuntimeWarning, also where sinh eta is subnormal
    params = Parameters(H=1.25, p=1.0)
    good = [0.5, 0.5, 1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eta in (0.0, 1e-310):
            with pytest.raises(OutsideEtaDomain, match=f"overflows at eta={eta}"):
                unit_vector_angle_derivatives(AngleCoords(eta, 0.5, 1.0), params)
            with pytest.raises(OutsideEtaDomain, match=f"overflows at eta={eta}"):
                unit_vector_angle_derivatives(np.array([good, [eta, 0.5, 1.0], good]), params)
        # from the smallest normal sinh eta on, the derivatives are finite
        d = unit_vector_angle_derivatives(AngleCoords(2.0 ** -1022, 0.5, 1.0), params)
        assert np.isfinite(d).all()
        assert unit_vector(AngleCoords(0.0, 0.5, 1.0), params).tolist() == [1.0, 0.0, 0.0, 0.0]


def test_chart_overflow_of_exp_gp_theta_raises_outside_axial_region():
    # At p = 0.0036 (gp = 275), exp(gp theta) overflows from theta = 2.58 on.
    # Only the curvatures guarded it; every other chart call raised math's
    # OverflowError, and a batch chart returned w3 = 0 with a RuntimeWarning.
    params = Parameters(3.5795676089825723, 0.003641003953434029)
    angles = AngleCoords(eta=params.eta_min + 0.0053, theta=2.806253026091126, phi=1.2)
    calls = (
        lambda: unit_vector(angles, params),
        lambda: indicatrix_metric(angles, params),
        lambda: unit_vector_angle_derivatives(angles, params),
        lambda: kernel.vector_from_angles(angles, 1.0, params),
        lambda: indicatrix_curvature(angles, params),
        lambda: unit_vector_angle_derivatives(
            np.array([[angles.eta, 0.5, 1.2], [angles.eta, angles.theta, 1.2]]), params),
        lambda: sample_vectors(params, 5, 1),
        lambda: indicatrix.section_metric(angles.theta, 0.9, params),
        lambda: section_curvature(angles.theta, params),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(OutsideAxialRegion, match="exp.gp theta. overflows"):
                call()
    # the section chart takes one point: rows are malformed input, before any domain guard
    with pytest.raises(ValueError, match=r"takes one theta and one phi, got an array of shape \(2,\)"):
        indicatrix.section_metric(np.array([0.5, angles.theta]), np.full(2, 0.9), params)
    # below the overflow the same chart maps the point
    assert np.isfinite(unit_vector(AngleCoords(angles.eta, 2.5, 1.2), params)).all()


def test_curvature_where_the_unit_vector_ratios_underflow():
    # below p ~ 0.005 the unit vector's ratios r(eta) (sin/p, R2)/exp(gp theta) underflow:
    # to 0 at p = 0.0036 (gp = 275), theta = 2.5, where the curvature raised
    # PolarAxisSingular, and to subnormals of one or two bits at p = 0.0046, where it was
    # off by 1.6e-3 H^2; the chart at r = 1 keeps them normal, so both points are answered
    for (H, p), (gap, theta, phi) in (
        ((3.5795676089825723, 0.003641003953434029), (1.0, 2.5, 1.2)),
        ((28.39204609561534, 0.0045755159348809015),
         (0.6476158548487826, 1.8519469278613734, 0.21059059503240482)),
    ):
        params = Parameters(H, p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ks = indicatrix_curvature(AngleCoords(params.eta_min + gap, theta, phi), params)
        for k in ks.values():
            assert abs(k + H * H) <= 1e-9 * H * H


def test_batch_domain_failure_matches_scalar_error():
    # one bad row in a batch raises what the scalar call at that row raises; the section
    # metric takes one point, so its batch is a ValueError whatever its rows
    params = Parameters(H=1.25, p=0.8)
    floor = domain_info(params).eta_min
    pole = theta_pole(params)
    good = [floor + 0.9, 0.6, 1.2]
    cases = (
        ([floor - 1e-3, 0.6, 1.2], OutsideEtaDomain),
        ([floor + 0.9, pole + 1e-3, 1.2], ThetaPole),
        ([floor + 0.9, 0.0, 1.2], PolarAxisSingular),
    )
    for bad, error in cases:
        with pytest.raises(error):
            indicatrix_metric(AngleCoords(*bad), params)
        with pytest.raises(error):
            unit_vector_angle_derivatives(np.array([good, bad, good]), params)
    for theta, error in ((pole + 1e-3, ThetaPole), (0.0, PolarAxisSingular)):
        with pytest.raises(error):
            indicatrix.section_metric(theta, 0.9, params)
        with pytest.raises(ValueError, match=r"got an array of shape \(3,\)"):
            indicatrix.section_metric(np.array([0.6, theta, 0.7]), np.full(3, 0.9), params)


def test_non_finite_section_angles_are_malformed_input():
    # a NaN or infinite angle is a ValueError before any domain guard, as in AngleCoords;
    # these raised PolarAxisSingular, OutsideAxialRegion and math's bare ValueError
    params = Parameters(H=1.25, p=0.8)
    for theta, phi in ((0.6, math.nan), (math.nan, 0.9), (0.6, math.inf)):
        with pytest.raises(ValueError, match="takes finite angles"):
            indicatrix.section_metric(theta, phi, params)
    with pytest.raises(ValueError, match="takes finite angles"):
        section_curvature(math.nan, params)


# Rows of a batch chart call against the call on each row's AngleCoords: numpy's
# sin, exp, sinh and arctan2 may round differently from math's, by at most 3.1
# units of 2^-52 relative over 200 sample_angles points on each of the seven pairs
CHART_ROW_BOUND = 4 * 2.0 ** -52
CHART_PAIRS = ((1.0, 1.0), (1.25, 1.0), (1.25, 0.8), (1.5, 0.9), (2.0, 0.5), (50.0, 0.05),
               (100.0, 0.999))


def _floats_of(parts):
    """Every leaf of nested tuples and lists of chart components."""
    for part in parts:
        if isinstance(part, (tuple, list)):
            yield from _floats_of(part)
        else:
            yield part


@pytest.mark.parametrize("H, p", CHART_PAIRS)
def test_one_chart_path_for_floats_and_arrays(H, p):
    # one chart code path: Python floats at an AngleCoords, arrays of m at (m, 3) rows
    params = Parameters(H=H, p=p)
    points = sample_angles(params, 40, 17)
    rows = np.array([[a.eta, a.theta, a.phi] for a in points])
    (prof, _, y), d = (kernel._chart_vector(rows, 1.0, params),
                       unit_vector_angle_derivatives(rows, params))
    trig, w, jac = kernel._section_chart(rows[:, 1], rows[:, 2], params)
    for k, angles in enumerate(points):
        one = kernel._chart_vector(angles, 1.0, params)
        section = kernel._section_chart(angles.theta, angles.phi, params)
        assert all(type(c) is float for c in _floats_of((one, section)))
        for c, single in zip(prof, one[0]):
            assert abs(c[k] - single) <= CHART_ROW_BOUND * abs(single)
        single = unit_vector_angle_derivatives(angles, params)
        assert np.max(np.abs(d[k] - single)) <= CHART_ROW_BOUND * np.max(np.abs(single))
        for batch, single in ((y, one[2]), (trig, section[0]), (w, section[1]),
                              (jac, section[2])):
            single = np.array(single)
            row = np.array([[c[k] for c in part] if isinstance(part, list) else part[k]
                            for part in batch])
            assert np.max(np.abs(row - single)) <= CHART_ROW_BOUND * np.max(np.abs(single))


def test_public_chart_functions_keep_their_arrays():
    params = Parameters(H=2.0, p=0.5)
    points = sample_angles(params, 5, 3)
    angles = points[0]
    rows = np.array([[a.eta, a.theta, a.phi] for a in points])
    d = unit_vector_angle_derivatives(rows, params)
    vectors = sample_vectors(params, 5, 3)
    for array, shape in (
        (unit_vector(angles, params), (4,)),
        (unit_vector_angle_derivatives(angles, params), (4, 3)),
        (indicatrix_metric(angles, params), (3, 3)),
        (d, (5, 4, 3)),
        (indicatrix.section_metric(0.6, 0.9, params), (2, 2)),
        (vectors, (5, 4)),
    ):
        assert isinstance(array, np.ndarray) and array.shape == shape
    assert vectors.flags.c_contiguous
    # each surface's metric and curvatures take one point: rows are malformed input
    for call in (indicatrix_metric, indicatrix_curvature):
        with pytest.raises(ValueError, match="takes AngleCoords, got ndarray"):
            call(rows, params)
    for call in (lambda: indicatrix.section_metric(rows[:, 1], rows[:, 2], params),
                 lambda: indicatrix.section_metric(0.6, rows[:, 2], params),
                 lambda: section_curvature(rows[:, 1], params)):
        with pytest.raises(ValueError, match=r"one theta and one phi, got an array of shape \(5,\)"):
            call()


def test_every_chart_edge_raises_the_same_error_for_a_point_and_a_batch_row():
    params = Parameters(H=1.25, p=0.8)
    floor = domain_info(params).eta_min
    tiny_p = Parameters(3.5795676089825723, 0.003641003953434029)  # exp(gp theta) overflows
    edges = (
        (params, (floor - 1e-3, 0.6, 1.2), OutsideEtaDomain, "below the domain floor"),
        (params, (kernel.ETA_CAP + 1.0, 0.6, 1.2), OutsideEtaDomain, "above the cap"),
        (params, (floor + 20.0, 0.6, 1.2), OutsideEtaDomain, "r_sup"),
        (params, (floor + 0.9, theta_pole(params) + 1e-3, 1.2), ThetaPole, "R2="),
        (tiny_p, (tiny_p.eta_min + 0.0053, 2.806253026091126, 1.2), OutsideAxialRegion,
         "exp.gp theta. overflows"),
        (params, (floor + 0.9, 0.0, 1.2), PolarAxisSingular, "polar axis"),
        (Parameters(H=1.25, p=1.0), (0.0, 0.5, 1.0), OutsideEtaDomain, "sinh eta\\) overflows"),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q, bad, error, match in edges:
            good = [domain_info(q).eta_min + 0.9, 0.5, 1.2]
            with pytest.raises(error, match=match):
                unit_vector_angle_derivatives(AngleCoords(*bad), q)
            with pytest.raises(error, match=match):
                unit_vector_angle_derivatives(np.array([good, bad, good]), q)
            if error in (OutsideAxialRegion, ThetaPole):
                with pytest.raises(error, match=match):
                    kernel._section_chart(bad[1], 0.9, q)
                with pytest.raises(error, match=match):
                    kernel._section_chart(np.array([0.5, bad[1]]), np.array([0.9, 0.9]), q)
        # the curvatures' measured bounds: no batch curvature exists, so one point each
        for theta in (0.0, 0.5 * indicatrix.THETA_MIN):
            with pytest.raises(PolarAxisSingular, match="THETA_MIN"):
                indicatrix_curvature(AngleCoords(floor + 0.9, theta, 1.2), params)
            with pytest.raises(PolarAxisSingular, match="THETA_MIN"):
                section_curvature(theta, params)
        with pytest.raises(OutsideEtaDomain, match="GAP_MIN"):
            indicatrix_curvature(AngleCoords(floor + 0.5 * indicatrix.GAP_MIN, 0.6, 1.2), params)


def _ulp_steps(x, below, above):
    """x stepped from ``below`` ulps under it to ``above`` over it, one ulp at a time."""
    down, up = [x], [x]
    for _ in range(below):
        down.append(math.nextafter(down[-1], -math.inf))
    for _ in range(above):
        up.append(math.nextafter(up[-1], math.inf))
    return down[:0:-1] + up


def test_every_chart_route_raises_thetapole_exactly_from_the_pole():
    # theta >= theta_pole is the chart's domain edge; the R2 = cos + gp sin <= 0 test it
    # replaces let thetas a few ulps past the pole through wherever R2 rounded up to a
    # positive float (1,357 of 243,000 probes at 3,000 p, on the unit surface, in
    # vector_from_angles and in one-row batches).  1,000 p log-uniform on [0.05, 1] at H = 2,
    # 81 thetas each from 40 ulps below the pole to 40 above: the unit surface, the section,
    # vector_from_angles and the batch chart accept every theta below and reject every theta
    # from the pole on (0 of 243,000 at 3,000 p too)
    rng = np.random.default_rng(38)
    wrong = []
    for p in np.exp(rng.uniform(math.log(0.05), 0.0, 1000)).tolist():
        params = Parameters(H=2.0, p=p)
        pole, eta = theta_pole(params), params.eta_min + 1.0
        thetas = _ulp_steps(pole, 40, 40)
        for theta in thetas:
            angles = AngleCoords(eta, theta, 0.9)
            for name, call in (
                ("unit surface", lambda: indicatrix_metric(angles, params)),
                ("section", lambda: indicatrix.section_metric(theta, 0.9, params)),
                ("vector_from_angles", lambda: kernel.vector_from_angles(angles, 1.0, params)),
            ):
                try:
                    call()
                    raised = False
                except ThetaPole:
                    raised = True
                if raised != (theta >= pole):
                    wrong.append((p, theta, name))
        rows = np.array([[eta, theta, 0.9] for theta in thetas])
        assert unit_vector(rows[:40], params).shape == (40, 4)
        for bad in (rows[40:41], rows[40:]):
            with pytest.raises(ThetaPole, match="R2="):
                unit_vector(np.concatenate([rows[:40], bad]), params)
    assert not wrong, (len(wrong), wrong[:5])


def test_batch_rows_and_angular_profile_reject_a_theta_below_zero():
    # R2 = cos theta + gp sin theta is also <= 0 below theta_pole - pi, which the R2 <= 0 test
    # caught and theta >= theta_pole does not: a batch row takes AngleCoords' range, as a point
    # does, and angular_profile the chart's [0, theta_pole)
    params = Parameters(H=2.0, p=0.5)
    eta = params.eta_min + 1.0
    for theta in (-1.0, -0.1, -1e-300, math.nan):
        with pytest.raises(ValueError, match=r"theta must be in \[0, pi\)"):
            AngleCoords(eta, theta, 0.9)
        with pytest.raises(ValueError, match=r"theta must be in \[0, pi\)"):
            unit_vector(np.array([[eta, 0.5, 0.9], [eta, theta, 0.9]]), params)
        with pytest.raises(ThetaPole, match="R2="):
            kernel.angular_profile(theta, params)
    for theta in (math.pi, 4.0):
        with pytest.raises(ValueError, match=r"theta must be in \[0, pi\)"):
            unit_vector_angle_derivatives(np.array([[eta, theta, 0.9]]), params)
    assert kernel.angular_profile(0.0, params) == kernel.AngularProfile(1.0, 1.0, 1.0)
