"""Structural functions, angle maps, inversion and the quadrature oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finsleroid import (
    AngleCoords,
    EmptyDomain,
    OutsideEtaDomain,
    OutsideRadialDomain,
    Parameters,
    ThetaPole,
    angles_from_vector,
    angular_profile,
    domain_info,
    eta_from_r,
    finsler_norm,
    isotropic_v_squared,
    oracle_quadrature,
    structural_profile,
    theta_from_f,
    theta_pole,
    vector_from_angles,
)
from finsleroid.kernel import hyperbolic_profile


# ---------------------------------------------------------------- profiles


def test_structural_profile_pseudo_euclidean():
    bundle = structural_profile(0.7, Parameters(H=1.0, p=1.0))
    assert bundle.A == 0.0
    assert bundle.R1 == pytest.approx(math.cosh(0.7), rel=1e-15)
    assert bundle.J == 1.0
    assert bundle.Y1 == 1.0
    assert bundle.V == pytest.approx(1.0 / math.cosh(0.7), rel=1e-14)
    assert bundle.r == pytest.approx(math.tanh(0.7), rel=1e-14)
    assert not bundle.near_boundary


def test_structural_profile_at_domain_floor():
    params = Parameters(H=1.25, p=0.8)
    dom = domain_info(params)
    assert math.sinh(dom.eta_min) == pytest.approx(1.25, rel=1e-13)
    bundle = structural_profile(dom.eta_min, params)
    assert bundle.A == pytest.approx(0.0, abs=1e-7)
    assert bundle.R1 == pytest.approx(math.cosh(dom.eta_min), rel=1e-12)
    assert bundle.R1 == pytest.approx(1.6007810593582121, rel=1e-12)
    assert bundle.J == pytest.approx(1.0, rel=1e-7)
    assert bundle.near_boundary


def test_structural_profile_matches_isotropic_closed_form():
    # independent route: closed form of V^2 at p = 1 evaluated at r(eta)
    params = Parameters(H=2.0, p=1.0)
    bundle = structural_profile(1.0, params)
    assert bundle.V**2 == pytest.approx(
        isotropic_v_squared(bundle.r, 2.0), rel=1e-12
    )


def test_structural_profile_below_floor_raises():
    params = Parameters(H=1.25, p=0.8)
    with pytest.raises(OutsideEtaDomain):
        structural_profile(0.5, params)


def test_exponential_factor_matches_arccosh_form():
    # the power form must agree with the arccosh-exponential normalization
    for h_val, p_val, eta in [(1.5, 0.9, 1.2), (2.0, 0.5, 2.0), (1.25, 0.8, 1.5)]:
        params = Parameters(H=h_val, p=p_val)
        bundle = structural_profile(eta, params)
        hh = params.boost_skew
        k = p_val * math.sqrt(h_val**2 - 1.0) / math.sqrt(h_val**2 - p_val**2)
        expected = math.exp(hh * math.acosh(k * math.cosh(eta)))
        assert bundle.J == pytest.approx(expected, rel=1e-12)


def test_angular_profile_examples():
    prof = angular_profile(math.pi / 3, Parameters(H=1.0, p=1.0))
    assert prof.R2 == pytest.approx(0.5, rel=1e-14)
    assert prof.I == 1.0
    assert prof.U == pytest.approx(2.0, rel=1e-14)

    prof = angular_profile(0.0, Parameters(H=1.25, p=0.8))
    assert (prof.R2, prof.I, prof.U) == (1.0, 1.0, 1.0)

    prof = angular_profile(math.pi / 2, Parameters(H=1.25, p=0.8))
    assert prof.R2 == pytest.approx(0.75, rel=1e-14)
    assert prof.I == pytest.approx(3.2481878138737237, rel=1e-14)
    assert prof.U == pytest.approx(4.330917085164965, rel=1e-14)


def test_angular_profile_pole():
    params = Parameters(H=1.25, p=0.8)
    with pytest.raises(ThetaPole):
        angular_profile(2.5, params)
    assert theta_pole(params) == pytest.approx(math.atan2(1.0, -0.75))


def test_theta_from_f_examples():
    assert theta_from_f(1.0, Parameters(H=1.0, p=1.0)) == pytest.approx(math.pi / 4)
    for p_val in (1.0, 0.8, 0.5):
        assert theta_from_f(0.0, Parameters(H=2.0, p=p_val)) == 0.0
    # denominator zero: continuous through the pole of the tangent form
    assert theta_from_f(4.0 / 3.0, Parameters(H=1.25, p=0.8)) == pytest.approx(
        math.pi / 2, rel=1e-14
    )
    with pytest.raises(ValueError):
        theta_from_f(-0.1, Parameters(H=1.25, p=0.8))


def test_theta_map_derivative_and_sine_identity():
    # sin(theta) = f I / U and d theta/df = I^2/U^2, against finite differences
    params = Parameters(H=1.5, p=0.8)
    for f in [0.1, 0.6, 1.2, 4.0 / 3.0, 2.5]:
        theta = theta_from_f(f, params)
        prof = angular_profile(theta, params)
        assert math.sin(theta) == pytest.approx(f * prof.I / prof.U, abs=1e-12)
        step = 1e-6
        fd = (
            theta_from_f(f + step, params) - theta_from_f(f - step, params)
        ) / (2 * step)
        assert fd == pytest.approx(prof.I**2 / prof.U**2, abs=1e-8)


def test_angular_consistency_along_ratio_correspondence():
    # U^2 = (1 - 2 sqrt(1-p^2) w + w^2) I^2 along the theta <-> w correspondence
    params = Parameters(H=1.25, p=0.8)
    for w in np.linspace(0.05, 3.0, 40):
        f = params.p * w
        theta = theta_from_f(f, params)
        prof = angular_profile(theta, params)
        expected = (1.0 - 2.0 * math.sqrt(1 - params.p**2) * w + w * w) * prof.I**2
        assert prof.U**2 == pytest.approx(expected, rel=1e-12)


# ------------------------------------------------------------------ domain


def test_domain_info_values():
    dom = domain_info(Parameters(H=1.25, p=0.8))
    assert dom.eta_min == pytest.approx(1.0475930126492587, rel=1e-13)
    assert dom.r_min > 0.0
    assert dom.r_min < dom.r_sup

    dom = domain_info(Parameters(H=1.0, p=1.0))
    assert dom.eta_min == 0.0
    assert dom.r_min == 0.0
    assert dom.r_sup == pytest.approx(1.0, abs=1e-12)

    with pytest.raises(EmptyDomain):
        domain_info(Parameters(H=1.0, p=0.8))
    # at p = 1e-3 the radial interval underflows to r_min = r_sup = 0.0
    for h_val in (1.25, 2.0):
        with pytest.raises(EmptyDomain):
            domain_info(Parameters(H=h_val, p=1e-3))


def test_radial_map_strictly_increasing():
    for params in (Parameters(H=1.25, p=0.8), Parameters(H=2.0, p=0.5)):
        dom = domain_info(params)
        grid = np.linspace(dom.eta_min + 1e-6, dom.eta_min + 6.0, 1000)
        values = [float(hyperbolic_profile(e, params)[5]) for e in grid]
        assert np.all(np.diff(values) > 0.0)
        # the growth rate from the log-slope identity is positive as well
        for eta in grid[::100]:
            r1v = float(hyperbolic_profile(eta, params)[1])
            assert 1.0 / (params.p**2 * r1v * math.sinh(eta)) > 0.0


def test_branch_function_continuity_across_denominator_zero():
    # H=1.5, p=0.9: the arctangent denominator changes sign inside the domain
    params = Parameters(H=1.5, p=0.9)
    gp = params.azimuthal_skew
    hh = params.boost_skew
    assert hh > gp  # transition exists for this pair
    crossing = math.acosh(math.sqrt((hh**2 + gp**2) / (hh**2 - gp**2)))
    dom = domain_info(params)
    assert dom.eta_min < crossing < dom.eta_min + 2.0
    grid = np.linspace(dom.eta_min + 1e-4, dom.eta_min + 3.0, 4000)
    y1 = np.array([float(hyperbolic_profile(e, params)[3]) for e in grid])
    assert np.all(np.isfinite(y1))
    h_step = grid[1] - grid[0]
    for k in range(1, len(grid)):
        eta = grid[k]
        a_val = float(hyperbolic_profile(eta, params)[0])
        local_slope = gp**2 / (math.sinh(eta) * max(a_val, 1e-12)) * y1[k]
        assert abs(y1[k] - y1[k - 1]) <= 10.0 * local_slope * h_step + 1e-12


def test_branch_function_log_derivative():
    # d(ln Y1)/d eta = (1/p^2 - 1) / (sinh(eta) A) by central differences
    params = Parameters(H=1.5, p=0.9)
    dom = domain_info(params)
    step = 1e-6
    for eta in [dom.eta_min + 0.3, dom.eta_min + 0.8, dom.eta_min + 2.0]:
        y_plus = float(hyperbolic_profile(eta + step, params)[3])
        y_minus = float(hyperbolic_profile(eta - step, params)[3])
        fd = (math.log(y_plus) - math.log(y_minus)) / (2 * step)
        a_val = float(hyperbolic_profile(eta, params)[0])
        expected = (1.0 / params.p**2 - 1.0) / (math.sinh(eta) * a_val)
        assert fd == pytest.approx(expected, abs=1e-7 * max(1.0, abs(expected)))


# --------------------------------------------------------------- inversion


def test_inverse_radial_map_pseudo_euclidean():
    eta = eta_from_r(0.6, Parameters(H=1.0, p=1.0))
    assert eta == pytest.approx(math.atanh(0.6), rel=1e-12)


def test_inverse_radial_map_round_trip():
    rng = np.random.default_rng(11)
    for params in (
        Parameters(H=1.0, p=1.0),
        Parameters(H=1.25, p=0.8),
        Parameters(H=2.0, p=0.5),
    ):
        dom = domain_info(params)
        for _ in range(100):
            eta = dom.eta_min + rng.uniform(1e-3, 5.0)
            r = float(hyperbolic_profile(eta, params)[5])
            back, iters = eta_from_r(r, params, with_iterations=True)
            assert back == pytest.approx(eta, rel=1e-10)
            assert iters <= 30


def test_inverse_radial_map_domain_bounds():
    params = Parameters(H=1.25, p=0.8)
    dom = domain_info(params)
    with pytest.raises(OutsideRadialDomain) as exc:
        eta_from_r(0.5 * dom.r_min, params)
    assert exc.value.r_min == dom.r_min
    assert exc.value.r_sup == dom.r_sup
    with pytest.raises(OutsideRadialDomain):
        eta_from_r(dom.r_sup * 1.01, params)


# ----------------------------------------------------------------- norm


def test_norm_pseudo_euclidean_axis_regulator():
    params = Parameters(H=1.0, p=1.0)
    f_near = finsler_norm([2.0, 1.0, 0.0, 1e-4], params=params)
    assert f_near == pytest.approx(math.sqrt(3.0), abs=1e-7)
    # at p = 1 the axial restriction is lifted entirely
    f_axis = finsler_norm([2.0, 1.0, 0.0, 0.0], params=params)
    assert f_axis == pytest.approx(math.sqrt(3.0), rel=1e-12)
    f_neg = finsler_norm([2.0, 1.0, 0.0, -0.5], params=params)
    assert f_neg == pytest.approx(math.sqrt(4.0 - 1.0 - 0.25), rel=1e-12)


def test_norm_rejects_non_finite_components():
    params = Parameters(H=1.25, p=0.8)
    for y in ([2.0, 0.2, 0.1, math.nan], [2.0, 0.2, 0.1, math.inf]):
        with pytest.raises(ValueError, match="finite"):
            finsler_norm(y, params=params)


@settings(max_examples=60, deadline=None)
@given(
    lam=st.sampled_from([0.5, 2.0, 7.0]),
    w1=st.floats(min_value=-0.3, max_value=0.3),
    w2=st.floats(min_value=-0.3, max_value=0.3),
    w3=st.floats(min_value=0.1, max_value=0.55),
)
def test_norm_positive_homogeneity(lam, w1, w2, w3):
    params = Parameters(H=1.1, p=1.0)
    y = np.array([1.3, 1.3 * w1, 1.3 * w2, 1.3 * w3])
    try:
        base = finsler_norm(y, params=params)
    except OutsideRadialDomain:
        return
    scaled = finsler_norm(lam * y, params=params)
    assert scaled == pytest.approx(lam * base, rel=1e-12)


def test_norm_against_quadrature_based_profile():
    # V rebuilt from a reference value plus the quadrature log-increment
    params = Parameters(H=1.25, p=0.8)
    dom = domain_info(params)
    eta_ref = dom.eta_min + 0.4
    v_ref = float(hyperbolic_profile(eta_ref, params)[4])
    angles = AngleCoords(eta=dom.eta_min + 1.3, theta=0.8, phi=0.7)
    fc = vector_from_angles(angles, 2.0, params)
    y = np.array([fc.b, fc.b * fc.w1, fc.b * fc.w2, fc.b * fc.w3])
    f_pipeline = finsler_norm(y, params=params)
    deltas = oracle_quadrature(eta_ref, angles.eta, params)
    f_oracle = fc.b * v_ref * math.exp(deltas.delta_ln_v)
    assert f_pipeline == pytest.approx(f_oracle, rel=1e-8)


# ------------------------------------------------------------ angle charts


def test_vector_from_angles_polar_axis():
    fc = vector_from_angles(
        AngleCoords(eta=0.5, theta=0.0, phi=0.0), 1.0, Parameters(H=1.0, p=1.0)
    )
    assert fc.w1 == 0.0
    assert fc.w2 == 0.0
    assert fc.w3 == pytest.approx(math.tanh(0.5), rel=1e-14)
    assert fc.b == pytest.approx(math.cosh(0.5), rel=1e-14)


@pytest.mark.parametrize("eta", [math.nan, math.inf, -0.1])
def test_angle_coords_reject_non_finite_or_negative_eta(eta):
    # NaN fails no "eta < 0" test and inf is not a point of the chart; both
    # would turn into b = w1 = w3 = nan in vector_from_angles
    with pytest.raises(ValueError, match="eta"):
        AngleCoords(eta=eta, theta=0.5, phi=1.0)


def test_vector_from_angles_isotropic_spherical_chart():
    params = Parameters(H=1.0, p=1.0)
    angles = AngleCoords(eta=0.9, theta=0.6, phi=1.3)
    fc = vector_from_angles(angles, 1.7, params)
    assert fc.w3 == pytest.approx(math.tanh(0.9) * math.cos(0.6), rel=1e-13)
    assert fc.w_perp == pytest.approx(math.tanh(0.9) * math.sin(0.6), rel=1e-13)


def test_angle_round_trip():
    rng = np.random.default_rng(5)
    for params in (
        Parameters(H=1.0, p=1.0),
        Parameters(H=1.25, p=0.8),
        Parameters(H=1.5, p=0.9),
    ):
        dom = domain_info(params)
        pole = theta_pole(params)
        for _ in range(100):
            angles = AngleCoords(
                eta=dom.eta_min + rng.uniform(0.05, 3.0),
                theta=rng.uniform(0.05, pole - 0.05),
                phi=rng.uniform(0.0, 2.0 * math.pi),
            )
            norm = rng.uniform(0.2, 5.0)
            fc = vector_from_angles(angles, norm, params)
            back, bundle = angles_from_vector(fc, params)
            assert back.eta == pytest.approx(angles.eta, rel=1e-10)
            assert back.theta == pytest.approx(angles.theta, rel=1e-10)
            assert back.phi == pytest.approx(angles.phi, rel=1e-10)
            assert bundle.F == pytest.approx(norm, rel=1e-10)


def test_angles_from_vector_examples():
    from finsleroid import frame_components

    params = Parameters(H=1.0, p=1.0)
    coords, _ = angles_from_vector(frame_components([1.0, 0.3, 0.4, 0.5]), params)
    assert coords.phi == pytest.approx(0.9272952180016122, rel=1e-12)

    # on-axis point: theta = 0 (p < 1, axis inside the radial domain)
    params = Parameters(H=1.25, p=0.8)
    coords, bundle = angles_from_vector(
        frame_components([1.0, 0.0, 0.0, 0.28]), params
    )
    assert coords.theta == 0.0
    assert bundle.r == pytest.approx(0.28, rel=1e-14)


# -------------------------------------------------------------- quadrature


def test_quadrature_pseudo_euclidean_antiderivative():
    deltas = oracle_quadrature(0.5, 1.0, Parameters(H=1.0, p=1.0))
    expected = math.log(math.tanh(1.0) / math.tanh(0.5))
    assert deltas.delta_ln_r == pytest.approx(expected, abs=1e-10)


def test_quadrature_matches_closed_forms():
    cases = [
        (Parameters(H=1.5, p=0.7), 0.3, 1.7),
        (Parameters(H=1.25, p=0.8), 0.2, 2.4),
    ]
    for params, lo_off, hi_off in cases:
        dom = domain_info(params)
        e0, e1 = dom.eta_min + lo_off, dom.eta_min + hi_off
        deltas = oracle_quadrature(e0, e1, params)
        p0 = hyperbolic_profile(e0, params)
        p1 = hyperbolic_profile(e1, params)
        assert deltas.delta_ln_r == pytest.approx(
            math.log(float(p1[5]) / float(p0[5])), abs=1e-8
        )
        assert deltas.delta_ln_v == pytest.approx(
            math.log(float(p1[4]) / float(p0[4])), abs=1e-8
        )


def test_quadrature_rejects_bad_interval():
    params = Parameters(H=1.25, p=0.8)
    with pytest.raises(ValueError):
        oracle_quadrature(0.1, 2.0, params)  # eta0 below the floor
    with pytest.raises(ValueError):
        oracle_quadrature(2.0, 1.5, params)
