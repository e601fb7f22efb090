"""Structural functions, angle maps, inversion and the quadrature oracles."""

import copy
import csv
import dataclasses
import gc
import json
import math
import pickle
import warnings
import weakref
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finsleroid import (
    AngleCoords,
    DomainInfo,
    EmptyDomain,
    OutsideAxialRegion,
    OutsideEtaDomain,
    OutsideRadialDomain,
    Parameters,
    ThetaPole,
    angles_from_vector,
    angular_profile,
    closed_form_constants,
    domain_info,
    eta_from_r,
    finsler_norm,
    frame_components,
    isotropic_v_squared,
    metric_determinant_closed,
    metric_tensor,
    oracle_quadrature,
    sample_vectors,
    structural_profile,
    theta_from_f,
    theta_pole,
    vector_from_angles,
)
from finsleroid import dual as dm
from finsleroid import kernel
from finsleroid.kernel import (
    _MAP_NOISE, ETA_CAP, NEWTON_MAX_ITER, _inverted_profile, hyperbolic_profile,
    radial_from_ratios, rim_depth,
)

from oracle import (
    EQUATOR_VECTORS, WIDE_PAIR, WIDE_VECTOR, _decimal_depth, _decimal_profile, decimal_vector,
)

# the five benchmark pairs, then a thin domain (gp ~ 20) and a large H
SEVEN_PAIRS = ((1.0, 1.0), (1.25, 1.0), (1.25, 0.8), (1.5, 0.9), (2.0, 0.5),
               (50.0, 0.05), (100.0, 0.999))
# p < 1 pairs of the inversion oracle: the benchmark's, a thin domain, a large H, an
# H next to 1 (hh ~ 0.014) and gp ~ 50
INVERSION_PAIRS = ((1.25, 0.8), (1.5, 0.9), (2.0, 0.5), (50.0, 0.05), (100.0, 0.999),
                   (3.0, 0.3), (1.0001, 0.99), (7.0, 0.02))


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


def test_hyperbolic_profile_at_h1_is_the_isotropic_branch():
    # H = p = 1 takes the p = 1 formulas with hh = 0: bit for bit the
    # pseudo-Euclidean values, on floats, arrays and hyper-duals
    params = Parameters(H=1.0, p=1.0)
    etas = np.concatenate([[0.0], np.logspace(-12, 2.5, 60)])
    for eta in etas.tolist():
        ch, sh = math.cosh(eta), math.sinh(eta)
        assert hyperbolic_profile(eta, params) == (0.0, ch, 1.0, 1.0, 1.0 / ch, sh / ch)
        lifted = hyperbolic_profile(dm.HyperDual(eta, 1.0), params)
        assert [v.val if isinstance(v, dm.HyperDual) else v for v in lifted] == [
            0.0, ch, 1.0, 1.0, 1.0 / ch, sh / ch]
    batch = hyperbolic_profile(etas, params)
    for got, want in zip(batch, (0.0, np.cosh(etas), 1.0, 1.0, 1.0 / np.cosh(etas),
                                 np.sinh(etas) / np.cosh(etas))):
        np.testing.assert_array_equal(got, np.broadcast_to(want, etas.shape))


def test_hyperbolic_profile_at_h1_below_p1_is_outside_the_domain():
    # H = 1 with p < 1 has no admissible eta (domain_info: EmptyDomain)
    with pytest.raises(OutsideEtaDomain, match="radicand"):
        hyperbolic_profile(0.5, Parameters(H=1.0, p=0.8))
    with pytest.raises(OutsideEtaDomain, match="radicand"):
        hyperbolic_profile(np.array([0.5, 1.0]), Parameters(H=1.0, p=0.8))


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

    # r_sup is a closed form; the quadrature oracle integrates only the
    # defining ODE of ln r from eta_min + gap out to where r has saturated
    # (e^(-2 eta) ~ 1e-31 past the interval).  At (50, 0.05) the map itself
    # is off by up to 17 ulps, so the match is looser there.
    pairs = [(1.0, 1.0), (1.25, 1.0), (1.25, 0.8), (1.5, 0.9), (2.0, 0.5), (5.0, 0.9),
             (100.0, 0.999), (1.5, 0.6), (3.0, 0.4), (50.0, 0.05)]
    for H, p in pairs:
        params = Parameters(H=H, p=p)
        dom = domain_info(params)
        for gap in (0.5, 2.0):
            eta = dom.eta_min + gap
            deltas = oracle_quadrature(eta, eta + 36.0, params)
            r = float(hyperbolic_profile(eta, params)[5])
            tol = 5e-15 if (H, p) == (50.0, 0.05) else 1e-15
            assert abs(deltas.delta_ln_r - math.log(dom.r_sup / r)) <= tol, (H, p, gap)
    # at p = 1, r_sup is the zero of the isotropic closed form's base c_tilde + g_minus r
    for h_val in (1.1, 1.25, 2.0):
        c = closed_form_constants(h_val)
        zero = c.c_tilde / -c.g_minus
        r_sup = domain_info(Parameters(H=h_val, p=1.0)).r_sup
        assert abs(r_sup - zero) <= math.ulp(zero), h_val


def test_domain_info_is_the_three_field_domain():
    # the record holds the domain it prints and nothing else: equal, with the same hash, to
    # a DomainInfo built from its three fields, on a p < 1 pair and a p = 1 pair
    for params in (Parameters(H=2.0, p=0.5), Parameters(H=1.25, p=1.0)):
        dom = domain_info(params)
        same = DomainInfo(dom.eta_min, dom.r_min, dom.r_sup)
        assert dom == same and hash(dom) == hash(same)
        assert list(dataclasses.asdict(dom)) == ["eta_min", "r_min", "r_sup"]


def test_a_parameters_instance_is_released_after_use():
    # the domain record lives on the instance, so no module-level cache keeps it alive
    params = Parameters(H=2.0, p=0.5)
    dom = domain_info(params)
    eta_from_r(0.5 * (dom.r_min + dom.r_sup), params)
    finsler_norm(np.array([4.65668704, 0.03959194, -0.11861117, 0.18268289]), params=params)
    alive = weakref.ref(params)
    del params
    gc.collect()
    assert alive() is None


def _inversions(params, radii):
    """The bits of eta and the Newton count of each radius, or the error type."""
    outcomes = []
    for r in radii:
        try:
            eta, iters = eta_from_r(r, params, with_iterations=True)
            outcomes.append((eta.hex(), iters))
        except Exception as exc:  # the type is the outcome compared
            outcomes.append(type(exc))
    return outcomes


def test_copied_and_replaced_parameters_invert_their_own_pair():
    params = Parameters(H=2.0, p=0.5)
    dom = domain_info(params)  # its record is formed before it is copied or replaced
    eta_from_r(0.5 * (dom.r_min + dom.r_sup), params)
    others = (dataclasses.replace(params, p=0.8), dataclasses.replace(params, H=1.25),
              dataclasses.replace(params, p=1.0), copy.copy(params), copy.deepcopy(params),
              pickle.loads(pickle.dumps(params)),
              pickle.loads(pickle.dumps(dataclasses.replace(params, p=0.8))))
    for other in others:
        fresh = Parameters(H=other.H, p=other.p)
        dom = domain_info(fresh)
        assert domain_info(other) == dom
        radii = [float(hyperbolic_profile(dom.eta_min + gap, fresh)[5])
                 for gap in (1e-9, 1e-3, 0.4, 2.0, 9.0)] + [0.5 * dom.r_min, 0.999 * dom.r_sup]
        assert _inversions(other, radii) == _inversions(fresh, radii), (other.H, other.p)
        assert _inversions(other, radii) != _inversions(params, radii) or other == params


def test_an_empty_domain_raises_on_every_call():
    # both domain checks run before any (H, p) constant, so gp/hh never divides by hh = 0
    y = np.array([4.65668704, 0.03959194, -0.11861117, 0.18268289])
    for params, match in ((Parameters(H=1.0, p=0.5), "no admissible eta"),
                          (Parameters(H=2.0, p=1e-3), "is empty in double precision")):
        for _ in range(3):
            with pytest.raises(EmptyDomain, match=match):
                domain_info(params)
            with pytest.raises(EmptyDomain, match=match):
                eta_from_r(0.1, params)
            with pytest.raises(EmptyDomain, match=match):
                finsler_norm(y, params=params)
        assert "_domain" not in vars(params) and "_kernel_constants" not in vars(params)


def test_an_inversion_error_is_never_stored(monkeypatch):
    # a radius outside (r_min, r_sup) is inverted, and raises, on every call; the slot keeps
    # the last good r, and a new r after the errors inverts as on a fresh Parameters
    radii = []
    original = kernel.eta_from_r
    monkeypatch.setattr(kernel, "eta_from_r", lambda r, params: radii.append(r) or original(r, params))
    for pair in ((1.25, 0.8), (2.0, 0.5), (1.25, 1.0)):
        params = Parameters(*pair)
        dom = domain_info(params)
        good = 0.5 * (dom.r_min + dom.r_sup)
        held = _inverted_profile(good, params)
        for bad in (dom.r_min if params.p < 1.0 else -0.1, dom.r_sup, 2.0 * dom.r_sup):
            for _ in range(2):
                radii.clear()
                with pytest.raises(OutsideRadialDomain):
                    _inverted_profile(bad, params)
                assert radii == [bad]
        radii.clear()
        assert _inverted_profile(good, params) is held and radii == []
        other = 0.25 * dom.r_min + 0.75 * dom.r_sup
        eta, profile = _inverted_profile(other, params)
        assert radii == [other]
        fresh = Parameters(*pair)
        want = original(other, fresh)
        assert [x.hex() for x in (eta, *profile)] == [
            float(x).hex() for x in (want, *hyperbolic_profile(want, fresh))]
    for params in (Parameters(H=1.0, p=0.5), Parameters(H=2.0, p=1e-3)):
        for _ in range(2):
            with pytest.raises(EmptyDomain):
                _inverted_profile(0.1, params)
        assert params._last_inversion == [(None, None)]


def _scan_bits(params, ys):
    """float.hex of the angles, bundle, tensors and closed det g of each vector's scan row."""
    rows = []
    for y in ys:
        coords, bundle = angles_from_vector(frame_components(y), params)
        tb = metric_tensor(y, None, params)
        values = [*vars(coords).values(), *vars(bundle).values(), *tb.l, *tb.h.ravel(),
                  *tb.g.ravel(), tb.det_g, tb.F, metric_determinant_closed(y, None, params)]
        rows.append([float(x).hex() for x in values])
    return rows


def test_a_used_parameters_survives_copy_and_pickle():
    # the slot travels with the instance (a shallow copy shares it, for the same H and p); the
    # first row after a copy, the last row before it, starts on the carried slot
    for pair in ((2.0, 0.5), (1.25, 1.0)):
        params = Parameters(*pair)
        ys = sample_vectors(params, 8, 79)
        want = _scan_bits(params, ys)
        assert want == _scan_bits(Parameters(*pair), ys)
        for other in (copy.copy(params), copy.deepcopy(params), pickle.loads(pickle.dumps(params))):
            assert other == params and other._last_inversion == params._last_inversion
            assert _scan_bits(other, ys[::-1]) == want[::-1]
            assert _scan_bits(params, ys) == want


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
            assert iters <= 6


def test_inverse_radial_map_seeded_newton_sweep():
    # eta - eta_min log-spaced from the floor out to the saturating rim
    for H, p in ((1.0, 1.0), (1.25, 1.0), (1.25, 0.8), (1.5, 0.9), (2.0, 0.5), (5.0, 0.9)):
        params = Parameters(H=H, p=p)
        dom = domain_info(params)
        for gap in np.logspace(-12, 1, 400):
            eta = dom.eta_min + gap
            r = float(hyperbolic_profile(eta, params)[5])
            back, iters = eta_from_r(r, params, with_iterations=True)
            assert iters <= (0 if p == 1.0 else 6), (H, p, gap, iters)
            r_back = float(hyperbolic_profile(back, params)[5])
            assert abs(math.log(r_back / r)) <= 2e-15, (H, p, gap, back)
            if gap <= 3.0:
                assert back == pytest.approx(eta, rel=1e-12, abs=0.0), (H, p, gap)


def test_inverse_radial_map_isotropic_round_trip():
    # p = 1 uses the closed inverse; the forward map is the independent side.
    # One ulp below the saturated r_sup, atanh's argument rounds to 1 at H = 2.
    for H in (1.0, 1.25, 2.0, 10.0):
        params = Parameters(H=H, p=1.0)
        for eta in (1e-12, 1e-10, 1e-9, 1e-8, 1e-6, 1e-3):
            r = float(hyperbolic_profile(eta, params)[5])
            assert eta_from_r(r, params) == pytest.approx(eta, rel=1e-12, abs=0.0)
        rim = math.nextafter(domain_info(params).r_sup, 0.0)
        far = [float(hyperbolic_profile(eta, params)[5]) for eta in (12.0, 15.0, 17.0)]
        for r in far + [rim]:
            back = eta_from_r(r, params)
            assert 0.0 < back < 20.0
            assert abs(math.log(float(hyperbolic_profile(back, params)[5]) / r)) <= 2e-15


def _reference_eta_from_r(r, params, bisections=None):
    """eta_from_r(r, params, with_iterations=True) as a loop through the generic
    hyperbolic_profile and rim_depth per Newton step: the oracle of the one-pass loop.
    Each rtsafe bisection appends its (r, iteration) to the list ``bisections``, if given."""
    dom = domain_info(params)
    if params.p == 1.0 and r == 0.0:
        return 0.0, 0
    if not (dom.r_min < r < dom.r_sup):
        raise OutsideRadialDomain(r, dom.r_min, dom.r_sup)
    hh = params.boost_skew
    if params.p == 1.0:
        return math.atanh(min(r / (1.0 - hh * r), math.nextafter(1.0, 0.0))), 0
    p2 = params.p * params.p
    floor = dom.eta_min
    depth = math.log(dom.r_sup / r)
    eta = -0.5 * math.log(0.5 * p2 * (1.0 + hh) * depth)
    rim = eta > floor + 0.5
    if not rim:
        run = p2 * math.cosh(floor) * params.azimuthal_skew / hh
        eta = max(eta, floor + math.log(r / dom.r_min) * run)
    lo, hi = floor, ETA_CAP
    step = before = hi - lo
    for iterations in range(1, NEWTON_MAX_ITER + 1):
        a, r1v, _, _, _, rv = hyperbolic_profile(eta, params)
        sh = math.sinh(eta)
        inv_slope = p2 * r1v * sh
        if rim:
            here = rim_depth(eta, a, params)
            g = math.log(depth / here)
            nxt = eta - g * here * inv_slope
        else:
            g = math.log(rv / r)
            d = eta - floor
            nxt = floor + (2.0 * d - g * inv_slope) ** 2 / (4.0 * d) if d > 0.0 else eta
        lo, hi = (lo, eta) if g > 0.0 else (eta, hi)
        if abs(rv - r) <= _MAP_NOISE * r:
            eta = nxt if lo <= nxt <= hi else eta
            break
        if not (lo <= nxt <= hi and abs(nxt - eta) <= 0.5 * before):
            nxt = 0.5 * (lo + hi)
            if bisections is not None:
                bisections.append((r, iterations))
        before, step, eta = step, abs(nxt - eta), nxt
        if step <= 1e-12 * eta:
            break
    return eta, iterations


def _inversion_outcome(invert, r, params):
    """The bits of eta and the Newton count, or the error type, of one inversion."""
    try:
        eta, iters = invert(r, params)
    except Exception as exc:  # the type is the outcome compared
        return type(exc)
    return eta.hex(), iters


def test_inversion_matches_the_profile_loop_bit_for_bit():
    rng = np.random.default_rng(22)
    rim_seeds = 0  # 388 of the 3600 p < 1 radii here
    bisections = []  # 4 here, all at (1.00002, 0.05)
    reference = lambda r, params: _reference_eta_from_r(r, params, bisections)  # noqa: E731
    with_iterations = lambda r, params: eta_from_r(r, params, with_iterations=True)  # noqa: E731
    # (1.00002, 0.05), where rtsafe bisects, comes last so that the earlier pairs keep their
    # draws; it is not an INVERSION_PAIRS pair: its round trip reaches ~30 2^-52, above 2e-15
    for H, p in INVERSION_PAIRS + ((1.25, 1.0), (2.0, 1.0), (1.00002, 0.05)):
        params = Parameters(H=H, p=p)
        dom = domain_info(params)
        gaps = np.exp(rng.uniform(math.log(1e-12), math.log(16.0), 400))
        radii = [float(hyperbolic_profile(dom.eta_min + gap, params)[5]) for gap in gaps]
        # the edges of the open interval (r_min, r_sup), their neighbours and beyond
        radii += [dom.r_min, dom.r_sup, math.nextafter(dom.r_min, 1.0),
                  math.nextafter(dom.r_sup, 0.0), 0.5 * dom.r_min, 2.0 * dom.r_sup, 0.0]
        for r in radii:
            expected = _inversion_outcome(reference, r, params)
            got = _inversion_outcome(with_iterations, r, params)
            assert got == expected, (H, p, r)
            if p < 1.0 and dom.r_min < r < dom.r_sup:
                depth = math.log(dom.r_sup / r)
                seed = -0.5 * math.log(0.5 * p * p * (1.0 + params.boost_skew) * depth)
                rim_seeds += seed > dom.eta_min + 0.5
    assert rim_seeds >= 100, rim_seeds
    assert len(bisections) >= 1  # the fallback runs, and matches the reference's


@settings(max_examples=200, deadline=None)
@given(
    pair=st.sampled_from(((1.0, 1.0), (1.25, 1.0), (1.25, 0.8), (1.5, 0.9), (2.0, 0.5),
                          (5.0, 0.9), (100.0, 0.999), (1.0001, 0.99))),
    log_gap=st.floats(min_value=math.log(1e-12), max_value=math.log(16.0)),
)
def test_inversion_round_trip_property(pair, log_gap):
    # r(eta_from_r(r)) returns r to the bound of the seeded Newton sweep, on its pairs and
    # two more; it reaches 1.8e-15 at (3, 0.3), 7e-15 at (50, 0.05), 2e-14 at (7, 0.02)
    params = Parameters(*pair)
    dom = domain_info(params)
    r = float(hyperbolic_profile(dom.eta_min + math.exp(log_gap), params)[5])
    if not dom.r_min < r < dom.r_sup:  # a gap of ~16 can round r(eta) onto r_sup
        with pytest.raises(OutsideRadialDomain):
            eta_from_r(r, params)
        return
    back = eta_from_r(r, params)
    assert abs(math.log(float(hyperbolic_profile(back, params)[5]) / r)) <= 2e-15


def test_hyperbolic_profile_matches_a_40_digit_reference_near_the_floor():
    # A = hh sqrt((sinh - sinh eta_min)(sinh + gp/hh)): nothing cancels above
    # the floor, so A and R1 stay within 2 units of 2^-52, and J = x^hh as a
    # power too (measured 1.9; exp(hh ln x) carried |ln J| more, up to 5.4).  A
    # radicand hh^2 sinh^2 - gp^2 is off by ~1e9 units at a gap of 1e-10.
    for H, p in ((1.25, 0.8), (2.0, 0.5), (50.0, 0.05), (100.0, 0.999)):
        params = Parameters(H=H, p=p)
        floor = domain_info(params).eta_min
        for gap in np.logspace(-10, 1, 120):
            eta = floor + float(gap)
            got = hyperbolic_profile(eta, params)[:3]
            want = _decimal_profile(eta, floor, params.azimuthal_skew, params.boost_skew)
            units = [float(abs(Decimal(g) - w) / w) / 2.0 ** -52 for g, w in zip(got, want)]
            assert all(u <= 2.0 for u in units), (H, p, gap, units)


def test_rim_depth_matches_a_90_digit_reference():
    # The depth takes R1 - (1 + hh) sinh and the Y1 angle less its limit without
    # cancellation, so it stays relative to its own size from next to the floor
    # to e^(-2 eta) ~ 1e-35: worst 12.5 units of 2^-52 at (50, 0.05) within 0.1 of
    # the floor (gp ~ 20 there), 4.7 from a gap of 0.1 on.  ln(r_sup/r(eta)) of
    # floats is off by the rounding of r itself, which reaches the depth at gap ~ 17.
    for H, p in SEVEN_PAIRS:
        params = Parameters(H=H, p=p)
        floor = domain_info(params).eta_min
        for gap in np.logspace(-8, math.log10(40.0), 60):
            eta = floor + float(gap)
            got = rim_depth(eta, hyperbolic_profile(eta, params)[0], params)
            want = _decimal_depth(eta, params.azimuthal_skew, params.boost_skew)
            assert float(abs(Decimal(got) - want) / want) <= 16 * 2.0 ** -52, (H, p, gap)
        # an array call (numpy's functions) against float calls (libm's)
        etas = floor + np.array([1e-8, 1.0, 20.0, 40.0])
        np.testing.assert_allclose(
            rim_depth(etas, hyperbolic_profile(etas, params)[0], params),
            [rim_depth(e, hyperbolic_profile(e, params)[0], params) for e in etas.tolist()],
            rtol=16 * 2.0 ** -52, atol=0.0)
    # at the p = 1 floor eta = 0, sinh = 0: +inf deep, on a float and in an array
    for H in (1.0, 2.0):
        assert rim_depth(0.0, 0.0, Parameters(H=H, p=1.0)) == math.inf
        assert rim_depth(np.array([0.0, 1.0]), np.zeros(2), Parameters(H=1.0, p=1.0))[0] == math.inf


def test_chart_ceiling_is_one_eta_per_pair():
    # The chart rejects a point whose depth ln(r_sup/r(eta)) is not above the map
    # noise 16 * 2^-52; the depth falls strictly, so every chart call accepts a
    # block of gaps and rejects all above it, at 15.9 to 17 above the floor.  The
    # test r(eta) >= r_sup dithered where r(eta) rounds onto r_sup and back: at
    # (2, 0.5) gaps 19-21, 25 and 27 raised while 22-24, 26, 28 and 29 passed.
    for H, p in SEVEN_PAIRS:
        params = Parameters(H=H, p=p)
        floor = domain_info(params).eta_min
        calls = (
            lambda eta: structural_profile(eta, params),
            lambda eta: vector_from_angles(AngleCoords(eta=eta, theta=0.6, phi=1.2), 1.0, params),
        )
        for call in calls:
            accepted = []
            for gap in range(10, 40):
                try:
                    call(floor + gap)
                    accepted.append(gap)
                except OutsideEtaDomain as exc:
                    assert "r_sup" in str(exc)
            assert accepted == list(range(10, accepted[-1] + 1)), (H, p, accepted)
            assert accepted[-1] in (15, 16), (H, p, accepted)


def test_hyperbolic_profile_array_matches_float_calls():
    # one call on an array of angles, as the batch chart makes, against
    # float calls, from next to the floor through the box that sample_angles
    # draws curvature points from (eta - eta_min in [0.2, 2.4])
    gaps = np.concatenate([np.logspace(-10, -1, 46), np.linspace(0.2, 2.4, 111)])
    for H, p in ((1.0, 1.0), (1.25, 1.0), (1.25, 0.8), (1.5, 0.9), (2.0, 0.5), (5.0, 0.9)):
        params = Parameters(H=H, p=p)
        etas = domain_info(params).eta_min + gaps
        batch = [np.broadcast_to(c, etas.shape) for c in hyperbolic_profile(etas, params)]
        for k, eta in enumerate(etas):
            for got, want in zip(batch, hyperbolic_profile(float(eta), params)):
                assert abs(got[k] - want) <= 1e-15 * abs(want), (H, p, eta)

    # one angle below the floor fails the array as it fails the float call
    params = Parameters(H=1.25, p=0.8)
    floor = domain_info(params).eta_min
    with pytest.raises(OutsideEtaDomain):
        hyperbolic_profile(floor - 1e-3, params)
    with pytest.raises(OutsideEtaDomain, match=f"eta={floor - 1e-3}"):
        hyperbolic_profile(np.array([floor + 0.5, floor - 1e-3, floor + 1.0]), params)


def test_hyperbolic_profile_on_an_empty_domain_raises_without_warnings():
    # H = 1 with p a hair below 1: gp = 1.4e-6 and hh = 0, so no eta lies
    # above the floor.  An absolute radicand slack let this through, as
    # math's ValueError from log(0) or as J = V = nan with RuntimeWarnings.
    params = Parameters(H=1.0, p=1.0 - 1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eta in (0.5, np.array([0.5, 1.0])):
            with pytest.raises(OutsideEtaDomain, match="eta=0.5"):
                hyperbolic_profile(eta, params)


def test_float_calls_match_hyperdual_values_bit_for_bit():
    # Float calls run on math, hyper-dual calls on the dual functions; the
    # value slot must carry the float call's bits, from the floor outwards.
    def bits(values):
        values = [v.val if isinstance(v, dm.HyperDual) else v for v in values]
        return np.array(values, dtype=float).tobytes()

    rng = np.random.default_rng(19)
    for H, p in ((1.0, 1.0), (1.25, 1.0), (1.25, 0.8), (2.0, 0.5), (50.0, 0.05)):
        params = Parameters(H=H, p=p)
        floor = domain_info(params).eta_min
        for gap in np.logspace(-10, math.log10(5.0), 80):
            eta = floor + float(gap)
            want = bits(hyperbolic_profile(eta, params))
            assert bits(hyperbolic_profile(dm.HyperDual(eta, 1.0), params)) == want, (H, p, gap)
        for _ in range(100):
            w = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(0.05, 0.9))
            lifted = radial_from_ratios(*(dm.HyperDual(c) for c in w), params)
            assert bits([lifted]) == bits([radial_from_ratios(*w, params)]), (H, p, w)

            # a mixed call picks the dual functions although its first argument
            # is a float, and keeps the derivative of its hyper-dual slot
            mixed = radial_from_ratios(w[0], dm.HyperDual(w[1], 1.0), w[2], params)
            value, grad = dm.gradient(lambda a, b, c: radial_from_ratios(a, b, c, params), w)
            assert isinstance(mixed, dm.HyperDual)
            assert (mixed.val, mixed.d1) == (value, grad[1]), (H, p, w)


def test_hyperdual_profile_at_the_floor_raises_outside_eta_domain():
    # A is exactly 0 at the floor: the float call returns it, but sqrt has no
    # derivative there, so a hyper-dual call must fail with the typed domain
    # error (not math's ValueError or a division by zero in the derivative
    # slot).  The three floats below the floor fail as floats too.
    for H, p in ((1.25, 0.8), (2.0, 0.5), (50.0, 0.05), (1.5, 0.9)):
        params = Parameters(H=H, p=p)
        eta = domain_info(params).eta_min
        assert hyperbolic_profile(eta, params)[0] == 0.0, (H, p)
        for below in range(4):
            if below:
                with pytest.raises(OutsideEtaDomain, match="radicand"):
                    hyperbolic_profile(eta, params)
            with pytest.raises(OutsideEtaDomain, match="radicand"):
                hyperbolic_profile(dm.HyperDual(eta, 1.0), params)
            eta = math.nextafter(eta, -math.inf)


def test_inverse_radial_map_domain_bounds():
    params = Parameters(H=1.25, p=0.8)
    dom = domain_info(params)
    with pytest.raises(OutsideRadialDomain) as exc:
        eta_from_r(0.5 * dom.r_min, params)
    assert exc.value.r_min == dom.r_min
    assert exc.value.r_sup == dom.r_sup
    with pytest.raises(OutsideRadialDomain):
        eta_from_r(dom.r_sup * 1.01, params)


def test_inverse_radial_map_at_r_zero_for_p_one():
    # r = 0 is the time axis, eta = 0, the one point below r_min = 0 that p = 1 admits
    for params in (Parameters(H=1.0, p=1.0), Parameters(H=1.25, p=1.0)):
        assert eta_from_r(0.0, params, with_iterations=True) == (0.0, 0)
        assert eta_from_r(0.0, params) == 0.0


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


def test_norm_rejects_a_vector_outside_the_axial_region():
    with pytest.raises(OutsideAxialRegion, match="w3=-0.15 is not positive"):
        finsler_norm([2.0, 0.1, 0.1, -0.3], params=Parameters(H=2.0, p=0.5))


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


@pytest.mark.parametrize("theta", [-0.1, math.pi, math.nan])
def test_angle_coords_reject_theta_outside_zero_to_pi(theta):
    with pytest.raises(ValueError, match=r"theta must be in \[0, pi\)"):
        AngleCoords(eta=0.5, theta=theta, phi=1.0)


@pytest.mark.parametrize("phi", [-0.1, 2.0 * math.pi, math.nan])
def test_angle_coords_reject_phi_outside_zero_to_two_pi(phi):
    with pytest.raises(ValueError, match=r"phi must be in \[0, 2\*pi\)"):
        AngleCoords(eta=0.5, theta=0.5, phi=phi)


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


def test_angles_from_vector_answers_at_the_equator_wherever_the_norm_does():
    # theta, r and I come from the spiral that finsler_norm inverts, so F is its F bit for bit
    # and R2 = I/U holds to the rounding of one division.  The route they replace, theta from
    # f = p w_perp/w3 and R2 = cos theta + gp sin theta, cancelled as w3 -> 0: F off by 2e-2
    # at k = 14 on the (2, 0.5) ladder, ThetaPole from k = 16 there (R2 = -2.2e-16) and
    # OutsideRadialDomain at k = 18 on (1.25, 0.8)
    eps = 2.0 ** -52
    for (H, p), y in EQUATOR_VECTORS:
        params = Parameters(H=H, p=p)
        norm = finsler_norm(y, None, params)
        coords, bundle = angles_from_vector(frame_components(y), params)
        assert bundle.F == norm, (H, p, y)
        assert abs(bundle.R2 * bundle.U - bundle.I) <= 2.0 * eps * bundle.I, (H, p, y)
        assert coords.theta <= theta_pole(params)
    # where U = r/w3 overflows, w3 is numerically on the equator: a domain error, not U = inf
    with pytest.raises(OutsideAxialRegion, match="U = r/w3 overflows"):
        angles_from_vector(frame_components(WIDE_VECTOR[:3] + [1e-310]), Parameters(*WIDE_PAIR))


GOLDEN = Path(__file__).parent / "golden"


def _golden_vectors():
    """(H, p, y) of every golden eval document and report scan row."""
    out = []
    for name in ("eval_H1_p1.json", "eval_H2_p0.5.json", "eval_H1.25_p1_w3neg.json"):
        doc = json.loads((GOLDEN / name).read_text())["input"]
        out.append((doc["H"], doc["p"], doc["y"]))
    for name, pair in (("scan_H1.25_p0.8_n20.csv", (1.25, 0.8)),
                       ("scan_H2_p0.5_n20.csv", (2.0, 0.5))):
        with open(GOLDEN / name) as rows:
            out += [(*pair, [float(r[f"y{k}"]) for k in range(4)]) for r in csv.DictReader(rows)]
    return out


def test_vector_angles_and_norm_match_a_60_digit_truth():
    # |x - x*| <= c max(1, kappa) eps |x*| against the paper's formulas at 60 digits (tests/oracle),
    # kappa = (p/H)^2 sinh^2(eta) = |d ln F/d ln r| the condition of F in r.  Measured worst, in
    # units of max(1, kappa) eps: r 12.7 (the (3, 0.3) ladder: gp theta ~ 9 carries theta's
    # rounding into exp), F 8.3 (a scan_H2_p0.5 golden row, finsler_norm's too), theta 1.1;
    # c = 16.  The old route's eval_H1_p1 F, 1.7320508046826721, missed by 1,420 units
    eps, c = 2.0 ** -52, 16.0
    cases = [(*pair, y) for pair, y in EQUATOR_VECTORS] + _golden_vectors()
    for H, p, y in cases:
        params = Parameters(H=H, p=p)
        theta, r, eta, _, norm = decimal_vector(y, H, p)
        bound = c * max(1.0, (p / H) ** 2 * math.sinh(float(eta)) ** 2) * eps
        got = {"finsler_norm F": (finsler_norm(y, None, params), norm)}
        if y[3] > 0.0:  # the angles need the axial region
            coords, bundle = angles_from_vector(frame_components(y), params)
            got.update(theta=(coords.theta, theta), r=(bundle.r, r), F=(bundle.F, norm))
        for name, (x, truth) in got.items():
            assert abs(Decimal(x) - truth) <= Decimal(bound) * abs(truth), (H, p, y, name)


def test_norm_of_sampled_vectors_matches_a_60_digit_truth():
    # finsler_norm within c max(1, kappa) (1 + gp theta) eps of the truth on sampler vectors:
    # r = k exp(gp theta) carries gp times theta's rounding, so the kappa-only bound of the
    # test above misses here (25 units at (3, 0.3)).  Measured worst, in these units: 4.55 at
    # (3, 0.3), 1.79 at (1.5, 0.9), 1.68 at (2, 0.5), 1.14 at (1.25, 0.8), 0.23 at (50, 0.05);
    # c = 8.  The sampler's default eta box keeps clear of the rim, where the oracle's Newton
    # does not always converge
    eps, c = 2.0 ** -52, 8.0
    for H, p in ((2.0, 0.5), (1.25, 0.8), (1.5, 0.9), (3.0, 0.3), (50.0, 0.05)):
        params = Parameters(H=H, p=p)
        for y in sample_vectors(params, 60, 7):
            theta, _, eta, _, norm = decimal_vector(y, H, p)
            kappa = max(1.0, (p / H) ** 2 * math.sinh(float(eta)) ** 2)
            bound = c * kappa * (1.0 + params.azimuthal_skew * float(theta)) * eps
            got = finsler_norm(y, None, params)
            assert abs(Decimal(got) - norm) <= Decimal(bound) * abs(norm), (H, p, y)


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
    # gaps above eta_min from next to the floor to the saturated rim
    gaps = [(1e-10, 1e-3), (1e-6, 0.5), (1e-3, 2.0), (0.05, 4.0), (0.3, 20.0), (1e-8, 10.0)]
    for H, p in [(1.25, 0.8), (1.5, 0.7), (2.0, 0.5), (5.0, 0.9), (50.0, 0.05),
                 (100.0, 0.999), (1.0, 1.0)]:
        cases += [(Parameters(H=H, p=p), lo_off, hi_off) for lo_off, hi_off in gaps]
    for params, lo_off, hi_off in cases:
        dom = domain_info(params)
        e0, e1 = dom.eta_min + lo_off, dom.eta_min + hi_off
        deltas = oracle_quadrature(e0, e1, params)
        p0 = hyperbolic_profile(e0, params)
        p1 = hyperbolic_profile(e1, params)
        assert deltas.delta_ln_r == pytest.approx(
            math.log(float(p1[5]) / float(p0[5])), abs=1e-13
        ), (params, lo_off, hi_off)
        assert deltas.delta_ln_v == pytest.approx(
            math.log(float(p1[4]) / float(p0[4])), abs=1e-13
        ), (params, lo_off, hi_off)


def test_quadrature_rejects_bad_interval():
    params = Parameters(H=1.25, p=0.8)
    with pytest.raises(ValueError):
        oracle_quadrature(0.1, 2.0, params)  # eta0 below the floor
    with pytest.raises(ValueError):
        oracle_quadrature(2.0, 1.5, params)
