"""Induced geometry of the unit level surface and of the horizontal section.

The unit surface F = 1, charted by the angle triple, carries (minus) the
angular metric on its tangent vectors: hyperbolic 3-space of curvature -H^2 in
geodesic polar form, (d eta^2 + sinh^2 eta dOmega^2)/H^2.  The horizontal section
of the three-dimensional ratio space (the surface r = 1, charted by the
azimuthal and polar angle) is the round sphere of radius 1/p.  Both curvature
claims are checked pointwise by the Gauss equation of an indicatrix: the metric
and the Cartan tensor at the chart point, exact and in closed form from one
pass of the chain rule through ln r (``kernel.radial_chain``), with no analytic
shortcut on the metric side and no chart derivatives of the metric.  That chart
metric is each surface's one metric, ``indicatrix_metric`` and ``section_metric``, at one
point.  Both surfaces read the kernel's one angular chart, ``_section_chart``, at r = 1:
the unit surface's ratios are r(eta) times the section's, which ln r's derivatives
do not see, so no curvature builds the unit vector.  The charts are written once on
per-component values, Python floats at one point, so a curvature builds no numpy array,
and arrays at a batch of rows.
"""

from __future__ import annotations

import math

import numpy as np

from . import dual as dm
from .curvature import gauss_curvatures
from .errors import OutsideEtaDomain, PolarAxisSingular
from .frame import Parameters
from .kernel import (
    AngleCoords,
    _chart_profile,
    _chart_vector,
    _section_chart,
    _unpack,
    radial_chain,
)

# Measured accuracy bounds of the Gauss route (README, "Curvature accuracy"): theta
# below THETA_MIN and, for the unit surface's metric and curvatures, eta - eta_min
# below GAP_MIN (GAP_MIN_P1 at p = 1, where eta = 0 is the chart's pole) raise a
# DomainError instead of returning a value.  The chart owns every other edge: the
# floor, its ceiling below r_sup, ETA_CAP, the pole and the range of exp(gp theta).
THETA_MIN = 1e-3
GAP_MIN = 1e-8
GAP_MIN_P1 = 1e-5


def unit_vector(angles: AngleCoords, params: Parameters) -> np.ndarray:
    """Contravariant unit vector (frame coordinates) at the given angles."""
    return np.stack(_chart_vector(angles, 1.0, params)[2], axis=-1)


def unit_vector_angle_derivatives(
    angles: AngleCoords, params: Parameters
) -> np.ndarray:
    """Closed-form angle derivatives of the unit vector components.

    Returns the 4 x 3 matrix with columns d l^i / d eta, d l^i / d theta, d l^i / d phi at
    an AngleCoords, and an (m, 4, 3) array at (m, 3) rows.  The eta column's logarithmic
    factors are the profile log-slopes; the theta and phi columns are l^0 times the chart's
    Jacobian of the ratios at r(eta), in product form, so they stay finite at phi = pi/2 and
    hold no cos/sin quotient in theta.
    """
    (eta, r1v, _, _), ((st, _), _, ((t1, f1), (t2, f2), (t3, f3))), y = _chart_vector(
        angles, 1.0, params)
    if dm.any_set(st == 0.0):
        raise PolarAxisSingular("azimuthal derivatives undefined on the polar axis")
    sh = dm.sinh(eta)
    if dm.any_set(sh < 2.0 ** -1022):  # not a normal float: only at p = 1, next to eta = 0
        raise OutsideEtaDomain(f"d ln r/d eta = 1/(p^2 R1 sinh eta) overflows at eta={np.min(eta)}")
    b, y1, y2, y3 = y
    dlnv = -(1.0 / params.H ** 2) * sh / r1v  # log slope of V in eta
    dlnr = 1.0 / (params.p ** 2 * r1v * sh)  # log slope of r in eta
    radial = dlnr - dlnv
    zero = 0.0 * r1v  # +0.0, or zeros of the batch: R1 > 0
    d = [[-dlnv * b, zero, zero],
         [radial * y1, b * t1, b * f1],
         [radial * y2, b * t2, b * f2],
         [radial * y3, b * t3, b * f3]]
    return np.swapaxes(np.array(d).T, -1, -2)


def indicatrix_metric(angles: AngleCoords, params: Parameters) -> np.ndarray:
    """Induced metric on the unit surface in the angle chart, F = 1, positive definite: the
    Gauss route's chart metric (``_unit_surface``) negated, hyperbolic 3-space
    (d eta^2 + sinh^2 eta dOmega^2)/H^2 to ~1e-14 below eta - eta_min = 2.2 and ~1e-6 up
    to the chart's ceiling (README).  Bounded as the curvatures are (THETA_MIN, GAP_MIN)."""
    return -_unpack(_unit_surface(angles, params)[1], 3)


def _check_theta(theta: float, surface: str):
    """Reject a theta below the measured bound THETA_MIN before any chart is evaluated."""
    if theta < THETA_MIN:
        raise PolarAxisSingular(f"the {surface} chart needs theta >= THETA_MIN = {THETA_MIN}, "
                                f"got {theta}")


def indicatrix_curvature(angles: AngleCoords, params: Parameters) -> dict:
    """Sectional curvatures of the three coordinate planes of the unit surface.

    Pointwise, by the Gauss equation at the chart point; every plane must
    return -H^2.  Raises PolarAxisSingular below THETA_MIN, OutsideEtaDomain below
    eta - eta_min = GAP_MIN (GAP_MIN_P1 at p = 1), and the chart's own domain errors.
    """
    return gauss_curvatures(*_unit_surface(angles, params))


def _unit_surface(angles: AngleCoords, params: Parameters):
    """Packed Cartan tensor and negative definite chart metric of the unit surface at one
    AngleCoords (else a ValueError) within THETA_MIN, the chart's edges and GAP_MIN (GAP_MIN_P1
    at p = 1), checked in that order: the Gauss equation's inputs and the one unit-surface metric.

    F^2 = b^2 Phi(w) with b = y0 = 1/V, w the frame ratios and Phi = V^2.  On the
    chart columns X, with X~ = Q^T X = X[1:] - w X0 = b dw (Q = [-w^T; I3]),
    g(X, Y) = Phi''(X~, Y~)/2 + (X0 Phi'.Y~ + Y0 Phi'.X~)/2 + Phi X0 Y0 and the
    Cartan tensor is C(X, Y, Z) = Phi'''(X~, Y~, Z~)/(4 b), with X0 = -b d ln V/d eta
    on the eta column and 0 on the others.  The ratios are w = r(eta) u, u those of
    the chart at r = 1, so X~ = b r [(d ln r/d eta) u, jac] with jac its Jacobian, and
    L = ln r has at r u along X~ the derivatives it has at u along X~/r: ``radial_chain``
    takes u and the columns b [(d ln r/d eta) u, jac], with no unit vector and no
    difference X[1:] - w X0, which cancels by e^(2 eta) as in a frame pullback
    -(d^T h d).  Phi depends on L alone; with D = d/dL = p^2 R1 sinh d/d eta its
    L-derivatives are f1 = -2 (p^2/H^2) Phi sinh^2, f2 = 2 p^2 m f1 with
    m = cosh R1 - sinh^2/H^2 = 1 + hh^2 sinh^2 + A cosh, and f3 = 2 p^4 f1 (R1 sinh
    (2 hh^2 sinh cosh + A_eta cosh + A sinh) + 2 m^2), sums of like-signed terms.
    K = -1 + S/A.
    """
    if not isinstance(angles, AngleCoords):
        raise ValueError(f"the unit-surface chart takes AngleCoords, got {type(angles).__name__}")
    _check_theta(angles.theta, "unit-surface")
    eta, (a, r1v, _, _, v, _) = _chart_profile(angles.eta, params)
    _, (*u, _), jac = _section_chart(angles.theta, angles.phi, params)
    gap = angles.eta - params.eta_min
    name, bound = ("GAP_MIN", GAP_MIN) if params.p < 1.0 else ("GAP_MIN_P1", GAP_MIN_P1)
    if not gap >= bound:
        raise OutsideEtaDomain(f"the unit-surface chart needs eta - eta_min >= {name} = {bound}, "
                               f"got eta={angles.eta}, {gap} above the floor {params.eta_min}")
    p2 = params.p * params.p
    hh2 = params.boost_skew ** 2
    sh, ch = math.sinh(eta), math.cosh(eta)
    a_eta = hh2 * sh * ch / a if params.p < 1.0 else params.boost_skew * ch
    m = 1.0 + hh2 * sh * sh + a * ch
    phi = v * v
    f1 = -2.0 * (p2 / params.H ** 2) * phi * sh * sh
    f2 = 2.0 * p2 * m * f1
    f3 = 2.0 * p2 * p2 * f1 * (r1v * sh * (2.0 * hh2 * sh * ch + a_eta * ch + a * sh) + 2.0 * m * m)
    b = 1.0 / v
    eta_col = b / (p2 * r1v * sh)  # b d ln r/d eta
    (u1, u2, u3), ((x1, y1), (x2, y2), (x3, y3)) = u, jac
    tilde = [[eta_col * u1, b * x1, b * y1], [eta_col * u2, b * x2, b * y2],
             [eta_col * u3, b * x3, b * y3]]
    # Phi's derivatives along the X~, packed: 3, 6 and 10 floats
    phi1, phi2, phi3 = radial_chain(u, params, tilde, (f1, f2, f3))
    (e0, e1, e2), (h00, h01, h02, h11, h12, h22) = phi1, phi2
    x0 = (1.0 / params.H ** 2) * sh / r1v * b
    # off the eta column X0 = 0, so its products there are signed zeros and phi X0 Y0 = +0.0:
    # `+ 0.0` leaves a zero entry +0.0, as adding those terms did
    metric = [0.5 * (h00 + x0 * e0 + x0 * e0) + phi * (x0 * x0), 0.5 * (h01 + x0 * e1) + 0.0,
              0.5 * (h02 + x0 * e2) + 0.0, 0.5 * h11 + 0.0, 0.5 * h12 + 0.0, 0.5 * h22 + 0.0]
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9 = phi3
    b4 = 4.0 * b
    return [c0 / b4, c1 / b4, c2 / b4, c3 / b4, c4 / b4, c5 / b4, c6 / b4, c7 / b4, c8 / b4,
            c9 / b4], metric


def section_metric(theta: float, phi: float, params: Parameters) -> np.ndarray:
    """Induced 2-metric of the section at one (theta, phi), the chart metric of the Gauss route
    (``_section_surface``): the round sphere (d theta^2 + sin^2 theta d phi^2)/p^2 (README)."""
    return _unpack(_section_surface(theta, phi, params)[1], 2)


def section_curvature(theta: float, params: Parameters) -> float:
    """Gaussian curvature of the section at azimuth theta, by the Gauss equation at polar
    angle 0.9 (the section is rotationally symmetric); K = 1 - S/A must be p^2."""
    return gauss_curvatures(*_section_surface(theta, 0.9, params))[(0, 1)]


def _section_surface(theta: float, phi: float, params: Parameters):
    """Packed Cartan tensor and chart metric of the section at one (theta, phi): the Gauss
    equation's inputs and the one section metric.  The section is the indicatrix r = 1 of
    G = Hess(r^2/2), whose Cartan tensor is G's derivative over 2, both from the derivatives
    of L = ln r.  An array or a non-finite angle is a ValueError; PolarAxisSingular below
    THETA_MIN, and the chart's ThetaPole at theta >= theta_pole."""
    if isinstance(theta, np.ndarray) or isinstance(phi, np.ndarray):
        raise ValueError("the section chart takes one theta and one phi, got an array of "
                         f"shape {np.broadcast(theta, phi).shape}")
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValueError(f"the section chart takes finite angles, got theta={theta}, phi={phi}")
    _check_theta(theta, "section")
    _, (*w, _), jac = _section_chart(theta, phi, params)
    # r^2/2 = exp(2 L)/2 has L-derivatives 1, 2, 4 at r = 1
    _, metric, (c0, c1, c2, c3) = radial_chain(w, params, jac, (1.0, 2.0, 4.0))
    return [0.5 * c0, 0.5 * c1, 0.5 * c2, 0.5 * c3], metric
