"""Induced geometry of the unit level surface and of the horizontal section.

The unit surface F = 1, charted by the angle triple, carries the pullback
of (minus) the angular metric.  Its three coordinate-plane sectional
curvatures must equal -H^2 everywhere; the horizontal section of the
three-dimensional ratio space (the surface r = 1, charted by the
azimuthal and polar angle) must have Gaussian curvature p^2.  Both claims
are checked here by finite-difference curvature of pipeline-computed
metrics, with no analytic shortcut on the metric side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dual as dm
from .curvature import DEFAULT_STEP, coordinate_plane_curvatures
from .errors import PolarAxisSingular, StencilOutOfDomain
from .frame import Parameters
from .kernel import (
    AngleCoords,
    angular_profile,
    domain_info,
    hyperbolic_profile,
    theta_pole,
    vector_from_angles,
)
from .tensors import angular_metric, finsleroid3_metric

# Farthest offset of the curvature stencil, in steps: the axis points and
# the outer mixed-derivative corners lie 2 * step from the base point.
STENCIL_EXTENT = 2


@dataclass(frozen=True)
class IndicatrixBundle:
    """Angle derivatives of the unit vector, induced metric and curvatures."""

    l_derivs: np.ndarray  # 4 x 3, columns = d/d(eta, theta, phi)
    i_metric: np.ndarray  # 3 x 3, positive definite convention
    raw_sign: int  # sign of the raw pullback before normalization
    sectional: dict  # {(plane): K}


def unit_vector(angles: AngleCoords, params: Parameters) -> np.ndarray:
    """Contravariant unit vector (frame coordinates) at the given angles."""
    fc = vector_from_angles(angles, 1.0, params)
    return np.array([fc.b, fc.b * fc.w1, fc.b * fc.w2, fc.b * fc.w3])


def unit_vector_angle_derivatives(
    angles: AngleCoords, params: Parameters
) -> np.ndarray:
    """Closed-form angle derivatives of the unit vector components.

    Returns the 4 x 3 matrix with columns d l^i / d eta, d l^i / d theta,
    d l^i / d phi.  The logarithmic factors are the profile log-slopes;
    the polar column is written in product form so it stays finite at
    phi = pi/2 where the quotient form has a removable pole.
    """
    if angles.theta == 0.0:
        raise PolarAxisSingular("azimuthal derivatives undefined on the polar axis")
    _, r1v, _, _, v, rv = (
        float(dm.value(t)) for t in hyperbolic_profile(angles.eta, params)
    )
    ang = angular_profile(angles.theta, params)
    sh = math.sinh(angles.eta)
    gp = params.azimuthal_skew
    lvec = unit_vector(angles, params)
    l0, l1, l2, l3 = lvec

    dlnv = -(1.0 / params.H ** 2) * sh / r1v  # log slope of V in eta
    dlnr = 1.0 / (params.p ** 2 * r1v * sh)  # log slope of r in eta
    st, ct = math.sin(angles.theta), math.cos(angles.theta)
    w_perp = rv * st / (params.p * ang.I)

    d = np.zeros((4, 3))
    d[0, 0] = -dlnv * l0
    d[1:, 0] = (dlnr - dlnv) * np.array([l1, l2, l3])
    d[1, 1] = (ct / st - gp) * l1
    d[2, 1] = (ct / st - gp) * l2
    d[3, 1] = -(st / (params.p ** 2 * ang.R2)) * l3
    d[1, 2] = -(w_perp / v) * math.sin(angles.phi)
    d[2, 2] = (w_perp / v) * math.cos(angles.phi)
    return d


def indicatrix_metric(angles: AngleCoords, params: Parameters) -> np.ndarray:
    """Induced metric on the unit surface in the angle chart, F = 1.

    Pullback of the angular metric through the angle derivatives of the
    unit vector, reported in the positive-definite convention (the raw
    contraction sign is available from indicatrix_bundle).
    """
    return _pullback(angles, params)[0]


def _pullback(angles: AngleCoords, params: Parameters):
    y = unit_vector(angles, params)
    h = angular_metric(y, None, params)
    d = unit_vector_angle_derivatives(angles, params)
    raw = -(d.T @ h @ d)
    sign = 1 if raw[0, 0] >= 0.0 else -1
    return sign * raw, sign, d


def _check_theta_stencil(theta: float, params: Parameters, step: float):
    """Reject a theta stencil that leaves (0, pole) or comes too near the axis.

    Below 3 * STENCIL_EXTENT * step (0.006 at the default step) the
    difference stencil misses the 1e-3 curvature tolerance near the axis.
    """
    reach = STENCIL_EXTENT * step
    pole = theta_pole(params)
    if theta < 3.0 * reach or theta + reach >= pole:
        raise StencilOutOfDomain(
            f"theta stencil around {theta} needs theta >= {3.0 * reach} and "
            f"theta + {reach} < {pole}"
        )


def _check_stencil(angles: AngleCoords, params: Parameters, step: float):
    dom = domain_info(params)
    reach = STENCIL_EXTENT * step
    if angles.eta - reach <= dom.eta_min:
        raise StencilOutOfDomain(
            f"eta stencil [{angles.eta - reach}, {angles.eta + reach}] leaves "
            f"the domain floor {dom.eta_min}"
        )
    _check_theta_stencil(angles.theta, params, step)


def indicatrix_curvature(
    angles: AngleCoords, params: Parameters, step: float = DEFAULT_STEP
) -> dict:
    """Sectional curvatures of the three coordinate planes of the unit surface.

    Single-level finite-difference sectional curvatures of the induced
    metric; every plane must return -H^2.  The stencil reaches 2 * step
    from the point.  Keep a margin of about 0.2 above the domain floor:
    the boundary is where the angle derivatives blow up and the difference
    stencil loses accuracy (at H = p = 1, 3 * step above it, the error is
    already ~8e-4).  Theta below 3 * STENCIL_EXTENT * step is rejected.
    """
    _check_stencil(angles, params, step)

    def metric_fn(x):
        return indicatrix_metric(
            AngleCoords(eta=x[0], theta=x[1], phi=x[2] % (2.0 * math.pi)), params
        )

    x0 = np.array([angles.eta, angles.theta, angles.phi])
    return coordinate_plane_curvatures(metric_fn, x0, step)


def indicatrix_bundle(
    angles: AngleCoords, params: Parameters, step: float = DEFAULT_STEP
) -> IndicatrixBundle:
    """Full indicatrix bundle: derivatives, induced metric, curvatures."""
    i_metric, sign, d = _pullback(angles, params)
    sectional = indicatrix_curvature(angles, params, step)
    return IndicatrixBundle(
        l_derivs=d, i_metric=i_metric, raw_sign=sign, sectional=sectional
    )


def section_metric(theta: float, phi: float, params: Parameters) -> np.ndarray:
    """Induced 2-metric of the section surface from the ratio-space metric."""
    gp = params.azimuthal_skew

    def chart(th, ph):
        # point of the unit section surface r = 1 at the chart angles
        big_i = dm.exp(gp * th)
        w_perp = dm.sin(th) / (params.p * big_i)
        w3 = (dm.cos(th) + gp * dm.sin(th)) / big_i
        return w_perp * dm.cos(ph), w_perp * dm.sin(ph), w3

    w, jac = dm.gradient(chart, [theta, phi])  # jac: 3 x 2 chart Jacobian
    g3 = finsleroid3_metric(w, params)
    return jac.T @ g3 @ jac


def section_curvature(
    theta: float, params: Parameters, phi: float = 0.9, step: float = DEFAULT_STEP
) -> float:
    """Gaussian curvature of the section surface at azimuth theta.

    The surface is rotationally symmetric, so the polar chart value only
    anchors the stencil.  The expected constant value is p^2.  Theta below
    3 * STENCIL_EXTENT * step is rejected.
    """
    _check_theta_stencil(theta, params, step)

    def metric_fn(x):
        return section_metric(x[0], x[1], params)

    ks = coordinate_plane_curvatures(metric_fn, np.array([theta, phi]), step)
    return ks[(0, 1)]
