"""Induced geometry of the unit level surface and of the horizontal section.

The unit surface F = 1, charted by the angle triple, carries the pullback
of (minus) the angular metric.  Its three coordinate-plane sectional
curvatures must equal -H^2 everywhere; the horizontal section of the
three-dimensional ratio space (the surface r = 1, charted by the
azimuthal and polar angle) must have Gaussian curvature p^2.  Both claims
are checked here by finite-difference curvature of pipeline-computed
metrics, with no analytic shortcut on the metric side.  Each stencil is one
batch of (m, 3) or (m, 2) angle rows; the scalar functions are batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dual as dm
from .curvature import REACH, coordinate_plane_curvatures
from .errors import PolarAxisSingular, StencilOutOfDomain
from .frame import Parameters
from .kernel import AngleCoords, _chart_vector, domain_info, theta_pole
from .tensors import _radial_point, finsleroid3_metric


@dataclass(frozen=True)
class IndicatrixBundle:
    """Angle derivatives of the unit vector, induced metric and curvatures."""

    l_derivs: np.ndarray  # 4 x 3, columns = d/d(eta, theta, phi)
    i_metric: np.ndarray  # 3 x 3, positive definite convention
    raw_sign: int  # sign of the raw pullback before normalization
    sectional: dict  # {(plane): K}


def unit_vector(angles: AngleCoords, params: Parameters) -> np.ndarray:
    """Contravariant unit vector (frame coordinates) at the given angles."""
    return _chart_vector(angles, 1.0, params)[2]


def unit_vector_angle_derivatives(
    angles: AngleCoords, params: Parameters
) -> np.ndarray:
    """Closed-form angle derivatives of the unit vector components.

    Returns the 4 x 3 matrix with columns d l^i / d eta, d l^i / d theta,
    d l^i / d phi.  The logarithmic factors are the profile log-slopes;
    the polar column is written in product form so it stays finite at
    phi = pi/2 where the quotient form has a removable pole.
    """
    return _chart_point(angles, params)[2]


def _chart_point(angles, params: Parameters):
    """Profile, unit vector y (..., 4) and its angle derivatives d (..., 4, 3)."""
    prof, (st, ct), y = _chart_vector(angles, 1.0, params)
    if dm.any_set(st == 0.0):
        raise PolarAxisSingular("azimuthal derivatives undefined on the polar axis")
    eta, r1v, _ = prof
    sh = dm.sinh(eta)
    gp = params.azimuthal_skew

    dlnv = -(1.0 / params.H ** 2) * sh / r1v  # log slope of V in eta
    dlnr = 1.0 / (params.p ** 2 * r1v * sh)  # log slope of r in eta
    lt = y.T  # component-first, like d until its last line
    d = np.zeros((4, 3) + lt.shape[1:])
    d[0, 0] = -dlnv * lt[0]
    d[1:, 0] = (dlnr - dlnv) * lt[1:]
    d[1:3, 1] = (ct / st - gp) * lt[1:3]
    d[3, 1] = -(st / (params.p ** 2 * (ct + gp * st))) * lt[3]
    d[1, 2] = -lt[2]
    d[2, 2] = lt[1]
    return prof, y, np.swapaxes(d.T, -1, -2)


def indicatrix_metric(angles: AngleCoords, params: Parameters) -> np.ndarray:
    """Induced metric on the unit surface in the angle chart, F = 1.

    Pullback of the angular metric through the angle derivatives of the
    unit vector, reported in the positive-definite convention (the raw
    contraction sign is available from indicatrix_bundle).
    """
    return _pullback(angles, params)[0]


def _pullback(angles, params: Parameters):
    """Signed pullback -(d^T h d), its sign and d, at the chart's own eta.

    One profile gives y and d (per point of a batch, like ``_chart_point``);
    h is the component-route angular metric of y at that profile's eta, R1
    and V, so r is not inverted back to eta.
    """
    prof, y, d = _chart_point(angles, params)
    h = _radial_point(y, None, params, prof)[2]
    raw = -(np.swapaxes(d, -1, -2) @ h @ d)
    sign = np.where(raw[..., 0, 0] >= 0.0, 1, -1)
    return (sign * raw.T).T, sign, d


def _check_theta_stencil(theta: float, params: Parameters):
    """Reject a theta stencil that leaves (0, pole) or comes too near the axis.

    Below 3 * REACH (0.006) the difference stencil misses the 1e-3
    curvature tolerance near the axis.
    """
    pole = theta_pole(params)
    if theta < 3.0 * REACH or theta + REACH >= pole:
        raise StencilOutOfDomain(
            f"theta stencil around {theta} needs theta >= {3.0 * REACH} and "
            f"theta + {REACH} < {pole}"
        )


def indicatrix_curvature(angles: AngleCoords, params: Parameters) -> dict:
    """Sectional curvatures of the three coordinate planes of the unit surface.

    Single-level finite-difference sectional curvatures of the induced
    metric; every plane must return -H^2.  The stencil reaches REACH =
    2e-3 from the point.  Keep a margin of about 0.2 above the domain
    floor: the boundary is where the angle derivatives blow up and the
    difference stencil loses accuracy (at H = p = 1, 3e-3 above it, the
    error is already ~8e-4).  Theta below 3 * REACH is rejected.
    """
    floor = domain_info(params).eta_min
    if angles.eta - REACH <= floor:
        raise StencilOutOfDomain(
            f"eta stencil [{angles.eta - REACH}, {angles.eta + REACH}] leaves "
            f"the domain floor {floor}"
        )
    _check_theta_stencil(angles.theta, params)
    x0 = np.array([angles.eta, angles.theta, angles.phi])
    return coordinate_plane_curvatures(lambda x: _pullback(x, params)[0], x0)


def indicatrix_bundle(angles: AngleCoords, params: Parameters) -> IndicatrixBundle:
    """Full indicatrix bundle: derivatives, induced metric, curvatures."""
    i_metric, sign, d = _pullback(angles, params)
    sectional = indicatrix_curvature(angles, params)
    return IndicatrixBundle(
        l_derivs=d, i_metric=i_metric, raw_sign=int(sign), sectional=sectional
    )


def section_metric(theta: float, phi: float, params: Parameters) -> np.ndarray:
    """Induced 2-metric of the section surface from the ratio-space metric."""
    return _section_metric(np.array([theta, phi]), params)


def _section_metric(x, params: Parameters) -> np.ndarray:
    """Section metric at (theta, phi) rows: (2,) gives (2, 2), (m, 2) (m, 2, 2)."""
    w, jac_t = _section_chart(x, params)
    return jac_t @ finsleroid3_metric(w, params) @ np.swapaxes(jac_t, -1, -2)


def _section_chart(x, params: Parameters):
    """Point w of r = 1 at (theta, phi) rows and its Jacobian^T, closed-form.

    w = (w_perp cos phi, w_perp sin phi, w3), I = exp(gp theta), w_perp =
    sin/(p I), w3 = (cos + gp sin)/I, d w_perp/d theta = (cos - gp sin)/(p I),
    d w3/d theta = -sin/(p^2 I)."""
    theta, phi = np.asarray(x, dtype=float).T
    gp = params.azimuthal_skew
    st, ct = dm.sin(theta), dm.cos(theta)
    big_i = dm.exp(gp * theta)
    w_perp = st / (params.p * big_i)
    dw_perp = (ct - gp * st) / (params.p * big_i)
    cp, sp = dm.cos(phi), dm.sin(phi)
    w = np.array([w_perp * cp, w_perp * sp, (ct + gp * st) / big_i]).T
    jac = np.array([
        [dw_perp * cp, -w_perp * sp],
        [dw_perp * sp, w_perp * cp],
        [-st / (params.p ** 2 * big_i), 0.0 * theta],
    ])
    return w, jac.T  # (m, 3) and (m, 2, 3), or (3,) and (2, 3)


def section_curvature(theta: float, params: Parameters) -> float:
    """Gaussian curvature of the section surface at azimuth theta.

    The surface is rotationally symmetric, so the stencil is anchored at the
    polar angle 0.9.  The expected constant value is p^2.  Theta below
    3 * REACH is rejected.
    """
    _check_theta_stencil(theta, params)
    x0 = np.array([theta, 0.9])
    return coordinate_plane_curvatures(lambda x: _section_metric(x, params), x0)[(0, 1)]
