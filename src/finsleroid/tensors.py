"""Unit covector, angular metric, full metric tensor and its determinant.

Tensors are returned in frame coordinates: component 0 along the timelike
covector, components 1..3 along the spacelike frame.  ``tensor_to_natural``
and ``covector_to_natural`` convert back to natural coordinates by the
congruence transform of the tetrad matrix.

Three independent computations of the angular metric are provided: the
component route (radial derivatives times profile factors), the angle
route (outer products of the angle gradients), and a fully numeric route
(hyper-dual Hessian of the squared norm pushed through the implicit
hyperbolic angle).  They agree to machine precision on the admissible
domain and are cross-checked in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dual as dm
from .errors import OutsideAxialRegion, PolarAxisSingular
from .frame import Parameters, Tetrad, projections
from .kernel import (
    eta_from_r,
    hyperbolic_profile,
    norm_squared,
    radial_from_ratios,
)


@dataclass(frozen=True)
class TensorBundle:
    """Covariant unit vector l, angular metric h, metric g = h + l (x) l.

    All in frame coordinates; ``det_g`` is the LU determinant of ``g``.
    """

    l: np.ndarray
    h: np.ndarray
    g: np.ndarray
    det_g: float
    F: float


@dataclass(frozen=True)
class AngleGradients:
    """Covector gradients of the three angles in frame coordinates."""

    eta_grad: np.ndarray
    theta_grad: np.ndarray
    phi_grad: np.ndarray


def _frame_point(y, tetrad: Tetrad | None, params: Parameters):
    """Frame ratios of a vector, with the tensor-level domain guards."""
    if tetrad is None:
        tetrad = Tetrad.canonical()
    b, w1, w2, w3 = projections(y, tetrad)
    w_perp = math.hypot(w1, w2)
    if params.p < 1.0:
        if w3 <= 0.0:
            raise OutsideAxialRegion(f"axial projection w3={w3} is not positive")
        if w_perp == 0.0:
            raise PolarAxisSingular(
                "metric derivatives are undefined on the polar axis for p < 1"
            )
    elif w_perp == 0.0 and w3 == 0.0:
        raise PolarAxisSingular("vector lies exactly on the time axis")
    return b, np.array([w1, w2, w3])


def _profile_factors(r: float, params: Parameters):
    """V and its first two radial derivatives at radial value r."""
    eta = eta_from_r(r, params)
    _, r1v, _, _, v, _ = hyperbolic_profile(eta, params)
    r1v = float(r1v)
    v = float(v)
    sh = math.sinh(eta)
    p2 = params.p * params.p
    h2 = params.H * params.H
    v_r = -v * (p2 / h2) * sh * sh / r
    eta_r = p2 * r1v * sh / r
    v_rr = -(v / h2) * eta_r * eta_r
    return eta, v, v_r, v_rr


def _radial_point(y, tetrad: Tetrad | None, params: Parameters):
    """Norm F, unit covector l and angular metric h of one vector.

    The frame point is resolved once, the radial map is differentiated
    once (value, gradient and Hessian in the frame ratios) and its value
    is inverted once; l and h are the component-route assemblies.
    """
    b, w = _frame_point(y, tetrad, params)
    r, grad, hess = dm.hessian(lambda a, c, d: radial_from_ratios(a, c, d, params), w)
    eta, v, v_r, v_rr = _profile_factors(r, params)
    sh = math.sinh(eta)
    l = np.empty(4)
    l[0] = v * (1.0 + (params.p ** 2 / params.H ** 2) * sh * sh)
    l[1:] = v_r * grad
    h = np.empty((4, 4))
    h[0, 0] = v * v_rr * r * r
    h[0, 1:] = h[1:, 0] = -v * v_rr * r * grad
    h[1:, 1:] = v * v_rr * np.outer(grad, grad) + v * v_r * hess
    return b * v, l, h


def unit_covector(y, tetrad: Tetrad | None = None, params: Parameters | None = None):
    """Covariant unit vector l_i = dF/dy^i in frame coordinates."""
    return _radial_point(y, tetrad, params)[1]


def angular_metric(y, tetrad: Tetrad | None = None, params: Parameters | None = None):
    """Angular metric h_ij = F * d^2F/dy^i dy^j, component route."""
    return _radial_point(y, tetrad, params)[2]


def angle_gradients(
    y, tetrad: Tetrad | None = None, params: Parameters | None = None
) -> AngleGradients:
    """Gradients of the three angles with respect to the vector components.

    eta_grad comes from the implicit-function slope of the radial map,
    theta_grad from the azimuthal chain rule, phi_grad from the polar
    arctangent; the ratio maps r, f and phi themselves are differentiated
    together by one forward-mode gradient.
    """
    b, w = _frame_point(y, tetrad, params)
    if w[2] <= 0.0:
        raise OutsideAxialRegion(f"axial projection w3={w[2]} is not positive")
    if math.hypot(w[0], w[1]) == 0.0:
        raise PolarAxisSingular("theta and phi gradients undefined on the axis")

    def ratio_maps(y0, y1, y2, y3):
        w1, w2, w3 = y1 / y0, y2 / y0, y3 / y0
        f = params.p * dm.sqrt(w1 * w1 + w2 * w2) / w3
        return radial_from_ratios(w1, w2, w3, params), f, dm.atan2(w2, w1)

    yf = np.array([b, b * w[0], b * w[1], b * w[2]])
    (r, f, _), jac = dm.gradient(ratio_maps, yf)
    eta = eta_from_r(r, params)
    _, r1v, _, _, _, _ = hyperbolic_profile(eta, params)
    eta_r = params.p ** 2 * float(r1v) * math.sinh(eta) / r

    gp = params.azimuthal_skew
    theta = math.atan2(f, 1.0 - gp * f)
    r2 = math.cos(theta) + gp * math.sin(theta)
    return AngleGradients(
        eta_grad=eta_r * jac[0], theta_grad=r2 * r2 * jac[1], phi_grad=jac[2]
    )


def angular_metric_angle_form(
    y, tetrad: Tetrad | None = None, params: Parameters | None = None
):
    """Angular metric assembled from the angle gradients.

    h = -(1/H^2) (e (x) e + sinh^2(eta) (t (x) t + sin^2(theta) p (x) p)) F^2
    with e, t, p the gradients of the hyperbolic, azimuthal and polar angle.
    """
    grads = angle_gradients(y, tetrad, params)
    b, w = _frame_point(y, tetrad, params)
    r = float(dm.value(radial_from_ratios(w[0], w[1], w[2], params)))
    eta, v, _, _ = _profile_factors(r, params)
    w_perp = math.hypot(w[0], w[1])
    gp = params.azimuthal_skew
    f = params.p * w_perp / w[2]
    theta = math.atan2(f, 1.0 - gp * f)
    norm = b * v
    sh2 = math.sinh(eta) ** 2
    st2 = math.sin(theta) ** 2
    h = (
        np.outer(grads.eta_grad, grads.eta_grad)
        + sh2
        * (
            np.outer(grads.theta_grad, grads.theta_grad)
            + st2 * np.outer(grads.phi_grad, grads.phi_grad)
        )
    )
    return -(norm * norm / params.H ** 2) * h


def metric_tensor(
    y, tetrad: Tetrad | None = None, params: Parameters | None = None
) -> TensorBundle:
    """Full bundle l, h, g = h + l (x) l and the LU determinant of g."""
    f, l, h = _radial_point(y, tetrad, params)
    g = h + np.outer(l, l)
    return TensorBundle(l=l, h=h, g=g, det_g=float(np.linalg.det(g)), F=f)


def metric_tensor_numeric(
    y, tetrad: Tetrad | None = None, params: Parameters | None = None
) -> TensorBundle:
    """Bundle from the hyper-dual Hessian of F^2/2, no component formulas.

    The implicit hyperbolic angle is differentiated with the
    implicit-function rule; everything else is plain forward-mode
    propagation through the evaluation pipeline.
    """
    b, w = _frame_point(y, tetrad, params)
    yf = np.array([b, b * w[0], b * w[1], b * w[2]])
    val, grad, hess = dm.hessian(
        lambda a, c, d, e: norm_squared(a, c, d, e, params), yf
    )
    f = math.sqrt(val)
    g = 0.5 * hess
    l = grad / (2.0 * f)
    h = g - np.outer(l, l)
    return TensorBundle(l=l, h=h, g=g, det_g=float(np.linalg.det(g)), F=f)


def metric_determinant_closed(
    y, tetrad: Tetrad | None = None, params: Parameters | None = None
) -> float:
    """Closed-form determinant of g in frame coordinates.

    Depends on the hyperbolic and azimuthal angle but not on the polar
    one; reduces to -1 in the pseudo-Euclidean case.
    """
    b, w = _frame_point(y, tetrad, params)
    r = float(dm.value(radial_from_ratios(w[0], w[1], w[2], params)))
    eta, v, _, _ = _profile_factors(r, params)
    _, r1v, _, _, _, _ = hyperbolic_profile(eta, params)
    gp = params.azimuthal_skew
    w_perp = math.hypot(w[0], w[1])
    vth = params.p * w_perp
    theta = math.atan2(vth, w[2] - gp * vth)
    big_i = math.exp(gp * theta)
    sh = math.sinh(eta)
    core = params.p ** 4 * big_i ** 3 * v ** 4 * float(r1v)
    return -(core * core) * sh ** 6 / (params.H ** 6 * r ** 6)


def finsleroid3_metric(w, params: Parameters):
    """Metric of the three-dimensional section: Hessian of r^2/2 in the ratios.

    Positive definite away from the polar axis; for p < 1 the axis itself
    is a conical point and is rejected.
    """
    w = np.asarray(w, dtype=float).reshape(3)
    if params.p < 1.0:
        if w[2] <= 0.0:
            raise OutsideAxialRegion(f"axial component w3={w[2]} is not positive")
        if math.hypot(w[0], w[1]) == 0.0:
            raise PolarAxisSingular("section metric undefined on the axis for p < 1")
    elif not np.any(w):
        raise PolarAxisSingular("section metric undefined at the origin")

    def half_square(a, b, c):
        r = radial_from_ratios(a, b, c, params)
        return 0.5 * r * r

    _, _, hess = dm.hessian(half_square, w)
    return hess


def covector_to_natural(vec, tetrad: Tetrad) -> np.ndarray:
    """Frame-coordinate covector re-expressed in natural coordinates."""
    return tetrad.rows.T @ np.asarray(vec, dtype=float)


def tensor_to_natural(mat, tetrad: Tetrad) -> np.ndarray:
    """Frame-coordinate covariant 2-tensor re-expressed in natural coordinates."""
    rows = tetrad.rows
    return rows.T @ np.asarray(mat, dtype=float) @ rows
