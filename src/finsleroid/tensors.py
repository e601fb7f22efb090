"""Unit covector, angular metric, full metric tensor and its determinant.

Tensors are returned in frame coordinates: component 0 along the timelike
covector, components 1..3 along the spacelike frame.  ``tensor_to_natural``
and ``covector_to_natural`` convert back to natural coordinates by the
congruence transform of the tetrad matrix.

Three independent computations of the angular metric are provided: the
component route (closed-form radial gradient and Hessian times profile
factors), the angle route (outer products of the angle gradients), and a
fully numeric route (hyper-dual Hessian of the squared norm pushed through
the implicit hyperbolic angle), the only hyper-dual Hessian in this module.
They agree to machine precision on the admissible domain and are
cross-checked in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dual as dm
from .errors import DomainError, OutsideAxialRegion, PolarAxisSingular
from .frame import Parameters, Tetrad, projections
from .kernel import (
    _inverted_profile,
    _log_spiral,
    _radial_parts,
    _unpack,
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


def _check_axial(w1, w2, w3):
    """Reject frame ratios (floats or arrays) off the axial region or on its polar axis;
    ratios on the time axis fail ``_radial_parts``' guards at any p."""
    if dm.any_set(w3 <= 0.0):
        raise OutsideAxialRegion(f"axial projection w3={np.min(w3)} not positive")
    if dm.any_set((w1 == 0.0) & (w2 == 0.0)):
        raise PolarAxisSingular("angle derivatives are undefined on the polar axis")


def _frame_point(y, tetrad: Tetrad | None, params: Parameters, dual: bool = False,
                 axial: bool | None = None):
    """b and the ratios (w1, w2, w3) of one vector, as Python floats, with the domain guards,
    off the axial region where ``axial`` (default p < 1); for the hyper-dual routes (``dual``)
    also ``_radial_parts``' guards and, where axial, the polar axis up to (w1^2 + w2^2)^2 = 0:
    their passes take sqrt and atan2 of the squared ratios, and divide by 0 in ``dual.sqrt``
    or ``dual.atan2`` where they underflow."""
    if params is None:
        raise TypeError("params is required")
    b, w1, w2, w3 = projections(y, Tetrad.canonical() if tetrad is None else tetrad)
    axial = params.p < 1.0 if axial is None else axial
    if axial:
        _check_axial(w1, w2, w3)
    if dual:
        _radial_parts(w1, w2, w3, params)
        if axial and (w1 * w1 + w2 * w2) ** 2 == 0.0:
            raise PolarAxisSingular(f"ratios on the polar axis: (w1^2 + w2^2)^2 = 0 at {w1}, {w2}")
    return b, (w1, w2, w3)


def _profile_factors(r, params: Parameters):
    """sinh(eta), R1, V, V_r and V_rr at one vector's r, through ``_inverted_profile``."""
    eta, (_, r1v, _, _, v, _) = _inverted_profile(r, params)
    sh = math.sinh(eta)
    p2 = params.p * params.p
    h2 = params.H * params.H
    v_r = -v * (p2 / h2) * sh * sh / r
    eta_r = p2 * r1v * sh / r
    v_rr = -(v / h2) * eta_r * eta_r
    return sh, r1v, v, v_r, v_rr


def _radial_point(b, w, params: Parameters):
    """Norm F, unit covector l and angular metric h at a resolved frame point.

    ``b`` and the ratios ``w = (w1, w2, w3)`` are floats (``_frame_point``).  The radial
    map's value, gradient and Hessian in the ratios come from one closed-form call, its
    value is inverted once, and l and h are the component-route assemblies, packed
    (``kernel._PAIR_INDEX``), written out entry by entry.
    """
    r, (g1, g2, g3), (k11, k12, k13, k22, k23, k33) = _radial_parts(*w, params)
    sh, _, v, v_r, v_rr = _profile_factors(r, params)
    l = [v * (1.0 + (params.p ** 2 / params.H ** 2) * sh * sh), v_r * g1, v_r * g2, v_r * g3]
    vv, vr = v * v_rr, v * v_r
    t = -vv * r
    h = [vv * r * r, t * g1, t * g2, t * g3,
         vv * (g1 * g1) + vr * k11, vv * (g1 * g2) + vr * k12, vv * (g1 * g3) + vr * k13,
         vv * (g2 * g2) + vr * k22, vv * (g2 * g3) + vr * k23, vv * (g3 * g3) + vr * k33]
    return b * v, l, h


def unit_covector(y, tetrad: Tetrad | None = None, params: Parameters | None = None):
    """Covariant unit vector l_i = dF/dy^i in frame coordinates."""
    return np.array(_radial_point(*_frame_point(y, tetrad, params), params)[1])


def angular_metric(y, tetrad: Tetrad | None = None, params: Parameters | None = None):
    """Angular metric h_ij = F * d^2F/dy^i dy^j, component route."""
    return _unpack(_radial_point(*_frame_point(y, tetrad, params), params)[2], 4)


def _angle_point(y, tetrad: Tetrad | None, params: Parameters):
    """Angle gradients, norm F, sinh(eta) and theta of one vector."""
    b, w = _frame_point(y, tetrad, params, dual=True, axial=True)

    def ratio_maps(y0, y1, y2, y3):
        w1, w2, w3 = y1 / y0, y2 / y0, y3 / y0
        f = params.p * dm.sqrt(w1 * w1 + w2 * w2) / w3
        return radial_from_ratios(w1, w2, w3, params), f, dm.atan2(w2, w1)

    yf = np.array([b, b * w[0], b * w[1], b * w[2]])
    (r, _, _), jac = dm.gradient(ratio_maps, yf)
    sh, r1v, v, _, _ = _profile_factors(r, params)
    _, _, _, _, theta, big_i, _ = _log_spiral(*w, params)  # as angles_from_vector's
    r2 = big_i * w[2] / r  # R2 = I w3/r, and d theta/d f = R2^2
    grads = AngleGradients(
        eta_grad=params.p ** 2 * r1v * sh / r * jac[0],
        theta_grad=r2 * r2 * jac[1],
        phi_grad=jac[2],
    )
    return grads, b * v, sh, theta


def angle_gradients(
    y, tetrad: Tetrad | None = None, params: Parameters | None = None
) -> AngleGradients:
    """Gradients of the three angles with respect to the vector components.

    eta_grad comes from the implicit-function slope of the radial map,
    theta_grad from the azimuthal chain rule, phi_grad from the polar
    arctangent; the ratio maps r, f and phi themselves are differentiated
    together by one forward-mode gradient.
    """
    return _angle_point(y, tetrad, params)[0]


def angular_metric_angle_form(
    y, tetrad: Tetrad | None = None, params: Parameters | None = None
):
    """Angular metric assembled from the angle gradients.

    h = -(1/H^2) (e (x) e + sinh^2(eta) (t (x) t + sin^2(theta) p (x) p)) F^2
    with e, t, p the gradients of the hyperbolic, azimuthal and polar angle.
    """
    grads, norm, sh, theta = _angle_point(y, tetrad, params)
    e, t, ph = grads.eta_grad, grads.theta_grad, grads.phi_grad
    h = np.outer(e, e) + sh ** 2 * (np.outer(t, t) + math.sin(theta) ** 2 * np.outer(ph, ph))
    return -(norm * norm / params.H ** 2) * h


def metric_tensor(
    y, tetrad: Tetrad | None = None, params: Parameters | None = None
) -> TensorBundle:
    """Full bundle l, h, g = h + l (x) l and the LU determinant of g, which must be finite
    (DomainError, also where numpy's overflow warning is an error)."""
    f, l, h = _radial_point(*_frame_point(y, tetrad, params), params)
    l, h = np.array(l), _unpack(h, 4)
    g = h + l[:, None] * l
    try:
        det = float(np.linalg.det(g))
    except RuntimeWarning as exc:
        raise DomainError(f"det g overflows: {exc}") from None
    if not math.isfinite(det):
        raise DomainError(f"det g overflows: the LU determinant is {det}")
    return TensorBundle(l=l, h=h, g=g, det_g=det, F=f)


def metric_tensor_numeric(
    y, tetrad: Tetrad | None = None, params: Parameters | None = None
) -> TensorBundle:
    """Bundle from the hyper-dual Hessian of F^2/2, no component formulas.

    The implicit hyperbolic angle is differentiated with the
    implicit-function rule; everything else is plain forward-mode
    propagation through the evaluation pipeline.  Near the domain floor it
    drifts from ``metric_tensor``: max|g_dual - g|/max|g| at (2, 0.5) is 4e-2
    at eta - eta_min = 1e-10, 7e-8 at 1e-6 and 2.5e-15 at 0.2, likely because
    (eta - eta_min)^(-3/2) terms of A'' cancel through ``eta_lifted``.  For p < 1
    it also drifts near the polar axis, with no error, where its passes carry
    1/|(w1, w2)| terms that cancel: at (2, 0.5), y = [1, e, e, 0.0688], the same
    ratio is 1.6e-8 at e = 1e-10 and 4.7e11 at e = 1e-30.
    """
    b, w = _frame_point(y, tetrad, params, dual=True)
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

    Depends on the hyperbolic and azimuthal angle but not on the polar one; reduces to -1
    in the pseudo-Euclidean case.  Raises PolarAxisSingular where r^6 underflows to 0, r
    below ~1e-54: ratios that near the time axis, as those of every admissible vector at
    p = 0.01 are, and DomainError where the determinant overflows, as it can at p = 0.02.
    """
    b, w = _frame_point(y, tetrad, params)
    _, _, _, _, _, big_i, r = _log_spiral(*w, params)
    r6 = r ** 6
    # r = 0 itself lies below r_min for p < 1, which eta_from_r reports
    if r6 == 0.0 and (params.p == 1.0 or r > 0.0):
        raise PolarAxisSingular(f"ratios on the time axis: r^6 = 0 at r = {r}")
    sh, r1v, v, _, _ = _profile_factors(r, params)
    core = params.p ** 4 * big_i ** 3 * v ** 4 * r1v
    det = -(core * core) * sh ** 6 / (params.H ** 6 * r6)
    if not math.isfinite(det):
        raise DomainError(f"det g overflows: the closed form is {det} at r = {r}")
    return det


def finsleroid3_metric(w, params: Parameters):
    """Metric of the three-dimensional section: Hessian of r^2/2 in the ratios.

    Assembled as G_ab = d_a r d_b r + r d_ab r from the closed-form radial
    derivatives (``_radial_parts``, packed), as ``metric_tensor`` assembles g,
    also for an (m, 3) batch.  Positive definite away from the polar axis; for
    p < 1 the axis itself is a conical point and is rejected.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim > 2 or w.shape[-1:] != (3,):
        raise ValueError(f"takes 3 ratios or an (m, 3) batch, got an array of shape {w.shape}")
    w1, w2, w3 = w.T if w.ndim == 2 else w.tolist()
    if params.p < 1.0:
        _check_axial(w1, w2, w3)
    r, (g1, g2, g3), (k11, k12, k13, k22, k23, k33) = _radial_parts(w1, w2, w3, params)
    return _unpack([g1 * g1 + r * k11, g1 * g2 + r * k12, g1 * g3 + r * k13,
                    g2 * g2 + r * k22, g2 * g3 + r * k23, g3 * g3 + r * k33], 3)


def covector_to_natural(vec, tetrad: Tetrad) -> np.ndarray:
    """Frame-coordinate covector re-expressed in natural coordinates."""
    return tetrad.rows.T @ np.asarray(vec, dtype=float)


def tensor_to_natural(mat, tetrad: Tetrad) -> np.ndarray:
    """Frame-coordinate covariant 2-tensor re-expressed in natural coordinates."""
    rows = tetrad.rows
    return rows.T @ np.asarray(mat, dtype=float) @ rows
