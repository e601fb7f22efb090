"""Sectional curvature: pointwise by the Gauss equation, or by finite differences.

``gauss_curvatures`` is the product route: the Gauss equation of a Finsler
indicatrix gives every coordinate-plane curvature from the metric and the
Cartan tensor at the point itself, with no chart derivatives; the indicatrix
module supplies both in closed form (its chart metric is ``indicatrix_metric``).

``coordinate_plane_curvatures`` and ``christoffel`` are the chart-intrinsic
cross-check for a metric given only as a function, used by the tests.  They
take one stencil over the metric itself.  Along each coordinate axis the
metric is sampled at offsets +-STEP and +-2 STEP, which gives fourth-order
first derivatives (the five-point stencil) and fourth-order pure second
derivatives.  The mixed second derivative of each coordinate plane is the
Richardson combination (4 D(STEP) - D(2 STEP)) / 3 of the four-corner
differences D(s) at the corners (+-s, +-s).  Stencil coefficients: Fornberg,
Math. Comp. 51 (1988).  A metric evaluation must therefore be available
within 2 STEP of the base point.  ``metric_fn`` is called once per stencil:
it maps the (m, n) array of all m = 1 + 4n + 4n(n - 1) stencil points (the
rows of ``_offsets`` times STEP, around x) to the (m, n, n) array of metrics
there.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

from .errors import DomainError

STEP = 1e-3


@lru_cache(maxsize=None)
def _planes(n: int):
    """The coordinate planes (i, j), i < j, of n coordinates."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


@lru_cache(maxsize=None)
def _offsets(n: int) -> np.ndarray:
    """Stencil points in steps: the base; per axis +1, -1, +2, -2; per plane
    (i < j) and s = 1, 2 the corners (+s, +s), (+s, -s), (-s, +s), (-s, -s)."""
    e = np.eye(n)
    corners = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))
    rows = [0.0 * e[0]] + [s * e[k] for k in range(n) for s in (1.0, -1.0, 2.0, -2.0)]
    rows += [s * (a * e[i] + b * e[j])
             for i, j in _planes(n) for s in (1.0, 2.0) for a, b in corners]
    return np.array(rows)


def _stencil(metric_fn, x):
    """g, dg[k] = d_k g, d2g[k] = d_k^2 g and the mixed derivative per plane."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    gs = np.asarray(metric_fn(x + STEP * _offsets(n)))
    g = gs[0]
    p1, m1, p2, m2 = np.moveaxis(gs[1 : 1 + 4 * n].reshape((n, 4) + g.shape), 1, 0)
    dg = (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * STEP)
    d2g = (16.0 * (p1 + m1) - (p2 + m2) - 30.0 * g) / (12.0 * STEP * STEP)
    pp, pm, mp, mm = np.moveaxis(gs[1 + 4 * n :].reshape((-1, 2, 4) + g.shape), 2, 0)
    s = np.array([STEP, 2.0 * STEP])[:, None, None]
    diff = (pp - pm - mp + mm) / (4.0 * s * s)  # four-corner D(s), s = STEP, 2 STEP
    return g, dg, d2g, (4.0 * diff[:, 0] - diff[:, 1]) / 3.0


def _gamma(g, dg):
    """Gamma[a, b, c] = Gamma^a_{bc} from the metric and its first derivatives."""
    # Gamma_{d,bc} = 1/2 (d_b g_{dc} + d_c g_{db} - d_d g_{bc})
    first = 0.5 * (np.einsum("bdc->dbc", dg) + np.einsum("cdb->dbc", dg) - dg)
    return np.einsum("ad,dbc->abc", np.linalg.inv(g), first)


def christoffel(metric_fn, x):
    """Metric and Christoffel symbols Gamma[a, b, c] = Gamma^a_{bc} at x."""
    g, dg, _, _ = _stencil(metric_fn, x)
    return g, _gamma(g, dg)


def _inverse(m, k):
    """Packed inverse of a packed symmetric k x k matrix, k = 2 or 3, by cofactors, or a
    DomainError where the determinant underflows below the normal floats (p = 1, H above ~1e46):
    a bound on what a double can represent, not on accuracy (README, "Curvature accuracy")."""
    if k == 2:
        a, b, d = m
        cofactors, det = [d, -b, a], a * d - b * b
    else:
        a, b, c, d, e, f = m
        cofactors = [d * f - e * e, c * e - b * f, b * e - c * d,
                     a * f - c * c, b * c - a * e, a * d - b * b]
        det = a * cofactors[0] + b * cofactors[1] + c * cofactors[2]
    if abs(det) < sys.float_info.min:
        raise DomainError(f"the chart metric's {k} x {k} determinant underflows: {det}")
    return [x / det for x in cofactors]


def gauss_curvatures(cartan, chart_metric) -> dict:
    """Sectional curvatures of every coordinate 2-plane of an indicatrix chart.

    The Gauss equation of a Finsler indicatrix (Bao, Chern & Shen, GTM 200; Matsumoto 1986)
    at one point: ``cartan`` is the Cartan tensor and ``chart_metric`` the metric m on the
    k = 2 or 3 chart tangent vectors, as packed floats (``kernel._PAIR_INDEX``: k(k + 1)(k + 2)/6
    and k(k + 1)/2).  The Cartan tensor vanishes along the point's own direction y, and
    g(y, X) = 0 for every tangent X, so m^-1 raises C's last slot:
    S = C_ii. m^-1 C_jj. - C_ij. m^-1 C_ij. and A = m_ii m_jj - m_ij^2 give
    {(i, j): sign (1 - S/A)}.  ``sign`` is the sign of m's first entry: +1 for the indicatrix
    of a positive definite norm and -1 for the unit surface of a Lorentzian one, whose chart
    metric is negative definite.  The contraction is written out for each k: m^-1 raises
    the rows C(a, b, .) that the planes read by explicit products, and every dot runs left
    to right, so it rounds alike on every Python (``sum`` compensates from 3.12).
    """
    k = math.isqrt(2 * len(chart_metric))
    sign = math.copysign(1.0, chart_metric[0])
    inv = _inverse(chart_metric, k)
    if k == 2:
        (a, b, d), (c0, c1, c2, c3), (m0, m1, m2) = inv, cartan, chart_metric
        r01, r11 = (c1 * a + c2 * b, c1 * b + c2 * d), (c2 * a + c3 * b, c2 * b + c3 * d)
        s01 = c0 * r11[0] + c1 * r11[1] - (c1 * r01[0] + c2 * r01[1])
        return {(0, 1): sign * (1.0 - s01 / (m0 * m2 - m1 ** 2))}
    (a, b, c, d, e, f), (m0, m1, m2, m3, m4, m5) = inv, chart_metric
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9 = cartan
    # the rows C(i, j, .) raised by m^-1 that the planes read: 01, 02, 11, 12 and 22
    r01 = c1 * a + c3 * b + c4 * c, c1 * b + c3 * d + c4 * e, c1 * c + c3 * e + c4 * f
    r02 = c2 * a + c4 * b + c5 * c, c2 * b + c4 * d + c5 * e, c2 * c + c4 * e + c5 * f
    r11 = c3 * a + c6 * b + c7 * c, c3 * b + c6 * d + c7 * e, c3 * c + c6 * e + c7 * f
    r12 = c4 * a + c7 * b + c8 * c, c4 * b + c7 * d + c8 * e, c4 * c + c7 * e + c8 * f
    r22 = c5 * a + c8 * b + c9 * c, c5 * b + c8 * d + c9 * e, c5 * c + c8 * e + c9 * f
    s01 = c0 * r11[0] + c1 * r11[1] + c2 * r11[2] - (c1 * r01[0] + c3 * r01[1] + c4 * r01[2])
    s02 = c0 * r22[0] + c1 * r22[1] + c2 * r22[2] - (c2 * r02[0] + c4 * r02[1] + c5 * r02[2])
    s12 = c3 * r22[0] + c6 * r22[1] + c7 * r22[2] - (c4 * r12[0] + c7 * r12[1] + c8 * r12[2])
    return {(0, 1): sign * (1.0 - s01 / (m0 * m3 - m1 ** 2)),
            (0, 2): sign * (1.0 - s02 / (m0 * m5 - m2 ** 2)),
            (1, 2): sign * (1.0 - s12 / (m3 * m5 - m4 ** 2))}


def coordinate_plane_curvatures(metric_fn, x) -> dict:
    """Sectional curvatures of every coordinate 2-plane at x.

    Returns {(i, j): K} with K = R_{ijij} / (g_ii g_jj - g_ij^2), where
    R_{ijij} = 1/2 (2 d_i d_j g_ij - d_j^2 g_ii - d_i^2 g_jj)
               + g(Gamma_ij, Gamma_ij) - g(Gamma_ii, Gamma_jj);
    on a round sphere of radius a this yields +1/a^2 for every plane.
    """
    g, dg, d2g, mixed = _stencil(metric_fn, x)
    gamma = _gamma(g, dg)
    out = {}
    for (i, j), d_ij in zip(_planes(len(g)), mixed):
        r_ijij = (
            0.5 * (2.0 * d_ij[i, j] - d2g[j][i, i] - d2g[i][j, j])
            + gamma[:, i, j] @ g @ gamma[:, i, j]
            - gamma[:, i, i] @ g @ gamma[:, j, j]
        )
        denom = g[i, i] * g[j, j] - g[i, j] ** 2
        out[(i, j)] = float(r_ijij / denom)
    return out
