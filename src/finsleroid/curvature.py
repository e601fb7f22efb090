"""Numerical sectional curvature of a metric given only as a function.

The curvature comes from one stencil over the metric itself.  Along each
coordinate axis the metric is sampled at offsets +-step and +-2 step,
which gives fourth-order first derivatives (the five-point stencil) and
fourth-order pure second derivatives.  The mixed second derivative of each
coordinate plane is the Richardson combination (4 D(step) - D(2 step)) / 3
of the four-corner differences D(s) at the corners (+-s, +-s).  Stencil
coefficients: Fornberg, Math. Comp. 51 (1988).  A metric evaluation must
therefore be available on a neighbourhood of radius 2 * step around the
base point; an n-dimensional chart costs 1 + 4n + 4n(n - 1) evaluations.
"""

from __future__ import annotations

import numpy as np

DEFAULT_STEP = 1e-3


def _axis_derivatives(metric_fn, x, step: float):
    """Metric g at x with dg[k] = d_k g and d2g[k] = d_k^2 g, fourth order."""
    g = metric_fn(x)
    n = len(x)
    dg = np.empty((n,) + g.shape)
    d2g = np.empty((n,) + g.shape)
    for k, e in enumerate(step * np.eye(n)):
        p1, m1 = metric_fn(x + e), metric_fn(x - e)
        p2, m2 = metric_fn(x + 2.0 * e), metric_fn(x - 2.0 * e)
        dg[k] = (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * step)
        d2g[k] = (16.0 * (p1 + m1) - (p2 + m2) - 30.0 * g) / (12.0 * step * step)
    return g, dg, d2g


def _gamma(g, dg):
    """Gamma[a, b, c] = Gamma^a_{bc} from the metric and its first derivatives."""
    # Gamma_{d,bc} = 1/2 (d_b g_{dc} + d_c g_{db} - d_d g_{bc})
    first = 0.5 * (np.einsum("bdc->dbc", dg) + np.einsum("cdb->dbc", dg) - dg)
    return np.einsum("ad,dbc->abc", np.linalg.inv(g), first)


def _mixed(metric_fn, x, i: int, j: int, s: float):
    """Four-corner difference of the metric in the (i, j) plane at spacing s."""
    ei, ej = s * np.eye(len(x))[[i, j]]
    return (
        metric_fn(x + ei + ej)
        - metric_fn(x + ei - ej)
        - metric_fn(x - ei + ej)
        + metric_fn(x - ei - ej)
    ) / (4.0 * s * s)


def christoffel(metric_fn, x, step: float = DEFAULT_STEP):
    """Metric and Christoffel symbols Gamma[a, b, c] = Gamma^a_{bc} at x."""
    g, dg, _ = _axis_derivatives(metric_fn, np.asarray(x, dtype=float), step)
    return g, _gamma(g, dg)


def coordinate_plane_curvatures(metric_fn, x, step: float = DEFAULT_STEP) -> dict:
    """Sectional curvatures of every coordinate 2-plane at x.

    Returns {(i, j): K} with K = R_{ijij} / (g_ii g_jj - g_ij^2), where
    R_{ijij} = 1/2 (2 d_i d_j g_ij - d_j^2 g_ii - d_i^2 g_jj)
               + g(Gamma_ij, Gamma_ij) - g(Gamma_ii, Gamma_jj);
    on a round sphere of radius a this yields +1/a^2 for every plane.
    """
    x = np.asarray(x, dtype=float)
    g, dg, d2g = _axis_derivatives(metric_fn, x, step)
    gamma = _gamma(g, dg)
    n = len(x)
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            d_ij = (
                4.0 * _mixed(metric_fn, x, i, j, step)
                - _mixed(metric_fn, x, i, j, 2.0 * step)
            ) / 3.0
            r_ijij = (
                0.5 * (2.0 * d_ij[i, j] - d2g[j][i, i] - d2g[i][j, j])
                + gamma[:, i, j] @ g @ gamma[:, i, j]
                - gamma[:, i, i] @ g @ gamma[:, j, j]
            )
            denom = g[i, i] * g[j, j] - g[i, j] ** 2
            out[(i, j)] = float(r_ijij / denom)
    return out
