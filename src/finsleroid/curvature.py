"""Numerical sectional curvature of a metric given only as a function.

The curvature comes from one stencil over the metric itself.  Along each
coordinate axis the metric is sampled at offsets +-STEP and +-2 STEP,
which gives fourth-order first derivatives (the five-point stencil) and
fourth-order pure second derivatives.  The mixed second derivative of each
coordinate plane is the Richardson combination (4 D(STEP) - D(2 STEP)) / 3
of the four-corner differences D(s) at the corners (+-s, +-s).  Stencil
coefficients: Fornberg, Math. Comp. 51 (1988).  A metric evaluation must
therefore be available within REACH = 2 STEP of the base point.
``metric_fn`` is called once per stencil: it maps the (m, n) array of all
m = 1 + 4n + 4n(n - 1) stencil points (the rows of ``_offsets`` times STEP,
around x) to the (m, n, n) array of metrics there.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

STEP = 1e-3
REACH = 2.0 * STEP  # the axis points and the outer mixed corners lie this far out


@lru_cache(maxsize=None)
def _offsets(n: int) -> np.ndarray:
    """Stencil points in steps: the base; per axis +1, -1, +2, -2; per plane
    (i < j) and s = 1, 2 the corners (+s, +s), (+s, -s), (-s, +s), (-s, -s)."""
    e = np.eye(n)
    planes = [(i, j) for i in range(n) for j in range(i + 1, n)]
    corners = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))
    rows = [0.0 * e[0]] + [s * e[k] for k in range(n) for s in (1.0, -1.0, 2.0, -2.0)]
    rows += [s * (a * e[i] + b * e[j]) for i, j in planes for s in (1.0, 2.0) for a, b in corners]
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


def coordinate_plane_curvatures(metric_fn, x) -> dict:
    """Sectional curvatures of every coordinate 2-plane at x.

    Returns {(i, j): K} with K = R_{ijij} / (g_ii g_jj - g_ij^2), where
    R_{ijij} = 1/2 (2 d_i d_j g_ij - d_j^2 g_ii - d_i^2 g_jj)
               + g(Gamma_ij, Gamma_ij) - g(Gamma_ii, Gamma_jj);
    on a round sphere of radius a this yields +1/a^2 for every plane.
    """
    g, dg, d2g, mixed = _stencil(metric_fn, x)
    gamma = _gamma(g, dg)
    planes = [(i, j) for i in range(len(g)) for j in range(i + 1, len(g))]
    out = {}
    for (i, j), d_ij in zip(planes, mixed):
        r_ijij = (
            0.5 * (2.0 * d_ij[i, j] - d2g[j][i, i] - d2g[i][j, j])
            + gamma[:, i, j] @ g @ gamma[:, i, j]
            - gamma[:, i, i] @ g @ gamma[:, j, j]
        )
        denom = g[i, i] * g[j, j] - g[i, j] ** 2
        out[(i, j)] = float(r_ijij / denom)
    return out
