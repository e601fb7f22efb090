"""Finite-difference curvature machinery against textbook space forms, and the
packed Gauss equation against a dense evaluation."""

import itertools
import math

import numpy as np
import pytest

from finsleroid import AngleCoords, Parameters, domain_info, indicatrix_curvature
from finsleroid.curvature import (
    _inverse, christoffel, coordinate_plane_curvatures, gauss_curvatures,
)

from packing import packing


def rows(metric):
    """Batch metric_fn from a one-point oracle: (m, n) points to (m, n, n)."""
    return lambda xs: np.array([metric(x) for x in xs])


def test_round_sphere_unit_curvature():
    def metric(x):
        return np.diag([1.0, math.sin(x[0]) ** 2])

    ks = coordinate_plane_curvatures(rows(metric), np.array([1.1, 0.7]))
    assert ks[(0, 1)] == pytest.approx(1.0, abs=1e-8)


def test_scaled_sphere_curvature():
    a = 2.5

    def metric(x):
        return a * a * np.diag([1.0, math.sin(x[0]) ** 2])

    ks = coordinate_plane_curvatures(rows(metric), np.array([0.9, 0.3]))
    assert ks[(0, 1)] == pytest.approx(1.0 / (a * a), abs=1e-9)


def test_hyperbolic_plane_curvature():
    def metric(x):
        return np.diag([1.0, math.sinh(x[0]) ** 2])

    ks = coordinate_plane_curvatures(rows(metric), np.array([1.4, 0.2]))
    assert ks[(0, 1)] == pytest.approx(-1.0, abs=1e-8)


def test_three_dimensional_hyperbolic_space():
    def metric(x):
        sh2 = math.sinh(x[0]) ** 2
        return np.diag([1.0, sh2, sh2 * math.sin(x[1]) ** 2])

    ks = coordinate_plane_curvatures(rows(metric), np.array([1.2, 0.8, 0.5]))
    for plane, k in ks.items():
        assert k == pytest.approx(-1.0, abs=1e-7), plane


def test_flat_metric_zero_curvature():
    def metric(x):
        return np.eye(2)

    ks = coordinate_plane_curvatures(rows(metric), np.array([0.4, 1.0]))
    assert abs(ks[(0, 1)]) < 1e-12


def test_flat_plane_in_curvilinear_chart():
    # pullback of the Euclidean plane through a nonlinear map: every
    # component of g and its mixed derivatives is nonzero, K is still 0
    def metric(x):
        u, v = x
        j = np.array([
            [1.0 + 0.5 * v * math.cos(u * v), 0.5 * u * math.cos(u * v)],
            [-0.5 * math.sin(u + v * v), 1.0 - v * math.sin(u + v * v)],
        ])
        return j.T @ j

    for pt in ([0.4, 0.3], [0.8, -0.5], [1.2, 0.7]):
        ks = coordinate_plane_curvatures(rows(metric), np.array(pt))
        assert abs(ks[(0, 1)]) < 1e-8, pt


def test_round_sphere_christoffel_symbols():
    def metric(x):
        return np.diag([1.0, math.sin(x[0]) ** 2])

    th = 1.1
    g, gamma = christoffel(rows(metric), np.array([th, 0.7]))
    expected = np.zeros((2, 2, 2))
    expected[0, 1, 1] = -math.sin(th) * math.cos(th)
    expected[1, 0, 1] = expected[1, 1, 0] = math.cos(th) / math.sin(th)
    np.testing.assert_allclose(g, metric(np.array([th, 0.7])))
    np.testing.assert_allclose(gamma, expected, atol=1e-11)


@pytest.mark.parametrize("n, expected", [(3, 37), (2, 17)])
def test_single_level_stencil_evaluation_count(n, expected):
    calls = []

    def metric(xs):
        calls.append(xs)
        return np.array([np.diag(1.0 + x * x) for x in xs])

    coordinate_plane_curvatures(metric, np.full(n, 0.3))
    # one call on all 1 + 4n + 4n(n - 1) stencil points
    assert len(calls) == 1
    assert calls[0].shape == (expected, n)


FLOOR_GAP = 3e-3  # eta - eta_min of the point next to the floor


@pytest.mark.parametrize("H, p", [(1.25, 0.8), (2.0, 0.5)])
def test_indicatrix_curvature_near_domain_floor(H, p):
    params = Parameters(H=H, p=p)
    eta = domain_info(params).eta_min + FLOOR_GAP
    ks = indicatrix_curvature(AngleCoords(eta=eta, theta=0.5, phi=1.0), params)
    for plane, k in ks.items():
        assert abs(k + H * H) < 1e-9 * H * H, plane


@pytest.mark.parametrize("k", [2, 3])
def test_gauss_curvatures_match_a_dense_evaluation(k):
    # packed floats in, against S = C_ii. m^-1 C_jj. - C_ij. m^-1 C_ij. and
    # A = m_ii m_jj - m_ij^2 contracted densely by einsum with an LU inverse
    rng = np.random.default_rng(40 + k)
    pairs, spans, _, _ = packing(k)
    assert (len(pairs), len(spans)) == (k * (k + 1) // 2, k * (k + 1) * (k + 2) // 6)
    for _ in range(200):
        raw = rng.normal(size=(k, k, k))
        cartan = sum(raw.transpose(perm) for perm in itertools.permutations(range(3))) / 6.0
        root = rng.normal(size=(k, k))
        metric = root @ root.T + 0.1 * np.eye(k)
        # both definitenesses: gauss_curvatures reads the sign off the metric
        sign = rng.choice([-1.0, 1.0])
        metric = sign * metric
        got = gauss_curvatures([cartan[span[:3]] for span in spans],
                               [metric[pair] for pair in pairs])
        inv = np.linalg.inv(metric)
        s = (np.einsum("iid,de,jje->ij", cartan, inv, cartan)
             - np.einsum("ijd,de,ije->ij", cartan, inv, cartan))
        area = np.outer(np.diag(metric), np.diag(metric)) - metric * metric
        assert sorted(got) == [(i, j) for i in range(k) for j in range(i + 1, k)]
        for (i, j), value in got.items():
            want = sign * (1.0 - s[i, j] / area[i, j])
            assert abs(value - want) <= 1e-13 * max(1.0, abs(want)), (i, j)  # measured 1.7e-14


def _left_to_right_gauss(cartan, metric, k):
    """gauss_curvatures written out with explicit += loops: each dot summed in index order
    from 0.0, a plain sum on every Python (``sum`` compensates from 3.12)."""
    pairs, _, pair_at, triple_at = packing(k)
    inv = _inverse(metric, k)
    lower = [[cartan[q] for q in triple_at[a][b]] for a, b in pairs]
    raised = []
    for row in lower:
        up = []
        for c in range(k):
            acc = 0.0
            for e in range(k):
                acc += row[e] * inv[pair_at[c][e]]
            up.append(acc)
        raised.append(up)
    out = {}
    for i in range(k):
        for j in range(i + 1, k):
            ii, jj, ij = pair_at[i][i], pair_at[j][j], pair_at[i][j]
            first = second = 0.0
            for e in range(k):
                first += lower[ii][e] * raised[jj][e]
            for e in range(k):
                second += lower[ij][e] * raised[ij][e]
            area = metric[ii] * metric[jj] - metric[ij] ** 2
            out[(i, j)] = math.copysign(1.0, metric[0]) * (1.0 - (first - second) / area)
    return out


@pytest.mark.parametrize("k", [2, 3])
def test_gauss_curvatures_match_a_left_to_right_contraction_bit_for_bit(k):
    # the straight-line contraction rounds as index-order loops do, on packed Python floats
    # of either definiteness
    rng = np.random.default_rng(70 + k)
    pairs, spans, _, _ = packing(k)
    for trial in range(200):
        root = rng.normal(size=(k, k))
        metric = (-1.0) ** trial * (root @ root.T + 0.1 * np.eye(k))
        cartan = rng.normal(size=len(spans)).tolist()
        packed = [float(metric[pair]) for pair in pairs]
        got = gauss_curvatures(cartan, packed)
        want = _left_to_right_gauss(cartan, packed, k)
        assert list(got) == list(want)
        for plane, value in got.items():
            assert type(value) is float
            assert value.hex() == want[plane].hex(), (trial, plane)
