"""Forward-mode hyper-dual arithmetic against analytic derivatives."""

import math

import numpy as np
import pytest

from finsleroid import dual as dm


def test_dual_composite_derivative():
    # f(x) = exp(sin(x)) * sqrt(x); f'(x) = exp(sin x)(cos x sqrt x + 1/(2 sqrt x))
    x0 = 1.3
    x = dm.HyperDual(x0, 1.0)
    out = dm.exp(dm.sin(x)) * dm.sqrt(x)
    expected = math.exp(math.sin(x0)) * (
        math.cos(x0) * math.sqrt(x0) + 0.5 / math.sqrt(x0)
    )
    assert out.d1 == pytest.approx(expected, rel=1e-14)


def test_dual_division_and_log():
    x0 = 0.7
    x = dm.HyperDual(x0, 1.0)
    out = dm.log(x) / (1.0 + x)
    expected = (1.0 / x0 * (1.0 + x0) - math.log(x0)) / (1.0 + x0) ** 2
    assert out.d1 == pytest.approx(expected, rel=1e-13)


def test_hyperdual_second_derivative():
    # f(x) = cosh(x)^2: f'' = 2 cosh(2x)
    x0 = 0.45
    x = dm.HyperDual(x0, 1.0, 1.0, 0.0)
    out = dm.cosh(x) * dm.cosh(x)
    assert out.d12 == pytest.approx(2.0 * math.cosh(2 * x0), rel=1e-13)


def test_hyperdual_mixed_partial():
    # f(x, y) = x^2 * sin(y): d2f/dxdy = 2 x cos(y)
    x0, y0 = 1.1, 0.6
    x = dm.HyperDual(x0, 1.0, 0.0, 0.0)
    y = dm.HyperDual(y0, 0.0, 1.0, 0.0)
    out = x * x * dm.sin(y)
    assert out.d12 == pytest.approx(2 * x0 * math.cos(y0), rel=1e-13)


def test_atan2_gradient_all_quadrants():
    for nv, dv in [(0.3, 0.8), (0.3, -0.8), (-0.5, -0.2), (0.9, 0.0)]:
        val, grad = dm.gradient(dm.atan2, [nv, dv])
        s = nv * nv + dv * dv
        assert val == pytest.approx(math.atan2(nv, dv))
        assert grad[0] == pytest.approx(dv / s, abs=1e-14)
        assert grad[1] == pytest.approx(-nv / s, abs=1e-14)


def test_atan2_hyperdual_matches_finite_differences():
    def f(a, b):
        return dm.atan2(dm.sin(a), dm.cos(a) + b)

    a0, b0 = 0.9, 0.4
    val, grad, hess = dm.hessian(lambda a, b: f(a, b), [a0, b0])
    h = 1e-5

    def plain(a, b):
        return math.atan2(math.sin(a), math.cos(a) + b)

    fd_aa = (plain(a0 + h, b0) - 2 * plain(a0, b0) + plain(a0 - h, b0)) / h**2
    fd_ab = (
        plain(a0 + h, b0 + h)
        - plain(a0 + h, b0 - h)
        - plain(a0 - h, b0 + h)
        + plain(a0 - h, b0 - h)
    ) / (4 * h * h)
    assert hess[0, 0] == pytest.approx(fd_aa, abs=2e-6)
    assert hess[0, 1] == pytest.approx(fd_ab, abs=2e-6)


def test_hessian_of_quadratic_form_is_exact():
    m = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, -0.3], [0.0, -0.3, 4.0]])

    def quad_form(a, b, c):
        v = [a, b, c]
        total = 0.0
        for i in range(3):
            for j in range(3):
                total = total + v[i] * m[i, j] * v[j]
        return total * 0.5

    _, grad, hess = dm.hessian(quad_form, [0.3, -1.2, 0.7])
    x = np.array([0.3, -1.2, 0.7])
    np.testing.assert_allclose(hess, m, atol=1e-14)
    np.testing.assert_allclose(grad, m @ x, atol=1e-14)


def test_gradient_helper():
    val, grad = dm.gradient(lambda a, b: a * a * b + dm.exp(b), [2.0, 0.5])
    assert val == pytest.approx(2.0 + math.exp(0.5))
    assert grad[0] == pytest.approx(2.0)
    assert grad[1] == pytest.approx(4.0 + math.exp(0.5))

    # tuple output: values in order, one Jacobian row per output
    vals, jac = dm.gradient(
        lambda a, b: (a * b, dm.sin(a) + b, b * b), [2.0, 0.5]
    )
    assert vals == pytest.approx((1.0, math.sin(2.0) + 0.5, 0.25), rel=1e-15)
    np.testing.assert_allclose(
        jac, [[0.5, 2.0], [math.cos(2.0), 1.0], [0.0, 1.0]], rtol=1e-15
    )
