"""Hand-rolled forward-mode automatic differentiation.

One number type is provided: ``HyperDual``, a value plus two first-order
slots and one mixed second-order slot.  One pass per index pair yields an
exact Hessian entry (``hessian``); one pass per coordinate with only the
first slot seeded yields a gradient or Jacobian column (``gradient``).

The module-level math functions (``sqrt``, ``exp``, ``atan2``, ...) accept
plain floats (``math``) and ndarrays (numpy ufuncs) as well, so the same
pipeline runs with or without derivative tracking, and on batches.  A kernel
call picks its functions once with ``library``: ``math`` itself when every
argument is a float, so float calls skip the per-function dispatch, and this
module's generic functions otherwise.
"""

from __future__ import annotations

import math
import sys

import numpy as np


class HyperDual:
    """Second-order number tracking two directions and their mixed partial."""

    __slots__ = ("val", "d1", "d2", "d12")

    def __init__(self, val, d1=0.0, d2=0.0, d12=0.0):
        self.val = float(val)
        self.d1 = float(d1)
        self.d2 = float(d2)
        self.d12 = float(d12)

    @staticmethod
    def _lift(other) -> "HyperDual":
        if isinstance(other, HyperDual):
            return other
        return HyperDual(other)

    def __add__(self, other):
        o = self._lift(other)
        return HyperDual(self.val + o.val, self.d1 + o.d1, self.d2 + o.d2, self.d12 + o.d12)

    __radd__ = __add__

    def __neg__(self):
        return HyperDual(-self.val, -self.d1, -self.d2, -self.d12)

    def __sub__(self, other):
        o = self._lift(other)
        return HyperDual(self.val - o.val, self.d1 - o.d1, self.d2 - o.d2, self.d12 - o.d12)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._lift(other)
        return HyperDual(
            self.val * o.val,
            self.d1 * o.val + self.val * o.d1,
            self.d2 * o.val + self.val * o.d2,
            self.d12 * o.val + self.val * o.d12 + self.d1 * o.d2 + self.d2 * o.d1,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        q = self * o._reciprocal()
        q.val = self.val / o.val  # correctly rounded, as a float division is
        return q

    def __pow__(self, e: float):
        """A float power e of a positive value."""
        v = self.val
        return self.chain(v ** e, e * v ** (e - 1.0), e * (e - 1.0) * v ** (e - 2.0))

    def _reciprocal(self):
        inv = 1.0 / self.val
        return self.chain(inv, -inv * inv, 2.0 * inv * inv * inv)

    def chain(self, f: float, fp: float, fpp: float) -> "HyperDual":
        """Apply a univariate function given value and two derivatives."""
        return HyperDual(
            f,
            fp * self.d1,
            fp * self.d2,
            fp * self.d12 + fpp * self.d1 * self.d2,
        )

    def __repr__(self):
        return f"HyperDual({self.val}, {self.d1}, {self.d2}, {self.d12})"


def _apply(x, f, fp, fpp):
    if isinstance(x, HyperDual):
        return x.chain(f(x.val), fp(x.val), fpp(x.val))
    # the numpy ufunc of the same name as the math function
    return getattr(np, f.__name__)(x) if isinstance(x, np.ndarray) else f(x)


def sqrt(x):
    return _apply(
        x, math.sqrt, lambda v: 0.5 / math.sqrt(v), lambda v: -0.25 / v ** 1.5
    )


def exp(x):
    return _apply(x, math.exp, math.exp, math.exp)


def sin(x):
    return _apply(x, math.sin, math.cos, lambda v: -math.sin(v))


def cos(x):
    return _apply(x, math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v))


def sinh(x):
    return _apply(x, math.sinh, math.cosh, math.sinh)


def cosh(x):
    return _apply(x, math.cosh, math.sinh, math.cosh)


def library(*args):
    """``math`` when every argument is a float, else this module (hyper-duals, arrays)."""
    for a in args:
        if not isinstance(a, float):
            return sys.modules[__name__]
    return math


def any_set(mask):
    """Whether a float comparison (a bool) or any element of an array one holds."""
    return mask.any() if isinstance(mask, np.ndarray) else mask


def atan2(n, d):
    """Two-argument arctangent with derivative propagation in both slots."""
    if not isinstance(n, HyperDual) and not isinstance(d, HyperDual):
        array = isinstance(n, np.ndarray) or isinstance(d, np.ndarray)
        return (np.arctan2 if array else math.atan2)(n, d)
    n = HyperDual._lift(n)
    d = HyperDual._lift(d)
    nv, dv = n.val, d.val
    s = nv * nv + dv * dv
    v = math.atan2(nv, dv)
    fn = dv / s
    fd = -nv / s
    fnn = -2.0 * nv * dv / (s * s)
    fdd = 2.0 * nv * dv / (s * s)
    fnd = (nv * nv - dv * dv) / (s * s)
    return HyperDual(
        v,
        fn * n.d1 + fd * d.d1,
        fn * n.d2 + fd * d.d2,
        fn * n.d12
        + fd * d.d12
        + fnn * n.d1 * n.d2
        + fnd * (n.d1 * d.d2 + n.d2 * d.d1)
        + fdd * d.d1 * d.d2,
    )


def gradient(func, x):
    """Value and gradient of ``func`` at point ``x``, one pass per coordinate.

    Each pass seeds only the first slot ``d1`` of coordinate ``i``.  When
    ``func`` returns a tuple, the values come back as a tuple of floats and
    the gradient as a Jacobian with one row per output.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    columns = []
    for i in range(n):
        out = func(*[HyperDual(x[k], 1.0 if k == i else 0.0) for k in range(n)])
        outs = out if isinstance(out, tuple) else (out,)
        columns.append([o.d1 for o in outs])
    jac = np.array(columns).T
    if isinstance(out, tuple):
        return tuple(o.val for o in outs), jac
    return outs[0].val, jac[0]


def hessian(func, x):
    """Value, gradient and exact Hessian of ``func`` via hyper-duals."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    val = None
    for i in range(n):
        for j in range(i, n):
            args = [
                HyperDual(x[k], 1.0 if k == i else 0.0, 1.0 if k == j else 0.0)
                for k in range(n)
            ]
            out = func(*args)
            val = out.val
            grad[i] = out.d1
            hess[i, j] = hess[j, i] = out.d12
    return val, grad, hess
