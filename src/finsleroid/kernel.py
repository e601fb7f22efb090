"""Structural scalar functions, angle maps, and the radial inversion.

The norm of a future-pointing vector factors as ``F = b * V`` where ``V``
depends on a single radial variable ``r``; ``r`` itself is an algebraic,
degree-one function of the frame ratios.  The link between ``r`` and the
hyperbolic angle ``eta`` is monotone and, for p < 1, not algebraically
invertible, so this module provides the closed-form forward maps, the
inverse (closed-form at p = 1, a seeded Newton iteration in a maintained
bracket otherwise), and independent quadrature oracles for both
log-derivative integrals.

The closed-form evaluators run float arguments on ``math``, choosing their
functions once per call (``dual.library``), and accept HyperDual arguments,
so derivatives pass through them unchanged, and arrays, so a batch of chart
points is one call; ``_radial_parts`` instead returns the value, gradient and
Hessian of the radial map in closed form for the tensor layer, on float or
array components, and ``radial_chain`` the first three derivatives of a
function of ln r at one ratio vector for the curvature layer, on Python floats,
each symmetric tensor packed as its distinct entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import dual as dm
from .errors import (
    OutsideAxialRegion,
    OutsideEtaDomain,
    OutsideRadialDomain,
    PolarAxisSingular,
    ThetaPole,
)
from .frame import DomainInfo, FrameComponents, Parameters, Tetrad, projections

# Below this radicand-root value an evaluation is flagged as sitting on the
# inner domain boundary, where angle derivatives degrade.
BOUNDARY_TOL = 1e-8

# Hyperbolic angles are capped here: the Newton bracket ends here, and the
# chart checks it first, although its ceiling, where ln(r_sup/r) falls to
# _MAP_NOISE, lies 15.9 to 17 above eta_min.
ETA_CAP = 250.0

NEWTON_MAX_ITER = 60

# A residual |r(eta) - r| within this share of r is rounding noise of the map.  Round trips
# exceed it below p ~ 0.05: at 394 of 2,999 radii at (50, 0.05) and 1,750 of 2,999 at (7, 0.02),
# 297 and 1,436 of them left by the step-size stop, the rest by the residual test's last step.
_MAP_NOISE = 16 * 2.0 ** -52
_LOG_HUGE = math.log(np.finfo(float).max)  # exp overflows above this
_QUAD_NODES, _QUAD_PANELS = 40, 8  # the quadrature oracle's fixed rule
_BELOW_ONE = math.nextafter(1.0, 0.0)  # the p = 1 inversion's cap on tanh(eta)


@dataclass(frozen=True)
class AngleCoords:
    """Hyperbolic, azimuthal and polar angle of a tangent direction."""

    eta: float
    theta: float
    phi: float

    def __post_init__(self):
        if not (0.0 <= self.eta < math.inf):
            raise ValueError(f"eta must be finite and >= 0, got {self.eta}")
        if not (0.0 <= self.theta < math.pi):
            raise ValueError(f"theta must be in [0, pi), got {self.theta}")
        if not (0.0 <= self.phi < 2.0 * math.pi):
            raise ValueError(f"phi must be in [0, 2*pi), got {self.phi}")


@dataclass(frozen=True)
class AngularProfile:
    """Azimuthal building blocks: divisor R2, exponential factor I, U = I/R2."""

    R2: float
    I: float
    U: float


@dataclass(frozen=True)
class EvalBundle:
    """All structural-function values at one evaluation point.

    The azimuthal entries (R2, I, U, f) and the norm F are None when the
    bundle comes from the hyperbolic profile alone.  ``near_boundary`` is
    set when the radicand root A is small enough that derivative-level
    quantities are unreliable.
    """

    A: float
    R1: float
    J: float
    Y1: float
    V: float
    r: float
    R2: float | None = None
    I: float | None = None
    U: float | None = None
    f: float | None = None
    F: float | None = None
    near_boundary: bool = False


def hyperbolic_profile(eta, params: Parameters):
    """Closed forms (A, R1, J, Y1, V, r) as functions of the hyperbolic angle.

    HyperDual- and array-generic.  J is normalized so that J = 1 at the
    domain floor eta_min, which the isotropic closed form requires.  For
    p < 1 nothing cancels: A takes sinh - sinh eta_min as 2 cosh((eta +
    eta_min)/2) sinh((eta - eta_min)/2), so it is exactly 0 at the floor, and
    Y1 = exp(-gp atan2(gp cosh, A)) takes the half angle of A + i gp cosh.
    An eta below the floor, or a hyper-dual at it, raises OutsideEtaDomain.
    """
    fn = dm.library(eta)
    gp = params.azimuthal_skew
    hh = params.boost_skew
    ch = fn.cosh(eta)
    sh = fn.sinh(eta)
    if gp == 0.0:
        # spatially isotropic case p = 1; at H = 1 (hh = 0) pseudo-Euclidean
        A = hh * sh
        R1 = ch + A
        J = fn.exp(hh * eta)
        Y1 = 1.0
    else:
        floor = params.eta_min
        gap = eta - floor
        if fn is math:
            low = gap < 0.0
        else:  # a hyper-dual fails at the floor too: sqrt has no derivative there
            low = gap.val <= 0.0 if isinstance(gap, dm.HyperDual) else dm.any_set(gap < 0.0)
        if low:
            at = np.min(getattr(eta, "val", eta))
            raise OutsideEtaDomain(f"radicand of A not positive at eta={at} (floor {floor})")
        j_scale, gp_hh, _ = params._kernel_constants  # the floor check raises first at H = 1 < 1/p
        A = hh * fn.sqrt(2.0 * fn.cosh(0.5 * (eta + floor)) * fn.sinh(0.5 * gap) * (sh + gp_hh))
        R1 = ch + A
        J = ((hh * ch + A) / j_scale) ** hh
        Y1 = fn.exp(-gp * fn.atan2(gp * ch, A))
    V = J / R1
    r = sh * Y1 / R1
    return A, R1, J, Y1, V, r


def _spiral(angle, params: Parameters, chart: bool = False):
    """exp(gp angle) at a float, hyper-dual or array angle, the one guard on its range:
    where it overflows, a ``chart`` theta raises OutsideAxialRegion (w3 = r R2/exp(gp
    theta) underflows to 0) and the spiral angle of a vector OutsideRadialDomain (its
    r = |X + iY| exp(gp angle) lies above r_sup < e^(1 - gp pi/2))."""
    t = params.azimuthal_skew * angle
    if isinstance(t, float):  # the common case first: a float costs one comparison
        if t <= _LOG_HUGE:
            return math.exp(t)
    elif not dm.any_set(getattr(t, "val", t) > _LOG_HUGE):
        return dm.exp(t)
    if chart:
        raise OutsideAxialRegion(f"exp(gp theta) overflows at theta={np.max(angle)}: w3 -> 0")
    dom = domain_info(params)
    raise OutsideRadialDomain(math.inf, dom.r_min, dom.r_sup)


def radial_from_ratios(w1, w2, w3, params: Parameters):
    """Algebraic radial variable of the frame ratios, degree-one homogeneous: the hyper-dual
    routes' map (``norm_squared``, ``tensors._angle_point``); float readers take ``_log_spiral``'s.

    HyperDual- and array-generic.  For p = 1 this is the Euclidean length of (w1, w2, w3) and
    is defined for any nonzero ratio vector; otherwise it is the logarithmic spiral r = |X + iY|
    exp(gp atan2(Y, X)) with Y = p |(w1, w2)| and X = w3 - gp Y, well-conditioned up to w3 -> 0.
    """
    fn = dm.library(w1, w2, w3)
    if params.p == 1.0:
        return fn.sqrt(w1 * w1 + w2 * w2 + w3 * w3)
    gp = params.azimuthal_skew
    y = params.p * fn.sqrt(w1 * w1 + w2 * w2)
    x = w3 - gp * y
    return fn.sqrt(x * x + y * y) * _spiral(fn.atan2(y, x), params)


def _log_spiral(w1, w2, w3, params: Parameters):
    """The logarithmic spiral of frame ratios (floats or arrays), rounded once for every float
    reader: rho = hypot(w1, w2), X = w3 - gp p rho, Y = p rho, k^2 = X^2 + Y^2 (w.w at p = 1),
    theta = atan2(Y, X), I = exp(gp theta) (``_spiral``'s guard) and r = k I, in that order."""
    fn = dm.library(w1, w2, w3)
    rho = (math.hypot if fn is math else np.hypot)(w1, w2)
    x = w3 - params.azimuthal_skew * params.p * rho
    y = params.p * rho
    k2 = w1 * w1 + w2 * w2 + w3 * w3 if params.p == 1.0 else x * x + y * y
    theta = fn.atan2(y, x)
    big_i = _spiral(theta, params)
    return rho, x, y, k2, theta, big_i, fn.sqrt(k2) * big_i


def _radial_parts(w1, w2, w3, params: Parameters):
    """Value, gradient (3 components) and Hessian (6, packed) of the radial map r
    in closed form, at ratios that are floats (one vector) or arrays (a batch).

    For p < 1, with rho = |(w1, w2)| > 0, X = w3 - gp p rho and Y = p rho, the map
    is the logarithmic spiral r = k exp(gp atan2(Y, X)), k = |X + iY|.
    ln r = Re[(1 - i gp) Log(X + iY)] is harmonic in (X, Y), which collapses the
    derivatives to grad = (r/k^2) (w1, w2, X - gp Y) and
    hess = (r/k^4) u u^T + (r/k^2) m m^T with u = (-w3 n, rho), m = (-n2, n1,
    0), n = (w1, w2)/rho.  Unlike hyper-dual passes, these carry no 1/rho
    terms that cancel near the axis.  For p = 1 the map is sqrt(w.w),
    computed in the operation order of a hyper-dual pass, so it agrees bit
    for bit with ``dual.hessian`` and stays defined for w3 <= 0 and on the
    axis.  For p < 1 r is ``_log_spiral``'s, whose overflow guard runs first; then
    where k^2 underflows to 0 it raises OutsideRadialDomain for r = 0, and where
    k^4 or (w.w)^1.5 does (ratios below ~1e-81 or ~1e-108, as the chart gives
    below p ~ 0.05) PolarAxisSingular: they lie on the time axis.
    """
    if params.p == 1.0:
        fn = dm.library(w1, w2, w3)
        s = w1 * w1 + w2 * w2 + w3 * w3
        s3 = s ** 1.5
        if dm.any_set(s3 == 0.0):
            raise PolarAxisSingular(f"ratios on the time axis: (w.w)^1.5 = 0 at w.w = {np.min(s)}")
        fp, fpp = 0.5 / fn.sqrt(s), -0.25 / s3
        # the hyper-dual slot sum 0 w1 + 0 w2 + 0 w3 is -0.0 only where every sign bit is set
        zero = 0.0 * w1 + 0.0 * w2 + 0.0 * w3
        d1, d2, d3 = 2.0 * w1 + zero, 2.0 * w2 + zero, 2.0 * w3 + zero
        # hyper-dual order (fpp d_a) d_b, plus 2 fp on the diagonal and 0 fp off it (-0.0 -> 0.0)
        e1, e2, e3, two, off = fpp * d1, fpp * d2, fpp * d3, 2.0 * fp, 0.0 * fp
        return fn.sqrt(s), [fp * d1, fp * d2, fp * d3], [
            e1 * d1 + two, e1 * d2 + off, e1 * d3 + off, e2 * d2 + two, e2 * d3 + off, e3 * d3 + two]
    gp = params.azimuthal_skew
    rho, x, y, k2, _, _, r = _log_spiral(w1, w2, w3, params)
    if dm.any_set(k2 * k2 == 0.0):
        if dm.any_set(k2 == 0.0):  # r is 0 in double precision, as eta_from_r would say
            dom = domain_info(params)
            raise OutsideRadialDomain(0.0, dom.r_min, dom.r_sup)
        raise PolarAxisSingular(f"ratios on the time axis: k^4 = 0 at k^2 = {np.min(k2)}")
    n1, n2 = w1 / rho, w2 / rho
    u1, u2, u3 = -w3 * n1, -w3 * n2, rho
    m1, m2, m3 = -n2, n1, 0.0 * rho
    rk2, rk4 = r / k2, r / (k2 * k2)
    return r, [rk2 * w1, rk2 * w2, rk2 * (x - gp * y)], [
        rk4 * (u1 * u1) + rk2 * (m1 * m1), rk4 * (u1 * u2) + rk2 * (m1 * m2),
        rk4 * (u1 * u3) + rk2 * (m1 * m3), rk4 * (u2 * u2) + rk2 * (m2 * m2),
        rk4 * (u2 * u3) + rk2 * (m2 * m3), rk4 * (u3 * u3) + rk2 * (m3 * m3)]


# A symmetric k-tensor is stored packed, as its distinct entries: the index tuples a <= b
# (<= c) in lexicographic order.  _PAIR_INDEX[k][a, b] is the packed position of (a, b).
_PAIR_INDEX = {
    2: np.array([[0, 1], [1, 2]]),
    3: np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]]),
    4: np.array([[0, 1, 2, 3], [1, 4, 5, 6], [2, 5, 7, 8], [3, 6, 8, 9]]),
}


def _unpack(packed, k: int):
    """Dense (k, k), or (m, k, k), of a packed symmetric k-tensor (k = 2, 3 or 4)."""
    dense = np.array(packed)
    return dense[_PAIR_INDEX[k]] if dense.ndim == 1 else dense.T[:, _PAIR_INDEX[k]]


def radial_chain(w, params: Parameters, frame, f):
    """First three derivatives of Phi(L), L = ln r, at one w (3 floats) off the axis, along
    the k = 2 or 3 columns of ``frame`` (3 rows of k floats), packed (``_PAIR_INDEX``), from Phi's
    L-derivatives f = (f1, f2, f3); at f = (1, 0, 0) they are L's own.

    r is homogeneous of degree one, so L's derivatives at w along X are those at w/|w|
    along X/|w|: both are divided by |w| first, which keeps 1/zeta^3 finite where the
    ratios are tiny (|w| down to ~1e-306, next to the pole at p ~ 0.004).
    L = Re[(1 - i gp) Log zeta], zeta = w3 + c rho, c = p (i - gp), rho = |(w1, w2)|: ln |w|
    at p = 1 (gp = 0).  rho's derivatives along X, Y, Z are n.X, P(X, Y)/rho and
    -sym(P (x) n)/rho^2, n = (w1, w2, 0)/rho, P(X, Y) = X1 Y1 + X2 Y2 - (n.X)(n.Y), so past
    zeta' each of zeta's is c times a real tensor.  With u = 1/zeta, q = (1 - i gp) u and
    kappa = q c/rho = i u/(p rho) ((1 - i gp) c = i/p, so Re(kappa) = 1/|zeta|^2 has no 1/rho
    cancellation near the axis): L' = Re(q zeta'), L'' = Re(kappa) P - Re(q u zeta' zeta') and
    L''' = 2 Re(q u^2 zeta' zeta' zeta') - sym(P (x) (Re(kappa u zeta') + Re(kappa) n/rho)),
    and Phi' = f1 L', Phi'' = f2 L' L' + f1 L'', Phi''' = f3 L' L' L' + f2 sym(L'' (x) L')
    + f1 L''', whose P terms gather into sym(P (x) g).  One pass over the columns forms X/|w|,
    n.X, zeta', L' and g.  The pairs and triples are then written out, those of columns 0 and 1
    first and, at k = 3, those with column 2: per pair Phi'' and the factors P, s = f3 L'L'/3
    - f2 Re(q u zeta' zeta') and z = 2 f1 q u^2 zeta' zeta', per triple the Phi''' entry
    s_ij L'_k + s_ik L'_j + s_jk L'_i + P_ij g_k + P_ik g_j + P_jk g_i + Re(z_ij zeta'_k), summed
    left to right.  Each real vector is formed once, so Phi''' contracts one rounded L'
    everywhere.
    """
    scale = math.hypot(*w)
    (w1, w2, w3), (f1, f2, f3) = (w[0] / scale, w[1] / scale, w[2] / scale), f
    gp, rho = params.azimuthal_skew, math.hypot(w1, w2)
    n1, n2 = w1 / rho, w2 / rho
    c = params.p * complex(-gp, 1.0)
    u = 1.0 / (w3 + c * rho)
    q = complex(1.0, -gp) * u
    kappa = 1j * u / (params.p * rho)
    qu, k_re, ku = q * u, kappa.real, kappa * u
    fk, f2k, third, cube = f1 * k_re / rho, f2 * k_re, f3 / 3.0, 2.0 * f1 * qu * u
    cols = []  # per column X/|w|: X1, X2, n.X, zeta', L' and g
    for x, y, z in zip(*frame):
        x, y = x / scale, y / scale
        t = n1 * x + n2 * y
        d = z / scale + c * t
        lx = (q * d).real
        cols.append((x, y, t, d, lx, f2k * lx - f1 * (ku * d).real - fk * t))
    (x0, y0, t0, d0, l0, g0), (x1, y1, t1, d1, l1, g1) = cols[:2]
    # per pair ij: P (pij), zeta' zeta' (dd), L'L' (ll), Re(q u zeta' zeta') (re2), Phi'' (hij),
    # s (sij) and z (zij)
    p00, dd, ll = x0 * x0 + y0 * y0 - t0 * t0, d0 * d0, l0 * l0
    re2 = (qu * dd).real
    h00, s00, z00 = f2 * ll + f1 * (k_re * p00 - re2), third * ll - f2 * re2, cube * dd
    p01, dd, ll = x0 * x1 + y0 * y1 - t0 * t1, d0 * d1, l0 * l1
    re2 = (qu * dd).real
    h01, s01, z01 = f2 * ll + f1 * (k_re * p01 - re2), third * ll - f2 * re2, cube * dd
    p11, dd, ll = x1 * x1 + y1 * y1 - t1 * t1, d1 * d1, l1 * l1
    re2 = (qu * dd).real
    h11, s11, z11 = f2 * ll + f1 * (k_re * p11 - re2), third * ll - f2 * re2, cube * dd
    e000 = s00 * l0 + s00 * l0 + s00 * l0 + p00 * g0 + p00 * g0 + p00 * g0 + (z00 * d0).real
    e001 = s00 * l1 + s01 * l0 + s01 * l0 + p00 * g1 + p01 * g0 + p01 * g0 + (z00 * d1).real
    e011 = s01 * l1 + s01 * l1 + s11 * l0 + p01 * g1 + p01 * g1 + p11 * g0 + (z01 * d1).real
    e111 = s11 * l1 + s11 * l1 + s11 * l1 + p11 * g1 + p11 * g1 + p11 * g1 + (z11 * d1).real
    if len(cols) == 2:
        return [f1 * l0, f1 * l1], [h00, h01, h11], [e000, e001, e011, e111]
    (x2, y2, t2, d2, l2, g2), = cols[2:]
    p02, dd, ll = x0 * x2 + y0 * y2 - t0 * t2, d0 * d2, l0 * l2
    re2 = (qu * dd).real
    h02, s02, z02 = f2 * ll + f1 * (k_re * p02 - re2), third * ll - f2 * re2, cube * dd
    p12, dd, ll = x1 * x2 + y1 * y2 - t1 * t2, d1 * d2, l1 * l2
    re2 = (qu * dd).real
    h12, s12, z12 = f2 * ll + f1 * (k_re * p12 - re2), third * ll - f2 * re2, cube * dd
    p22, dd, ll = x2 * x2 + y2 * y2 - t2 * t2, d2 * d2, l2 * l2
    re2 = (qu * dd).real
    h22, s22, z22 = f2 * ll + f1 * (k_re * p22 - re2), third * ll - f2 * re2, cube * dd
    return ([f1 * l0, f1 * l1, f1 * l2], [h00, h01, h02, h11, h12, h22],
            [e000, e001,
             s00 * l2 + s02 * l0 + s02 * l0 + p00 * g2 + p02 * g0 + p02 * g0 + (z00 * d2).real,
             e011,
             s01 * l2 + s02 * l1 + s12 * l0 + p01 * g2 + p02 * g1 + p12 * g0 + (z01 * d2).real,
             s02 * l2 + s02 * l2 + s22 * l0 + p02 * g2 + p02 * g2 + p22 * g0 + (z02 * d2).real,
             e111,
             s11 * l2 + s12 * l1 + s12 * l1 + p11 * g2 + p12 * g1 + p12 * g1 + (z11 * d2).real,
             s12 * l2 + s12 * l2 + s22 * l1 + p12 * g2 + p12 * g2 + p22 * g1 + (z12 * d2).real,
             s22 * l2 + s22 * l2 + s22 * l2 + p22 * g2 + p22 * g2 + p22 * g2 + (z22 * d2).real])


def domain_info(params: Parameters) -> DomainInfo:
    """Domain floor eta_min, inner radius r_min and radial supremum r_sup, formed once per
    ``Parameters`` and held by it (nothing outlives it).

    EmptyDomain, on every call, when p < 1 and H = 1 (eta_min is infinite), or when r_min >=
    r_sup in double precision.  Both radii are limits of r = sinh Y1/R1: at the floor A = 0
    and J = 1, so r_min = tanh(eta_min) exp(-gp pi/2); as eta -> inf, sinh/R1 -> 1/(1 + hh)
    and the Y1 arctangent -> atan2(gp, hh).
    """
    return params._domain


def rim_depth(eta, a, params: Parameters):
    """ln(r_sup/r(eta)), the depth below the top edge, at eta (float or array) and the
    profile's A there, in closed form with no cancellation.

    It is the log1p of (R1 - (1 + hh) sinh)/((1 + hh) sinh), where R1 - (1 + hh) sinh
    = e^-eta - gp^2/(A + hh sinh), plus gp times the Y1 angle less its limit
    atan2(gp, hh): the argument of (A + i gp cosh)(hh - i gp), whose imaginary part
    gp (hh cosh - A) is gp (hh^2 + gp^2)/(hh cosh + A).  Both gp terms are 0 at p = 1
    (0/0 at H = 1), where eta = 0, with sinh = 0, is +inf deep.
    """
    fn = dm.library(eta)
    sh, ch, num = fn.sinh(eta), fn.cosh(eta), fn.exp(-eta)
    gp, hh, turn = params.azimuthal_skew, params.boost_skew, 0.0
    if gp > 0.0:
        num = num - gp * gp / (a + hh * sh)
        turn = gp * fn.atan2(gp * (hh * hh + gp * gp) / (hh * ch + a), hh * a + gp * gp * ch)
    if fn is math:
        return (math.log1p(num / ((1.0 + hh) * sh)) if sh else math.inf) + turn
    with np.errstate(divide="ignore", over="ignore"):  # sinh 0 or subnormal: +inf deep
        return np.log1p(num / ((1.0 + hh) * sh)) + turn


def _chart_profile(eta, params: Parameters):
    """Eta clamped onto the floor, and ``hyperbolic_profile`` there, at chart angles
    (a float, which stays a float, or an array): OutsideEtaDomain below the floor's
    1e-12 max(1, eta_min) slack, above ETA_CAP (before any profile runs), or at the
    ceiling, where the depth ln(r_sup/r(eta)) is not above _MAP_NOISE, one eta per
    (H, p)."""
    dom = params._domain
    floor = dom.eta_min
    if dm.any_set(eta < floor - 1e-12 * max(1.0, floor)):
        raise OutsideEtaDomain(f"eta={np.min(eta)} below the domain floor {floor}")
    if dm.any_set(eta > ETA_CAP):
        raise OutsideEtaDomain(f"eta={np.max(eta)} above the cap {ETA_CAP}")
    # the floor wins ties, as in np.maximum: -0.0 clamps onto a floor of 0.0
    eta = (eta if eta > floor else floor) if isinstance(eta, float) else np.maximum(eta, floor)
    prof = hyperbolic_profile(eta, params)
    if dm.any_set(rim_depth(eta, prof[0], params) <= _MAP_NOISE):
        raise OutsideEtaDomain(f"eta={np.max(eta)} maps to r within noise of r_sup = {dom.r_sup}")
    return eta, prof


def structural_profile(eta: float, params: Parameters) -> EvalBundle:
    """Hyperbolic-angle part of the evaluation bundle at the chart angle ``eta``."""
    values = [float(c) for c in _chart_profile(eta, params)[1]]
    return EvalBundle(*values, near_boundary=params.p < 1.0 and values[0] < BOUNDARY_TOL)


def angular_profile(theta: float, params: Parameters) -> AngularProfile:
    """Azimuthal building blocks at ``theta``; ThetaPole outside the chart's [0, theta_pole)."""
    if not theta < (pole := theta_pole(params)) or theta < 0.0:
        raise ThetaPole(f"theta={theta} not in [0, {pole}), where R2=cos + gp sin > 0")
    r2 = math.cos(theta) + params.azimuthal_skew * math.sin(theta)
    big_i = _spiral(theta, params)
    return AngularProfile(r2, big_i, big_i / r2)


def theta_from_f(f: float, params: Parameters) -> float:
    """Azimuthal angle from the axial ratio f = p * w_perp / w3, f >= 0.

    Uses a two-argument arctangent, so the map stays continuous through
    the zero of 1 - sqrt(1/p^2 - 1) * f, and theta(0) = 0.
    """
    if f < 0.0:
        raise ValueError(f"axial ratio f must be >= 0, got {f}")
    return math.atan2(f, 1.0 - params.azimuthal_skew * f)


def theta_pole(params: Parameters) -> float:
    """Azimuthal angle at which the angular divisor R2 vanishes."""
    return math.atan2(1.0, -params.azimuthal_skew)


def eta_from_r(r: float, params: Parameters, *, with_iterations: bool = False):
    """Invert the monotone map r(eta); ``with_iterations`` adds the Newton count.

    At p = 1, r = tanh(eta) / (1 + hh tanh(eta)) with hh = boost_skew, so
    eta = atanh(r / (1 - hh r)) with 0 iterations (the argument is capped
    below 1 next to the saturated r_sup).  For p < 1, Newton's method runs
    inside a maintained bracket (rtsafe, Numerical Recipes, 3rd ed., 9.4) on
    the slope d ln r/d eta = 1/(p^2 R1 sinh eta), seeded left of the root:
    near the floor in s, eta = eta_min + s^2, which smooths the map's
    (eta - eta_min)^(3/2) term, from the slope at the floor; near r_sup on
    ln(rim_depth(eta)), nearly linear in eta, from its asymptote
    ln(2 e^(-2 eta) / (p^2 (1 + hh))), once that seed exceeds eta_min + 0.5.
    Stops when a step moves eta by at most 1e-12 of its value, or when r(eta)
    matches r to the rounding noise of the map.  A step evaluates r(eta), the
    slope and the rim depth in one pass, in the operation order of
    ``hyperbolic_profile`` and ``rim_depth``; the test
    ``test_inversion_matches_the_profile_loop_bit_for_bit`` pins it bit for bit.  The seeds'
    and the step's (H, p) constants are formed once per instance (``_kernel_constants``).
    """
    dom = params._domain
    if params.p == 1.0 and r == 0.0:
        return (0.0, 0) if with_iterations else 0.0
    if not (dom.r_min < r < dom.r_sup):
        raise OutsideRadialDomain(r, dom.r_min, dom.r_sup)
    hh = params.boost_skew
    if params.p == 1.0:
        eta = math.atanh(min(r / (1.0 - hh * r), _BELOW_ONE))
        return (eta, 0) if with_iterations else eta

    gp, (_, gp_hh, (p2, gp2, hh1, turn, run)) = params.azimuthal_skew, params._kernel_constants
    floor, depth = dom.eta_min, math.log(dom.r_sup / r)
    # Both seeds lie left of the root: R1 sinh <= (1 + hh) e^(2 eta) / 4
    # bounds the rim asymptote, and ln r(eta) is concave.
    eta = -0.5 * math.log(0.5 * p2 * hh1 * depth)
    rim = eta > floor + 0.5
    if not rim:  # run: 1/slope at the floor, where A = 0, R1 = cosh and sinh = gp/hh
        eta = max(eta, floor + math.log(r / dom.r_min) * run)
    lo, hi = floor, ETA_CAP
    step = before = hi - lo
    for iterations in range(1, NEWTON_MAX_ITER + 1):
        gap = eta - floor  # >= 0: no seed, kept step or bisection goes below lo >= floor
        ch, sh = math.cosh(eta), math.sinh(eta)
        a = hh * math.sqrt(2.0 * math.cosh(0.5 * (eta + floor)) * math.sinh(0.5 * gap)
                           * (sh + gp_hh))
        r1v = ch + a
        rv = sh * math.exp(-gp * math.atan2(gp * ch, a)) / r1v
        inv_slope = p2 * r1v * sh
        if rim:
            here = (math.log1p((math.exp(-eta) - gp2 / (a + hh * sh)) / (hh1 * sh))
                    + gp * math.atan2(turn / (hh * ch + a), hh * a + gp2 * ch))
            g = math.log(depth / here)
            nxt = eta - g * here * inv_slope
        else:
            # Newton step in s = sqrt(eta - floor): s - g/(2 s slope), squared;
            # a seed that rounded onto the floor has its root there too
            g = math.log(rv / r)
            nxt = floor + (2.0 * gap - g * inv_slope) ** 2 / (4.0 * gap) if gap > 0.0 else eta
        lo, hi = (lo, eta) if g > 0.0 else (eta, hi)
        if abs(rv - r) <= _MAP_NOISE * r:
            eta = nxt if lo <= nxt <= hi else eta
            break
        # rtsafe: bisect unless the Newton step stays inside the bracket and
        # is at most half the step before last
        if not (lo <= nxt <= hi and abs(nxt - eta) <= 0.5 * before):
            nxt = 0.5 * (lo + hi)
        before, step, eta = step, abs(nxt - eta), nxt
        if step <= 1e-12 * eta:
            break
    return (eta, iterations) if with_iterations else eta


def _inverted_profile(r: float, params: Parameters):
    """eta_from_r(r) and hyperbolic_profile at it, held for the last r in a slot on params: a
    scan row's angle, tensor and determinant calls often share r bit for bit, and both maps are
    deterministic, so a hit returns a miss's bits.  Errors are not stored: each call re-raises."""
    slot = params._last_inversion
    held = slot[0]  # replaced whole, never mutated
    if held[0] == r:
        return held[1]
    eta = eta_from_r(r, params)
    # eta_from_r admitted r, so eta takes no chart check: r(eta) may round up to r_sup
    held = slot[0] = (r, (eta, hyperbolic_profile(eta, params)))
    return held[1]


def eta_lifted(r, params: Parameters):
    """Inverse map eta(r) at a HyperDual r (``norm_squared``'s radial variable).

    The value is found by eta_from_r; derivative slots follow from the
    implicit-function rule, with r'(eta) and r''(eta) supplied exactly by
    a hyper-dual pass through the closed-form forward map.
    """
    eta0 = eta_from_r(r.val, params)
    probe = dm.HyperDual(eta0, 1.0, 1.0, 0.0)
    rr = hyperbolic_profile(probe, params)[5]
    rp, rpp = rr.d1, rr.d12
    d1 = r.d1 / rp
    d2 = r.d2 / rp
    d12 = (r.d12 - rpp * d1 * d2) / rp
    return dm.HyperDual(eta0, d1, d2, d12)


def norm_squared(y0, y1, y2, y3, params: Parameters):
    """F^2 through the full pipeline; dual-generic in all four slots."""
    w1 = y1 / y0
    w2 = y2 / y0
    w3 = y3 / y0
    r = radial_from_ratios(w1, w2, w3, params)
    eta = eta_lifted(r, params)
    v = hyperbolic_profile(eta, params)[4]
    f = y0 * v
    return f * f


def finsler_norm(y, tetrad: Tetrad | None = None, params: Parameters | None = None) -> float:
    """Norm of a future-pointing vector: F = b * V(eta(r)).

    For p < 1 the vector must lie in the axial region w3 > 0; at p = 1 the
    restriction is lifted because the radial variable reduces to the
    Euclidean length of the spatial ratios.  It inverts r directly: one norm per vector
    never repeats a radius, and ``_inverted_profile``'s slot costs +0.32 us (~4 %) per call
    (interleaved passes over the 2,000 norm_inversion seed-1 inputs, 2-core x86-64 host).
    """
    if params is None:
        raise TypeError("params is required")
    b, w1, w2, w3 = projections(y, Tetrad.canonical() if tetrad is None else tetrad)
    if params.p < 1.0 and w3 <= 0.0:
        raise OutsideAxialRegion(f"axial projection w3={w3} is not positive")
    r = _log_spiral(w1, w2, w3, params)[6]
    return b * hyperbolic_profile(eta_from_r(r, params), params)[4]


def vector_from_angles(
    angles: AngleCoords, norm: float, params: Parameters
) -> FrameComponents:
    """Frame components of the vector with the given angles and norm."""
    if norm <= 0.0:
        raise ValueError(f"norm must be positive, got {norm}")
    _, (_, (w1, w2, w3, w_perp), _), (b, *_) = _chart_vector(angles, norm, params)
    s2 = b * b * (1.0 - w3 * w3 - w_perp * w_perp)
    return FrameComponents.from_ratios(b, w1, w2, w3, w_perp, s2)


def _section_chart(theta, phi, params: Parameters, r=1.0):
    """The one angular chart: (sin, cos) of theta, the ratios (w1, w2, w3, w_perp) of
    radius r at (theta, phi), and 3 rows (w1, w2, w3) of (d/d theta, d/d phi); floats
    or arrays of m.  At r = 1 it is the section, where both Gauss routes read it; at
    r = r(eta) it gives the unit vector's ratios (``_chart_vector``).

    With I = exp(gp theta), R2 = cos + gp sin: w_perp = r sin/(p I), w3 = r R2/I,
    (w1, w2) = w_perp (cos phi, sin phi), d w_perp/d theta = r (cos - gp sin)/(p I),
    d w3/d theta = -r sin/(p^2 I).  ThetaPole at theta >= theta_pole (any element of an
    array), the chart's domain, OutsideAxialRegion where I overflows (``_spiral``)."""
    if dm.any_set(theta >= (pole := theta_pole(params))):
        raise ThetaPole(f"R2=cos + gp sin <= 0 at theta={np.max(theta)} >= the pole {pole}")
    fn = dm.library(theta, phi)
    gp = params.azimuthal_skew
    st, ct = fn.sin(theta), fn.cos(theta)
    big_i = _spiral(theta, params, chart=True)
    w_perp = r * st / (params.p * big_i)
    dw_perp = r * (ct - gp * st) / (params.p * big_i)
    cp, sp = fn.cos(phi), fn.sin(phi)
    jac = [[dw_perp * cp, -w_perp * sp],
           [dw_perp * sp, w_perp * cp],
           [-(r * st) / (params.p ** 2 * big_i), 0.0 * theta]]
    return (st, ct), (w_perp * cp, w_perp * sp, r * (ct + gp * st) / big_i, w_perp), jac


def _chart_vector(angles, norm, params: Parameters):
    """Profile (eta, R1, V, A), ``_section_chart`` at the radius r(eta), and the 4
    components of the frame vector y of ``norm``, at an AngleCoords, as Python floats,
    or at (m, 3) rows of (eta, theta, phi mod 2 pi), as arrays of m, in one profile
    call; a bad point raises what a scalar call does."""
    if isinstance(angles, AngleCoords):
        eta, theta, phi = angles.eta, angles.theta, angles.phi
    else:
        eta, theta, phi = np.asarray(angles, dtype=float).T
        if not ((theta >= 0.0) & (theta < math.pi)).all():  # as AngleCoords
            raise ValueError(f"theta must be in [0, pi), got {theta.min()} to {theta.max()}")
        phi = phi % (2.0 * math.pi) % (2.0 * math.pi)  # as ``_azimuth``: 2 pi rounds to 0
    eta, (a, r1v, _, _, v, r) = _chart_profile(eta, params)
    chart = _section_chart(theta, phi, params, r)
    w1, w2, w3, _ = chart[1]
    b = norm / v
    return (eta, r1v, v, a), chart, [b, b * w1, b * w2, b * w3]


def _azimuth(w1: float, w2: float) -> float:
    """atan2(w2, w1) in [0, 2 pi): a second remainder takes a first that rounds to 2 pi to 0."""
    return math.atan2(w2, w1) % (2.0 * math.pi) % (2.0 * math.pi)


def angles_from_vector(fc: FrameComponents, params: Parameters) -> tuple[AngleCoords, EvalBundle]:
    """Angles and evaluation bundle of resolved frame components, read off their
    ``_log_spiral``: theta = atan2(Y, X), I and r (as ``finsler_norm``'s and ``metric_tensor``'s,
    so F is theirs), U = r/w3 and R2 = I/U, nothing that cancels as w3 -> 0.  PolarAxisSingular
    at r = 0 (p = 1: below r_min otherwise), OutsideAxialRegion where U overflows."""
    _, _, _, _, theta, big_i, r = _log_spiral(fc.w1, fc.w2, fc.w3, params)
    eta, (a, r1v, j, y1, v, _) = _inverted_profile(r, params)
    if r == 0.0:
        raise PolarAxisSingular(f"ratios on the time axis: r = 0 at w3 = {fc.w3}")
    u = r / fc.w3
    if u == math.inf:
        raise OutsideAxialRegion(f"axial projection w3={fc.w3} so small that U = r/w3 overflows")
    bundle = EvalBundle(a, r1v, j, y1, v, r, big_i / u, big_i, u, params.p * fc.w, fc.b * v,
                        params.p < 1.0 and a < BOUNDARY_TOL)
    return AngleCoords(eta=eta, theta=theta, phi=_azimuth(fc.w1, fc.w2)), bundle


@dataclass(frozen=True)
class QuadratureDeltas:
    """Log increments of r and V over an eta interval, by a fixed Gauss-Legendre rule."""

    delta_ln_r: float
    delta_ln_v: float


@lru_cache(maxsize=1)
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built on first use."""
    from numpy.polynomial.legendre import leggauss  # not at import: slows cold starts

    rule = leggauss(_QUAD_NODES)
    for array in rule:
        array.setflags(write=False)
    return rule


def oracle_quadrature(eta0: float, eta1: float, params: Parameters) -> QuadratureDeltas:
    """Integrate the defining log-derivative ODEs over [eta0, eta1].

    Independent of the closed forms: only the integrands (which are part
    of the definition, not of the solution) are evaluated, by 40-point
    Gauss-Legendre on 8 geometric panels in s = sqrt(eta - eta_min), which
    smooths R1's sqrt(eta - eta_min) term: within 6e-15 of the closed forms
    for p < 1 on six (H, p) pairs for gaps 1e-10 to 20 above eta_min.  At
    p = 1 the d ln r integrand goes as 2/s next to eta_min = 0, too steep for
    the panels there: the smallest supported eta0 is 1e-12 (within 7.8e-14,
    2.5e-14 from 1e-8 on); below it the error grows, to 4.5e-6 on [1e-30, 30].
    """
    dom = domain_info(params)
    if not (dom.eta_min < eta0 < eta1):
        raise ValueError(f"need eta_min < eta0 < eta1, got ({dom.eta_min}, {eta0}, {eta1})")
    nodes, weights = _legendre_rule()
    s0, s1 = math.sqrt(eta0 - dom.eta_min), math.sqrt(eta1 - dom.eta_min)
    edges = s0 * (s1 / s0) ** (np.arange(_QUAD_PANELS + 1) / _QUAD_PANELS)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    s = (mid[:, None] + half[:, None] * nodes).ravel()
    d_eta = 2.0 * s * (half[:, None] * weights).ravel()
    gp, hh = params.azimuthal_skew, params.boost_skew
    eta = dom.eta_min + s * s
    sh = np.sinh(eta)
    r1 = np.cosh(eta) + np.sqrt(np.maximum(hh * hh * sh * sh - gp * gp, 0.0))
    dlnr = float(d_eta @ (1.0 / (params.p * params.p * r1 * sh)))
    dlnv = float(d_eta @ (-sh / (params.H * params.H * r1)))
    return QuadratureDeltas(delta_ln_r=dlnr, delta_ln_v=dlnv)
