"""Structural scalar functions, angle maps, and the radial inversion.

The norm of a future-pointing vector factors as ``F = b * V`` where ``V``
depends on a single radial variable ``r``; ``r`` itself is an algebraic,
degree-one function of the frame ratios.  The link between ``r`` and the
hyperbolic angle ``eta`` is monotone but not algebraically invertible, so
this module provides the closed-form forward maps, a safeguarded Newton
inversion, and independent quadrature oracles for both log-derivative
integrals.

All closed-form evaluators accept HyperDual arguments so the tensor layer
can push derivatives through them unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import dual as dm
from .errors import (
    EmptyDomain,
    OutsideAxialRegion,
    OutsideEtaDomain,
    OutsideRadialDomain,
    ThetaPole,
)
from .frame import FrameComponents, Parameters, Tetrad, projections

# Below this radicand-root value an evaluation is flagged as sitting on the
# inner domain boundary, where angle derivatives degrade.
BOUNDARY_TOL = 1e-8

# Hyperbolic angles are capped here; the radial variable saturates to its
# supremum (to double precision) far earlier, around eta ~ 40.
ETA_CAP = 250.0

NEWTON_MAX_ITER = 60


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


@dataclass(frozen=True)
class DomainInfo:
    """Admissible radial interval and its hyperbolic-angle floor."""

    eta_min: float
    r_min: float
    r_sup: float


def hyperbolic_profile(eta, params: Parameters):
    """Closed forms (A, R1, J, Y1, V, r) as functions of the hyperbolic angle.

    HyperDual-generic.  The exponential-integral factor J is normalized so
    that J = 1 at the domain floor, which is the normalization the isotropic
    closed form requires.  Y1 uses a two-argument arctangent whose branch
    is continuous in eta and in the parameters; its sign-changing
    denominator is kept separate from the (non-negative) numerator.
    """
    gp = params.azimuthal_skew
    hh = params.boost_skew
    ch = dm.cosh(eta)
    sh = dm.sinh(eta)
    if hh == 0.0:
        # H = 1 forces p = 1: everything pseudo-Euclidean.
        A = 0.0
        R1 = ch
        J = 1.0
        Y1 = 1.0
    elif gp == 0.0:
        # spatially isotropic case p = 1
        A = hh * sh
        R1 = ch + A
        J = dm.exp(hh * eta)
        Y1 = 1.0
    else:
        rad = hh * hh * sh * sh - gp * gp
        if not isinstance(rad, dm.HyperDual):
            if rad < 0.0:
                if rad < -1e-10 * max(1.0, gp * gp):
                    raise OutsideEtaDomain(f"radicand {rad} negative at eta={eta}")
                rad = 0.0
        A = dm.sqrt(rad)
        R1 = ch + A
        J = dm.exp(hh * dm.log((hh * ch + A) / math.sqrt(hh * hh + gp * gp)))
        q = 1.0 / params.H ** 2 - 1.0 / params.p ** 2
        num = 2.0 * gp * ch * A
        den = q + (hh * hh - gp * gp) * ch * ch
        Y1 = dm.exp(-(gp / 2.0) * dm.atan2(num, den))
    V = J / R1
    r = sh * Y1 / R1
    return A, R1, J, Y1, V, r


def radial_from_ratios(w1, w2, w3, params: Parameters):
    """Algebraic radial variable of the frame ratios; degree-one homogeneous.

    HyperDual-generic.  For p = 1 this is the Euclidean length of
    (w1, w2, w3) and is defined for any nonzero ratio vector; otherwise it
    is the axial composition w3 * U(p * w_perp / w3), written in a form
    that stays well-conditioned up to the equatorial limit w3 -> 0.
    """
    if params.p == 1.0:
        return dm.sqrt(w1 * w1 + w2 * w2 + w3 * w3)
    gp = params.azimuthal_skew
    w_perp = dm.sqrt(w1 * w1 + w2 * w2)
    v = params.p * w_perp
    theta = dm.atan2(v, w3 - gp * v)
    big_i = dm.exp(gp * theta)
    st = dm.sin(theta)
    r2 = dm.cos(theta) + gp * st
    return big_i * (w3 * r2 + v * st) / (r2 * r2 + st * st)


@lru_cache(maxsize=None)
def domain_info(params: Parameters) -> DomainInfo:
    """Domain floor eta_min, inner radius r_min and radial supremum r_sup.

    Raises EmptyDomain when p < 1 and H = 1 (the radicand is negative for
    every eta), and when the radial interval underflows to r_min >= r_sup
    in double precision.  The supremum is found by saturating r along a
    geometric eta ladder until the relative change drops below 1e-12.
    """
    gp = params.azimuthal_skew
    hh = params.boost_skew
    if gp > 0.0 and hh == 0.0:
        raise EmptyDomain(f"no admissible eta for H={params.H}, p={params.p}")
    if params.p == 1.0:
        eta_min = 0.0
        r_min = 0.0
    else:
        eta_min = math.asinh(gp / hh)
        r_min = float(dm.value(hyperbolic_profile(eta_min, params)[5]))
    step = 1.0
    eta = eta_min + step
    r_sup = dm.value(hyperbolic_profile(eta, params)[5])
    while eta < ETA_CAP:
        step *= 1.5
        eta = min(eta_min + step, ETA_CAP)
        prev, r_sup = r_sup, dm.value(hyperbolic_profile(eta, params)[5])
        if abs(r_sup - prev) <= 1e-12 * abs(r_sup):
            break
    if not r_min < r_sup:
        raise EmptyDomain(
            f"radial interval ({r_min}, {r_sup}) is empty in double precision "
            f"for H={params.H}, p={params.p}"
        )
    return DomainInfo(eta_min=eta_min, r_min=r_min, r_sup=r_sup)


def structural_profile(eta: float, params: Parameters) -> EvalBundle:
    """Hyperbolic-angle part of the evaluation bundle at ``eta``."""
    dom = domain_info(params)
    if eta < dom.eta_min - 1e-12 * max(1.0, dom.eta_min):
        raise OutsideEtaDomain(f"eta={eta} below the domain floor {dom.eta_min}")
    A, R1, J, Y1, V, r = hyperbolic_profile(max(eta, dom.eta_min), params)
    return EvalBundle(
        A=float(A),
        R1=float(R1),
        J=float(J),
        Y1=float(Y1),
        V=float(V),
        r=float(r),
        near_boundary=bool(A < BOUNDARY_TOL) if params.p < 1.0 else False,
    )


def angular_profile(theta: float, params: Parameters) -> AngularProfile:
    """Azimuthal building blocks at ``theta``; fails at the pole R2 <= 0."""
    gp = params.azimuthal_skew
    r2 = math.cos(theta) + gp * math.sin(theta)
    if r2 <= 0.0:
        raise ThetaPole(f"angular divisor R2={r2} not positive at theta={theta}")
    big_i = math.exp(gp * theta)
    return AngularProfile(R2=r2, I=big_i, U=big_i / r2)


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
    """Invert the monotone map r(eta) by safeguarded Newton iteration.

    The iteration runs on ln r(eta) - ln r, whose slope 1/(p^2 R1 sinh eta)
    is available in closed form; bisection fallback keeps every step inside
    the maintained bracket.  Converges to 1e-12 relative in eta.
    """
    dom = domain_info(params)
    if params.p == 1.0 and r == 0.0:
        return (0.0, 0) if with_iterations else 0.0
    if not (dom.r_min < r < dom.r_sup):
        raise OutsideRadialDomain(r, dom.r_min, dom.r_sup)

    def r_of(eta):
        return dm.value(hyperbolic_profile(eta, params)[5])

    # lower bracket end: just above the floor, low enough that r(a) < r
    if params.p < 1.0:
        a = dom.eta_min + 1e-9
        for _ in range(80):
            if r_of(a) < r:
                break
            a = dom.eta_min + 0.5 * (a - dom.eta_min)
        else:
            raise OutsideRadialDomain(r, dom.r_min, dom.r_sup)
    else:
        a = min(1e-9, 0.5 * r)
    b = dom.eta_min + 10.0
    while r_of(b) < r:
        b = dom.eta_min + 2.0 * (b - dom.eta_min)
        if b > ETA_CAP:
            b = ETA_CAP
            break

    eta = 0.5 * (a + b)
    iterations = 0
    p2 = params.p * params.p
    for _ in range(NEWTON_MAX_ITER):
        iterations += 1
        _, r1v, _, _, _, rv = hyperbolic_profile(eta, params)
        g = math.log(float(rv) / r)
        if g > 0.0:
            b = eta
        elif g < 0.0:
            a = eta
        else:
            break
        slope = 1.0 / (p2 * float(r1v) * math.sinh(eta))
        nxt = eta - g / slope
        if not (a < nxt < b):
            nxt = 0.5 * (a + b)
        if abs(nxt - eta) <= 1e-12 * max(abs(nxt), 1e-3):
            eta = nxt
            break
        eta = nxt
    return (eta, iterations) if with_iterations else eta


def eta_lifted(r, params: Parameters):
    """Inverse map eta(r) lifted to HyperDual arguments.

    The value is found by eta_from_r; derivative slots follow from the
    implicit-function rule, with r'(eta) and r''(eta) supplied exactly by
    a hyper-dual pass through the closed-form forward map.
    """
    if not isinstance(r, dm.HyperDual):
        return eta_from_r(r, params)
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
    Euclidean length of the spatial ratios.
    """
    if params is None:
        raise TypeError("params is required")
    if tetrad is None:
        tetrad = Tetrad.canonical()
    b, w1, w2, w3 = projections(y, tetrad)
    if params.p < 1.0 and w3 <= 0.0:
        raise OutsideAxialRegion(f"axial projection w3={w3} is not positive")
    r = float(dm.value(radial_from_ratios(w1, w2, w3, params)))
    eta = eta_from_r(r, params)
    v = float(dm.value(hyperbolic_profile(eta, params)[4]))
    return b * v


def vector_from_angles(
    angles: AngleCoords, norm: float, params: Parameters
) -> FrameComponents:
    """Frame components of the vector with the given angles and norm."""
    if norm <= 0.0:
        raise ValueError(f"norm must be positive, got {norm}")
    bundle = structural_profile(angles.eta, params)
    ang = angular_profile(angles.theta, params)
    w3 = bundle.r * ang.R2 / ang.I
    w_perp = bundle.r * math.sin(angles.theta) / (params.p * ang.I)
    w1 = w_perp * math.cos(angles.phi)
    w2 = w_perp * math.sin(angles.phi)
    b = norm / bundle.V
    if w1 != 0.0:
        t = w2 / w1
    else:
        t = math.copysign(math.inf, w2) if w2 != 0.0 else 0.0
    return FrameComponents(
        b=b,
        w1=w1,
        w2=w2,
        w3=w3,
        w_perp=w_perp,
        w=w_perp / w3,
        t=t,
        y_perp=b * w_perp,
        s2=b * b * (1.0 - w3 * w3 - w_perp * w_perp),
    )


def angles_from_vector(
    fc: FrameComponents, params: Parameters
) -> tuple[AngleCoords, EvalBundle]:
    """Angles and full evaluation bundle for resolved frame components."""
    phi = math.atan2(fc.w2, fc.w1) % (2.0 * math.pi)
    f = params.p * fc.w
    theta = theta_from_f(f, params)
    ang = angular_profile(theta, params)
    r = fc.w3 * ang.U
    eta = eta_from_r(r, params)
    prof = structural_profile(eta, params)
    bundle = EvalBundle(
        A=prof.A,
        R1=prof.R1,
        J=prof.J,
        Y1=prof.Y1,
        V=prof.V,
        r=r,
        R2=ang.R2,
        I=ang.I,
        U=ang.U,
        f=f,
        F=fc.b * prof.V,
        near_boundary=prof.near_boundary,
    )
    return AngleCoords(eta=eta, theta=theta, phi=phi), bundle


@dataclass(frozen=True)
class QuadratureDeltas:
    """Log increments of r and V over an eta interval, by adaptive quadrature."""

    delta_ln_r: float
    delta_ln_v: float


def oracle_quadrature(
    eta0: float, eta1: float, params: Parameters
) -> QuadratureDeltas:
    """Integrate the defining log-derivative ODEs over [eta0, eta1].

    Independent of the closed forms: only the integrands (which are part
    of the definition, not of the solution) are evaluated.  Absolute
    tolerance 1e-12 per integral.
    """
    # Imported here: scipy.integrate dominates the package's import time.
    from scipy.integrate import quad

    dom = domain_info(params)
    if not (dom.eta_min < eta0 < eta1):
        raise ValueError(
            f"need eta_min < eta0 < eta1, got ({dom.eta_min}, {eta0}, {eta1})"
        )
    gp = params.azimuthal_skew
    hh = params.boost_skew

    def r1_of(eta):
        ch = math.cosh(eta)
        sh = math.sinh(eta)
        rad = max(hh * hh * sh * sh - gp * gp, 0.0)
        return ch + math.sqrt(rad)

    p2 = params.p * params.p
    h2 = params.H * params.H
    dlnr, _ = quad(
        lambda e: 1.0 / (p2 * r1_of(e) * math.sinh(e)),
        eta0,
        eta1,
        epsabs=1e-12,
        epsrel=1e-12,
        limit=400,
    )
    dlnv, _ = quad(
        lambda e: -math.sinh(e) / (h2 * r1_of(e)),
        eta0,
        eta1,
        epsabs=1e-12,
        epsrel=1e-12,
        limit=400,
    )
    return QuadratureDeltas(delta_ln_r=dlnr, delta_ln_v=dlnv)
