"""High-precision references for the scalar kernel, from the paper's formulas alone.

Each function takes its float arguments as exact and evaluates in ``decimal`` at the
precision it names: the hyperbolic profile (``_decimal_profile``), the depth below r_sup
(``_decimal_depth``), and a vector's spiral angle, radial variable, hyperbolic angle and
norm (``decimal_vector``).  Nothing here calls the library.  ``EQUATOR_VECTORS`` are the
vectors that approach the equator w3 -> 0 at a fixed radius (``equator_ladder``).
"""

import decimal
import math
from decimal import Decimal


def _decimal_profile(eta, floor, gp, hh):
    """A, R1 and J at 40 digits, taking the float eta, floor, gp and hh as exact."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        eta, floor, gp, hh = map(Decimal, (eta, floor, gp, hh))
        e, f = eta.exp(), floor.exp()
        sh, ch, sh_min = (e - 1 / e) / 2, (e + 1 / e) / 2, (f - 1 / f) / 2
        a = hh * ((sh - sh_min) * (sh + gp / hh)).sqrt()
        j = (hh * ((hh * ch + a) / (hh * hh + gp * gp).sqrt()).ln()).exp()
        return a, ch + a, j


def _decimal_atan(z):
    """atan(z), z >= 0, at the context precision: halve the argument by
    atan(z) = 2 atan(z/(1 + sqrt(1 + z^2))) below 1e-3, then sum the Taylor series."""
    halvings = 0
    while z > Decimal("1e-3"):
        z = z / (1 + (1 + z * z).sqrt())
        halvings += 1
    total, term, k = z, z, 1
    while abs(term) > total * Decimal(10) ** -decimal.getcontext().prec:
        term = -term * z * z
        total += term / (2 * k + 1)
        k += 1
    return total * 2 ** halvings


def _depth(eta, gp, hh):
    """(ln(r_sup/r(eta)), V, R1, sinh) at a Decimal eta and the context precision: the
    depth is ln(R1/((1 + hh) sinh)) plus gp (atan(gp cosh/A) - atan(gp/hh)), with
    A = sqrt(hh^2 sinh^2 - gp^2), R1 = cosh + A, J = ((hh cosh + A)/sqrt(hh^2 + gp^2))^hh
    (1 at H = 1) and V = J/R1."""
    e = eta.exp()
    sh, ch = (e - 1 / e) / 2, (e + 1 / e) / 2
    a = (hh * hh * sh * sh - gp * gp).sqrt()
    r1 = ch + a
    depth = (r1 / ((1 + hh) * sh)).ln()
    if gp > 0:
        depth += gp * (_decimal_atan(gp * ch / a) - _decimal_atan(gp / hh))
    j = (hh * ((hh * ch + a) / (hh * hh + gp * gp).sqrt()).ln()).exp() if hh else Decimal(1)
    return depth, j / r1, r1, sh


def _decimal_depth(eta, gp, hh):
    """ln(r_sup/r(eta)) at 90 digits from its definition (``_depth``), taking the float
    eta, gp, hh as exact."""
    with decimal.localcontext() as ctx:
        ctx.prec = 90
        return _depth(*map(Decimal, (eta, gp, hh)))[0]


def _decimal_atan2(y, x):
    """atan2(y, x) for y >= 0 at the context precision."""
    if x > 0:
        return _decimal_atan(y / x)
    half_pi = 2 * _decimal_atan(Decimal(1))
    return half_pi if x == 0 else 2 * half_pi - _decimal_atan(y / -x)


def _float_ln_r(eta, gp, hh):
    """ln r(eta) in doubles, the bisection's seed map."""
    sh, ch = math.sinh(eta), math.cosh(eta)
    a = math.sqrt(max(hh * hh * sh * sh - gp * gp, 0.0))
    return math.log(sh / (ch + a)) - gp * math.atan2(gp * ch, a)


def decimal_vector(y, H, p, prec=60):
    """theta, r, eta, V and F of the vector y (canonical frame: b = y0, w = y[1:]/y0), all
    Decimals good to ``prec`` digits.  theta = atan2(Y, X) and r = |X + iY| exp(gp theta),
    with Y = p |(w1, w2)| and X = w3 - gp Y; eta solves depth(eta) = D = ln(r_sup/r), from a
    bisection in doubles, by Newton's method on ln depth, whose slope is -1/(p^2 R1 sinh
    depth): next to the rim, where ln r(eta) flattens, ln depth falls as -2 eta.  D is
    down to ~1e-17 there, so the work carries 20 digits more than ``prec``; F = b V(eta)."""
    with decimal.localcontext() as ctx:
        ctx.prec = prec + 20
        b, w1, w2, w3 = (Decimal(c) for c in y)
        w1, w2, w3 = w1 / b, w2 / b, w3 / b
        p, H = Decimal(p), Decimal(H)
        gp, hh = (1 / (p * p) - 1).sqrt(), (1 - 1 / (H * H)).sqrt()
        vy = p * (w1 * w1 + w2 * w2).sqrt()
        vx = w3 - gp * vy
        theta = _decimal_atan2(vy, vx)
        k = (vx * vx + vy * vy).sqrt()
        r = k * (gp * theta).exp()
        ln_depth = (-gp * (_decimal_atan2(gp, hh) + theta) - (1 + hh).ln() - k.ln()).ln()
        fgp, fhh, ln_r = float(gp), float(hh), float(r.ln())
        lo = math.asinh(fgp / fhh) if fgp else 0.0
        hi = 40.0
        while hi - lo > 1e-12 * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if _float_ln_r(mid, fgp, fhh) < ln_r else (lo, mid)
        eta = Decimal(hi)
        for _ in range(20):
            depth, _, r1, sh = _depth(eta, gp, hh)
            step = (ln_depth - depth.ln()) * p * p * r1 * sh * depth
            eta -= step
            if abs(step) <= eta * Decimal(10) ** (8 - prec):
                break
        else:
            raise AssertionError(f"Newton did not converge at y={y}, H={H}, p={p}")
        v = _depth(eta, gp, hh)[1]
        return theta, r, eta, v, b * v


def equator_ladder(H, p, ks=range(4, 19)):
    """Vectors (1, w_perp, 0, w_perp 10^-k) whose r stays mid-domain as w3 -> 0:
    w_perp = r_mid exp(-gp theta_pole), r_mid = sqrt(r_min r_sup) (r_sup/2 at p = 1,
    where r_min = 0), since r -> w_perp exp(gp theta_pole) at the equator."""
    gp, hh = math.sqrt(1.0 / (p * p) - 1.0), math.sqrt(1.0 - 1.0 / (H * H))
    r_sup = math.exp(-gp * math.atan2(gp, hh)) / (1.0 + hh)
    r_min = gp / math.hypot(hh, gp) * math.exp(-gp * math.pi / 2.0)
    r_mid = math.sqrt(r_min * r_sup) if gp else 0.5 * r_sup
    w_perp = r_mid * math.exp(-gp * math.atan2(1.0, -gp))
    return [[1.0, w_perp, 0.0, w_perp * 10.0 ** -k] for k in ks]


# the equator ladders' pairs: the benchmark's p < 1 pairs, (3, 0.3) and p = 1
EQUATOR_PAIRS = ((2.0, 0.5), (1.25, 0.8), (1.5, 0.9), (3.0, 0.3), (1.25, 1.0))
# 3.2e-17 above the equator, where theta from f = p w_perp/w3 with R2 = cos theta + gp sin theta
# put F 29 % off
WIDE_PAIR = (2.4802699708352587, 0.9538221065310725)
WIDE_VECTOR = [1.0, 0.26036398342138056, 0.0, 3.228188371379577e-17]
EQUATOR_VECTORS = [(pair, y) for pair in EQUATOR_PAIRS for y in equator_ladder(*pair)] + [
    (WIDE_PAIR, WIDE_VECTOR)]
