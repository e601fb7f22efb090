"""Exception hierarchy for domain and frame failures."""


class FinsleroidError(Exception):
    """Base class for all errors raised by this package."""


class TetradDegenerate(FinsleroidError):
    """The four covectors do not span the tangent space (singular metric)."""


class DomainError(FinsleroidError):
    """Input outside the admissible domain; the command line exits 2 on it."""


class NotFutureTimelike(DomainError):
    """The timelike projection b of the vector is not strictly positive."""


class OutsideAxialRegion(DomainError):
    """The axial projection w3 is not positive, or a chart's underflows: exp(gp theta) overflows."""


class OutsideEtaDomain(DomainError):
    """Hyperbolic angle below the floor eta_min, above ETA_CAP, at or above the chart's
    ceiling (ln(r_sup/r(eta)) not above the map noise, 15.9 to 17 above eta_min), or,
    for the unit surface's metric and curvatures, closer to the floor than GAP_MIN
    (GAP_MIN_P1 at p = 1)."""


class ThetaPole(DomainError):
    """Azimuthal angle at or beyond the pole of the angular profile."""


class OutsideRadialDomain(DomainError):
    """Radial value not reachable by the hyperbolic-angle parametrization (r = inf
    where the log spiral's exp(gp angle) of a vector overflows).

    Carries the admissible open interval as ``r_min`` / ``r_sup``.
    """

    def __init__(self, r, r_min, r_sup):
        super().__init__(
            f"r={r!r} outside the admissible interval ({r_min!r}, {r_sup!r})"
        )
        self.r = r
        self.r_min = r_min
        self.r_sup = r_sup


class EmptyDomain(DomainError):
    """No hyperbolic angle admissible for the given parameters."""


class OutsideClosedFormDomain(DomainError):
    """Fractional-power base non-positive in the isotropic closed form."""


class PolarAxisSingular(DomainError):
    """Quantity undefined on the polar axis (vanishing transversal part), chart ratios
    that underflow onto the time axis, or a Gauss-route chart point nearer to the axis
    than its measured bound THETA_MIN."""
