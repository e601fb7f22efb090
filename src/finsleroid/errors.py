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
    """The axial projection w3 is not strictly positive."""


class OutsideEtaDomain(DomainError):
    """Hyperbolic angle below the floor eta_min, above ETA_CAP, where r(eta) >= r_sup,
    or outside the measured gap bounds of the curvatures (GAP_MIN, GAP_MAX)."""


class ThetaPole(DomainError):
    """Azimuthal angle at or beyond the pole of the angular profile."""


class OutsideRadialDomain(DomainError):
    """Radial value not reachable by the hyperbolic-angle parametrization.

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
    """Quantity undefined on the polar axis (vanishing transversal part), or a
    curvature nearer to it than its measured bound THETA_MIN."""
