"""Background pseudo-Riemannian frame and vector decomposition.

Everything here is pointwise: one tangent space, one orthonormal frame
(one timelike covector ``b``, three spacelike covectors ``i``, ``j``,
``i3``), and the metric the frame spans.  The third spacelike direction
``i3`` is the distinguished polar axis of the anisotropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyDomain, NotFutureTimelike, OutsideAxialRegion, TetradDegenerate

H_MAX = 1e50  # H stays below this: H**6 of the closed-form determinant overflows from 2.4e51


@dataclass(frozen=True)
class DomainInfo:
    """Admissible radial interval and its hyperbolic-angle floor (``kernel.domain_info``)."""

    eta_min: float
    r_min: float
    r_sup: float


@dataclass(frozen=True)
class Parameters:
    """Extension scalars of the anisotropic norm.

    ``H`` controls the indicatrix curvature (-H^2), ``p`` the curvature of
    the horizontal section (p^2).  Admissible range: 1 <= H < H_MAX, 0 < p <= 1.
    """

    H: float
    p: float

    def __post_init__(self):
        if not (1.0 <= self.H < H_MAX):
            raise ValueError(f"H must be >= 1 and below {H_MAX:g}, got {self.H}")
        if not (0.0 < self.p <= 1.0):
            raise ValueError(f"p must be in (0, 1], got {self.p}")

    @cached_property
    def azimuthal_skew(self) -> float:
        """sqrt(1/p^2 - 1), 0 at p = 1; EmptyDomain where p^2 underflows to 0."""
        if self.p * self.p == 0.0:
            raise EmptyDomain(f"p={self.p} is so small that p^2 underflows to 0")
        return math.sqrt(1.0 / (self.p * self.p) - 1.0)

    @cached_property
    def boost_skew(self) -> float:
        """sqrt(1 - 1/H^2); zero in the pseudo-Euclidean case H = 1."""
        return math.sqrt(1.0 - 1.0 / (self.H * self.H))

    @cached_property
    def eta_min(self) -> float:
        """Floor asinh(gp/hh) of the hyperbolic angle: 0 at p = 1, inf at H = 1 > p."""
        gp, hh = self.azimuthal_skew, self.boost_skew
        return math.asinh(gp / hh) if hh > 0.0 else math.inf if gp > 0.0 else 0.0

    @cached_property
    def _last_inversion(self) -> list:
        """``kernel._inverted_profile``'s one slot: [(r, (eta, profile))], empty at first."""
        return [(None, None)]

    @cached_property
    def _domain(self) -> DomainInfo:
        """``kernel.domain_info``'s record; an EmptyDomain is not stored, so each read raises it."""
        gp, hh = self.azimuthal_skew, self.boost_skew
        if gp > 0.0 and hh == 0.0:
            raise EmptyDomain(f"no admissible eta for H={self.H}, p={self.p}")
        r_min = gp / math.hypot(hh, gp) * math.exp(-gp * math.pi / 2.0) if gp > 0.0 else 0.0
        r_sup = math.exp(-gp * math.atan2(gp, hh)) / (1.0 + hh)
        if not r_min < r_sup:
            raise EmptyDomain(f"radial interval ({r_min}, {r_sup}) is empty in double precision "
                              f"for H={self.H}, p={self.p}")
        return DomainInfo(self.eta_min, r_min, r_sup)

    @cached_property
    def _kernel_constants(self) -> tuple:
        """The kernel's (H, p) constants for p < 1, after ``_domain``, whose EmptyDomain raises
        first: J's divisor sqrt(hh^2 + gp^2), gp/hh and the Newton inversion's p^2, gp^2,
        1 + hh, gp (hh^2 + gp^2) and 1/slope p^2 cosh(eta_min) gp/hh at the floor."""
        self._domain
        gp, hh, p2 = self.azimuthal_skew, self.boost_skew, self.p * self.p
        return (math.sqrt(hh * hh + gp * gp), gp / hh,
                (p2, gp * gp, 1.0 + hh, gp * (hh * hh + gp * gp),
                 p2 * math.cosh(self.eta_min) * gp / hh))


@dataclass(frozen=True, eq=False)
class Tetrad:
    """Orthonormal covector frame and the metric tensor it spans.

    ``b``, ``i``, ``j``, ``i3`` are covectors (length-4 arrays); ``a`` is
    the covariant metric they assemble, derived from them and never stored.
    """

    b: np.ndarray
    i: np.ndarray
    j: np.ndarray
    i3: np.ndarray

    @classmethod
    def from_covectors(cls, b, i, j, i3) -> "Tetrad":
        """Frame of four covectors.

        Raises ValueError for a covector of any shape but (4,) or a non-finite
        entry, and TetradDegenerate if the covectors do not span the space.
        """
        covectors = [np.asarray(v, dtype=float) for v in (b, i, j, i3)]
        if bad := {v.shape for v in covectors} - {(4,)}:
            raise ValueError(f"takes covectors of 4 components, got an array of shape {bad.pop()}")
        if not np.isfinite(covectors).all():
            raise ValueError(f"tetrad entries must be finite, got {np.array(covectors).tolist()}")
        tetrad = cls(*covectors)
        try:
            np.linalg.inv(tetrad.a)  # only its singularity test is kept
        except np.linalg.LinAlgError as exc:
            raise TetradDegenerate("frame covectors are linearly dependent") from exc
        return tetrad

    @classmethod
    def canonical(cls) -> "Tetrad":
        """Identity frame with metric diag(1, -1, -1, -1).

        One shared instance, built at import; its arrays are read-only.
        """
        return _CANONICAL

    @classmethod
    def from_dict(cls, doc: dict) -> "Tetrad":
        """Build from a parsed JSON object whose "tetrad" entry holds 4 rows of 4 numbers."""
        if not isinstance(doc, dict) or doc.get("tetrad") is None:
            raise ValueError('a tetrad document must be a JSON object with a "tetrad" entry')
        try:
            rows = np.asarray(doc["tetrad"], dtype=float)
            if rows.shape != (4, 4):
                raise ValueError
        except (TypeError, ValueError):
            raise ValueError(f"tetrad must be 4 rows of 4 numbers, got {doc['tetrad']!r}") from None
        return cls.from_covectors(*rows)

    @cached_property
    def rows(self) -> np.ndarray:
        """Covector rows stacked as a 4x4 matrix (b, i, j, i3), built once."""
        return np.stack([self.b, self.i, self.j, self.i3])

    @cached_property
    def a(self) -> np.ndarray:
        """The metric a = b b - i i - j j - i3 i3 that the covectors span, built once."""
        b, i, j, i3 = self.b, self.i, self.j, self.i3
        return np.outer(b, b) - np.outer(i, i) - np.outer(j, j) - np.outer(i3, i3)


_CANONICAL = Tetrad.from_covectors(*np.eye(4))
for _array in (_CANONICAL.rows, _CANONICAL.a, *vars(_CANONICAL).values()):
    _array.setflags(write=False)


def load_configuration(doc: dict) -> tuple[Parameters, Tetrad]:
    """Parameters and tetrad from one JSON document {"H":, "p":, "tetrad":?};
    without a "tetrad" entry the frame is the canonical one."""
    params = Parameters(H=float(doc["H"]), p=float(doc["p"]))
    return params, Tetrad.canonical() if doc.get("tetrad") is None else Tetrad.from_dict(doc)


@dataclass(frozen=True)
class FrameComponents:
    """A tangent vector resolved along the frame.

    ``b`` is the timelike projection, ``w1``/``w2``/``w3`` the spacelike
    projections divided by ``b``; the rest are the derived ratios used by
    the scalar pipeline, and ``s2`` the background norm squared y.a.y,
    read off the same projection as b^2 (1 - w.w).
    ``w`` and ``t`` are None only in the eval document's isotropic branch (p = 1, w3 <= 0).
    """

    b: float
    w1: float
    w2: float
    w3: float
    w_perp: float
    w: float | None
    t: float | None
    y_perp: float
    s2: float

    @classmethod
    def from_ratios(cls, b, w1, w2, w3, w_perp) -> "FrameComponents":
        """Components of the projection (b, w1, w2, w3) and w_perp = |(w1, w2)|, with the
        derived ratios w, t and y_perp and s2 (``_s2``, ValueError where it overflows)."""
        if w1 != 0.0:
            t = w2 / w1
        else:
            t = math.copysign(math.inf, w2) if w2 != 0.0 else 0.0
        return cls(b, w1, w2, w3, w_perp, w_perp / w3, t, b * w_perp, _s2(b, w1, w2, w3))


def _s2(b, w1, w2, w3) -> float:
    """s2 = y.a.y = b^2 (1 - w.w) of one projection; ValueError where it overflows, as bad input."""
    s2 = b * b * (1.0 - w1 * w1 - w2 * w2 - w3 * w3)
    if not math.isfinite(s2):
        raise ValueError(f"s2 = b^2 (1 - w.w) overflows at b={b}")
    return s2


def projections(y, tetrad: Tetrad | None = None):
    """Raw frame projections (b, w1, w2, w3) of one vector, as Python floats, in
    ``tetrad`` (default: the canonical frame).

    One product with ``tetrad.rows``; ValueError for any shape but (4,).
    Only the future-pointing condition b > 0 is enforced here; the axial
    restriction w3 > 0 is applied by frame_components.
    """
    if tetrad is None:
        tetrad = Tetrad.canonical()
    y = np.asarray(y, dtype=float)
    if y.shape != (4,):
        raise ValueError(f"takes one vector of 4 components, got an array of shape {y.shape}")
    if not all(map(math.isfinite, y.tolist())):
        raise ValueError(f"vector components must be finite, got {y.tolist()}")
    b, i, j, i3 = tetrad.rows.dot(y).tolist()  # ndarray.dot: half the cost of @ here
    if b <= 0.0:
        raise NotFutureTimelike(f"timelike projection b={b} is not positive")
    return b, i / b, j / b, i3 / b


def frame_components(y, tetrad: Tetrad | None = None) -> FrameComponents:
    """Resolve ``y`` into frame components and scalar ratios.

    Requires b > 0 and w3 > 0 (the axial region where the scalar pipeline
    is defined).  The orientation ratio ``t`` is tan(phi) = w2/w1.
    """
    b, w1, w2, w3 = projections(y, tetrad)
    if w3 <= 0.0:
        raise OutsideAxialRegion(f"axial projection w3={w3} is not positive")
    return FrameComponents.from_ratios(b, w1, w2, w3, math.hypot(w1, w2))
