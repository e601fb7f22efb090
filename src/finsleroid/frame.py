"""Background pseudo-Riemannian frame and vector decomposition.

Everything here is pointwise: one tangent space, one orthonormal frame
(one timelike covector ``b``, three spacelike covectors ``i``, ``j``,
``i3``), and the metric the frame spans.  The third spacelike direction
``i3`` is the distinguished polar axis of the anisotropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotFutureTimelike, OutsideAxialRegion, TetradDegenerate

_MINKOWSKI_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


@dataclass(frozen=True)
class Parameters:
    """Extension scalars of the anisotropic norm.

    ``H`` controls the indicatrix curvature (-H^2), ``p`` the curvature of
    the horizontal section (p^2).  Admissible range: H >= 1, 0 < p <= 1.
    """

    H: float
    p: float

    def __post_init__(self):
        if not (1.0 <= self.H < math.inf):
            raise ValueError(f"H must be finite and >= 1, got {self.H}")
        if not (0.0 < self.p <= 1.0):
            raise ValueError(f"p must be in (0, 1], got {self.p}")

    @property
    def azimuthal_skew(self) -> float:
        """sqrt(1/p^2 - 1); zero in the spatially isotropic case p = 1."""
        return math.sqrt(1.0 / (self.p * self.p) - 1.0)

    @property
    def boost_skew(self) -> float:
        """sqrt(1 - 1/H^2); zero in the pseudo-Euclidean case H = 1."""
        return math.sqrt(1.0 - 1.0 / (self.H * self.H))


@dataclass(frozen=True, eq=False)
class Tetrad:
    """Orthonormal covector frame and the metric tensor it spans.

    ``b``, ``i``, ``j``, ``i3`` are covectors (length-4 arrays); ``a`` is
    the covariant metric they assemble, ``a_inv`` its reciprocal and
    ``p_t`` the transversal projector onto the (i, j)-plane.
    """

    b: np.ndarray
    i: np.ndarray
    j: np.ndarray
    i3: np.ndarray
    a: np.ndarray
    a_inv: np.ndarray
    p_t: np.ndarray

    @classmethod
    def from_covectors(cls, b, i, j, i3) -> "Tetrad":
        """Assemble the metric from four covectors.

        Raises TetradDegenerate if the covectors do not span the space.
        """
        b, i, j, i3 = (np.asarray(v, dtype=float).reshape(4) for v in (b, i, j, i3))
        a = np.outer(b, b) - np.outer(i, i) - np.outer(j, j) - np.outer(i3, i3)
        try:
            a_inv = np.linalg.inv(a)
        except np.linalg.LinAlgError as exc:
            raise TetradDegenerate("frame covectors are linearly dependent") from exc
        p_t = np.outer(i, i) + np.outer(j, j)
        return cls(b=b, i=i, j=j, i3=i3, a=a, a_inv=a_inv, p_t=p_t)

    @classmethod
    def canonical(cls) -> "Tetrad":
        """Identity frame with metric diag(1, -1, -1, -1).

        One shared instance, built at import; its arrays are read-only.
        """
        return _CANONICAL

    @classmethod
    def from_dict(cls, doc: dict) -> "Tetrad":
        """Build from a parsed JSON document; missing "tetrad" = canonical."""
        rows = doc.get("tetrad")
        if rows is None:
            return cls.canonical()
        rows = np.asarray(rows, dtype=float)
        if rows.shape != (4, 4):
            raise ValueError(f"tetrad must be 4 rows of 4 numbers, got {rows.shape}")
        return cls.from_covectors(rows[0], rows[1], rows[2], rows[3])

    @property
    def rows(self) -> np.ndarray:
        """Covector rows stacked as a 4x4 matrix (b, i, j, i3)."""
        return np.stack([self.b, self.i, self.j, self.i3])


_CANONICAL = Tetrad.from_covectors(*np.eye(4))
for _array in vars(_CANONICAL).values():
    _array.setflags(write=False)


def load_configuration(doc: dict) -> tuple[Parameters, Tetrad]:
    """Parameters and tetrad from one JSON document {"H":, "p":, "tetrad":?}."""
    params = Parameters(H=float(doc["H"]), p=float(doc["p"]))
    return params, Tetrad.from_dict(doc)


@dataclass(frozen=True)
class TetradValidation:
    """Residuals of the frame consistency checks."""

    passed: bool
    assembly_residual: float
    norm_residuals: dict
    reciprocity_residual: float
    signature: tuple

    def __bool__(self):
        return self.passed


def validate_tetrad(tetrad: Tetrad, tol: float = 1e-12) -> TetradValidation:
    """Check the stored metric against the frame that claims to span it.

    Verifies the rank-one assembly of ``a``, the four unit norms taken with
    the reciprocal metric, the reciprocity a_inv @ a = id, and the
    time-space signature.  Raises TetradDegenerate when ``a`` is singular.
    """
    assembled = (
        np.outer(tetrad.b, tetrad.b)
        - np.outer(tetrad.i, tetrad.i)
        - np.outer(tetrad.j, tetrad.j)
        - np.outer(tetrad.i3, tetrad.i3)
    )
    assembly_residual = float(np.max(np.abs(assembled - tetrad.a)))

    if abs(np.linalg.det(tetrad.a)) < 1e-300:
        raise TetradDegenerate("stored metric tensor is singular")

    a_inv = np.linalg.inv(tetrad.a)
    norms = {
        "b": float(tetrad.b @ a_inv @ tetrad.b - 1.0),
        "i": float(tetrad.i @ a_inv @ tetrad.i + 1.0),
        "j": float(tetrad.j @ a_inv @ tetrad.j + 1.0),
        "i3": float(tetrad.i3 @ a_inv @ tetrad.i3 + 1.0),
    }
    reciprocity = float(np.max(np.abs(tetrad.a_inv @ tetrad.a - np.eye(4))))
    eigs = np.linalg.eigvalsh(tetrad.a)
    signature = tuple(int(np.sign(e)) for e in sorted(eigs, reverse=True))

    passed = (
        assembly_residual <= tol
        and all(abs(v) <= tol for v in norms.values())
        and reciprocity <= tol
        and signature == (1, -1, -1, -1)
    )
    return TetradValidation(
        passed=passed,
        assembly_residual=assembly_residual,
        norm_residuals=norms,
        reciprocity_residual=reciprocity,
        signature=signature,
    )


@dataclass(frozen=True)
class FrameComponents:
    """A tangent vector resolved along the frame.

    ``b`` is the timelike projection, ``w1``/``w2``/``w3`` the spacelike
    projections divided by ``b``; the rest are the derived ratios used by
    the scalar pipeline.  ``s2`` is the pseudo-Riemannian norm squared.
    """

    b: float
    w1: float
    w2: float
    w3: float
    w_perp: float
    w: float
    t: float
    y_perp: float
    s2: float


def projections(y, tetrad: Tetrad) -> tuple[float, float, float, float]:
    """Raw frame projections (b, w1, w2, w3) of a vector.

    Only the future-pointing condition b > 0 is enforced here; the axial
    restriction w3 > 0 is applied by frame_components.
    """
    y = np.asarray(y, dtype=float).reshape(4)
    if not np.isfinite(y).all():
        raise ValueError(f"vector components must be finite, got {y.tolist()}")
    b = float(tetrad.b @ y)
    if b <= 0.0:
        raise NotFutureTimelike(f"timelike projection b={b} is not positive")
    return b, float(tetrad.i @ y) / b, float(tetrad.j @ y) / b, float(tetrad.i3 @ y) / b


def frame_components(y, tetrad: Tetrad | None = None) -> FrameComponents:
    """Resolve ``y`` into frame components and scalar ratios.

    Requires b > 0 and w3 > 0 (the axial region where the scalar pipeline
    is defined).  The orientation ratio ``t`` is tan(phi) = w2/w1.
    """
    if tetrad is None:
        tetrad = Tetrad.canonical()
    y = np.asarray(y, dtype=float).reshape(4)
    b, w1, w2, w3 = projections(y, tetrad)
    if w3 <= 0.0:
        raise OutsideAxialRegion(f"axial projection w3={w3} is not positive")
    w_perp = math.hypot(w1, w2)
    w = w_perp / w3
    if w1 != 0.0:
        t = w2 / w1
    else:
        t = math.copysign(math.inf, w2) if w2 != 0.0 else 0.0
    s2 = float(y @ tetrad.a @ y)
    return FrameComponents(
        b=b,
        w1=w1,
        w2=w2,
        w3=w3,
        w_perp=w_perp,
        w=w,
        t=t,
        y_perp=b * w_perp,
        s2=s2,
    )
