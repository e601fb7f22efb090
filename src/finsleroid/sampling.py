"""Deterministic samplers of admissible angles and vectors.

Sampling goes through the angle chart, so every vector lies in the chart's domain.  In the
canonical frame the tensor layer accepts them down to p = 0.05, and rejects 156 of 200 at
(2, 0.02) and all 200 at (2, 0.01), where their frame ratios underflow; in a frame boosted by
rapidity 0.4 in (b, i) it rejects 127 of 400 at (10, 0.1) and 381 at (50, 0.05).  All randomness
flows through a caller-supplied generator (or seed), keeping reports and tests reproducible.
"""

from __future__ import annotations

import math
from itertools import starmap

import numpy as np

from .frame import Parameters, Tetrad
from .kernel import AngleCoords, _chart_vector, domain_info, theta_pole

DEFAULT_SEED = 20240

# Stay this far above the domain floor: angle derivatives degrade at the
# boundary where the radicand root vanishes.
ETA_MARGIN = 0.2
ETA_SPAN = 2.2
THETA_MARGIN = 0.15


def _angle_box(params: Parameters, count: int, rng, *,
               eta_margin=ETA_MARGIN, theta_margin=THETA_MARGIN, eta_span=ETA_SPAN):
    """(count, 3) rows (eta, theta, phi) from one block of draws, each column in numpy's
    own ``uniform`` formula low + (high - low) u (per-sample uniform bits), and the generator
    drawn from: ``rng`` itself, a new one of its seed, or DEFAULT_SEED's for None."""
    rng = np.random.default_rng(DEFAULT_SEED if rng is None else rng)
    low = np.array([domain_info(params).eta_min + eta_margin, theta_margin, 0.0])
    width = np.array([eta_span, (theta_pole(params) - theta_margin) - theta_margin, 2.0 * math.pi])
    return low + width * rng.random((count, 3)), rng


def sample_angles(params: Parameters, count: int, rng=None, **box) -> list[AngleCoords]:
    """Angle triples uniform over an interior box of the chart; ``box`` may override
    ``eta_margin``, ``theta_margin`` and ``eta_span`` (the module constants)."""
    rows, _ = _angle_box(params, count, rng, **box)
    return list(starmap(AngleCoords, rows.tolist()))


def sample_vectors(
    params: Parameters,
    count: int,
    rng=None,
    tetrad: Tetrad | None = None,
    scale: tuple[float, float] = (0.5, 3.0),
    **box,
) -> np.ndarray:
    """(count, 4) chart vectors (natural coordinates): the angles of ``sample_angles``,
    then a block of norms uniform over ``scale``, mapped by one batch chart call; in the
    canonical frame the tensor layer accepts them for p >= 0.05 (module docstring)."""
    rows, rng = _angle_box(params, count, rng, **box)
    norms = rng.uniform(*scale, size=count)
    if (norms <= 0.0).any():
        raise ValueError(f"norm must be positive, got {norms.min()}")
    y = np.stack(_chart_vector(rows, norms, params)[2], axis=-1)
    return y if tetrad is None else y @ np.linalg.inv(tetrad.rows).T
