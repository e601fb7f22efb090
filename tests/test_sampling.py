"""Sampler contract: one block of draws, one batch chart call."""

import math
import warnings

import numpy as np
import pytest

from finsleroid import (
    AngleCoords,
    Parameters,
    Tetrad,
    domain_info,
    finsler_norm,
    metric_tensor,
    sample_angles,
    sample_vectors,
    theta_pole,
    vector_from_angles,
)
from finsleroid import sampling
from finsleroid.kernel import _chart_vector

PAIRS = ((1.0, 1.0), (1.25, 0.8), (2.0, 0.5), (50.0, 0.05))
BOXES = (
    {},
    {"eta_margin": 0.35, "theta_margin": 0.3, "eta_span": 1.2},
)


def _boosted(chi):
    e = np.eye(4)
    b = math.cosh(chi) * e[0] + math.sinh(chi) * e[1]
    i = math.sinh(chi) * e[0] + math.cosh(chi) * e[1]
    return Tetrad.from_covectors(b, i, e[2], e[3])


def _reference_angles(params, count, rng, eta_margin=sampling.ETA_MARGIN,
                      theta_margin=sampling.THETA_MARGIN, eta_span=sampling.ETA_SPAN):
    """Per-sample ``rng.uniform`` draws over the sampler's box."""
    floor, pole = domain_info(params).eta_min, theta_pole(params)
    return [
        AngleCoords(
            eta=floor + eta_margin + rng.uniform(0.0, eta_span),
            theta=rng.uniform(theta_margin, pole - theta_margin),
            phi=rng.uniform(0.0, 2.0 * math.pi),
        )
        for _ in range(count)
    ]


def _reference_vectors(params, count, rng, tetrad, scale=(0.5, 3.0), **box):
    """Per-sample ``vector_from_angles`` calls, mapped to natural coordinates."""
    frame_inv = np.linalg.inv(tetrad.rows)
    rows = []
    for angles in _reference_angles(params, count, rng, **box):
        fc = vector_from_angles(angles, rng.uniform(*scale), params)
        rows.append(frame_inv @ np.array([fc.b, fc.b * fc.w1, fc.b * fc.w2, fc.b * fc.w3]))
    return np.array(rows)


@pytest.mark.parametrize("box", BOXES, ids=["default", "margins"])
@pytest.mark.parametrize("H, p", PAIRS)
def test_sample_angles_match_per_sample_uniform_draws(H, p, box):
    params = Parameters(H=H, p=p)
    got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
    got = sample_angles(params, 64, got_rng, **box)
    want = _reference_angles(params, 64, want_rng, **box)
    assert got == want  # bit for bit
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("tetrad", [Tetrad.canonical(), _boosted(0.4)], ids=["canonical", "boosted"])
@pytest.mark.parametrize("options", [{}, {"scale": (0.1, 5.0), "eta_span": 1.0}], ids=["default", "scale"])
@pytest.mark.parametrize("H, p", PAIRS)
def test_sample_vectors_match_per_sample_vector_from_angles(H, p, tetrad, options):
    # the batch chart runs numpy's ufuncs, the scalar one math: a few ulps of
    # the vector's largest component apart
    params = Parameters(H=H, p=p)
    got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
    got = sample_vectors(params, 80, got_rng, tetrad, **options)
    want = _reference_vectors(params, 80, want_rng, tetrad, **options)
    assert got.shape == want.shape == (80, 4)
    scale = np.abs(want).max(axis=1)
    assert (np.abs(got - want).max(axis=1) <= 2e-15 * scale).all()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_sample_vectors_makes_one_chart_call(monkeypatch):
    calls = []

    def spy(angles, norm, params):
        calls.append(np.shape(angles))
        return chart_vector(angles, norm, params)

    chart_vector = sampling._chart_vector
    monkeypatch.setattr(sampling, "_chart_vector", spy)
    sample_vectors(Parameters(H=1.25, p=0.8), 50, 3)
    assert calls == [(50, 3)]


def test_non_positive_norms_are_rejected():
    # the scalar chart's norm and every norm the sampler draws from ``scale``
    params = Parameters(H=1.25, p=0.8)
    angles = AngleCoords(eta=domain_info(params).eta_min + 0.7, theta=0.6, phi=1.2)
    with pytest.raises(ValueError, match="norm must be positive"):
        vector_from_angles(angles, 0.0, params)
    with pytest.raises(ValueError, match="norm must be positive"):
        sample_vectors(params, 20, 3, scale=(-1.0, 1.0))


def test_batch_chart_takes_an_azimuth_rounding_to_two_pi_to_zero():
    # -1e-20 mod 2 pi rounds to 2 pi, whose sine is -2.4e-16: a second remainder gives 0
    params = Parameters(H=2.0, p=0.5)
    eta = domain_info(params).eta_min + 0.7
    batch = _chart_vector(np.array([[eta, 0.6, -1e-20]]), np.array([1.0]), params)[2]
    scalar = _chart_vector(AngleCoords(eta=eta, theta=0.6, phi=0.0), 1.0, params)[2]
    assert batch[2].tolist() == [scalar[2]] == [0.0]


def test_zero_samples_are_empty():
    params = Parameters(H=2.0, p=0.5)
    assert sample_angles(params, 0, 5) == []
    assert sample_vectors(params, 0, 5).size == 0


# the five benchmark pairs, and p = 0.05, where the sampler's chart ratios still
# square well above the underflow that rejects samples at p = 0.02 and below
ACCEPTED_PAIRS = ((1.0, 1.0), (1.25, 1.0), (1.25, 0.8), (1.5, 0.9), (2.0, 0.5),
                  (2.0, 0.05), (50.0, 0.05))


@pytest.mark.parametrize("H, p", ACCEPTED_PAIRS)
def test_sampled_vectors_pass_the_tensor_layer(H, p):
    params = Parameters(H=H, p=p)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for y in sample_vectors(params, 200, 1):
            assert np.isfinite(metric_tensor(y, None, params).g).all()
            assert finsler_norm(y, params=params) > 0.0
