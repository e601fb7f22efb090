"""Frame validation and vector decomposition."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finsleroid import (
    NotFutureTimelike,
    OutsideAxialRegion,
    Parameters,
    Tetrad,
    TetradDegenerate,
    frame_components,
    load_configuration,
    validate_tetrad,
)


def test_parameters_bounds():
    Parameters(H=1.0, p=1.0)
    Parameters(H=3.0, p=0.4)
    with pytest.raises(ValueError):
        Parameters(H=0.9, p=1.0)
    with pytest.raises(ValueError):
        Parameters(H=math.inf, p=1.0)
    with pytest.raises(ValueError):
        Parameters(H=1.5, p=1.2)
    with pytest.raises(ValueError):
        Parameters(H=1.5, p=0.0)


def test_canonical_tetrad_validates_exactly():
    report = validate_tetrad(Tetrad.canonical())
    assert report.passed
    assert report.assembly_residual == 0.0
    assert all(v == 0.0 for v in report.norm_residuals.values())
    assert report.reciprocity_residual == 0.0
    assert report.signature == (1, -1, -1, -1)


def test_canonical_tetrad_is_one_read_only_instance():
    tetrad = Tetrad.canonical()
    assert Tetrad.canonical() is tetrad
    with pytest.raises(ValueError):
        tetrad.b[0] = 2.0
    with pytest.raises(ValueError):
        tetrad.a_inv[1, 1] = 0.0
    np.testing.assert_array_equal(tetrad.a, np.diag([1.0, -1.0, -1.0, -1.0]))


def test_scaled_timelike_covector_fails_with_residual_three():
    base = Tetrad.canonical()
    corrupted = dataclasses.replace(base, b=2.0 * base.b)
    report = validate_tetrad(corrupted)
    assert not report.passed
    assert report.norm_residuals["b"] == pytest.approx(3.0)


def test_boosted_frame_validates():
    # hyperbolic rotation of rapidity 0.4 in the (b, i) plane
    chi = 0.4
    e = np.eye(4)
    b = math.cosh(chi) * e[0] + math.sinh(chi) * e[1]
    i = math.sinh(chi) * e[0] + math.cosh(chi) * e[1]
    tetrad = Tetrad.from_covectors(b, i, e[2], e[3])
    report = validate_tetrad(tetrad)
    assert report.passed
    # the boost leaves the assembled metric canonical
    np.testing.assert_allclose(tetrad.a, np.diag([1.0, -1, -1, -1]), atol=1e-15)


def test_degenerate_frame_rejected():
    e = np.eye(4)
    with pytest.raises(TetradDegenerate):
        Tetrad.from_covectors(e[0], e[1], e[1], e[3])


def test_frame_components_direct_ratios():
    fc = frame_components([2.0, 1.0, 0.0, 1.0])
    assert fc.b == 2.0
    assert fc.w1 == 0.5
    assert fc.w2 == 0.0
    assert fc.w3 == 0.5
    assert fc.w_perp == 0.5
    assert fc.w == 1.0


def test_frame_components_three_four_five():
    fc = frame_components([1.0, 0.3, 0.4, 0.5])
    assert fc.w_perp == pytest.approx(0.5, abs=1e-15)
    assert fc.w == pytest.approx(1.0, abs=1e-14)
    assert fc.s2 == pytest.approx(0.5, abs=1e-14)
    assert fc.t == pytest.approx(0.4 / 0.3)


def test_frame_components_degenerate_axis():
    with pytest.raises(OutsideAxialRegion):
        frame_components([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(NotFutureTimelike):
        frame_components([-1.0, 0.0, 0.0, 0.5])


@settings(max_examples=100, deadline=None)
@given(
    lam=st.floats(min_value=0.01, max_value=100.0),
    y1=st.floats(min_value=-0.4, max_value=0.4),
    y2=st.floats(min_value=-0.4, max_value=0.4),
    y3=st.floats(min_value=0.05, max_value=0.8),
)
def test_scaling_leaves_ratios_fixed(lam, y1, y2, y3):
    y = np.array([1.7, y1, y2, y3])
    fc = frame_components(y)
    fs = frame_components(lam * y)
    assert fs.b == pytest.approx(lam * fc.b, rel=1e-12)
    assert fs.w1 == pytest.approx(fc.w1, rel=1e-12, abs=1e-15)
    assert fs.w2 == pytest.approx(fc.w2, rel=1e-12, abs=1e-15)
    assert fs.w3 == pytest.approx(fc.w3, rel=1e-12)


def test_norm_decomposition_on_random_vectors():
    rng = np.random.default_rng(7)
    tetrad = Tetrad.canonical()
    for _ in range(1000):
        y = np.concatenate(
            [rng.uniform(1.0, 3.0, 1), rng.uniform(-0.4, 0.4, 2), rng.uniform(0.05, 0.9, 1)]
        )
        fc = frame_components(y, tetrad)
        i3 = fc.b * fc.w3
        lhs = fc.s2
        rhs = fc.b**2 - i3**2 - fc.y_perp**2
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_transversal_tensor_identity():
    # the rank-two transversal projector equals -a + b(x)b - i3(x)i3
    for tetrad in (Tetrad.canonical(), _boosted(0.3)):
        alt = -tetrad.a + np.outer(tetrad.b, tetrad.b) - np.outer(tetrad.i3, tetrad.i3)
        np.testing.assert_allclose(tetrad.p_t, alt, atol=1e-12)


def _boosted(chi):
    e = np.eye(4)
    b = math.cosh(chi) * e[0] + math.sinh(chi) * e[1]
    i = math.sinh(chi) * e[0] + math.cosh(chi) * e[1]
    return Tetrad.from_covectors(b, i, e[2], e[3])


def test_load_configuration_defaults_to_canonical():
    params, tetrad = load_configuration({"H": 1.5, "p": 0.9})
    assert params.H == 1.5
    np.testing.assert_array_equal(tetrad.rows, np.eye(4))


def test_load_configuration_with_tetrad_rows():
    doc = {"H": 1.0, "p": 1.0, "tetrad": np.eye(4).tolist()}
    _, tetrad = load_configuration(doc)
    assert validate_tetrad(tetrad).passed
    with pytest.raises(ValueError):
        Tetrad.from_dict({"tetrad": [[1, 0], [0, 1]]})
