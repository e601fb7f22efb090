"""Frame, its metric and vector decomposition."""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finsleroid import (
    EmptyDomain,
    NotFutureTimelike,
    OutsideAxialRegion,
    Parameters,
    Tetrad,
    TetradDegenerate,
    domain_info,
    frame_components,
    load_configuration,
    sample_vectors,
)
from finsleroid.frame import _s2, projections


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


def test_parameters_reject_h_from_the_documented_bound():
    # H**6 in the closed-form determinant overflows from about 2.4e51
    from finsleroid.frame import H_MAX

    assert H_MAX == 1e50
    Parameters(H=math.nextafter(H_MAX, 0.0), p=0.5)
    for h in (H_MAX, 2.4e51, 1e52, 1e300):
        with pytest.raises(ValueError, match="H must be >= 1 and below 1e\\+50"):
            Parameters(H=h, p=0.5)


def test_p_whose_square_underflows_has_an_empty_domain():
    # p * p is 0 below about 2.2e-162, where 1/p^2 divided by zero
    for p in (1e-170, 1e-300, 5e-324):
        params = Parameters(H=1.25, p=p)
        with pytest.raises(EmptyDomain, match="p\\^2 underflows"):
            params.azimuthal_skew
        with pytest.raises(EmptyDomain):
            domain_info(params)
    with pytest.raises(EmptyDomain):
        domain_info(Parameters(H=1.25, p=1e-160))  # its neighbour, already empty


def test_canonical_tetrad_is_one_read_only_instance():
    tetrad = Tetrad.canonical()
    assert Tetrad.canonical() is tetrad
    with pytest.raises(ValueError):
        tetrad.b[0] = 2.0
    with pytest.raises(ValueError):
        tetrad.rows[3, 3] = 2.0
    with pytest.raises(ValueError):
        tetrad.a[0, 0] = 2.0
    assert Tetrad.canonical().rows is tetrad.rows
    np.testing.assert_array_equal(tetrad.a, np.diag([1.0, -1.0, -1.0, -1.0]))
    np.testing.assert_array_equal(tetrad.rows, np.eye(4))


def test_parameters_stay_value_objects_after_their_skews_are_read():
    first, second = Parameters(H=1.25, p=0.8), Parameters(H=1.25, p=0.8)
    assert first.azimuthal_skew == math.sqrt(1.0 / (0.8 * 0.8) - 1.0)
    assert first.boost_skew == math.sqrt(1.0 - 1.0 / (1.25 * 1.25))
    assert first == second and hash(first) == hash(second)
    # each instance forms its own domain record, once: equal values, no shared cache
    assert domain_info(first) == domain_info(second)
    assert domain_info(first) is domain_info(first)
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.H = 2.0


def _reference_projections(y, tetrad):
    """Per-covector sums, as the frame resolved one vector before its rows product."""
    b = y @ tetrad.b
    return b, (y @ tetrad.i) / b, (y @ tetrad.j) / b, (y @ tetrad.i3) / b


def _assert_projections_close(got, want, y, tetrad):
    # each raw projection is a 4-term sum, which any summation order gets
    # within 4 eps sum_k |y_k c_k|; the ratios add that of b and one rounding
    eps = np.finfo(float).eps
    b_tol, *tols = (4.0 * eps * np.abs(y * c).sum() for c in tetrad.rows)
    assert abs(got[0] - want[0]) <= b_tol
    for w_got, w_want, tol in zip(got[1:], want[1:], tols):
        bound = (tol + abs(w_want) * b_tol) / (want[0] - b_tol) + 2.0 * eps * abs(w_want)
        assert abs(w_got - w_want) <= bound


def test_one_vector_projection_is_one_rows_product():
    rng = np.random.default_rng(29)
    canonical = Tetrad.canonical()
    for _ in range(200):
        y = np.concatenate([rng.uniform(0.5, 3.0, 1), rng.uniform(-1.0, 1.0, 3)])
        got = projections(y, canonical)
        assert all(type(c) is float for c in got)
        want = _reference_projections(y, canonical)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    for _ in range(200):
        rows = rng.normal(size=(4, 4))
        y = rng.normal(size=4)
        rows[0] *= np.sign(y @ rows[0])
        tetrad = Tetrad.from_covectors(*rows)
        got = projections(y, tetrad)
        _assert_projections_close(got, _reference_projections(y, tetrad), y, tetrad)


def test_projection_guards_and_replaced_covectors():
    tetrad = Tetrad.canonical()
    with pytest.raises(ValueError):
        projections([1.0, 0.2, math.nan, 0.3], tetrad)
    with pytest.raises(ValueError):
        projections([math.inf, 0.2, 0.1, 0.3], tetrad)
    with pytest.raises(NotFutureTimelike):
        projections([0.0, 0.2, 0.1, 0.3], tetrad)
    # a replaced covector gets its own rows, not the canonical instance's
    doubled = dataclasses.replace(tetrad, b=2.0 * tetrad.b)
    b, *ratios = projections([1.5, 0.3, 0.0, 0.6], doubled)
    assert b == 3.0
    assert ratios == pytest.approx([0.1, 0.0, 0.2], rel=1e-15)


def test_a_replaced_covector_gets_its_own_metric():
    # the metric is derived from the covectors: a frame with b doubled spans
    # diag(4, -1, -1, -1), and s2 = b^2 - |b w|^2 = 9 - 0.45 from its own projections
    base = Tetrad.canonical()
    doubled = dataclasses.replace(base, b=2.0 * base.b)
    np.testing.assert_array_equal(doubled.a, np.diag([4.0, -1.0, -1.0, -1.0]))
    fc = frame_components([1.5, 0.3, 0.0, 0.6], doubled)
    assert fc.b == 3.0
    assert fc.s2 == pytest.approx(8.55, rel=1e-15)
    assert fc.s2 == pytest.approx(fc.b**2 - (fc.b * fc.w3) ** 2 - fc.y_perp**2, rel=1e-15)


def test_every_spanning_frame_has_the_minkowski_identities():
    # a = E^T diag(1, -1, -1, -1) E for covector rows E, so E a^-1 E^T is diag(1, -1, -1, -1)
    # and a has signature (+, -, -, -) for every invertible E (Sylvester's law of inertia);
    # numerically the residual is a rounding error of inverting a, whose condition is cond(E)^2
    eta = np.diag([1.0, -1.0, -1.0, -1.0])

    def residual(tetrad):
        return np.abs(tetrad.rows @ np.linalg.inv(tetrad.a) @ tetrad.rows.T - eta).max()

    canonical = Tetrad.canonical()
    np.testing.assert_array_equal(canonical.a, eta)
    assert residual(canonical) == 0.0
    boosted = _boosted(0.4)  # hyperbolic rotation of rapidity 0.4 in the (b, i) plane
    np.testing.assert_allclose(boosted.a, eta, rtol=0.0, atol=1e-15)
    assert residual(boosted) <= 1e-15
    # 2000 Gaussian frames reach cond(E) = 9.2e3 and 0.79 cond(E)^2 2^-52
    rng = np.random.default_rng(0)
    for _ in range(2000):
        tetrad = Tetrad.from_covectors(*rng.normal(size=(4, 4)))
        signs = np.sign(np.linalg.eigvalsh(tetrad.a))
        assert sorted(signs, reverse=True) == [1.0, -1.0, -1.0, -1.0]
        assert residual(tetrad) <= 4.0 * np.linalg.cond(tetrad.rows) ** 2 * 2.0**-52


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


def test_s2_overflow_is_bad_input():
    # F, l, h and g of these vectors are finite, but y.a.y overflows; it must
    # fail as bad input naming s2, not come back as inf with a RuntimeWarning
    y = np.array([7.8741253e200, 0.40093653e200, 0.51128664e200, 0.17089195e200])
    with pytest.raises(ValueError, match="s2"):
        frame_components(y)


def _near_cone_ladder(tetrad):
    """Vectors b (1, w) in ``tetrad``, natural coordinates, with |w| = 1 - 10^-k for k = 1
    to 12 along 7 directions with w3 > 0: s2 cancels to 2 b^2 10^-k."""
    directions = [(0.0, 0.0, 1.0), (0.6, 0.0, 0.8), (0.0, -0.6, 0.8), (0.48, 0.64, 0.6),
                  (-0.8, 0.36, 0.48), (0.7, -0.7, 0.1), (2.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0)]
    inverse = np.linalg.inv(tetrad.rows)
    return [inverse @ (2.0 * np.array([1.0, *((1.0 - 10.0**-k) * np.array(d))]))
            for k in range(1, 13) for d in directions]


@pytest.mark.parametrize("chi", [None, 0.4], ids=["canonical", "boost"])
def test_s2_is_within_four_ulps_of_the_exact_rational_norm(chi):
    # s2 = b^2 (1 - w.w) of the rounded projection against s2* = (Ry)_0^2 - (Ry)_1^2
    # - (Ry)_2^2 - (Ry)_3^2 in exact rational arithmetic of the float rows R and y,
    # relative to sum (Ry)_a^2: the worst error measures 1.24 eps in the canonical frame
    # and 2.29 eps in the rapidity-0.4 boost (1.16 and 1.65 for the product y.a.y)
    tetrad = Tetrad.canonical() if chi is None else _boosted(chi)
    probes = _near_cone_ladder(tetrad)
    for pair in ((1.25, 0.8), (2.0, 0.5), (1.5, 0.9), (1.25, 1.0), (3.0, 0.3)):
        rng = np.random.default_rng(0)
        probes.extend(sample_vectors(Parameters(*pair), 200, rng, None if chi is None else tetrad))
    assert len(probes) == 1084
    rows = [[Fraction(c) for c in row] for row in tetrad.rows.tolist()]
    for y in probes:
        ry = [sum(c * Fraction(t) for c, t in zip(row, y.tolist())) for row in rows]
        s2_star = ry[0] ** 2 - ry[1] ** 2 - ry[2] ** 2 - ry[3] ** 2
        b, w1, w2, w3 = projections(y, tetrad)
        s2 = _s2(b, w1, w2, w3)
        if w3 > 0.0:
            assert frame_components(y, tetrad).s2 == s2
        bound = 4.0 * np.finfo(float).eps * float(sum(t * t for t in ry))
        assert abs(Fraction(s2) - s2_star) <= bound, y


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
    # the rank-two transversal projector i(x)i + j(x)j equals -a + b(x)b - i3(x)i3
    for tetrad in (Tetrad.canonical(), _boosted(0.3)):
        p_t = np.outer(tetrad.i, tetrad.i) + np.outer(tetrad.j, tetrad.j)
        alt = -tetrad.a + np.outer(tetrad.b, tetrad.b) - np.outer(tetrad.i3, tetrad.i3)
        np.testing.assert_allclose(p_t, alt, atol=1e-12)


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
    np.testing.assert_array_equal(tetrad.a, np.diag([1.0, -1.0, -1.0, -1.0]))
    with pytest.raises(ValueError):
        Tetrad.from_dict({"tetrad": [[1, 0], [0, 1]]})


@pytest.mark.parametrize("doc", [[1, 2], "tetrad", 3.0, {"frame": np.eye(4).tolist()}, {"tetrad": None}])
def test_tetrad_document_must_be_a_json_object_with_a_tetrad_entry(doc):
    with pytest.raises(ValueError, match='tetrad document must be a JSON object with a "tetrad" entry'):
        Tetrad.from_dict(doc)
    if isinstance(doc, dict):  # load_configuration keeps the canonical default
        assert load_configuration({"H": 1.5, "p": 0.9, **doc})[1] is Tetrad.canonical()


@pytest.mark.parametrize("entry", [[[1, 0], [0, 1, 0, 0]], {"a": 1}, "abc"], ids=["ragged", "object", "text"])
def test_tetrad_entry_must_be_four_rows_of_four_numbers(entry):
    with pytest.raises(ValueError, match="tetrad must be 4 rows of 4 numbers"):
        Tetrad.from_dict({"tetrad": entry})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_tetrad_entries_are_rejected_before_assembly(bad):
    rows = np.eye(4)
    rows[2, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from assembling a
        with pytest.raises(ValueError, match="tetrad entries must be finite"):
            Tetrad.from_covectors(*rows)
        with pytest.raises(ValueError, match="tetrad entries must be finite"):
            Tetrad.from_dict({"tetrad": rows.tolist()})
