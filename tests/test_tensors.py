"""Unit covector, angular metric routes, metric tensor and determinant."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finsleroid import (
    DomainError,
    FinsleroidError,
    OutsideAxialRegion,
    OutsideRadialDomain,
    Parameters,
    PolarAxisSingular,
    Tetrad,
    angle_gradients,
    angular_metric,
    angular_metric_angle_form,
    angles_from_vector,
    covector_to_natural,
    finsler_norm,
    finsleroid3_metric,
    frame_components,
    indicatrix_curvature,
    metric_determinant_closed,
    metric_tensor,
    metric_tensor_numeric,
    projections,
    sample_angles,
    sample_vectors,
    section_curvature,
    tensor_to_natural,
    unit_covector,
)
from finsleroid import dual as dm
from finsleroid import indicatrix, kernel, tensors
from finsleroid.kernel import (
    _PAIR_INDEX,
    _azimuth,
    _radial_parts,
    _spiral,
    _unpack,
    eta_from_r,
    hyperbolic_profile,
    radial_chain,
    radial_from_ratios,
)

from oracle import EQUATOR_VECTORS
from packing import packing

ANISO = Parameters(H=1.25, p=0.8)
PSEUDO = Parameters(H=1.0, p=1.0)


def test_pair_index_is_the_reference_packing():
    # the kernel's written-out index arrays, which _unpack reads, against the any-k tables
    assert sorted(_PAIR_INDEX) == [2, 3, 4]
    for k, index in _PAIR_INDEX.items():
        assert index.tolist() == [list(row) for row in packing(k)[2]], k


def radial_derivatives(w, params):
    """``_radial_parts`` at (3,) or (m, 3) ratios as dense (..., 3) and (..., 3, 3) arrays."""
    w = np.asarray(w, dtype=float)
    r, grad, hess = _radial_parts(*(w.T if w.ndim == 2 else w.tolist()), params)
    return r, np.array(grad).T, _unpack(hess, 3)


@pytest.mark.parametrize(
    "fn",
    [finsler_norm, metric_tensor, unit_covector, angular_metric, metric_determinant_closed,
     angle_gradients, metric_tensor_numeric, angular_metric_angle_form],
    ids=lambda fn: fn.__name__,
)
def test_omitted_params_is_a_type_error(fn):
    with pytest.raises(TypeError, match="params is required"):
        fn(np.array([2.0, 0.3, 0.2, 0.4]))


def _frame_components(y, tetrad, params):
    return frame_components(y, tetrad)


def _tetrad_of_covector(y, tetrad, params):
    return Tetrad.from_covectors(y, *np.eye(4)[1:])


@pytest.mark.parametrize("shape", [(1, 4), (3, 4), (4, 1), (2, 2), (5,), (3,)], ids=str)
@pytest.mark.parametrize("params", [Parameters(1.25, 1.0), Parameters(2.0, 0.5)], ids=str)
@pytest.mark.parametrize(
    "fn",
    [finsler_norm, unit_covector, angular_metric, metric_tensor, metric_tensor_numeric,
     metric_determinant_closed, angle_gradients, angular_metric_angle_form, _frame_components,
     _tetrad_of_covector],
    ids=lambda fn: fn.__name__,
)
def test_a_batch_at_a_one_vector_function_is_a_typed_value_error(fn, params, shape):
    # projections, and Tetrad.from_covectors for a covector, decide the shape before any
    # arithmetic: a (4, 1) column met numpy's matmul core-dimension error, reshape(4) took
    # a (2, 2) array as one vector or covector, and a (5,) or (3,) one met its error
    y = np.resize(sample_vectors(params, 1)[0], shape)
    message = f"of 4 components, got an array of shape {shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        fn(y, None, params)


@pytest.mark.parametrize("shape", [(3, 1), (1, 3, 3), (2,), (4,), (2, 2), ()], ids=str)
def test_section_metric_takes_3_ratios_or_an_m_by_3_batch(shape):
    # a (3, 1) column failed in Python's unpacking, "expected 3, got 1"
    w = np.resize([0.1, 0.2, 0.5], shape)
    message = f"or an (m, 3) batch, got an array of shape {shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        finsleroid3_metric(w, Parameters(1.25, 0.8))


TINY_P = Parameters(3.5795676089825723, 0.003641003953434029)  # gp = 275
HUGE_R = np.array([1.0, 0.001, 0.0, 1e-300])  # spiral angle ~pi: exp(gp angle) overflows


def _angles_of_vector(y, tetrad, params):
    return angles_from_vector(frame_components(y, Tetrad.canonical()), params)


def _section_metric_of_ratios(y, tetrad, params):
    return finsleroid3_metric(y[1:] / y[0], params)


@pytest.mark.parametrize(
    "fn",
    [finsler_norm, metric_tensor, unit_covector, angular_metric, metric_determinant_closed,
     angle_gradients, metric_tensor_numeric, angular_metric_angle_form,
     _angles_of_vector, _section_metric_of_ratios],
    ids=lambda fn: fn.__name__,
)
def test_overflowing_spiral_factor_is_outside_the_radial_domain(fn):
    # r = |X + iY| exp(gp atan2(Y, X)) of this vector lies far above r_sup; the
    # log spiral's exp, or exp(gp theta) of the angular profile, raised math's
    # OverflowError (a RuntimeWarning for arrays) instead of a domain error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutsideRadialDomain, match="r=inf"):
            fn(HUGE_R, None, TINY_P)


@pytest.mark.parametrize(
    "fn",
    [finsler_norm, metric_tensor, unit_covector, angular_metric, metric_determinant_closed,
     angle_gradients, metric_tensor_numeric, angular_metric_angle_form],
    ids=lambda fn: fn.__name__,
)
def test_a_spiral_past_r_sup_with_k4_underflowing_is_outside_the_radial_domain(fn):
    # r ~ 1e362 at (2, 0.003), while k^4 = (X^2 + Y^2)^2 ~ 6e-362 underflows to 0: the
    # tensor routes checked k^4 before the spiral and blamed the time axis
    # (PolarAxisSingular), where finsler_norm and the closed-form determinant said r=inf
    y = np.array([1.0, 1e-90, 0.0, 5e-91])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutsideRadialDomain, match="r=inf"):
            fn(y, None, Parameters(2.0, 0.003))


# a chart vector at TINY_P: its ratios near 1e-272 square to 0 in k^2 = X^2 + Y^2
TINY_W = np.array([2.86037939e2, 1.36523286e-272, -4.12504660e-272, 4.36226097e-272])


def _section_metrics_of_a_batch(y, tetrad, params):
    return finsleroid3_metric(np.stack([y[1:] / y[0], [0.1, 0.2, 0.5]]), params)


@pytest.mark.parametrize(
    "fn",
    [finsler_norm, metric_tensor, unit_covector, angular_metric, metric_determinant_closed,
     angle_gradients, metric_tensor_numeric, angular_metric_angle_form,
     _section_metric_of_ratios, _section_metrics_of_a_batch],
    ids=lambda fn: fn.__name__,
)
def test_underflowing_spiral_modulus_is_outside_the_radial_domain(fn):
    # the log spiral's r is 0 in double precision, which finsler_norm already
    # reported; the radial derivatives divided by k^2 = 0 (ZeroDivisionError, or a
    # RuntimeWarning for a batch) and the hyper-dual passes by sqrt(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutsideRadialDomain, match=r"r=0\.0 "):
            fn(TINY_W, None, TINY_P)


# vectors numerically on the time axis: at p = 1 the ratios' (w.w)^1.5 underflows
# to 0, at p = 0.01 (a chart vector) k^4 = (X^2 + Y^2)^2 while k^2 is ~4e-211
ON_THE_TIME_AXIS = (
    (Parameters(1.25, 1.0), np.array([2.0, 1e-170, 1e-170, 1e-170])),
    (Parameters(2.0, 0.01), np.array([116.4356774903161, 5.341513523503264e-102,
                                      1.4056044271191692e-102, 5.5714188562784366e-102])),
)


@pytest.mark.parametrize("params, y", ON_THE_TIME_AXIS, ids=("p=1", "p=0.01"))
@pytest.mark.parametrize(
    "fn",
    [metric_tensor, unit_covector, angular_metric, angle_gradients, metric_tensor_numeric,
     angular_metric_angle_form, metric_determinant_closed, _section_metric_of_ratios,
     _section_metrics_of_a_batch],
    ids=lambda fn: fn.__name__,
)
def test_ratios_underflowing_onto_the_time_axis_are_polar_axis_singular(fn, params, y):
    # the radial Hessian divided by (w.w)^1.5 = 0 or k^4 = 0 (ZeroDivisionError, or a
    # RuntimeWarning for a batch), the hyper-dual passes by sqrt(0), and the closed-form
    # determinant by r^6 = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PolarAxisSingular, match="on the time axis"):
            fn(y, None, params)


def _finsleroid3_metric(y, tetrad, params):
    return finsleroid3_metric(y[..., 1:], params)


@pytest.mark.parametrize(
    "fn, batch",
    [(fn, False) for fn in (metric_tensor, unit_covector, angular_metric, metric_tensor_numeric,
                            metric_determinant_closed, _finsleroid3_metric)]
    + [(_finsleroid3_metric, True)],
    ids=lambda case: case.__name__.strip("_") if callable(case) else ("batch" if case else "vector"),
)
def test_a_vector_on_the_time_axis_is_polar_axis_singular(fn, batch):
    # y = (1, 0, 0, 0) at p = 1: w = 0, so (w.w)^1.5 or r^6 is exactly 0; a batch, the
    # one row as a (1, 3) array of ratios, only at finsleroid3_metric: the one-vector
    # functions reject any shape but (4,) first
    y = np.array([1.0, 0.0, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PolarAxisSingular, match="on the time axis"):
            fn(y[None] if batch else y, None, Parameters(1.25, 1.0))


# vectors at p < 1 whose polar part (w1, w2) squares to 0 or to ~1e-200, with
# w3 = 0.0688 and r inside the domain
NEAR_THE_POLAR_AXIS = (np.array([1.0, 1e-170, 1e-170, 0.0688]),
                       np.array([1.0, 1e-100, 1e-100, 0.0688]))


@pytest.mark.parametrize("y", NEAR_THE_POLAR_AXIS, ids=("1e-170", "1e-100"))
@pytest.mark.parametrize(
    "fn", [angle_gradients, metric_tensor_numeric, angular_metric_angle_form],
    ids=lambda fn: fn.__name__,
)
def test_hyperdual_routes_on_the_polar_axis_are_polar_axis_singular(fn, y):
    # dual.sqrt of w1^2 + w2^2 (its second derivative divides by s^1.5) and dual.atan2
    # of (w2, w1) (by s^2) divided by 0; the closed-form route is defined there
    params = Parameters(2.0, 0.5)
    assert np.isfinite(metric_tensor(y, None, params).g).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PolarAxisSingular, match="polar axis"):
            fn(y, None, params)


def test_angle_route_on_the_polar_axis_at_p_1():
    # at p = 1 the radial map |w| has w3 in its sum, so only the angle route, which
    # takes atan2(w2, w1), is singular there
    params, y = Parameters(1.25, 1.0), np.array([1.0, 1e-170, 1e-170, 0.5])
    assert np.isfinite(metric_tensor_numeric(y, None, params).g).all()
    for fn in (angle_gradients, angular_metric_angle_form):
        with pytest.raises(PolarAxisSingular, match="polar axis"):
            fn(y, None, params)


def test_one_path_for_floats_and_arrays():
    # radial_derivatives on an (m, 3) batch against each row's one-vector call; the
    # p = 1 rows include w3 <= 0, signed zeros and the axis.  Rows differ only where
    # numpy's arctan2, exp, hypot or power round apart from math's: at most 1.0e-15 of
    # max|.| here (the Hessian at (2, 0.5)), the same before the two paths became one
    for H, p in ((1, 1), (1.25, 1), (1.25, 0.8), (1.5, 0.9), (2, 0.5)):
        params = Parameters(H=H, p=p)
        ws = [np.array(projections(y, Tetrad.canonical())[1:])
              for y in sample_vectors(params, 20, 89)]
        if p == 1.0:
            ws += [np.array([w[0], w[1], -w[2]]) for w in ws[:5]]
            ws += [np.array([w[0], -0.0, 0.0]) for w in ws[:3]]
            ws += [np.array([0.0, -0.0, -w[2]]) for w in ws[:3]] + [np.array([-0.0, 0.0, 0.7])]
        batch = radial_derivatives(np.array(ws), params)
        for k, w in enumerate(ws):
            for rows, one in zip(batch, radial_derivatives(w, params)):
                assert np.max(np.abs(rows[k] - one)) <= 2e-15 * np.max(np.abs(one))


def test_unit_covector_axis_limit_pseudo_euclidean():
    y = np.array([1.0, 1e-6, 0.0, 1e-6])
    l = unit_covector(y, None, PSEUDO)
    np.testing.assert_allclose(l, [1.0, 0.0, 0.0, 0.0], atol=1e-5)


def test_unit_covector_euler_identity():
    for y in sample_vectors(ANISO, 20, 3):
        l = unit_covector(y, None, ANISO)
        f = finsler_norm(y, params=ANISO)
        assert float(l @ y) == pytest.approx(f, rel=1e-12)


def test_unit_covector_matches_autodiff_gradient():
    rng = np.random.default_rng(17)
    for params in (ANISO, Parameters(H=1.5, p=0.9)):
        for y in sample_vectors(params, 50, rng):
            l = unit_covector(y, None, params)
            l_num = metric_tensor_numeric(y, None, params).l
            np.testing.assert_allclose(l, l_num, rtol=1e-10, atol=1e-12)


def test_unit_covector_time_component_consistency():
    # l_0 / V - 1 = (p^2/H^2) sinh^2(eta)
    for y in sample_vectors(ANISO, 20, 23):
        fc = frame_components(y)
        coords, bundle = angles_from_vector(fc, ANISO)
        l = unit_covector(y, None, ANISO)
        lhs = l[0] / bundle.V - 1.0
        rhs = (ANISO.p**2 / ANISO.H**2) * math.sinh(coords.eta) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_radial_euler_identity():
    # degree-one homogeneity: r = grad(r) . w
    rng = np.random.default_rng(29)
    for params in (ANISO, Parameters(H=2.0, p=0.5), PSEUDO):
        for _ in range(50):
            w = np.concatenate([rng.uniform(-0.5, 0.5, 2), rng.uniform(0.1, 0.9, 1)])
            val, grad = dm.gradient(
                lambda a, b, c: radial_from_ratios(a, b, c, params), w
            )
            assert float(grad @ w) == pytest.approx(val, rel=1e-12)


RADIAL_PAIRS = ((1, 1), (1.25, 1), (1.25, 0.8), (1.5, 0.9), (2, 0.5), (5, 0.9), (1.1, 0.3))
FRAME = [[0.3, -1.1], [0.8, 0.2], [-0.4, 0.9]]  # 2 columns along which the chain contracts


def _dense(packed, k):
    """Dense arrays (k,), (k, k) and (k, k, k) of packed symmetric tensors."""
    _, _, pair_at, triple_at = packing(k)
    d1, d2, d3 = map(np.asarray, packed)
    return d1, d2[np.array(pair_at)], d3[np.array(triple_at)]


def test_radial_chain_matches_the_radial_map():
    # at f = (1, 0, 0) the chain returns L = ln r's own derivatives: the first and
    # second against radial_derivatives, the third against central differences of
    # the second and the Euler identity of the degree -2 Hessian (L3.w = -2 L2), and a
    # frame contracts all three; the packed results are unpacked to dense arrays first
    frame, eye, ln = np.array(FRAME), np.eye(3).tolist(), (1, 0, 0)
    for H, p in RADIAL_PAIRS:
        params = Parameters(H=H, p=p)
        for y in sample_vectors(params, 10, 17):
            w = np.array(projections(y, Tetrad.canonical())[1:])
            l1, l2, l3 = _dense(radial_chain(w.tolist(), params, eye, ln), 3)
            r, g, h = radial_derivatives(w, params)
            assert np.max(np.abs(l1 - g / r)) <= 1e-14 * np.max(np.abs(l1))
            expected = h / r - np.outer(g, g) / (r * r)
            assert np.max(np.abs(l2 - expected)) <= 1e-13 * np.max(np.abs(l2))
            assert np.max(np.abs(l3 @ w + 2.0 * l2)) <= 1e-13 * np.max(np.abs(l3))
            step = 1e-4 * np.linalg.norm(w)
            for k in range(3):
                e = step * np.eye(3)[k]
                at = [_dense(radial_chain((w + s * e).tolist(), params, eye, ln), 3)[1]
                      for s in (2.0, 1.0, -1.0, -2.0)]
                fd = (-at[0] + 8.0 * at[1] - 8.0 * at[2] + at[3]) / (12.0 * step)
                assert np.max(np.abs(l3[..., k] - fd)) <= 1e-7 * np.max(np.abs(l3))
            f1, f2, f3 = _dense(radial_chain(w.tolist(), params, frame.tolist(), ln), 2)
            assert np.max(np.abs(f1 - l1 @ frame)) <= 1e-14 * np.max(np.abs(l1))
            assert np.max(np.abs(f2 - frame.T @ l2 @ frame)) <= 1e-13 * np.max(np.abs(l2))
            contracted = np.einsum("abc,ai,bj,ck->ijk", l3, frame, frame, frame)
            assert np.max(np.abs(f3 - contracted)) <= 1e-13 * np.max(np.abs(l3))


def test_radial_chain_matches_the_dense_chain_rule():
    # Phi(L)'s derivatives against f1 L1, f2 L1 L1 + f1 L2 and
    # f3 L1 L1 L1 + f2 sym(L2 L1) + f1 L3 on dense arrays of L's own, along the
    # identity and a 2-column frame, for the curvature layer's f and random ones
    rng = np.random.default_rng(41)
    frames = (np.eye(3), np.array(FRAME))
    for H, p in RADIAL_PAIRS:
        params = Parameters(H=H, p=p)
        for y in sample_vectors(params, 10, 19):
            w = list(projections(y, Tetrad.canonical())[1:])
            for frame in frames:
                k = frame.shape[1]
                l1, l2, l3 = _dense(radial_chain(w, params, frame.tolist(), (1, 0, 0)), k)
                sym = (np.einsum("ab,c->abc", l2, l1) + np.einsum("ac,b->abc", l2, l1)
                       + np.einsum("bc,a->abc", l2, l1))
                for f in ((1.0, 2.0, 4.0), tuple(rng.uniform(-3.0, 3.0, 3))):
                    got = _dense(radial_chain(w, params, frame.tolist(), f), k)
                    terms = ((f[0] * l1,), (f[1] * np.outer(l1, l1), f[0] * l2),
                             (f[2] * np.einsum("a,b,c->abc", l1, l1, l1), f[1] * sym, f[0] * l3))
                    for part, term in zip(got, terms):
                        scale = max(np.max(np.abs(t)) for t in term)
                        assert np.max(np.abs(part - sum(term))) <= 1e-13 * scale


def _reference_radial_chain(w, params, frame, f):
    """``radial_chain`` as the generic loop over any k columns that its written-out k = 2
    and k = 3 branches replaced: one loop over the pairs (i, j >= i), one pass over
    ``packing(k)``'s triples, the sums in the order that the branches keep."""
    scale = math.hypot(*w)
    (w1, w2, w3), (f1, f2, f3) = (w[0] / scale, w[1] / scale, w[2] / scale), f
    gp, rho = params.azimuthal_skew, math.hypot(w1, w2)
    n1, n2 = w1 / rho, w2 / rho
    c = params.p * complex(-gp, 1.0)
    u = 1.0 / (w3 + c * rho)
    q = complex(1.0, -gp) * u
    kappa = 1j * u / (params.p * rho)
    qu, k_re, ku = q * u, kappa.real, kappa * u
    fk, f2k, third, cube = f1 * k_re / rho, f2 * k_re, f3 / 3.0, 2.0 * f1 * qu * u
    cols = []  # per column X/|w|: X1, X2, n.X, zeta', L' and g
    for x, y, z in zip(*frame):
        x, y = x / scale, y / scale
        t = n1 * x + n2 * y
        d = z / scale + c * t
        lx = (q * d).real
        cols.append((x, y, t, d, lx, f2k * lx - f1 * (ku * d).real - fk * t))
    *_, d1, l1, g = zip(*cols)
    phi2, cross, proj, tri = [], [], [], []
    for i, (x, y, t, d, lx, _) in enumerate(cols):
        for x2, y2, t2, d2, ly, _ in cols[i:]:  # the pairs (i, j), j >= i, in packed order
            pr = x * x2 + y * y2 - t * t2
            dd = d * d2
            re2 = (qu * dd).real
            ll = lx * ly
            phi2.append(f2 * ll + f1 * (k_re * pr - re2))
            cross.append(third * ll - f2 * re2)  # sym(. (x) L') = f3 L'L'L' - f2 sym(re2 (x) L')
            proj.append(pr)
            tri.append(cube * dd)
    return ([f1 * x for x in l1], phi2,
            [cross[ij] * l1[k] + cross[ik] * l1[j] + cross[jk] * l1[i]
             + proj[ij] * g[k] + proj[ik] * g[j] + proj[jk] * g[i] + (tri[ij] * d1[k]).real
             for i, j, k, ij, ik, jk in packing(len(cols))[1]])


CHART_PAIRS = ((1.0, 1.0), (1.25, 1.0), (1.25, 0.8), (1.5, 0.9), (2.0, 0.5), (3.0, 0.3),
               (50.0, 0.05), (100.0, 0.999), (2.0, 0.006),
               (28.39204609561534, 0.0045755159348809015))  # test_indicatrix's ten (H, p)


@pytest.mark.parametrize("k", [2, 3])
def test_radial_chain_matches_the_generic_loop_bit_for_bit(monkeypatch, k):
    # float.hex for float.hex against the generic loop, on the chart inputs that the
    # section (k = 2) or the unit surface (k = 3) passes on CHART_PAIRS, on FRAME (k = 2)
    # or the identity (k = 3) at sampled ratios, and again on all of them at a random f
    inputs = []
    monkeypatch.setattr(indicatrix, "radial_chain",
                        lambda *args: inputs.append(args) or radial_chain(*args))
    rng = np.random.default_rng(43)
    for H, p in CHART_PAIRS:
        params = Parameters(H=H, p=p)
        for angles in sample_angles(params, 30, rng, eta_margin=1e-6, theta_margin=2e-3,
                                    eta_span=15.0):
            if k == 3:
                indicatrix_curvature(angles, params)
            else:
                section_curvature(angles.theta, params)
                indicatrix.section_metric(angles.theta, angles.phi, params)
    assert len(inputs) == len(CHART_PAIRS) * 30 * (2 if k == 2 else 1)  # two section calls
    frame = np.eye(3).tolist() if k == 3 else FRAME
    for H, p in RADIAL_PAIRS:
        params = Parameters(H=H, p=p)
        for y in sample_vectors(params, 20, rng):
            w = list(projections(y, Tetrad.canonical())[1:])
            inputs += [(w, params, frame, f) for f in ((1.0, 0.0, 0.0), (1.0, 2.0, 4.0))]
    inputs += [(*args[:3], tuple(rng.uniform(-3.0, 3.0, 3).tolist())) for args in inputs]
    for args in inputs:
        got, want = radial_chain(*args), _reference_radial_chain(*args)
        assert [[x.hex() for x in part] for part in got] == \
            [[x.hex() for x in part] for part in want], args


def test_radial_derivatives_match_hyperdual_hessian():
    # closed form against dm.hessian of radial_from_ratios, plus the Euler
    # identities of the degree-one map: grad.w = r and hess.w = 0
    for H, p in RADIAL_PAIRS:
        params = Parameters(H=H, p=p)
        ws = [
            np.array(projections(y, Tetrad.canonical())[1:])
            for y in sample_vectors(params, 20, 89)
        ]
        if p < 1.0:
            # near the equator w3 = 1e-6 w_perp, near the axis w_perp = 1e-6 w3
            edge = [np.array([w[0], w[1], 1e-6 * math.hypot(w[0], w[1])]) for w in ws[:5]]
            axis = [np.array([1e-6 * w[0], 1e-6 * w[1], math.hypot(w[0], w[1])]) for w in ws[:5]]
        else:
            # w3 <= 0, signed zeros and the axis itself
            edge = [np.array([w[0], w[1], -w[2]]) for w in ws[:5]]
            edge += [np.array([w[0], -0.0, 0.0]) for w in ws[:3]]
            axis = [np.array([0.0, -0.0, -w[2]]) for w in ws[:3]] + [np.array([-0.0, 0.0, 0.7])]
        for kind, points in (("interior", ws + edge), ("axis", axis)):
            for w in points:
                r0, g0, h0 = dm.hessian(lambda a, b, c: radial_from_ratios(a, b, c, params), w)
                r, g, h = radial_derivatives(w, params)
                if p == 1.0:
                    # bit for bit, signed zeros included: this keeps the
                    # isotropic golden documents byte-identical
                    assert r == r0
                    for new, old in ((g, g0), (h, h0)):
                        assert np.array_equal(new, old)
                        assert np.array_equal(np.signbit(new), np.signbit(old))
                assert r == pytest.approx(r0, rel=1e-12)
                assert np.max(np.abs(g - g0)) <= 1e-12 * np.max(np.abs(g0))
                # within 1e-6 of the axis for p < 1 the hyper-dual oracle
                # itself is off by 3e-10 to 8e-10 of max|hess| (its passes
                # carry 1/w_perp terms that cancel); the closed form stays
                # within 1e-15 of a 50-digit evaluation there
                tol = 1e-9 if kind == "axis" and p < 1.0 else 1e-12
                assert np.max(np.abs(h - h0)) <= tol * np.max(np.abs(h0))
                assert float(g @ w) == pytest.approx(r, rel=1e-12)
                assert np.max(np.abs(h @ w)) <= 1e-12 * np.max(np.abs(h)) * np.linalg.norm(w)


def test_metric_identity_at_the_outer_rim():
    # H = 2, p = 0.5 vectors near r_sup that missed |y.g.y - F^2| <= 1e-10 F^2
    # while the radial Hessian came from hyper-dual passes (1.03e-10,
    # 1.05e-10 and 1.09e-10 of F^2)
    params = Parameters(H=2.0, p=0.5)
    for y in (
        [8.323197149593645, -0.019855688864458414, -0.06412036162409011, 0.053458916554672505],
        [5.6199348458217635, -0.0016916348549296267, 0.03645645644706303, 0.026935028533229273],
        [4.294196891857648, -0.03852052766267365, 0.0055324762419899955, 0.03224109908103943],
    ):
        y = np.array(y)
        f = finsler_norm(y, params=params)
        g = metric_tensor(y, None, params).g
        assert abs(float(y @ g @ y) - f * f) <= 1e-10 * f * f


def test_angular_metric_near_axis_pseudo_euclidean():
    y = np.array([1.0, 1e-7, 0.0, 1e-7])
    h = angular_metric(y, None, PSEUDO)
    np.testing.assert_allclose(h, np.diag([0.0, -1.0, -1.0, -1.0]), atol=1e-6)


def test_angular_metric_annihilates_the_vector():
    for y in sample_vectors(ANISO, 30, 31):
        h = angular_metric(y, None, ANISO)
        scale = np.max(np.abs(h)) * np.linalg.norm(y)
        assert np.max(np.abs(h @ y)) < 1e-10 * scale


def test_two_component_routes_agree():
    rng = np.random.default_rng(37)
    for params in (ANISO, Parameters(H=1.5, p=0.9), Parameters(H=2.0, p=0.5)):
        for y in sample_vectors(params, 30, rng):
            h_comp = angular_metric(y, None, params)
            h_angle = angular_metric_angle_form(y, None, params)
            scale = np.max(np.abs(h_comp))
            assert np.max(np.abs(h_comp - h_angle)) < 1e-9 * scale


def test_angle_gradients_annihilate_the_vector():
    for y in sample_vectors(ANISO, 20, 41):
        grads = angle_gradients(y, None, ANISO)
        norm_y = np.linalg.norm(y)
        for g in (grads.eta_grad, grads.theta_grad, grads.phi_grad):
            assert abs(float(g @ y)) < 1e-10 * max(1.0, np.linalg.norm(g) * norm_y)


def test_angle_gradients_match_finite_differences():
    # sampled away from both radial boundaries: the finite-difference
    # oracle itself degrades where the angle chart steepens
    rng = np.random.default_rng(43)
    for y in sample_vectors(ANISO, 10, rng, eta_margin=0.35, eta_span=1.2):
        grads = angle_gradients(y, None, ANISO)
        step = 1e-6 * np.linalg.norm(y)

        def angles_at(vec):
            coords, _ = angles_from_vector(frame_components(vec), ANISO)
            return np.array([coords.eta, coords.theta, coords.phi])

        for i in range(4):
            e = np.zeros(4)
            e[i] = step
            fd = (angles_at(y + e) - angles_at(y - e)) / (2.0 * step)
            assert grads.eta_grad[i] == pytest.approx(fd[0], rel=1e-6, abs=1e-6)
            assert grads.theta_grad[i] == pytest.approx(fd[1], rel=1e-6, abs=1e-6)
            assert grads.phi_grad[i] == pytest.approx(fd[2], rel=1e-6, abs=1e-6)


def test_angle_gradients_isotropic_reduce_to_spherical():
    # at p = 1 the azimuthal/polar gradients are the spherical-angle gradients
    params = Parameters(H=1.2, p=1.0)
    for y in sample_vectors(params, 10, 47):
        grads = angle_gradients(y, None, params)
        _, theta_expected = dm.gradient(
            lambda a, b, c, d: dm.atan2(dm.sqrt(b * b + c * c), d), y
        )
        _, phi_expected = dm.gradient(lambda a, b, c, d: dm.atan2(c, b), y)
        np.testing.assert_allclose(grads.theta_grad, theta_expected, atol=1e-12)
        np.testing.assert_allclose(grads.phi_grad, phi_expected, atol=1e-12)


def test_angle_gradients_axis_rejected():
    with pytest.raises(PolarAxisSingular):
        angle_gradients([1.0, 0.0, 0.0, 0.28], None, ANISO)


def test_metric_tensor_rejects_non_finite_components():
    for y in ([2.0, 0.2, 0.1, math.nan], [math.inf, 0.2, 0.1, 0.4]):
        with pytest.raises(ValueError, match="finite"):
            metric_tensor(y, None, ANISO)


def test_metric_tensor_pseudo_euclidean():
    for y in sample_vectors(PSEUDO, 10, 53):
        tb = metric_tensor(y, None, PSEUDO)
        np.testing.assert_allclose(tb.g, np.diag([1.0, -1, -1, -1]), atol=1e-11)
        assert tb.det_g == pytest.approx(-1.0, abs=1e-10)


def test_metric_tensor_single_evaluation_chain(monkeypatch):
    # the inversion runs in kernel._inverted_profile, whose slot on params serves a repeat
    calls = {"projections": 0, "eta_from_r": 0, "_radial_parts": 0, "hessian": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(tensors, "projections")
    counted(kernel, "eta_from_r")
    counted(tensors, "_radial_parts")
    counted(tensors.dm, "hessian")
    for params in (
        Parameters(H=1.0, p=1.0),
        Parameters(H=1.25, p=0.8),
        Parameters(H=1.5, p=0.9),
        Parameters(H=2.0, p=0.5),
    ):
        for y in sample_vectors(params, 5, 67):
            for key in calls:
                calls[key] = 0
            tb = metric_tensor(y, None, params)
            assert calls == {
                "projections": 1,
                "eta_from_r": 1,
                "_radial_parts": 1,
                "hessian": 0,
            }
            calls["eta_from_r"] = 0
            again = metric_tensor(y, None, params)
            assert calls["eta_from_r"] == 0
            assert again.F == tb.F and np.array_equal(again.g, tb.g)
            assert np.array_equal(tb.l, unit_covector(y, None, params))
            assert np.array_equal(tb.h, angular_metric(y, None, params))
            assert np.array_equal(tb.g, tb.h + np.outer(tb.l, tb.l))


def _radial_parts_by_index(w1, w2, w3, params):
    """``_radial_parts``' closed forms assembled in index order over ``packing(3)``."""
    fn = dm.library(w1, w2, w3)
    pairs = packing(3)[0]
    if params.p == 1.0:
        s = w1 * w1 + w2 * w2 + w3 * w3
        fp, fpp = 0.5 / fn.sqrt(s), -0.25 / s ** 1.5
        zero = 0.0 * w1 + 0.0 * w2 + 0.0 * w3
        d = (2.0 * w1 + zero, 2.0 * w2 + zero, 2.0 * w3 + zero)
        hess = [fpp * d[a] * d[b] + (2.0 if a == b else 0.0) * fp for a, b in pairs]
        return fn.sqrt(s), [fp * x for x in d], hess
    gp = params.azimuthal_skew
    rho = (math.hypot if fn is math else np.hypot)(w1, w2)
    x = w3 - gp * params.p * rho
    y = params.p * rho
    k2 = x * x + y * y
    r = fn.sqrt(k2) * _spiral(fn.atan2(y, x), params)
    n1, n2 = w1 / rho, w2 / rho
    u = (-w3 * n1, -w3 * n2, rho)
    m = (-n2, n1, 0.0 * rho)
    rk2, rk4 = r / k2, r / (k2 * k2)
    hess = [rk4 * (u[a] * u[b]) + rk2 * (m[a] * m[b]) for a, b in pairs]
    return r, [rk2 * w1, rk2 * w2, rk2 * (x - gp * y)], hess


def _metric_tensor_by_index(y, params):
    """(l, h, g, det g, F) assembled in index order over ``packing(3)`` and ``packing(4)``."""
    b, w = tensors._frame_point(y, None, params)
    r, grad, hess = _radial_parts_by_index(*w, params)
    sh, _, v, v_r, v_rr = tensors._profile_factors(r, params)
    l = [v * (1.0 + (params.p ** 2 / params.H ** 2) * sh * sh)] + [v_r * x for x in grad]
    vv, vr = v * v_rr, v * v_r
    h = [vv * r * r] + [-vv * r * x for x in grad] + [
        vv * (grad[a] * grad[c]) + vr * x for (a, c), x in zip(packing(3)[0], hess)]
    g = _unpack([x + l[a] * l[c] for (a, c), x in zip(packing(4)[0], h)], 4)
    return np.array(l), _unpack(h, 4), g, float(np.linalg.det(g)), b * v


def _finsleroid3_metric_by_index(w1, w2, w3, params):
    """``finsleroid3_metric``'s d_a r d_b r + r d_ab r in index order over ``packing(3)``."""
    r, grad, hess = _radial_parts(w1, w2, w3, params)
    return _unpack([grad[a] * grad[b] + r * x for (a, b), x in zip(packing(3)[0], hess)], 3)


def _bundle_by_index(fc, params):
    """Angles and ``EvalBundle`` entries of ``angles_from_vector``, written out: theta = atan2(Y,
    X) of the spiral, rho = hypot(w1, w2), Y = p rho and X = w3 - gp p rho, r = |X + iY| I
    (|w| at p = 1), U = r/w3 and R2 = I/U."""
    rho = math.hypot(fc.w1, fc.w2)
    x, y = fc.w3 - params.azimuthal_skew * params.p * rho, params.p * rho
    theta = math.atan2(y, x)
    big_i = math.exp(params.azimuthal_skew * theta)
    k2 = fc.w1 * fc.w1 + fc.w2 * fc.w2 + fc.w3 * fc.w3 if params.p == 1.0 else x * x + y * y
    r = math.sqrt(k2) * big_i
    eta = eta_from_r(r, params)
    a, r1v, j, y1, v, _ = hyperbolic_profile(eta, params)
    u = r / fc.w3
    return [eta, theta, _azimuth(fc.w1, fc.w2), a, r1v, j, y1, v, r, big_i / u, big_i, u,
            params.p * fc.w, fc.b * v]


def _bits(*values):
    return np.asarray(values, dtype=float).tobytes()


# the five benchmark pairs and (50, 0.05); p = 1 vectors are also taken with w3 < 0
BIT_PAIRS = ((1.0, 1.0), (1.25, 1.0), (1.25, 0.8), (1.5, 0.9), (2.0, 0.5), (50.0, 0.05))


@pytest.mark.parametrize("H, p", BIT_PAIRS)
def test_straight_line_tensors_match_the_index_order_assembly_bit_for_bit(H, p):
    params = Parameters(H=H, p=p)
    ys = sample_vectors(params, 60, 71)
    if p == 1.0:
        ys = np.concatenate([ys, ys * [1.0, 1.0, -1.0, -1.0], ys * [1.0, -1.0, 1.0, -1.0]])
    rows = np.array([projections(y, Tetrad.canonical())[1:] for y in ys])
    for got, want in zip(_radial_parts(*rows.T, params), _radial_parts_by_index(*rows.T, params)):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    want = _finsleroid3_metric_by_index(*rows.T, params)
    assert finsleroid3_metric(rows, params).tobytes() == want.tobytes()
    for w in rows.tolist():
        r, grad, hess = _radial_parts(*w, params)
        r0, grad0, hess0 = _radial_parts_by_index(*w, params)
        assert _bits(r, *grad, *hess) == _bits(r0, *grad0, *hess0)
        want = _finsleroid3_metric_by_index(*w, params)
        assert finsleroid3_metric(w, params).tobytes() == want.tobytes()
    for y, w in zip(ys, rows):
        tb = metric_tensor(y, None, params)
        l, h, g, det, f = _metric_tensor_by_index(y, params)
        assert _bits(*tb.l, *tb.h.ravel(), *tb.g.ravel(), tb.det_g, tb.F) == _bits(
            *l, *h.ravel(), *g.ravel(), det, f)
        assert unit_covector(y, None, params).tobytes() == l.tobytes()
        assert angular_metric(y, None, params).tobytes() == h.tobytes()
        if w[2] > 0.0:  # the angles need the axial region, at p = 1 too
            fc = frame_components(y)
            coords, eb = angles_from_vector(fc, params)
            assert _bits(coords.eta, coords.theta, coords.phi, eb.A, eb.R1, eb.J, eb.Y1, eb.V,
                         eb.r, eb.R2, eb.I, eb.U, eb.f, eb.F) == _bits(*_bundle_by_index(fc, params))


def _hexes(fields):
    """float.hex of each (name, value): finite, but for frame_components' t, inf on w1 = 0."""
    out = []
    for name, x in fields:
        x = np.asarray(x, dtype=float).ravel()  # near_boundary, a bool, reads 0.0 or 1.0
        assert name == "t" or np.all(np.isfinite(x)), (name, x)
        out += [float(e).hex() for e in x]
    return out


# a report scan row's four calls (perfbench's scan_row), each as (name, value) pairs
SCAN_CALLS = {
    "frame_components": lambda y, params: vars(frame_components(y)).items(),
    "angles_from_vector": lambda y, params: [
        item for part in angles_from_vector(frame_components(y), params)
        for item in vars(part).items()],
    "metric_tensor": lambda y, params: vars(metric_tensor(y, None, params)).items(),
    "metric_determinant_closed": lambda y, params: [
        ("det", metric_determinant_closed(y, None, params))],
}


def _scan_outcome(name, y, params):
    """A scan-row call's floats as float.hex, or its error's type and message."""
    try:
        return _hexes(SCAN_CALLS[name](y, params))
    except (FinsleroidError, ValueError) as exc:
        return type(exc), str(exc)


def _count_inversions(monkeypatch):
    """Count kernel.eta_from_r calls, where ``_inverted_profile`` inverts on a miss."""
    radii = []
    original = kernel.eta_from_r
    monkeypatch.setattr(kernel, "eta_from_r", lambda r, params: radii.append(r) or original(r, params))
    return radii


@pytest.mark.parametrize("H, p", BIT_PAIRS)
def test_a_shared_parameters_gives_each_scan_call_its_fresh_bits(monkeypatch, H, p):
    # one Parameters across rows and calls, in both orders: its slot serves the radii a row
    # repeats, with the bits of each call made on a new Parameters
    radii = _count_inversions(monkeypatch)
    shared = Parameters(H=H, p=p)
    ys = sample_vectors(shared, 40, 73)
    shared_inversions = 0
    for order in (list(SCAN_CALLS), list(SCAN_CALLS)[::-1]):
        for y in ys:
            fresh = [_scan_outcome(name, y, Parameters(H=H, p=p)) for name in order]
            before = len(radii)
            assert [_scan_outcome(name, y, shared) for name in order] == fresh
            shared_inversions += len(radii) - before
    # one inversion per row in each order: the angle, tensor and determinant calls share the
    # spiral's r bit for bit (3 inversions per row without the slot)
    assert shared_inversions == 2 * len(ys)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    log_h_gap=st.one_of(st.none(), st.floats(min_value=-12.0, max_value=4.0)),
    log_p=st.one_of(st.just(0.0), st.floats(min_value=-2.0, max_value=0.0)),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    scale=st.sampled_from((1e-300, 1e-100, 1e-8, 1.0, 1e8, 1e100, 1e300)),
    tilts=st.lists(st.floats(min_value=0.5, max_value=1.5), min_size=1, max_size=3),
    reverse=st.booleans(),
)
def test_scan_calls_on_a_shared_parameters_property(log_h_gap, log_p, seed, scale, tilts,
                                                    reverse):
    # H - 1 log-uniform on [1e-12, 1e4] or 0, p on [0.01, 1]; scaled sampler vectors, their
    # spatial part tilted off the domain too: each call ends finite or typed, as on a fresh
    # Parameters
    H = 1.0 if log_h_gap is None else 1.0 + 10.0 ** log_h_gap
    p = 10.0 ** log_p
    shared = Parameters(H=H, p=p)
    try:
        base = sample_vectors(shared, 1, seed)[0]
    except FinsleroidError:  # no domain to sample: the (2, 0.5) golden's vector
        base = np.array([4.65668704, 0.03959194, -0.11861117, 0.18268289])
    order = list(SCAN_CALLS)[::-1] if reverse else list(SCAN_CALLS)
    for tilt in tilts:
        y = scale * np.concatenate([base[:1], tilt * base[1:]])
        for name in order:
            assert _scan_outcome(name, y, shared) == _scan_outcome(name, y, Parameters(H=H, p=p))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    log_h_gap=st.one_of(st.none(), st.floats(min_value=-12.0, max_value=4.0)),
    log_p=st.one_of(st.just(0.0), st.floats(min_value=-2.0, max_value=0.0)),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    scale=st.sampled_from((1e-300, 1e-100, 1e-8, 1.0, 1e8, 1e100, 1e300)),
    tilts=st.lists(st.floats(min_value=0.5, max_value=1.5), min_size=1, max_size=3),
)
def test_one_norm_and_one_radius_per_vector_property(log_h_gap, log_p, seed, scale, tilts):
    # the draws of test_scan_calls_on_a_shared_parameters_property, and the sampled vector
    # untilted (tilts mostly leave the narrow p < 1 radial domain): finsler_norm ends finite or
    # typed, and where the norm, the angles and the tensors all answer they share one F and
    # one r, bit for bit (the spiral rounded once)
    H = 1.0 if log_h_gap is None else 1.0 + 10.0 ** log_h_gap
    p = 10.0 ** log_p
    params = Parameters(H=H, p=p)
    try:
        base = sample_vectors(params, 1, seed)[0]
    except FinsleroidError:
        base = np.array([4.65668704, 0.03959194, -0.11861117, 0.18268289])
    for tilt in (1.0, *tilts):
        y = scale * np.concatenate([base[:1], tilt * base[1:]])
        try:
            norm = finsler_norm(y, None, params)
        except FinsleroidError:
            continue
        assert math.isfinite(norm), (H, p, y)
        try:
            _, bundle = angles_from_vector(frame_components(y), params)
            tb = metric_tensor(y, None, params)
        except (FinsleroidError, ValueError):  # ValueError: s2 = y.a.y overflows
            continue
        assert _bits(norm, bundle.F) == _bits(tb.F, tb.F), (H, p, y)
        assert bundle.r == _radial_parts(*projections(y, Tetrad.canonical())[1:], params)[0]


def test_overflowing_lu_determinant_is_a_domain_error():
    # det g overflows a double at p = 0.02; numpy's LU warns first, which may be an error
    params = Parameters(H=2.0, p=0.02)
    y = [47.17978965035082, -7.876622695296942e-54, 4.118232670337632e-54, 8.993258062840328e-54]
    for action in ("error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            with pytest.raises(DomainError, match="det g overflows"):
                metric_tensor(y, None, params)


def test_metric_tensor_norm_identity_and_signature():
    for params in (ANISO, Parameters(H=1.5, p=0.9)):
        for y in sample_vectors(params, 30, 59):
            tb = metric_tensor(y, None, params)
            assert float(y @ tb.g @ y) == pytest.approx(tb.F**2, rel=1e-10)
            eigs = np.linalg.eigvalsh(tb.g)
            assert np.sum(eigs > 0) == 1
            assert np.sum(eigs < 0) == 3


def test_metric_three_routes_agree():
    rng = np.random.default_rng(61)
    for params in (ANISO, Parameters(H=2.0, p=0.5)):
        for y in sample_vectors(params, 15, rng):
            h1 = angular_metric(y, None, params)
            h2 = angular_metric_angle_form(y, None, params)
            h3 = metric_tensor_numeric(y, None, params).h
            scale = np.max(np.abs(h1))
            assert np.max(np.abs(h1 - h2)) < 1e-8 * scale
            assert np.max(np.abs(h1 - h3)) < 1e-8 * scale
            assert np.max(np.abs(h2 - h3)) < 1e-8 * scale


def test_angle_route_stays_on_the_component_route_at_the_equator():
    # the angle route's theta and R2 = I w3/r come from the spiral, so nothing cancels as
    # w3 -> 0 (measured worst 2.2e-14 max|h|, on the (3, 0.3) ladder); its old R2 = cos theta
    # + gp sin theta drifted by 8e-3 at k = 14 on the (2, 0.5) ladder and by 1e8 at k = 18
    for (H, p), y in EQUATOR_VECTORS:
        params = Parameters(H=H, p=p)
        h = angular_metric(y, None, params)
        drift = np.max(np.abs(angular_metric_angle_form(y, None, params) - h))
        assert drift <= 1e-12 * np.max(np.abs(h)), (H, p, y, drift)


def test_determinant_closed_form_pseudo_euclidean():
    for y in sample_vectors(PSEUDO, 10, 67):
        assert metric_determinant_closed(y, None, PSEUDO) == pytest.approx(
            -1.0, abs=1e-12
        )


def test_determinant_closed_vs_numeric():
    rng = np.random.default_rng(71)
    for params in (ANISO, Parameters(H=1.5, p=0.9), Parameters(H=2.0, p=0.5)):
        for y in sample_vectors(params, 30, rng):
            det_lu = metric_tensor(y, None, params).det_g
            det_cf = metric_determinant_closed(y, None, params)
            assert det_lu == pytest.approx(det_cf, rel=1e-9)
            assert det_cf < 0.0


def test_determinant_polar_angle_independence():
    from finsleroid import AngleCoords, vector_from_angles
    from finsleroid.kernel import domain_info

    dom = domain_info(ANISO)
    base = dict(eta=dom.eta_min + 0.9, theta=0.7)
    dets = []
    for phi in np.linspace(0.1, 6.0, 12):
        fc = vector_from_angles(AngleCoords(phi=phi, **base), 1.4, ANISO)
        y = np.array([fc.b, fc.b * fc.w1, fc.b * fc.w2, fc.b * fc.w3])
        dets.append(metric_determinant_closed(y, None, ANISO))
    dets = np.array(dets)
    assert np.max(np.abs(dets - dets[0])) < 1e-10 * abs(dets[0])


def test_section_metric_isotropic_is_identity():
    m = finsleroid3_metric([0.3, -0.2, 0.5], Parameters(H=1.5, p=1.0))
    np.testing.assert_allclose(m, np.eye(3), atol=1e-12)


def test_section_metric_euler_identity():
    rng = np.random.default_rng(73)
    params = Parameters(H=1.5, p=0.6)
    for _ in range(20):
        w = np.concatenate([rng.uniform(-0.5, 0.5, 2), rng.uniform(0.1, 0.9, 1)])
        m = finsleroid3_metric(w, params)
        r = float(radial_from_ratios(*w, params))
        assert float(w @ m @ w) == pytest.approx(r * r, rel=1e-12)


def test_section_metric_positive_definite():
    rng = np.random.default_rng(79)
    params = Parameters(H=1.5, p=0.6)
    for _ in range(100):
        w = np.concatenate([rng.uniform(-0.5, 0.5, 2), rng.uniform(0.05, 0.9, 1)])
        eigs = np.linalg.eigvalsh(finsleroid3_metric(w, params))
        assert np.all(eigs > 0.0)


def test_section_metric_axis_flagged():
    with pytest.raises(PolarAxisSingular):
        finsleroid3_metric([0.0, 0.0, 0.5], Parameters(H=1.5, p=0.6))
    with pytest.raises(OutsideAxialRegion):
        finsleroid3_metric([0.1, 0.1, -0.5], Parameters(H=1.5, p=0.6))


def test_tensors_transform_to_natural_coordinates():
    # boosted tetrad: scalars are invariant, tensors transform by congruence
    chi = 0.4
    e = np.eye(4)
    b = math.cosh(chi) * e[0] + math.sinh(chi) * e[1]
    i = math.sinh(chi) * e[0] + math.cosh(chi) * e[1]
    tetrad = Tetrad.from_covectors(b, i, e[2], e[3])
    for y in sample_vectors(ANISO, 10, 83, tetrad=tetrad):
        f = finsler_norm(y, tetrad, ANISO)
        tb = metric_tensor(y, tetrad, ANISO)
        g_nat = tensor_to_natural(tb.g, tetrad)
        l_nat = covector_to_natural(tb.l, tetrad)
        assert float(y @ g_nat @ y) == pytest.approx(f * f, rel=1e-10)
        assert float(l_nat @ y) == pytest.approx(f, rel=1e-10)
