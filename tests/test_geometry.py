"""Interfaces, flattening, radial extension, speed bounds and cones."""
import copy
import dataclasses
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

import discflux as dx
from conftest import CURVED_MODULATED_SPEC, component_value, dense_bounds, lambda_derivative
from discflux.flux import PiecewiseFlux, poly_component
from discflux.geometry import (
    Interface,
    flatten_model,
    flattened_box,
    halton,
    project_to_ball,
    radial_extend,
    radial_extend_model,
    speed_bound,
    transformed_normal_flux,
)
from discflux.presets import flux_from_spec, interface_from_spec


def _model_2d(f1_coeffs, f2_coeffs, interface):
    return PiecewiseFlux(
        d=2,
        left=(poly_component(f1_coeffs), poly_component(f2_coeffs)),
        right=(poly_component(f1_coeffs), poly_component(f2_coeffs)),
        interface=interface,
        a=0.0,
        b=1.0,
        domain=dx.Box((-1.0, -1.0), (1.0, 1.0)),
    )


# ---------------------------------------------------------------------------
# flattening


def test_flatten_zero_interface_is_identity():
    itf = Interface(0, 2, (0.0,))
    pts = np.array([[0.3, -0.7], [1.0, 2.0]])
    np.testing.assert_array_equal(itf.flatten(pts), pts)


def test_flatten_quadratic_interface_point():
    itf = Interface(0, 2, (0.0, 0.0, 1.0))  # zeta(s) = s^2
    out = itf.flatten(np.array([1.0, 2.0]))
    np.testing.assert_allclose(out, [-3.0, 2.0], atol=1e-15)


def test_flatten_roundtrip_on_random_points():
    itf = Interface(0, 2, (0.1, -0.4, 0.8))
    rng = np.random.default_rng(2)
    pts = rng.uniform(-2.0, 2.0, (1000, 2))
    back = itf.unflatten(itf.flatten(pts))
    np.testing.assert_allclose(back, pts, atol=1e-14)


def test_zeta_gradient_crosschecks_central_differences():
    itf = Interface(0, 2, (0.1, -0.4, 0.8))
    rng = np.random.default_rng(4)
    xh = rng.uniform(-2.0, 2.0, (200, 1))
    h = 1e-6
    fd = (itf.zeta(xh + h) - itf.zeta(xh - h)) / (2 * h)
    g = itf.zeta_gradient(xh)[..., 0]
    assert np.all(np.abs(g - fd) <= 1e-6 * (1.0 + np.abs(g)))


def test_interface_spec_roundtrip():
    itf = interface_from_spec({"axis": 2, "zeta": {"kind": "affine", "coeffs": [0.1, 0.5]}}, d=2)
    assert itf.axis == 1
    assert itf == Interface(1, 2, (0.1, 0.5))
    # an affine zeta is the polynomial with the same coefficients
    again = interface_from_spec({"axis": 2, "zeta": {"kind": "poly", "coeffs": [0.1, 0.5]}}, d=2)
    assert again == itf
    pts = np.array([[0.2, 0.3], [-1.0, 0.7]])
    np.testing.assert_array_equal(again.flatten(pts), itf.flatten(pts))


def test_interface_rejects_out_of_range_axis():
    with pytest.raises(ValueError, match="axis"):
        interface_from_spec({"axis": 3, "zeta": {"kind": "zero", "coeffs": []}}, d=2)


def test_zero_interface_specs_read_back():
    # with or without their zero coefficients (nonzero ones are refused)
    for spec in ({"axis": 1, "zeta": {"kind": "zero", "coeffs": [0.0]}},
                 {"axis": 1, "zeta": {"kind": "zero", "coeffs": []}},
                 {"axis": 1, "zeta": {"kind": "zero"}}):
        assert interface_from_spec(spec, d=1) == Interface(0, 1, (0.0,))
    with pytest.raises(ValueError, match="nonzero"):
        interface_from_spec({"axis": 1, "zeta": {"kind": "zero", "coeffs": [0.4]}}, d=1)


# ---------------------------------------------------------------------------
# transformed normal flux


def test_transformed_flux_constant_zeta_is_normal_component():
    itf = Interface(0, 2, (0.7, 0.0))
    model = _model_2d([0.0, 1.0], [0.0, 0.0, 1.0], itf)
    comp = transformed_normal_flux(model.left, itf)
    pts = np.array([[0.9, -0.3], [0.7, 1.4]])
    lam = np.array([0.2, 0.8])
    np.testing.assert_allclose(component_value(comp, pts, lam), component_value(model.left[0], pts, lam), atol=1e-15)


def test_transformed_flux_unit_slope():
    # zeta(s) = s, f1 = lam, f2 = lam^2, so the normal flux becomes lam - lam^2
    itf = Interface(0, 2, (0.0, 1.0))
    model = _model_2d([0.0, 1.0], [0.0, 0.0, 1.0], itf)
    comp = transformed_normal_flux(model.right, itf)
    lam = np.linspace(0.0, 1.0, 11)
    pts = np.tile([0.4, -0.6], (11, 1))
    np.testing.assert_allclose(component_value(comp, pts, lam), lam - lam**2, atol=1e-14)


def test_transformed_flux_quadratic_zeta_matches_symbolic_oracle():
    alpha, beta, gamma = 0.3, -0.1, 0.05
    itf = Interface(0, 2, (gamma, beta, alpha))
    model = _model_2d([0.0, 2.0], [0.0, 0.0, 1.0], itf)
    comp = transformed_normal_flux(model.left, itf)

    rng = np.random.default_rng(9)
    pts = rng.uniform(-1.0, 1.0, (300, 2))
    lam = rng.uniform(0.0, 1.0, 300)
    # oracle: F1 = 2 lam - zeta'(x2) lam^2 with zeta'(s) = 2 alpha s + beta
    oracle = 2.0 * lam - (2.0 * alpha * pts[:, 1] + beta) * lam**2
    np.testing.assert_allclose(component_value(comp, pts, lam), oracle, atol=1e-13)

    fd = (component_value(comp, pts, lam + 1e-6) - component_value(comp, pts, lam - 1e-6)) / 2e-6
    np.testing.assert_allclose(lambda_derivative(comp, pts, lam), fd, atol=1e-7)


def test_flatten_model_keeps_a_flat_model():
    # flattening an already flat model would append each tangential
    # component's terms again, with -0.0 factors
    flat = flatten_model(dx.preset("tilted_2d"))
    assert flat.interface.flat and not dx.preset("tilted_2d").interface.flat
    assert flatten_model(flat) is flat
    assert len(flatten_model(flat).left[0](np.zeros((1, 2)))) == 2


def test_flatten_model_kills_interface_offset():
    model = dx.preset("tilted_2d")
    flat = flatten_model(model)
    assert flat.interface == Interface(0, 2, (0.0,))
    # normal flux on the left picks up -0.2 * f2
    pts = np.array([[-0.4, 0.5]])
    lam = 0.6
    expected = component_value(model.left[0], pts, lam) - 0.2 * component_value(model.left[1], pts, lam)
    np.testing.assert_allclose(component_value(flat.left[0], pts, lam), expected, atol=1e-14)


def test_flattened_box_takes_an_interior_minimum_exactly():
    # zeta = 0.5 s^2 is 0 at s = 0, between the corners, where it is 0.5
    fbox = flattened_box(dx.Box((-1.0, -1.0), (1.0, 1.0)), Interface(0, 2, (0.0, 0.0, 0.5)))
    assert fbox == dx.Box((-1.5, -1.0), (1.0, 1.0))
    # a constant zeta in 1d shifts the interval
    assert flattened_box(dx.Box((-1.0,), (1.0,)), Interface(0, 1, (0.25,))) == dx.Box((-1.25,), (0.75,))


def test_flattened_box_reaches_both_interior_extremes():
    # zeta = s - s^3 is +-2 / (3 sqrt 3) at s = +-1 / sqrt 3 and 0 at the corners
    fbox = flattened_box(dx.Box((-1.0, -1.0), (1.0, 1.0)), Interface(0, 2, (0.0, 1.0, 0.0, -1.0)))
    edge = 1.0 + 2.0 / (3.0 * np.sqrt(3.0))
    np.testing.assert_allclose([fbox.lows[0], fbox.highs[0]], [-edge, edge], rtol=0, atol=1e-15)
    assert (fbox.lows[1], fbox.highs[1]) == (-1.0, 1.0)


def _dense_tangential(itf, lo, hi):
    """A dense grid on [lo, hi] plus grids refined four times, 100-fold
    each, around every discrete local extremum of zeta on it: each sample
    not below its neighbours (an end has one), and of a run of such samples
    only the first and the last.  Ties count, since zeta may peak between
    two tied samples; the inner samples of a run do not, so that a constant
    zeta is refined at its two ends only."""
    s = np.linspace(lo, hi, 2001)
    out = [s]
    for sign in (1.0, -1.0):
        v = np.pad(sign * itf.zeta(s[:, None]), 1, constant_values=-np.inf)
        top = np.pad((v[1:-1] >= v[:-2]) & (v[1:-1] >= v[2:]), 1)
        for c in s[top[1:-1] & ~(top[:-2] & top[2:])]:
            h = s[1] - s[0]
            for _ in range(4):
                t = np.linspace(max(lo, c - h), min(hi, c + h), 201)
                c, h = t[np.argmax(sign * itf.zeta(t[:, None]))], t[1] - t[0]
                out.append(t)
    return np.concatenate(out)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    axis=st.integers(0, 1),
    coeffs=st.lists(st.floats(-2.0, 2.0, allow_subnormal=False), min_size=1, max_size=5),
    lows=st.tuples(st.floats(-2.0, 1.0), st.floats(-2.0, 1.0)),
    widths=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)),
)
# zeta ties at its first two samples, 0 and 0.001, and peaks between them at 0.0005
@example(axis=0, coeffs=[0.0, 0.001, -1.0], lows=(0.0, 0.0), widths=(1.0, 2.0))
def test_flattened_box_is_the_hull_of_a_dense_flattened_grid(axis, coeffs, lows, widths):
    itf = Interface(axis, 2, tuple(coeffs))
    box = dx.Box(lows, tuple(lo + w for lo, w in zip(lows, widths)))
    fbox = flattened_box(box, itf)
    k = 1 - axis
    s = _dense_tangential(itf, box.lows[k], box.highs[k])
    pts = np.zeros((5, s.size, 2))
    pts[..., axis] = np.linspace(box.lows[axis], box.highs[axis], 5)[:, None]
    pts[..., k] = s
    flat = itf.flatten(pts).reshape(-1, 2)
    tol = 1e-12 * (1.0 + np.abs(flat).max())
    lows, highs = np.asarray(fbox.lows), np.asarray(fbox.highs)
    # every dense point lies in the box, and the dense points reach each edge
    assert np.all((flat >= lows - tol) & (flat <= highs + tol))
    assert np.all(flat.min(axis=0) <= lows + tol) and np.all(flat.max(axis=0) >= highs - tol)


# ---------------------------------------------------------------------------
# radial extension


def _smooth_field(x):
    pts = np.asarray(x, dtype=float)
    return np.sin(pts[..., 0]) + 0.5 * np.cos(2.0 * pts[..., 1])


def _ball_points(center, radius, n, seed):
    """n points of the closed ball B(center, radius): the center, the sphere
    points on the axes, then uniform draws."""
    c = np.asarray(center, dtype=float)
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n, c.size))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    pts = c + dirs * radius * rng.uniform(size=(n, 1)) ** (1.0 / c.size)
    fixed = np.concatenate([c[None], c + radius * np.eye(c.size), c - radius * np.eye(c.size)])
    return np.concatenate([fixed, pts])[:n]


def test_radial_extend_identity_inside():
    center = np.array([0.3, -0.2])
    ext = radial_extend(_smooth_field, center, 0.8)
    pts = _ball_points(center, 0.79, 100, seed=3)
    np.testing.assert_array_equal(ext(pts), _smooth_field(pts))


def test_radial_extend_projects_to_sphere():
    center = np.array([0.3, -0.2])
    R = 0.8
    ext = radial_extend(_smooth_field, center, R)
    far = center + np.array([2 * R, 0.0])
    on_sphere = center + np.array([R, 0.0])
    np.testing.assert_allclose(ext(far), _smooth_field(on_sphere), atol=1e-15)


def test_radial_extend_constant_along_rays():
    center = np.array([0.3, -0.2])
    R = 0.8
    ext = radial_extend(_smooth_field, center, R)
    rng = np.random.default_rng(13)
    for _ in range(50):
        v = rng.normal(size=2)
        v /= np.linalg.norm(v)
        ref = _smooth_field(center + R * v)
        for s in (R, 1.3 * R, 2.0 * R, 5.0 * R):
            np.testing.assert_allclose(ext(center + s * v), ref, atol=1e-12)


def test_radial_extend_lipschitz_not_inflated():
    center = np.array([0.3, -0.2])
    R = 0.8

    # oracle first: gradient max of the field over a dense sample of the ball
    pts = _ball_points(center, R, 4000, seed=5)
    grad_norm = np.sqrt(np.cos(pts[..., 0]) ** 2 + np.sin(2.0 * pts[..., 1]) ** 2)
    lip_ball = float(grad_norm.max())

    ext = radial_extend(_smooth_field, center, R)
    rng = np.random.default_rng(17)
    xa = rng.uniform(-2.0, 2.0, (10_000, 2))
    xb = rng.uniform(-2.0, 2.0, (10_000, 2))
    gap = np.linalg.norm(xa - xb, axis=-1)
    keep = gap > 1e-9
    quot = np.abs(ext(xa[keep]) - ext(xb[keep])) / gap[keep]
    # projection onto the ball is 1-Lipschitz, so quotients cannot exceed the
    # field's Lipschitz constant on the ball (small slack for the sampled max)
    assert quot.max() <= lip_ball * (1.0 + 1e-3)


def test_project_to_ball_idempotent():
    center = np.zeros(2)
    rng = np.random.default_rng(23)
    pts = rng.uniform(-3.0, 3.0, (200, 2))
    once = project_to_ball(pts, center, 1.0)
    np.testing.assert_allclose(project_to_ball(once, center, 1.0), once, atol=1e-15)
    assert np.all(np.linalg.norm(once, axis=-1) <= 1.0 + 1e-12)


def test_radial_extend_model_agrees_inside(burgers_model):
    ext = radial_extend_model(burgers_model, np.zeros(1), 0.4)
    pts = np.linspace(-0.39, 0.39, 21)[:, None]
    np.testing.assert_array_equal(ext.at(pts).value(0.3), burgers_model.at(pts).value(0.3))
    far = np.array([[0.45]])
    np.testing.assert_allclose(ext.at(far).value(0.3), burgers_model.at(np.array([[0.4]])).value(0.3), atol=1e-15)


# ---------------------------------------------------------------------------
# the term transformations against the closure formulas they replace


def _closure_transformed(model, itf, side, which):
    """F_j = f_j - sum_k zeta_grad_k f_k, evaluated component by component."""
    comps = model.left if side == "left" else model.right

    def fn(x, lam):
        g = itf.zeta_gradient(itf.tangential(x))
        out = which(comps[itf.axis], x, lam)
        for m, k in enumerate(itf.tangential_axes):
            out = out - g[..., m] * which(comps[k], x, lam)
        return out

    return fn


def test_transformations_match_their_closure_formulas():
    model = flux_from_spec(copy.deepcopy(CURVED_MODULATED_SPEC))
    itf = model.interface
    flat = flatten_model(model)
    center, radius = itf.flatten(np.zeros(2)), 0.6
    ext = radial_extend_model(flat, center, radius)

    rng = np.random.default_rng(41)
    pts = rng.uniform(-1.5, 1.5, (2000, 2))
    lam = rng.uniform(0.0, 1.0, 2000)
    inside = np.linalg.norm(pts - center, axis=-1) <= radius
    assert 0 < inside.sum() < len(pts)
    for side in ("left", "right"):
        for which in (component_value, lambda_derivative):
            closure = _closure_transformed(model, itf, side, which)
            np.testing.assert_allclose(which(getattr(flat, side)[itf.axis], pts, lam),
                                       closure(pts, lam), rtol=1e-14, atol=1e-14)
            for k in range(2):
                flat_fn = partial(which, getattr(flat, side)[k])
                ext_fn = partial(which, getattr(ext, side)[k])
                got = ext_fn(pts, lam)
                # identity inside the ball, the field at the projection outside
                np.testing.assert_array_equal(got[inside], flat_fn(pts[inside], lam[inside]))
                field = closure if k == itf.axis else flat_fn
                extended = radial_extend(field, center, radius)(pts, lam)
                np.testing.assert_allclose(got[~inside], extended[~inside], rtol=1e-14, atol=1e-14)


# ---------------------------------------------------------------------------
# speed bounds


def test_speed_bound_burgers_dense_oracle(burgers_model):
    # oracle first: dense lambda grid of |1 - 2 lam| over [0, 1]
    lam = np.linspace(0.0, 1.0, 200_001)
    oracle = float(np.abs(1.0 - 2.0 * lam).max())
    assert oracle == 1.0

    bound = speed_bound(burgers_model, dx.Box((-1.0,), (1.0,)))
    np.testing.assert_allclose(bound, oracle, atol=1e-12)


def test_speed_bound_two_flux_stacked_norm(two_flux_model):
    # oracle first: sqrt((1-2 lam)^2 + (2-4 lam)^2) peaks at the endpoints
    lam = np.linspace(0.0, 1.0, 200_001)
    stacked = np.sqrt((1.0 - 2.0 * lam) ** 2 + (2.0 - 4.0 * lam) ** 2)
    oracle = float(stacked.max())
    np.testing.assert_allclose(oracle, np.sqrt(5.0), atol=1e-12)

    bound = speed_bound(two_flux_model, dx.Box((-1.0,), (1.0,)))
    np.testing.assert_allclose(bound, np.sqrt(5.0), atol=1e-12)


def test_speed_bound_scales_homogeneously():
    c = 3.7
    base = _model_2d([0.0, 1.0, -1.0], [0.0, 0.0, 0.3], Interface(0, 2, (0.0,)))
    scaled = _model_2d([0.0, c, -c], [0.0, 0.0, 0.3 * c], Interface(0, 2, (0.0,)))
    nb = speed_bound(base, base.domain)
    ns = speed_bound(scaled, scaled.domain)
    np.testing.assert_allclose(ns, c * nb, rtol=1e-12)


def test_speed_bound_monotone_in_state_bound():
    def model(b):
        return PiecewiseFlux(
            d=1,
            left=(poly_component([0.0, 0.0, 0.5]),),
            right=(poly_component([0.0, 0.0, 0.5]),),
            interface=None,
            a=0.0,
            b=b,
            domain=dx.Box((-1.0,), (1.0,)),
        )

    n_small = speed_bound(model(0.3), dx.Box((-1.0,), (1.0,)))
    n_large = speed_bound(model(0.8), dx.Box((-1.0,), (1.0,)))
    np.testing.assert_allclose(n_small, 0.3, atol=1e-12)
    np.testing.assert_allclose(n_large, 0.8, atol=1e-12)
    assert n_small <= n_large


def test_dense_mixed_bound_reads_spatial_modulation():
    # the growth constant of criterion 9: |d^2 f / (dx dlam)| is 0.3 for the
    # x_ramp modulation and 0 for burgers, whose flux does not depend on x
    box = dx.Box((-1.0,), (1.0,))
    np.testing.assert_allclose(dense_bounds(dx.preset("x_ramp"), box, 33)[1], 0.3, atol=1e-12)
    np.testing.assert_allclose(dense_bounds(dx.preset("burgers"), box, 33)[1], 0.0, atol=1e-12)


# both sides evaluate the same polynomials in double precision, the bound at
# a bisected critical state and the oracle at a state next to it
ROUNDING = 1e-12


def _assert_certified(model, box, n_x):
    speed, _ = dense_bounds(model, box, n_x)
    assert speed_bound(model, box) >= speed - ROUNDING * (1.0 + speed)


_coeff = st.floats(-2.0, 2.0, allow_nan=False)
_component = st.tuples(
    st.lists(_coeff, min_size=1, max_size=4),  # q, so f = (u - a)(u - b) q has degree 2..5
    st.none() | st.lists(_coeff, min_size=3, max_size=3),  # affine modulation m0 + m . x
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    d=st.sampled_from([1, 2]),
    a=st.floats(-1.0, 0.5),
    width=st.floats(0.5, 2.0),
    left=st.lists(_component, min_size=2, max_size=2),
    right=st.none() | st.lists(_component, min_size=2, max_size=2),
    slope=st.none() | st.floats(-0.8, 0.8),
    lows=st.lists(st.floats(-2.0, 1.0), min_size=2, max_size=2),
    widths=st.lists(st.floats(0.2, 2.0), min_size=2, max_size=2),
)
def test_speed_bounds_dominate_the_dense_box_state_max(d, a, width, left, right, slope, lows, widths):
    b = a + width
    root_factor = np.polynomial.polynomial.polyfromroots([a, b])

    def family(side):
        out = []
        for q, m in side[:d]:
            comp = {"poly_lambda": np.polynomial.polynomial.polymul(root_factor, q).tolist()}
            if m is not None:
                comp.update({"x_modulation": "affine", "x_modulation_coeffs": m[: d + 1]})
            out.append(comp)
        return out

    box = dx.Box(tuple(lows[:d]), tuple(lo + w for lo, w in zip(lows, widths[:d])))
    interface = None
    if right is not None:
        coeffs = [0.0] if d == 1 else [0.1, 0.0 if slope is None else slope]
        interface = {"axis": 1, "zeta": {"kind": "affine", "coeffs": coeffs}}
    model = dataclasses.replace(flux_from_spec({"d": d, "a": a, "b": b, "interface": interface, "left": family(left),
                                                "right": None if right is None else family(right)}), domain=box)
    _assert_certified(model, box, 33 if d == 1 else 9)
    if d == 2 and interface is not None:
        # the flattened normal flux has a term per component, factors -zeta' m
        flat = flatten_model(model)
        _assert_certified(flat, flat.domain, 9)


def test_speed_bound_certified_where_the_ball_sample_was_not():
    # a 2d inline flux whose stacked norm peaks at a box corner at lam = 0:
    # the sampled ball x lambda-grid gave 1.7832, below the dense 1.8200
    model = flux_from_spec({
        "d": 2, "a": 0.0, "b": 1.0, "interface": None, "right": None,
        "left": [{"poly_lambda": [0.0, 1.0, -1.0], "x_modulation": "affine", "x_modulation_coeffs": [1.0, 0.3, 0.4]},
                 {"poly_lambda": [0.0, 0.5, -0.5], "x_modulation": "affine", "x_modulation_coeffs": [1.0, -0.2, 0.5]}],
    })
    box = dx.Box((-1.0, -1.0), (1.0, 1.0))
    speed, _ = dense_bounds(model, box, 41)
    assert round(speed, 4) == 1.8200
    bound = speed_bound(model, box)
    assert bound >= speed
    np.testing.assert_allclose(bound, np.hypot(1.7 * 1.0, 1.7 * 0.5), rtol=1e-14)


# ---------------------------------------------------------------------------
# Halton points, against scipy's unscrambled qmc.Halton


def test_halton_matches_scipy_bit_for_bit():
    from scipy.stats import qmc

    for d in (1, 2, 3):
        for n in (1, 8, 137, 2001):
            sampler = qmc.Halton(d=d, scramble=False)
            first, more = sampler.random(n), sampler.random(n + 5)
            assert_array_equal(halton(n, d).view(np.int64), first.view(np.int64))
            # a second draw continues the sequence
            assert_array_equal(halton(2 * n + 5, d)[n:].view(np.int64), more.view(np.int64))
