"""PiecewiseFlux.at against the per-call formulas it replaced (the oracles in
conftest), bit for bit as int64 views: on every shipped flux form, at points
exactly on the interface and at a -0.0 state."""
import copy
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import discflux as dx
from conftest import (
    CURVED_MODULATED_SPEC,
    admissible_specs,
    component_value,
    proportion,
    sharp_flux,
    smooth_divergence,
    smoothed_flux,
)
from discflux.entropy import ResidualWorkspace
from discflux.flux import horner
from discflux.geometry import flatten_model, transformed_normal_flux
from discflux.presets import flux_from_spec
from discflux.solver import Trajectory

EPS = 0.05
# a few ulps of the Horner scale: merged rows against the sides' sum
ROUNDING = 4 * np.finfo(float).eps


def _tilted():
    return dx.preset("tilted_2d")


def _curved():
    return flux_from_spec(copy.deepcopy(CURVED_MODULATED_SPEC))


MODELS = {
    "burgers": lambda: dx.preset("burgers"),
    "two_flux": lambda: dx.preset("two_flux"),
    "x_ramp": lambda: dx.preset("x_ramp"),
    "tilted_2d": _tilted,
    "tilted_2d_flattened": lambda: flatten_model(_tilted()),
    "curved_modulated": _curved,
    "curved_modulated_flattened": lambda: flatten_model(_curved()),
    # right = 3 x left: one merged row, 1.5 lam - 3 lam^2 with a root at b,
    # near which the oracle's side-by-side sum cancels
    "proportional_root": lambda: flux_from_spec({
        "d": 1, "a": 0.0, "b": 0.5, "interface": {"axis": 1, "zeta": {"kind": "zero"}},
        "left": [{"poly_lambda": [0.0, 0.5, -1.0]}], "right": [{"poly_lambda": [0.0, 1.5, -3.0]}]}),
}


def _points(model, n=240):
    """n points of the domain, a third of them exactly on the interface and
    a third within EPS of it."""
    rng = np.random.default_rng(17)
    box = model.domain
    pts = np.asarray(box.lows) + rng.uniform(0.0, 1.0, (n, model.d)) * box.widths
    itf = model.interface
    if itf is not None:
        j, third = itf.axis, n // 3
        zeta = itf.zeta(itf.tangential(pts))
        pts[:third, j] = zeta[:third]
        pts[third:2 * third, j] = zeta[third:2 * third] + rng.uniform(-EPS, EPS, third)
        assert (itf.offset(pts[:third]) == 0).all()
    return pts


def _states(model, shape):
    rng = np.random.default_rng(29)
    lam = rng.uniform(model.a, model.b, shape)
    flat = lam.reshape(-1)
    flat[:3] = -0.0, model.a, model.b
    flat[3:6] = 0.0
    return lam


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


def _single_term(model, pts, k):
    sides = (model.left,) if model.interface is None else (model.left, model.right)
    return all(len(comps[k](pts)) == 1 for comps in sides)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_value_and_divergence_match_the_per_call_formulas(name):
    model = MODELS[name]()
    pts = _points(model)
    flux = model.at(pts)
    for lam in (_states(model, pts.shape[:-1]), _states(model, (3,) + pts.shape[:-1]), -0.0):
        np.testing.assert_array_equal(_bits(flux.value(lam)), _bits(sharp_flux(model, pts, lam)))
        np.testing.assert_array_equal(_bits(flux.divergence(lam)), _bits(smooth_divergence(model, pts, lam)))


def _horner_scale(flux, k, lam):
    """sum over the sides' terms of |w * factor| * sum_j |c_j| |lam|^j, P
    evaluated at |c| and |lam|: the a-priori scale of the rounding of
    Horner's rule, which does not vanish at a root of P as |P| does.  Read
    from the sides, not from the merged rows."""
    sides = ((0, 1.0),) if flux.weights is None else enumerate(flux.weights)
    total = 0.0
    for side, w in sides:
        for coeffs, factor in flux.terms(side, k):
            v = horner(np.abs(lam), np.abs(coeffs))
            total = total + np.abs(w * (v if factor is None else factor * v))
    return total


def _side_sum(flux, k):
    """Whether the rows of component k are the sides' terms, one each, the
    oracle's operations: single-term sides that no merge folded together."""
    sides = 1 if flux.weights is None else 2
    return len(flux.rows(k)) == sides and all(len(flux.terms(side, k)) == 1 for side in range(sides))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_smoothed_matches_the_weighted_sides(name):
    # unmerged rows add w * (factor * P) term by term; the oracle adds the
    # sides w_L * sum(factor * P) + w_R * sum(...): the same operations for
    # single-term sides, a re-association for multi-term ones and for a row
    # that merges proportional terms, (w_L + s w_R) P, within a few ulps of
    # the Horner scale, as the oracle evaluates each side's polynomial on
    # its own and cancels near a root of it
    model = MODELS[name]()
    pts = _points(model)
    flux = model.at(pts, EPS)
    for lam in (_states(model, pts.shape[:-1]), _states(model, (3,) + pts.shape[:-1])):
        got = flux.value(lam)
        want = smoothed_flux(model, pts, lam, EPS)
        assert got.shape == want.shape
        for k in range(model.d):
            if _side_sum(flux, k):
                np.testing.assert_array_equal(_bits(got[..., k]), _bits(want[..., k]))
            else:
                error = np.abs(got[..., k] - want[..., k])
                assert np.all(error <= ROUNDING * _horner_scale(flux, k, lam))


# per axis, the sides' terms and the rows they make: proportional state
# polynomials share one row
ROW_COUNTS = {
    "burgers": ([1], [1]),
    "x_ramp": ([1], [1]),
    "two_flux": ([2], [1]),
    "tilted_2d": ([2, 2], [1, 1]),
    "tilted_2d_flattened": ([4, 2], [2, 1]),
    "proportional_root": ([2], [1]),
}


@pytest.mark.parametrize("name", sorted(ROW_COUNTS))
def test_one_row_per_state_polynomial(name):
    model = MODELS[name]()
    flux = model.at(_points(model), EPS)
    sides = 1 if model.interface is None else 2
    terms = [sum(len(flux.terms(side, k)) for side in range(sides)) for k in range(model.d)]
    assert (terms, [len(flux.rows(k)) for k in range(model.d)]) == ROW_COUNTS[name]
    # built once per axis
    assert all(flux.rows(k) is flux.rows(k) for k in range(model.d))


def _planted(spec, data):
    """spec, on each axis its right component's polynomial kept, or made r/4
    times the left one's, or r/4 times it plus (lam - a)(b - lam): one of
    the same degree that is no multiple of it unless it is a multiple of
    (lam - a)(b - lam).  Each side keeps its own modulation."""
    if spec["interface"] is not None:
        a, b = spec["a"], spec["b"]
        for k in range(spec["d"]):
            kind = data.draw(st.sampled_from(["drawn", "proportional", "shifted"]))
            r = data.draw(st.sampled_from([-4, 1, 2, 3, 8]))
            scaled = np.multiply(r / 4, spec["left"][k]["poly_lambda"])
            if kind == "proportional":
                spec["right"][k]["poly_lambda"] = scaled.tolist()
            elif kind == "shifted":
                spec["right"][k]["poly_lambda"] = np.polynomial.polynomial.polyadd(
                    scaled, [-a * b, a + b, -1.0]).tolist()
    return spec


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(admissible_specs(), st.data())
def test_rows_merge_exactly_the_proportional_terms(spec, data):
    model = flux_from_spec(_planted(spec, data))
    pts = _points(model, n=30)
    lam = np.random.default_rng(29).uniform(model.a, model.b, pts.shape[:-1])
    lam[:2] = model.a, model.b
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flux = model.at(pts, EPS)
        got = flux.value(lam)
    want = smoothed_flux(model, pts, lam, EPS)
    for k in range(model.d):
        coeffs = [c for c, _ in flux.rows(k)]
        assert all(proportion(p, q) is None for p, q in itertools.permutations(coeffs, 2))
        if _side_sum(flux, k):
            np.testing.assert_array_equal(_bits(got[..., k]), _bits(want[..., k]))
        else:
            # the oracle evaluates each side's polynomial on its own, which
            # cancels near a root of it
            assert np.all(np.abs(got[..., k] - want[..., k]) <= ROUNDING * _horner_scale(flux, k, lam))


@pytest.mark.parametrize("left, right", [([1.0], [1.0, 1.0]), ([1.0, 1.0], [2.0, -1.0])])
def test_rows_keep_polynomials_that_are_not_proportional(left, right):
    # (lam - a)(b - lam) q on each side: two rows, each w * P as before the
    # merge, for q = 1 and 1 + lam, of two degrees, and for q = 1 + lam and
    # 2 - lam, of one degree
    root = [0.0, 1.0, -1.0]
    spec = {"d": 1, "a": 0.0, "b": 1.0, "interface": {"axis": 1, "zeta": {"kind": "zero"}},
            "left": [{"poly_lambda": np.polynomial.polynomial.polymul(root, left).tolist()}],
            "right": [{"poly_lambda": np.polynomial.polynomial.polymul(root, right).tolist()}]}
    model = flux_from_spec(spec)
    pts = _points(model)
    lam = _states(model, pts.shape[:-1])
    for eps, want in ((EPS, smoothed_flux(model, pts, lam, EPS)), (None, sharp_flux(model, pts, lam))):
        flux = model.at(pts, eps)
        assert [c for c, _ in flux.rows(0)] == [c for side in (0, 1) for c, _ in flux.terms(side, 0)]
        for (_, factors), w in zip(flux.rows(0), flux.weights):
            np.testing.assert_array_equal(factors, [w])
        np.testing.assert_array_equal(_bits(flux.value(lam)), _bits(want))


@pytest.mark.parametrize("left, right, modulation", [
    ([0.0, 1e-300, -1e-300], [0.0, 1e300, -1e300], None),  # the ratio overflows
    ([0.0, 1.0, -1.0], [0.0, 1e300, -1e300], [1e10, 0.0]),  # the merged factor does
])
def test_rows_do_not_merge_an_overflow(left, right, modulation):
    right = {"poly_lambda": right}
    if modulation is not None:
        right.update(x_modulation="affine", x_modulation_coeffs=modulation)
    model = flux_from_spec({"d": 1, "a": 0.0, "b": 1.0, "interface": {"axis": 1, "zeta": {"kind": "zero"}},
                            "left": [{"poly_lambda": left}], "right": [right]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = model.at(_points(model), EPS).rows(0)
    assert [c for c, _ in rows] == [tuple(left), tuple(right["poly_lambda"])]


def test_multi_term_components_are_covered():
    # the flattened normal flux carries the tangential terms: the relative
    # branch of the smoothed comparison is exercised
    for name in ("tilted_2d_flattened", "curved_modulated_flattened"):
        model = MODELS[name]()
        assert not _single_term(model, _points(model), model.interface.axis)


@pytest.mark.parametrize("name", ["two_flux", "tilted_2d", "curved_modulated"])
def test_interface_jump_matches_the_transformed_normal_fluxes(name):
    model = MODELS[name]()
    grid = dx.Grid(model.domain.lows, model.domain.highs, (64,) * model.d)
    times = (0.0, 0.05, 0.1)
    states = np.full((len(times),) + grid.counts, 0.5)
    ws = ResidualWorkspace(Trajectory(grid, times, states, {"epsilon": 0.1}), model)
    surf = ws.traces.surface_points
    for lam in (-0.0, 0.3, model.b):
        lam_arr = np.full(surf.shape[0], lam)
        want = (component_value(transformed_normal_flux(model.right, model.interface), surf, lam_arr)
                - component_value(transformed_normal_flux(model.left, model.interface), surf, lam_arr))
        np.testing.assert_array_equal(_bits(ws._interface_jump(lam)), _bits(want))


def test_sharp_rows_weigh_the_sides_by_heaviside():
    # without eps the weights are the eps -> 0 limit of the smoothstep ones:
    # 1 and 0 off the interface, 1/2 each on it
    flux = dx.preset("two_flux").at(np.array([[-0.25], [-1e-200], [-0.0], [0.0], [1e-200], [0.25]]))
    np.testing.assert_array_equal(flux.weights, ([1.0, 1.0, 0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5, 1.0, 1.0]))
    # they are the smoothstep weights once eps is below every nonzero |offset|
    np.testing.assert_array_equal(flux.weights, flux.model.at(flux.points, 1e-250).weights)
    # 2 lam (1 - lam) is twice lam (1 - lam): one row, its factor w_L + 2 w_R
    (coeffs, factors), = flux.rows(0)
    assert coeffs == (0.0, 1.0, -1.0)
    np.testing.assert_array_equal(factors, [[1.0, 1.0, 1.5, 1.5, 2.0, 2.0]])
    # lam (1 - lam) on the left, 2 lam (1 - lam) on the right, their mean on the interface
    np.testing.assert_array_equal(flux.value(0.5)[:, 0], [0.25, 0.25, 0.375, 0.375, 0.5, 0.5])
    # without an interface there are no weights, and eps changes nothing
    burgers = dx.preset("burgers")
    assert burgers.at(np.zeros((2, 1))).weights is burgers.at(np.zeros((2, 1)), 1e-3).weights is None
    np.testing.assert_array_equal(burgers.at(np.zeros((2, 1))).value(0.5), 0.25)
