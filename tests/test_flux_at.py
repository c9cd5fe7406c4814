"""PiecewiseFlux.at against the per-call formulas it replaced (the oracles in
conftest), bit for bit as int64 views: on every shipped flux form, at points
exactly on the interface and at a -0.0 state."""
import copy

import numpy as np
import pytest

import discflux as dx
from conftest import (
    CURVED_MODULATED_SPEC,
    component_value,
    sharp_flux,
    smooth_divergence,
    smoothed_flux,
)
from discflux.entropy import ResidualWorkspace
from discflux.flux import horner
from discflux.geometry import flatten_model, radial_extend_model, transformed_normal_flux
from discflux.presets import flux_from_spec
from discflux.solver import Trajectory

EPS = 0.05


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
    "tilted_2d_flattened_extended": lambda: radial_extend_model(
        flatten_model(_tilted()), _tilted().interface.flatten(np.zeros(2)), 0.6),
    "curved_modulated": _curved,
    "curved_modulated_flattened": lambda: flatten_model(_curved()),
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


def _abs_sum(flux, k, lam):
    """sum over the rows of |w * factor * P|, the scale of a re-association
    error: it bounds the value and exceeds it where the terms cancel."""
    total = 0.0
    for coeffs, factors in flux.rows(k):
        v = horner(lam, coeffs)
        for f in factors:
            v = f * v
        total = total + np.abs(v)
    return total


@pytest.mark.parametrize("name", sorted(MODELS))
def test_smoothed_matches_the_weighted_sides(name):
    # rows add w * (factor * P) term by term; the oracle adds the sides
    # w_L * sum(factor * P) + w_R * sum(...): the same operations for
    # single-term components, a re-association for multi-term ones, within
    # 1e-15 of the value itself except where the terms cancel
    model = MODELS[name]()
    pts = _points(model)
    flux = model.at(pts, EPS)
    for lam in (_states(model, pts.shape[:-1]), _states(model, (3,) + pts.shape[:-1])):
        got = flux.value(lam)
        want = smoothed_flux(model, pts, lam, EPS)
        assert got.shape == want.shape
        for k in range(model.d):
            if _single_term(model, pts, k):
                np.testing.assert_array_equal(_bits(got[..., k]), _bits(want[..., k]))
            else:
                error = np.abs(got[..., k] - want[..., k])
                assert np.all(error <= 1e-15 * _abs_sum(flux, k, lam))
                assert np.all(error <= 1e-15 * np.abs(want[..., k]))


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
    assert [len(factors) for _, factors in flux.rows(0)] == [1, 1]
    # lam (1 - lam) on the left, 2 lam (1 - lam) on the right, their mean on the interface
    np.testing.assert_array_equal(flux.value(0.5)[:, 0], [0.25, 0.25, 0.375, 0.375, 0.5, 0.5])
    # without an interface there are no weights, and eps changes nothing
    burgers = dx.preset("burgers")
    assert burgers.at(np.zeros((2, 1))).weights is burgers.at(np.zeros((2, 1)), 1e-3).weights is None
    np.testing.assert_array_equal(burgers.at(np.zeros((2, 1))).value(0.5), 0.25)
