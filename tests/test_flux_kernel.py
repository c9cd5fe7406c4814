"""Polynomial face-flux kernel of the solver: face values against
numpy's polyval, the exact Rusanov coefficient against dense sampling, and
the run's speed bound against every coefficient a step can use."""
import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import discflux as dx
from conftest import CURVED_MODULATED_SPEC, smoothed_flux
from discflux.flux import smoothing_weights
from discflux.geometry import flatten_model, radial_extend_model
from discflux.presets import _PRESET_SPECS, flux_from_spec
from discflux.solver import _Faces, _Stepper, cfl_timestep

N_DENSE = 2001
# |F'| is evaluated in double precision on both sides of each comparison;
# this is a few ulps of the largest speeds the strategies below can draw
ROUNDING = 1e-13


def _finest_max(dF, lo, hi):
    """max |dF| over [lo, hi]: N_DENSE samples, then three zooms onto each
    local max, so an interior max is resolved far below 1e-12."""
    s = np.linspace(lo, hi, N_DENSE)
    v = np.abs(dF(s))
    dense = float(v.max())
    best = dense
    if hi == lo:
        return dense, dense
    left = np.concatenate(([True], v[1:] > v[:-1]))
    right = np.concatenate((v[:-1] >= v[1:], [True]))
    for i in np.nonzero(left & right)[0]:
        a, b = s[max(i - 1, 0)], s[min(i + 1, N_DENSE - 1)]
        for _ in range(3):
            z = np.linspace(a, b, N_DENSE)
            w = np.abs(dF(z))
            j = int(w.argmax())
            best = max(best, float(w[j]))
            a, b = z[max(j - 1, 0)], z[min(j + 1, N_DENSE - 1)]
    return dense, best


def _check_exact_alpha(config, grid, values):
    model = config.flux
    faces = [_Faces(config, grid, k) for k in range(grid.d)]
    bound = max(f.bound for f in faces)
    for k, ff in enumerate(faces):
        _, alpha = ff.rusanov(values, {}, (ff.rows, ff.crit))
        pts = grid.interior_face_points(k).reshape(-1, grid.d)
        ul = values[ff.lo].ravel()
        ur = values[ff.hi].ravel()
        for x, lo, hi, a in zip(pts, ul, ur, alpha.ravel()):

            def dF(s):
                return smoothed_flux(model, x, s, config.epsilon, derivative=True)[..., k]

            dense, finest = _finest_max(dF, min(lo, hi), max(lo, hi))
            assert a >= dense - ROUNDING
            assert finest - ROUNDING <= a <= finest + 1e-12
        assert alpha.max() <= bound
    # the step at the run's time step never trips the per-step CFL guard
    dt = cfl_timestep(config, grid, bound)
    stepper = _Stepper(config, grid, [config.boundary_pairs])
    stepper.advance(np.array(values[None], dtype=float), [0], [stepper.full], [(dt, dt)])


def _spec_component(coeffs, modulation):
    comp = {"poly_lambda": coeffs}
    if modulation is not None:
        comp.update({"x_modulation": "affine", "x_modulation_coeffs": modulation})
    return comp


_coeff = st.floats(-2.0, 2.0, allow_nan=False)
_side = st.tuples(
    st.lists(_coeff, min_size=1, max_size=4),  # q, so f = (u - a)(u - b) q has degree 2..5
    st.none() | st.tuples(st.floats(0.5, 2.0), st.floats(-0.5, 0.5)),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    a=st.floats(-1.0, 0.5),
    width=st.floats(0.5, 2.0),
    left=_side,
    right=_side,
    shift=st.floats(-0.5, 0.5),
    smoothing=st.floats(0.05, 0.5),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=12, max_size=12),
)
def test_rusanov_coefficient_is_the_exact_max(a, width, left, right, shift, smoothing, fractions):
    # a nonzero polynomial flux with f(a) = f(b) = 0 has degree >= 2
    b = a + width
    root_factor = np.polynomial.polynomial.polyfromroots([a, b])
    sides = [
        _spec_component(np.polynomial.polynomial.polymul(root_factor, q).tolist(), None if m is None else list(m))
        for q, m in (left, right)
    ]
    model = flux_from_spec({
        "d": 1, "a": a, "b": b,
        "interface": {"axis": 1, "zeta": {"kind": "affine", "coeffs": [shift]}},
        "left": [sides[0]], "right": [sides[1]],
    })
    grid = dx.Grid((-1.0,), (1.0,), (len(fractions),))
    config = dx.RunConfig(flux=model, epsilon=smoothing, final_time=1.0, boundary=a)
    values = np.clip(a + np.asarray(fractions) * width, a, b)
    _check_exact_alpha(config, grid, values)


def test_rusanov_coefficient_exact_on_tilted_2d():
    # cubic axis-1 component, identical on both sides: F'' has a root at 1/3
    model = dx.preset("tilted_2d")
    grid = dx.Grid(model.domain.lows, model.domain.highs, (8, 8))
    config = dx.RunConfig(flux=model, epsilon=0.2, final_time=1.0, boundary=0.0)
    values = np.random.default_rng(7).uniform(0.0, 1.0, grid.counts)
    values[:, ::2] = 0.25
    _check_exact_alpha(config, grid, values)


@pytest.mark.parametrize("name, radius", [("tilted_2d", 1.2), ("curved_modulated", 0.6)])
def test_rusanov_coefficient_exact_on_charted_2d(name, radius):
    # the flattened, radially extended flux of a charted run: the normal
    # component gains the tangential terms scaled by -grad zeta, and outside
    # the chart ball every factor is frozen at the projection
    model = dx.preset(name) if name == "tilted_2d" else flux_from_spec(copy.deepcopy(CURVED_MODULATED_SPEC))
    flat = flatten_model(model)
    ext = radial_extend_model(flat, model.interface.flatten(np.zeros(2)), radius)
    grid = dx.Grid(flat.domain.lows, flat.domain.highs, (8, 8))
    assert np.linalg.norm(grid.points(), axis=-1).max() > radius
    config = dx.RunConfig(flux=ext, epsilon=0.2, final_time=1.0, boundary=0.0)
    values = np.random.default_rng(11).uniform(0.0, 1.0, grid.counts)
    values[::2, :] = 0.25
    _check_exact_alpha(config, grid, values)


@pytest.mark.parametrize("name", ["burgers", "two_flux", "x_ramp"])
def test_face_fluxes_match_polyval_bit_for_bit(name):
    model = dx.preset(name)
    grid = dx.Grid((-0.5,), (0.5,), (64,))
    config = dx.RunConfig(flux=model, epsilon=0.05, final_time=1.0, boundary=0.0)
    values = np.random.default_rng(3).uniform(model.a, model.b, grid.counts)
    pts = grid.interior_face_points(0)
    polyval = np.polynomial.polynomial.polyval

    def side_terms(spec, u, deriv):
        c = np.asarray(spec["poly_lambda"])
        v = polyval(u, np.polynomial.polynomial.polyder(c) if deriv else c)
        if spec.get("x_modulation", "none") == "affine":
            m = np.asarray(spec["x_modulation_coeffs"])
            v = (m[0] + pts @ m[1:]) * v
        return v

    def smoothed(u, deriv=False):
        left = side_terms(_PRESET_SPECS[name]["left"][0], u, deriv)
        if model.interface is None:
            return left
        wl, wr = smoothing_weights(model.interface.offset(pts), config.epsilon)
        return wl * left + wr * side_terms(_PRESET_SPECS[name]["right"][0], u, deriv)

    faces = _Faces(config, grid, 0)
    fhat, alpha = faces.rusanov(values, {}, (faces.rows, faces.crit))
    ul, ur = values[:-1], values[1:]
    # quadratic flux: F' is linear in the state, so the endpoints are exact
    expected_alpha = np.maximum(np.abs(smoothed(ul, True)), np.abs(smoothed(ur, True)))
    np.testing.assert_array_equal(alpha, expected_alpha)
    np.testing.assert_array_equal(fhat, 0.5 * (smoothed(ul) + smoothed(ur)) - 0.5 * expected_alpha * (ur - ul))
