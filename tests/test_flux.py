"""Flux evaluation, smoothing profile, the check of the paper's two
hypotheses (zero boundary flux, non-degeneracy) and the import direction of
the package."""
import ast
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import discflux as dx
from conftest import admissible_specs, component_value, smoothed_flux
from discflux.flux import (
    PiecewiseFlux,
    check_hypotheses,
    poly_component,
    smoothing_weights,
    smoothstep,
)
from discflux.geometry import halton
from discflux.presets import PRESET_NAMES, flux_from_spec


# ---------------------------------------------------------------------------
# smoothstep profile


def test_smoothstep_saturates_and_is_symmetric():
    assert smoothstep(-2.0) == 0.0
    assert smoothstep(2.0) == 1.0
    assert smoothstep(0.0) == 0.5
    assert smoothstep(-1.0) == 0.0
    assert smoothstep(1.0) == 1.0


def test_smoothstep_monotone_on_sorted_sample():
    rng = np.random.default_rng(11)
    z = np.sort(rng.uniform(-2.0, 2.0, 10_000))
    w = smoothstep(z)
    assert np.all(np.diff(w) >= 0.0)
    assert np.all((w >= 0.0) & (w <= 1.0))


def test_profile_weights_partition_unity():
    offs = np.linspace(-3e-3, 3e-3, 101)
    wl, wr = smoothing_weights(offs, 1e-3)
    np.testing.assert_allclose(wl + wr, 1.0, atol=1e-14)


# ---------------------------------------------------------------------------
# sharp evaluation


def test_burgers_pointwise_value(burgers_model):
    val = burgers_model.at(np.array([0.3])).value(0.5)
    np.testing.assert_allclose(val, [0.25], atol=1e-15)


def test_two_flux_sides_and_interface_mean(two_flux_model):
    # left piece lam(1-lam), right piece 2 lam(1-lam), jump at x = 0
    left = two_flux_model.at(np.array([-0.1])).value(0.5)
    right = two_flux_model.at(np.array([0.1])).value(0.5)
    on = two_flux_model.at(np.array([0.0])).value(0.5)
    np.testing.assert_allclose(left, [0.25], atol=1e-15)
    np.testing.assert_allclose(right, [0.5], atol=1e-15)
    np.testing.assert_allclose(on, [0.375], atol=1e-15)


def test_x_ramp_modulation():
    model = dx.preset("x_ramp")
    val = model.at(np.array([0.5])).value(0.5)
    np.testing.assert_allclose(val, [(1.0 + 0.3 * 0.5) * 0.25], atol=1e-15)


def test_endpoint_states_give_zero_flux():
    for name in PRESET_NAMES:
        model = dx.preset(name)
        xs = np.asarray(model.domain.lows) + halton(64, model.d) * model.domain.widths
        for state in (model.a, model.b):
            np.testing.assert_allclose(model.at(xs).value(state), 0.0, atol=1e-14)


def test_state_outside_interval_rejected(burgers_model):
    with pytest.raises(ValueError, match="outside"):
        burgers_model.at(np.array([0.0])).value(1.1)


# ---------------------------------------------------------------------------
# smoothed evaluation


def test_smoothed_weights_at_two_eps(two_flux_model):
    eps = 1e-3
    pure_left = two_flux_model.at(np.array([-2 * eps]), eps).value(0.5)
    pure_right = two_flux_model.at(np.array([2 * eps]), eps).value(0.5)
    mid = two_flux_model.at(np.array([0.0]), eps).value(0.5)
    np.testing.assert_allclose(pure_left, [0.25], atol=1e-15)
    np.testing.assert_allclose(pure_right, [0.5], atol=1e-15)
    np.testing.assert_allclose(mid, [0.375], atol=1e-15)


def test_smoothed_matches_sharp_off_the_layer(two_flux_model):
    eps = 0.05
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.5, 0.5, (500, 1))
    x = x[np.abs(x[:, 0]) >= eps]
    lam = rng.uniform(0.0, 1.0, x.shape[0])
    smoothed = two_flux_model.at(x, eps).value(lam)
    sharp = two_flux_model.at(x).value(lam)
    np.testing.assert_array_equal(smoothed, sharp)


def test_lambda_derivative_crosscheck(two_flux_model):
    eps = 0.05
    h = 1e-6
    rng = np.random.default_rng(5)
    x = rng.uniform(-0.5, 0.5, (1000, 1))
    lam = rng.uniform(0.01, 0.99, 1000)
    flux = two_flux_model.at(x, eps)
    analytic = smoothed_flux(two_flux_model, x, lam, eps, derivative=True)[..., 0]
    fd = (flux.value(lam + h)[..., 0] - flux.value(lam - h)[..., 0]) / (2 * h)
    assert np.all(np.abs(analytic - fd) <= 1e-6 * (1.0 + np.abs(analytic)))


# ---------------------------------------------------------------------------
# the paper's hypotheses


def test_hypotheses_hold_on_presets():
    # the slopes of lam (1 - lam), of 2 lam (1 - lam) on the right of
    # two_flux, and (1 + 0.3 x) lam (1 - lam) at x = 1 on [-1, 1]
    minor_max = {"burgers": 1.0, "two_flux": 1.0, "x_ramp": 1.3, "tilted_2d": 0.3}
    assert sorted(minor_max) == sorted(PRESET_NAMES)
    for name, value in minor_max.items():
        assert check_hypotheses(dx.preset(name)) == {"boundary_max": 0.0, "minor_max": pytest.approx(value)}


def test_boundary_zero_fails_with_witness():
    linear = PiecewiseFlux(
        d=1,
        left=(poly_component([0.0, 1.0]),),
        right=(poly_component([0.0, 1.0]),),
        interface=None,
        a=0.0,
        b=1.0,
        domain=dx.Box((-1.0,), (1.0,)),
    )
    with pytest.raises(ValueError, match=r"^the flux must vanish at a = 0.0 and b = 1.0, "
                                         r"but \|f\| = 1 at state 1.0 and x = \(-1\)$"):
        check_hypotheses(linear)


def test_overflowing_coefficients_are_refused():
    # 1e200 (lam - lam^2) scaled by 1e200 reads inf - inf = NaN at a and b,
    # which a comparison with the tolerance would let through
    spec = {"d": 1, "a": 0, "b": 1, "interface": None, "left": [
        {"poly_lambda": [0, 1e200, -1e200], "x_modulation": "affine", "x_modulation_coeffs": [1e200, 0]}]}
    with pytest.raises(ValueError, match=r"^the flux must vanish .* but \|f\| = nan at state 0.0 and x = \(-1\)$"):
        check_hypotheses(flux_from_spec(spec))


# (lam (1 - lam), 2 lam (1 - lam)) on [-1, 1]^2: xi = (2, -1) / sqrt 5 makes
# xi . f vanish, a direction between the 64 angles an earlier sampled check
# tried, which passed this flux
PROPORTIONAL_SPEC = {"d": 2, "a": 0, "b": 1, "interface": None,
                     "left": [{"poly_lambda": [0, 1, -1]}, {"poly_lambda": [0, 2, -2]}]}


def test_proportional_components_are_degenerate_with_their_direction():
    with pytest.raises(ValueError, match=r"^the left flux is degenerate: xi \. f\(x, lam\) does not depend on lam "
                                         r"for xi = \(-0\.894427, 0\.447214\) at x = \(-1, -1\), and no 2 x 2 "
                                         r"minor of its slopes exceeds 0 on the box$"):
        check_hypotheses(flux_from_spec(PROPORTIONAL_SPEC))


def test_minors_are_read_beyond_the_corners():
    # f = ((x1 + x2) lam (1 - lam), (x1 - x2) lam^2 (1 - lam)): every 2 x 2
    # slope minor is +-(x1^2 - x2^2), zero at the four corners but 1 at the
    # edge midpoints of the lattice, so the flux is degenerate on the
    # diagonals only
    spec = {"d": 2, "a": 0, "b": 1, "interface": None, "left": [
        {"poly_lambda": [0, 1, -1], "x_modulation": "affine", "x_modulation_coeffs": [0, 1, 1]},
        {"poly_lambda": [0, 0, 1, -1], "x_modulation": "affine", "x_modulation_coeffs": [0, 1, -1]}]}
    assert check_hypotheses(flux_from_spec(spec)) == {"boundary_max": 0.0, "minor_max": 1.0}


def _full_rank(model, side, n_points=16):
    """Dense oracle: at random points of the box, the SVD rank of the
    d x 64 table f_k(x, lam_i) - f_k(x, a) over a grid of [a, b]; whether it
    is d at one of them, that is, whether no xi . f(x, .) is constant."""
    rng = np.random.default_rng(7)
    lows, widths = np.asarray(model.domain.lows), model.domain.widths
    lam = np.linspace(model.a, model.b, 64)
    for x in lows + rng.random((n_points, model.d)) * widths:
        table = np.stack([component_value(comp, x[None], lam) - component_value(comp, x[None], model.a)
                          for comp in getattr(model, side)])
        sv = np.linalg.svd(table, compute_uv=False)
        if sv[-1] > 1e-9 * max(sv[0], 1e-300):
            return True
    return False


def _assert_witness(model, message):
    """The side, x and xi a refusal names: xi . f(x, .) is constant on [a, b]
    to the printed digits."""
    side, xi, x = re.fullmatch(r"the (left|right) flux is degenerate: .* for xi = \((.*)\) at x = \((.*)\), .*",
                               message).groups()
    xi, x = (np.array([float(v) for v in part.split(", ")]) for part in (xi, x))
    lam = np.linspace(model.a, model.b, 33)
    proj = sum(c * component_value(comp, x[None], lam) for c, comp in zip(xi, getattr(model, side)))
    assert np.ptp(proj) <= 1e-5 * (1 + np.abs(proj).max())
    assert not _full_rank(model, side)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(admissible_specs())
def test_check_agrees_with_a_dense_rank_oracle(spec):
    model = flux_from_spec(spec)
    try:
        margins = check_hypotheses(model)
    except ValueError as exc:
        _assert_witness(model, str(exc))
    else:
        assert margins["boundary_max"] <= 1e-12 < margins["minor_max"]
        assert _full_rank(model, "left") and _full_rank(model, "right")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(admissible_specs(), st.integers(-8, 8).filter(bool), st.booleans(), st.data())
def test_planted_degenerate_sides_fail(spec, r, zero_modulation, data):
    # a side is degenerate when one component is r times another, or when a
    # modulation vanishes identically (the other side may be degenerate too)
    d = spec["d"]
    side = data.draw(st.sampled_from(["left", "right"] if spec["interface"] else ["left"]))
    family = spec[side]
    if zero_modulation or d == 1:
        family[data.draw(st.integers(0, d - 1))].update(x_modulation="affine", x_modulation_coeffs=[0] * (d + 1))
    else:
        family[1] = dict(family[0], poly_lambda=[r / 4 * c for c in family[0]["poly_lambda"]])
    model = flux_from_spec(spec)
    with pytest.raises(ValueError, match="^the (left|right) flux is degenerate") as info:
        check_hypotheses(model)
    _assert_witness(model, str(info.value))


# ---------------------------------------------------------------------------
# import direction: flux.py is the bottom layer


def test_imports_point_one_way():
    src = pathlib.Path(dx.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [n for n in ast.walk(fn) if isinstance(n, ast.ImportFrom) and n.level]
                assert not inner, f"{path.name}: relative import inside {fn.name}"
    # flux.py imports no other module of the package at run time
    tree = ast.parse((src / "flux.py").read_text())
    guarded = [n for block in tree.body
               if isinstance(block, ast.If) and ast.unparse(block.test) == "TYPE_CHECKING"
               for n in ast.walk(block)]
    relative = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level]
    assert relative and all(n in guarded for n in relative)
