"""Flux evaluation, smoothing profile, mollification, the two structural
checkers (zero boundary flux, non-degeneracy) and the import direction of
the package."""
import ast
import copy
import pathlib

import numpy as np
import pytest

import discflux as dx
from conftest import CURVED_MODULATED_SPEC, smoothed_flux, step_bv_flux
from discflux.flux import (
    FluxComponent,
    PiecewiseFlux,
    check_boundary_zero,
    check_nondegeneracy,
    mollify_flux,
    poly_component,
    smoothing_weights,
    smoothstep,
)
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
        xs = model.domain.sample(64)
        for state in (model.a, model.b):
            np.testing.assert_allclose(model.at(xs).value(state), 0.0, atol=1e-14)


def test_state_outside_interval_rejected(burgers_model):
    with pytest.raises(ValueError, match="outside"):
        burgers_model.at(np.array([0.0])).value(1.1)


# ---------------------------------------------------------------------------
# smoothed evaluation


def test_smoothed_weights_at_two_eps(two_flux_model):
    eps = 1e-3
    pure_left = two_flux_model.at(np.array([-2 * eps]), eps).smoothed(0.5)
    pure_right = two_flux_model.at(np.array([2 * eps]), eps).smoothed(0.5)
    mid = two_flux_model.at(np.array([0.0]), eps).smoothed(0.5)
    np.testing.assert_allclose(pure_left, [0.25], atol=1e-15)
    np.testing.assert_allclose(pure_right, [0.5], atol=1e-15)
    np.testing.assert_allclose(mid, [0.375], atol=1e-15)


def test_smoothed_matches_sharp_off_the_layer(two_flux_model):
    eps = 0.05
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.5, 0.5, (500, 1))
    x = x[np.abs(x[:, 0]) >= eps]
    lam = rng.uniform(0.0, 1.0, x.shape[0])
    flux = two_flux_model.at(x, eps)
    smoothed = flux.smoothed(lam)
    sharp = flux.value(lam)
    np.testing.assert_array_equal(smoothed, sharp)


def test_lambda_derivative_crosscheck(two_flux_model):
    eps = 0.05
    h = 1e-6
    rng = np.random.default_rng(5)
    x = rng.uniform(-0.5, 0.5, (1000, 1))
    lam = rng.uniform(0.01, 0.99, 1000)
    flux = two_flux_model.at(x, eps)
    analytic = smoothed_flux(two_flux_model, x, lam, eps, derivative=True)[..., 0]
    fd = (flux.smoothed(lam + h)[..., 0] - flux.smoothed(lam - h)[..., 0]) / (2 * h)
    assert np.all(np.abs(analytic - fd) <= 1e-6 * (1.0 + np.abs(analytic)))


# ---------------------------------------------------------------------------
# mollification of rough fluxes


def _rough(terms) -> PiecewiseFlux:
    """A 1d rough flux: a jump-free PiecewiseFlux with one component."""
    comps = (FluxComponent(0, terms),)
    return PiecewiseFlux(d=1, left=comps, right=comps, interface=None, a=0.0, b=1.0,
                         domain=dx.Box((-1.0,), (1.0,)))


def test_mollify_constant_flux_unchanged():
    def terms(x):
        return (((0.0, 1.0, -1.0), np.ones(np.asarray(x).shape[:-1])),)

    smooth = mollify_flux(_rough(terms), eps=0.1)
    xs = np.linspace(-0.9, 0.9, 19)[:, None]
    np.testing.assert_allclose(smooth.at(xs).value(0.3)[..., 0], 0.21, atol=1e-13)
    # a factor of None (1) stays None
    bare = _rough(lambda x: (((0.0, 1.0, -1.0), None),))
    assert mollify_flux(bare, eps=0.1).left[0].terms(xs) == (((0.0, 1.0, -1.0), None),)


def test_mollify_away_from_jump_keeps_side_value():
    eps = 0.05
    rough = step_bv_flux(1.0, 3.0)
    smooth = mollify_flux(rough, eps)
    # kernel support has radius eps, so 2 eps inside the left region the
    # convolution never sees the jump
    val = smooth.at(np.array([-2 * eps])).value(0.5)[..., 0]
    np.testing.assert_allclose(val, 1.0 * 0.25, atol=1e-12)


def test_mollify_at_jump_gives_mean_of_sides():
    eps = 0.05
    vl, vr = 1.0, 3.0

    # oracle first: brute-force quadrature of the kernel against the step
    s = np.linspace(-eps, eps, 20_001)
    kern = (1.0 - (s / eps) ** 2) ** 2
    raw = np.where(-s < 0, vl, np.where(-s > 0, vr, 0.5 * (vl + vr)))
    oracle = np.trapezoid(raw * kern, s) / np.trapezoid(kern, s) * 0.25

    smooth = mollify_flux(step_bv_flux(vl, vr), eps)
    val = float(smooth.at(np.array([0.0])).value(0.5)[..., 0])
    np.testing.assert_allclose(val, oracle, atol=1e-6)
    np.testing.assert_allclose(val, 0.5 * (vl + vr) * 0.25, atol=1e-12)


def test_mollify_preserves_zero_boundary_flux():
    smooth = mollify_flux(step_bv_flux(1.0, 3.0), eps=0.05)
    assert check_boundary_zero(smooth).passed


def test_mollify_rejects_bad_width():
    with pytest.raises(ValueError):
        mollify_flux(step_bv_flux(1.0, 3.0), eps=0.0)


def test_mollify_keeps_the_interface():
    # affine factors are reproduced by the symmetric kernel, so each side
    # keeps its values; the interface and the other fields stay as they are
    model = flux_from_spec(copy.deepcopy(CURVED_MODULATED_SPEC))
    smooth = mollify_flux(model, eps=0.1)
    assert smooth.interface is model.interface
    assert (smooth.d, smooth.a, smooth.b, smooth.domain, smooth.name) == (
        model.d, model.a, model.b, model.domain, None)
    assert mollify_flux(dx.preset("two_flux"), eps=0.1).name == "two_flux-mollified"
    xs = np.random.default_rng(3).uniform(-0.8, 0.8, (20, 2))
    for sm, raw in zip(smooth.left + smooth.right, model.left + model.right):
        np.testing.assert_allclose(sm.value(xs, 0.3), raw.value(xs, 0.3), atol=1e-14)


# ---------------------------------------------------------------------------
# structural checkers


def test_boundary_zero_passes_on_presets(burgers_model, two_flux_model):
    assert check_boundary_zero(burgers_model).passed
    assert check_boundary_zero(two_flux_model).passed


def test_boundary_zero_fails_with_witness():
    linear = PiecewiseFlux(
        d=1,
        left=(poly_component(0, [0.0, 1.0]),),
        right=(poly_component(0, [0.0, 1.0]),),
        interface=None,
        a=0.0,
        b=1.0,
        domain=dx.Box((-1.0,), (1.0,)),
    )
    report = check_boundary_zero(linear)
    assert not report.passed
    assert report.witness_state == 1.0
    np.testing.assert_allclose(report.max_abs, 1.0, atol=1e-15)


def test_nondegeneracy_burgers_with_analytic_oracle(burgers_model):
    subintervals, n_lambda = 8, 33

    # oracle first: per subinterval the sampled max of |1 - 2 lam|
    edges = np.linspace(0.0, 1.0, subintervals + 1)
    per_sub = []
    for s in range(subintervals):
        lam = np.linspace(edges[s], edges[s + 1], n_lambda)
        per_sub.append(np.max(np.abs(1.0 - 2.0 * lam)))
    oracle_worst = min(per_sub)
    assert oracle_worst == 0.25  # the subintervals adjacent to the root 1/2

    report = check_nondegeneracy(burgers_model, subintervals=subintervals, n_lambda=n_lambda)
    assert report.passed
    np.testing.assert_allclose(report.worst_max, oracle_worst, atol=1e-14)


def test_nondegeneracy_fails_on_locally_flat_flux():
    # the spatial factor vanishes for x1 <= 0, so there the state derivative
    # vanishes identically and every subinterval is flagged
    comp = FluxComponent(0, lambda x: (((0.0, 1.0, -1.0), np.maximum(np.asarray(x)[..., 0], 0.0)),))
    model = PiecewiseFlux(
        d=1, left=(comp,), right=(comp,), interface=None, a=0.0, b=1.0, domain=dx.Box((-1.0,), (1.0,))
    )
    report = check_nondegeneracy(model, subintervals=5)
    assert not report.passed
    assert report.worst_max == 0.0
    lo, hi = report.witness["subinterval"]
    assert hi <= 0.4 + 1e-12
    assert report.witness["x"][0] <= 0.0


def test_nondegeneracy_2d_direction_sweep():
    directions, subintervals, n_lambda = 64, 8, 33
    model = PiecewiseFlux(
        d=2,
        left=(poly_component(0, [0.0, 1.0]), poly_component(1, [0.0, 0.0, 1.0])),
        right=(poly_component(0, [0.0, 1.0]), poly_component(1, [0.0, 0.0, 1.0])),
        interface=None,
        a=0.0,
        b=1.0,
        domain=dx.Box((-1.0, -1.0), (1.0, 1.0)),
    )

    # oracle first: xi . d_lam f = xi_1 + 2 xi_2 lam over the same sweep
    theta = np.linspace(0.0, np.pi, directions, endpoint=False)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    edges = np.linspace(0.0, 1.0, subintervals + 1)
    worst = np.inf
    for s in range(subintervals):
        lam = np.linspace(edges[s], edges[s + 1], n_lambda)
        proj = np.abs(dirs[:, 0][None, :] + 2.0 * lam[:, None] * dirs[:, 1][None, :])
        worst = min(worst, float(proj.max(axis=0).min()))
    assert worst > 1e-3  # no direction kills both components on a subinterval

    report = check_nondegeneracy(model, directions=directions, subintervals=subintervals, n_lambda=n_lambda)
    assert report.passed
    np.testing.assert_allclose(report.worst_max, worst, rtol=1e-12)


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
