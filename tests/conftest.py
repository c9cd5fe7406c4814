"""Shared fixtures: the handful of viscous runs several test modules reuse.

Session scope keeps the suite fast; every consumer treats trajectories as
read-only.
"""
import numpy as np
import pytest

import discflux as dx
from discflux.flux import FluxComponent, as_points


def riemann_field(grid: dx.Grid, left: float, right: float, position: float = 0.0) -> dx.Field:
    x = grid.points()[..., 0]
    return dx.Field(grid, np.where(x < position, left, right).astype(float), 0.0)


def block_field(grid: dx.Grid, lo: float, hi: float, inside: float, outside: float = 0.0) -> dx.Field:
    x = grid.points()[..., 0]
    vals = np.where((x >= lo) & (x < hi), inside, outside).astype(float)
    return dx.Field(grid, vals, 0.0)


# a 2d flux with a curved interface x1 = 0.1 x2 + 0.3 x2^2 and affine
# modulations on both sides, so flattening gives a normal flux whose terms
# carry spatially varying factors; zeta(0) = 0 keeps a chart centred at the
# origin centred there after flattening
CURVED_MODULATED_SPEC = {
    "d": 2, "a": 0.0, "b": 1.0,
    "interface": {"axis": 1, "zeta": {"kind": "poly", "coeffs": [0.0, 0.1, 0.3]}},
    "left": [
        {"poly_lambda": [0.0, 1.0, -1.0], "x_modulation": "affine", "x_modulation_coeffs": [1.0, 0.2, -0.1]},
        {"poly_lambda": [0.0, 0.0, 0.3, -0.3], "x_modulation": "affine", "x_modulation_coeffs": [1.0, -0.1, 0.2]},
    ],
    "right": [
        {"poly_lambda": [0.0, 2.0, -2.0], "x_modulation": "affine", "x_modulation_coeffs": [1.0, 0.1, 0.1]},
        {"poly_lambda": [0.0, 0.0, 0.3, -0.3], "x_modulation": "none"},
    ],
}


def step_bv_flux(vl: float, vr: float, d: int = 1) -> dx.PiecewiseFlux:
    """Rough flux on [-1, 1]^d, a jump-free PiecewiseFlux whose factors jump:
    component k is c(x) P_k(lam) with the step coefficient c = vl left of
    x1 = 0, vr right of it and their mean on it; P_1 = lam (1 - lam),
    P_2 = lam^2 (1 - lam)."""

    def component(k, coeffs):
        def terms(x):
            x1 = np.asarray(x)[..., 0]
            return ((coeffs, np.where(x1 < 0, vl, np.where(x1 > 0, vr, 0.5 * (vl + vr)))),)

        return FluxComponent(k, terms)

    polys = ((0.0, 1.0, -1.0), (0.0, 0.0, 1.0, -1.0))
    comps = tuple(component(k, c) for k, c in enumerate(polys[:d]))
    return dx.PiecewiseFlux(d=d, left=comps, right=comps, interface=None, a=0.0, b=1.0,
                            domain=dx.Box((-1.0,) * d, (1.0,) * d))


# the flux evaluations as per-call formulas on the side components, oracles
# for PiecewiseFlux.at: every call evaluates the terms afresh


def sharp_flux(model, x, lam):
    """Flux vector (..., d): left where the interface offset is negative,
    right where positive, the mean of the sides on the interface."""
    pts = as_points(x, model.d)
    cols = []
    for k in range(model.d):
        out = model.left[k].value(pts, lam)
        if model.interface is not None:
            off = model.interface.offset(pts)
            fl, fr = out, model.right[k].value(pts, lam)
            out = np.where(off < 0, fl, fr)
            on = off == 0
            if np.any(on):
                out = np.where(on, 0.5 * (fl + fr), out)
        cols.append(out)
    return np.stack(cols, axis=-1)


def smoothed_flux(model, x, lam, eps, derivative=False):
    """w_L f_L + w_R f_R (..., d), or its state derivative."""
    pts = as_points(x, model.d)

    def side(comp):
        return comp.lambda_derivative(pts, lam) if derivative else comp.value(pts, lam)

    if model.interface is None:
        return np.stack([side(c) for c in model.left], axis=-1)
    wl, wr = dx.smoothing_weights(model.interface.offset(pts), eps)
    return np.stack([wl * side(fl) + wr * side(fr) for fl, fr in zip(model.left, model.right)], axis=-1)


def smooth_divergence(model, x, lam, h=1e-6):
    """Per-side sum of central differences of component k along axis k."""
    pts = as_points(x, model.d)
    lam = np.asarray(lam, dtype=float)
    side = np.full(pts.shape[:-1], -1.0) if model.interface is None else np.sign(model.interface.offset(pts))
    out = np.zeros(np.broadcast(pts[..., 0], lam).shape)
    for comps, mask in ((model.left, side <= 0), (model.right, side > 0)):
        if not np.any(mask):
            continue
        acc = np.zeros_like(out)
        for k in range(model.d):
            xp = np.array(pts, copy=True)
            xm = np.array(pts, copy=True)
            xp[..., k] += h
            xm[..., k] -= h
            acc = acc + (comps[k].value(xp, lam) - comps[k].value(xm, lam)) / (2.0 * h)
        out = np.where(mask, acc, out)
    return out


@pytest.fixture(scope="session")
def burgers_model():
    return dx.preset("burgers")


@pytest.fixture(scope="session")
def two_flux_model():
    return dx.preset("two_flux")


@pytest.fixture(scope="session")
def fine_grid():
    return dx.Grid((-0.5,), (0.5,), (400,))


@pytest.fixture(scope="session")
def burgers_shock_traj(burgers_model, fine_grid):
    """Stationary shock: 0 on the left, 1 on the right, speed (f(1)-f(0))/1 = 0."""
    config = dx.RunConfig(
        flux=burgers_model,
        epsilon=1e-3,
        final_time=0.5,
        boundary=((0.0, 1.0),),
        output_times=tuple(np.linspace(0.0, 0.5, 129)),
    )
    return dx.run(riemann_field(fine_grid, 0.0, 1.0), config)


@pytest.fixture(scope="session")
def burgers_rarefaction_traj(burgers_model, fine_grid):
    """Expansion data 1 | 0: the entropy solution is a centered fan."""
    config = dx.RunConfig(
        flux=burgers_model,
        epsilon=1e-3,
        final_time=0.5,
        boundary=((1.0, 0.0),),
        output_times=tuple(np.linspace(0.0, 0.5, 129)),
    )
    return dx.run(riemann_field(fine_grid, 1.0, 0.0), config)


@pytest.fixture(scope="session")
def two_flux_block_traj(two_flux_model, fine_grid):
    """Block of state 1 on [0.1, 0.3) to the right of the flux jump at 0.

    By t = 0.09 the waves stay inside (0, 0.5): the interface never sees a
    state other than 0 and the boundary cells never move.
    """
    config = dx.RunConfig(
        flux=two_flux_model,
        epsilon=1e-3,
        final_time=0.09,
        boundary=0.0,
        output_times=tuple(np.linspace(0.0, 0.09, 129)),
    )
    return dx.run(block_field(fine_grid, 0.1, 0.3, 1.0), config)
