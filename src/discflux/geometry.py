"""Interface geometry: flattening maps, radial extension, speed bounds, cones.

Coordinates are cell-centered numpy points of shape (..., d).  An interface is
the graph x_j = zeta(x_hat) over the remaining coordinates; flattening
subtracts zeta so the interface becomes the hyperplane {x_j = 0}.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .flux import as_points, derivative_coeffs, horner, sign_changes


@dataclass(frozen=True)
class Box:
    """Axis-aligned domain box."""

    lows: tuple[float, ...]
    highs: tuple[float, ...]

    def __post_init__(self):
        if len(self.lows) != len(self.highs):
            raise ValueError("lows and highs must have equal length")
        for lo, hi in zip(self.lows, self.highs):
            if not (lo < hi):
                raise ValueError(f"degenerate box extent [{lo}, {hi}]")

    @property
    def d(self) -> int:
        return len(self.lows)

    @property
    def widths(self) -> np.ndarray:
        return np.asarray(self.highs) - np.asarray(self.lows)

    @property
    def volume(self) -> float:
        return float(np.prod(self.widths))

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (np.asarray(self.lows) + np.asarray(self.highs))

    @property
    def corners(self) -> np.ndarray:
        """The 2^d corners, shape (2, ..., 2, d): index 0 or 1 along axis k
        picks lows[k] or highs[k]."""
        return np.stack(np.meshgrid(*zip(self.lows, self.highs), indexing="ij"), axis=-1)


def halton(n: int, d: int) -> np.ndarray:
    """The first n points of the unscrambled Halton sequence in [0, 1)^d
    (Halton 1960), shape (n, d): coordinate k is the radical inverse of the
    index in the k-th prime base, its digits added from the lowest, as
    scipy's qmc.Halton(scramble=False) adds them, so the bits agree."""
    if not 1 <= d <= 3:
        raise ValueError(f"Halton points need d in 1..3, got {d}")
    out = np.zeros((n, d))
    for k, b in enumerate((2, 3, 5)[:d]):
        i, f = np.arange(n), 1.0
        while i.any():
            f /= b
            out[:, k] += f * (i % b)
            i //= b
    return out


# ---------------------------------------------------------------------------
# interfaces and flattening


@dataclass(frozen=True)
class Interface:
    """Graph interface x_j = zeta(x_hat) with zeta the polynomial
    sum_k coeffs[k] s^k of the one tangential coordinate s in d = 2, the
    constant coeffs[0] in d = 1.

    axis is 0-based.  zeta and zeta_gradient act on tangential points of
    shape (..., d-1).
    """

    axis: int
    d: int
    coeffs: tuple[float, ...]

    def zeta(self, xh) -> np.ndarray:
        xh = np.asarray(xh, dtype=float)
        if self.d == 1:
            return np.full(xh.shape[:-1], self.coeffs[0])
        return horner(xh[..., 0], self.coeffs)

    def zeta_gradient(self, xh) -> np.ndarray:
        xh = np.asarray(xh, dtype=float)
        if self.d == 1:
            return np.zeros(xh.shape[:-1] + (0,))
        return horner(xh[..., 0], derivative_coeffs(self.coeffs))[..., None]

    def tangential(self, x) -> np.ndarray:
        pts = as_points(x, self.d)
        return np.delete(pts, self.axis, axis=-1)

    def offset(self, x) -> np.ndarray:
        """Signed normal offset x_j - zeta(x_hat); negative on the left side."""
        pts = as_points(x, self.d)
        return pts[..., self.axis] - self.zeta(self.tangential(x))

    def flatten(self, x) -> np.ndarray:
        pts = np.array(as_points(x, self.d), copy=True)
        pts[..., self.axis] = self.offset(pts)
        return pts

    def unflatten(self, x) -> np.ndarray:
        pts = np.array(as_points(x, self.d), copy=True)
        pts[..., self.axis] = pts[..., self.axis] + self.zeta(self.tangential(pts))
        return pts

    @property
    def tangential_axes(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.d) if k != self.axis)

    @property
    def flat(self) -> bool:
        """zeta is identically 0, so the interface is {x_j = 0}."""
        return not any(self.coeffs)


# ---------------------------------------------------------------------------
# radial extension


def project_to_ball(x, center, radius: float) -> np.ndarray:
    c = np.asarray(center, dtype=float)
    pts = as_points(x, c.shape[0])
    delta = pts - c
    dist = np.linalg.norm(delta, axis=-1, keepdims=True)
    scale = np.where(dist > radius, radius / np.maximum(dist, 1e-300), 1.0)
    return c + delta * scale


def radial_extend(field: Callable, center, radius: float) -> Callable:
    """Extend a coefficient field outside B(center, radius) by the value at the
    radial projection onto the sphere; unchanged inside.  The wrapped callable
    keeps the (x, *args) signature, so (x, lam) fields work unchanged."""
    if radius <= 0:
        raise ValueError("extension radius must be positive")
    c = np.asarray(center, dtype=float)

    def extended(x, *args):
        return field(project_to_ball(x, c, radius), *args)

    return extended


# ---------------------------------------------------------------------------
# transformed fluxes


def transformed_normal_flux(family, interface: Interface):
    """Normal flux of one side's component family in flattened coordinates:

        F_j(x, lam) = f_j(x, lam) - sum_k zeta_grad_k(x_hat) * f_k(x, lam)

    over the tangential axes k: the normal component's terms followed by
    each tangential component's terms with their factors scaled by
    -zeta_grad_k.  Coefficients are read directly in the flattened
    coordinates, matching the local analysis they serve.
    """
    normal = family[interface.axis]
    tangential = [family[k] for k in interface.tangential_axes]
    if not tangential:
        return normal

    def terms(x):
        g = interface.zeta_gradient(interface.tangential(x))
        out = list(normal(x))
        for m, comp in enumerate(tangential):
            out += [(c, -g[..., m] if f is None else -g[..., m] * f) for c, f in comp(x)]
        return tuple(out)

    return terms


def flattened_box(box: Box, interface: Interface) -> Box:
    """The smallest box covering the image of `box` under the flattening
    map: the normal extent less the range of zeta over the tangential
    extent, which zeta takes at the box corners or at the sign changes of
    zeta' between them (flux.sign_changes)."""
    xh = interface.tangential(box.corners.reshape(-1, box.d))
    if box.d == 2:
        (k,) = interface.tangential_axes
        crit = sign_changes(np.asarray([derivative_coeffs(interface.coeffs)]), box.lows[k], box.highs[k])
        xh = np.concatenate([xh, crit[~np.isnan(crit)][:, None]])
    z = interface.zeta(xh)
    j = interface.axis
    lows, highs = list(box.lows), list(box.highs)
    lows[j] = float(lows[j] - z.max())
    highs[j] = float(highs[j] - z.min())
    return Box(tuple(lows), tuple(highs))


def flatten_model(model):
    """PiecewiseFlux in flattened coordinates: the interface becomes flat, the
    normal component is replaced by the transformed normal flux per side.  A
    model without an interface or with a flat one is returned as it is."""
    itf = model.interface
    if itf is None or itf.flat:
        return model
    j = itf.axis
    left, right = ((*f[:j], transformed_normal_flux(f, itf), *f[j + 1:]) for f in (model.left, model.right))
    return replace(model, left=left, right=right, interface=Interface(j, model.d, (0.0,)),
                   domain=flattened_box(model.domain, itf),
                   name=(model.name + "-flattened") if model.name else None)


def radial_extend_model(model, center, radius: float):
    """Radially extend every side coefficient field about `center`: each
    component's terms are evaluated at the radial projection onto the ball,
    so the state polynomials are unchanged and every spatial factor keeps
    its sup bound."""
    def extend(family):
        return tuple(radial_extend(comp, center, radius) for comp in family)

    return replace(model, left=extend(model.left), right=extend(model.right),
                   name=(model.name + "-extended") if model.name else None)


# ---------------------------------------------------------------------------
# speed bounds and cones


def speed_bound(model, box: Box) -> float:
    """Finite speed of propagation (Kruzhkov 1970): sqrt of the sum over the
    distinct side components of (sum_i sup_box |s_i| * max_[a,b] |P_i'|)^2
    over their terms s_i(x) P_i(lam), an upper bound on the stacked
    left/right lambda-derivative norm over x in the box and lam in [a, b].
    It equals that sup when every term peaks at one common corner and
    state, as in every preset.

    sup |s_i| reads each factor at the 2^d corners of the box, which is
    exact for factors affine in x: the only kind a preset or a flux spec
    states, and the flattening of an affine interface keeps them affine.
    max |P_i'| is exact: P_i' at a, b and at the sign changes of P_i''.
    Identical side components are one coefficient field and count once.
    """
    corners = box.corners
    unique = {}
    for k, comp in [*enumerate(model.left), *enumerate(model.right)]:
        terms = tuple((c, None if f is None else np.broadcast_to(np.asarray(f, dtype=float), corners.shape[:-1]))
                      for c, f in comp(corners))
        key = (k, tuple((c, None if f is None else f.tobytes()) for c, f in terms))
        unique.setdefault(key, terms)

    total = 0.0
    for terms in unique.values():
        s = 0.0
        for coeffs, f in terms:
            sup = 1.0 if f is None else np.abs(f).max()
            dc = derivative_coeffs(coeffs)
            crit = sign_changes(np.asarray([dc[1:]]) * np.arange(1, len(dc)), model.a, model.b)
            s += sup * np.abs(horner(np.append(crit[~np.isnan(crit)], (model.a, model.b)), dc)).max()
        total += s * s
    return float(np.sqrt(total))


@dataclass(frozen=True)
class Cone:
    """Backward cone of dependence with base B(center, radius) at t = 0 and
    cross-sections shrinking at speed `speed`."""

    center: tuple[float, ...]
    radius: float
    speed: float

    def __post_init__(self):
        if self.radius <= 0 or self.speed <= 0:
            raise ValueError("cone radius and speed must be positive")

    def section_radius(self, t: float) -> float:
        return self.radius - self.speed * t

    def cells(self, grid, t: float) -> np.ndarray:
        """Boolean mask, of the grid's shape, of the cells whose centers lie
        in the section at time t (the base at t = 0)."""
        dist = np.linalg.norm(grid.points() - np.asarray(self.center, dtype=float), axis=-1)
        return dist <= self.section_radius(t)
