"""Interface geometry: flattening maps, radial extension, speed bounds, cones.

Coordinates are cell-centered numpy points of shape (..., d).  An interface is
the graph x_j = zeta(x_hat) over the remaining coordinates; flattening
subtracts zeta so the interface becomes the hyperplane {x_j = 0}.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


def as_points(x, d: int) -> np.ndarray:
    """Coerce x to a float array of shape (..., d)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        if d != 1:
            raise ValueError(f"scalar point given for d={d}")
        return arr.reshape(1)
    if arr.shape[-1] != d:
        raise ValueError(f"points have trailing dimension {arr.shape[-1]}, expected {d}")
    return arr


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

    def contains(self, x) -> np.ndarray:
        pts = as_points(x, self.d)
        lo = np.asarray(self.lows)
        hi = np.asarray(self.highs)
        return np.all((pts >= lo) & (pts <= hi), axis=-1)

    def sample(self, n: int) -> np.ndarray:
        """Deterministic quasi-random sample of n points, shape (n, d)."""
        return np.asarray(self.lows) + halton(n, self.d) * self.widths


def halton(n: int, d: int, start: int = 0) -> np.ndarray:
    """Points start .. start + n - 1 of the unscrambled Halton sequence in
    [0, 1)^d (Halton 1960), shape (n, d): coordinate k is the radical inverse
    of the index in the k-th prime base, its digits added from the lowest,
    as scipy's qmc.Halton(scramble=False) adds them, so the bits agree."""
    if not 1 <= d <= 3:
        raise ValueError(f"Halton points need d in 1..3, got {d}")
    out = np.zeros((n, d))
    for k, b in enumerate((2, 3, 5)[:d]):
        i, f = np.arange(start, start + n), 1.0
        while i.any():
            f /= b
            out[:, k] += f * (i % b)
            i //= b
    return out


def ball_sample(center, radius: float, n: int) -> np.ndarray:
    """Deterministic sample of the closed ball, always containing the center
    and the axis-aligned sphere points."""
    c = np.asarray(center, dtype=float)
    d = c.shape[0]
    if radius <= 0:
        raise ValueError("ball radius must be positive")
    pts = [c]
    for k in range(d):
        e = np.zeros(d)
        e[k] = radius
        pts.append(c + e)
        pts.append(c - e)
    # rejection from the bounding cube, continuing one Halton sequence; it
    # fills space evenly, so the acceptance rate is the ball/cube volume ratio
    need, drawn = max(n - len(pts), 0), 0
    while need > 0:
        m = max(2 * need, 8)
        cand = (2.0 * halton(m, d, start=drawn) - 1.0) * radius
        drawn += m
        keep = cand[np.linalg.norm(cand, axis=-1) <= radius]
        for p in keep[:need]:
            pts.append(c + p)
        need = n - len(pts)
    return np.stack(pts[: max(n, len(pts))])


# ---------------------------------------------------------------------------
# interfaces and flattening


@dataclass(frozen=True)
class Interface:
    """Graph interface x_j = zeta(x_hat).

    axis is 0-based internally; the JSON form uses 1-based axes.  zeta and
    zeta_gradient act on tangential points of shape (..., d-1).
    """

    axis: int
    d: int
    zeta: Callable[[np.ndarray], np.ndarray]
    zeta_gradient: Callable[[np.ndarray], np.ndarray]
    spec: dict | None = None

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

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(axis: int, d: int) -> "Interface":
        return Interface.affine(axis, d, [0.0] * d)

    @staticmethod
    def affine(axis: int, d: int, coeffs: Sequence[float]) -> "Interface":
        """zeta(x_hat) = coeffs[0] + sum coeffs[1 + m] * x_hat[m]."""
        c = tuple(float(v) for v in coeffs)
        if len(c) != d:
            raise ValueError(f"affine interface in d={d} needs {d} coefficients, got {len(c)}")
        c0 = c[0]
        grad = np.asarray(c[1:], dtype=float)

        def zeta(xh: np.ndarray) -> np.ndarray:
            return c0 + xh @ grad if grad.size else np.full(xh.shape[:-1], c0)

        def zeta_grad(xh: np.ndarray) -> np.ndarray:
            return np.broadcast_to(grad, xh.shape[:-1] + (d - 1,))

        kind = "zero" if all(v == 0.0 for v in c) else "affine"
        spec = {"kind": kind, "coeffs": list(c)}
        return Interface(axis=axis, d=d, zeta=zeta, zeta_gradient=zeta_grad, spec=spec)

    @staticmethod
    def polynomial(axis: int, d: int, coeffs: Sequence[float]) -> "Interface":
        """Single-variable polynomial zeta, for d = 2 (or a constant in d = 1)."""
        if d > 2:
            raise ValueError("polynomial interfaces are supported for d <= 2 only")
        c = np.asarray([float(v) for v in coeffs])
        if c.size == 0 or (d == 1 and c.size > 1):
            raise ValueError(f"polynomial interface in d={d} needs {'one' if d == 1 else 'at least one'} "
                             f"coefficient, got {c.size}")
        dc = np.polynomial.polynomial.polyder(c) if c.size > 1 else np.zeros(1)

        def zeta(xh: np.ndarray) -> np.ndarray:
            if xh.shape[-1] == 0:
                return np.full(xh.shape[:-1], c[0])
            return np.polynomial.polynomial.polyval(xh[..., 0], c)

        def zeta_grad(xh: np.ndarray) -> np.ndarray:
            if xh.shape[-1] == 0:
                return np.zeros(xh.shape[:-1] + (0,))
            g = np.polynomial.polynomial.polyval(xh[..., 0], dc)
            return g[..., None]

        spec = {"kind": "poly", "coeffs": [float(v) for v in c]}
        return Interface(axis=axis, d=d, zeta=zeta, zeta_gradient=zeta_grad, spec=spec)

    # -- JSON form ---------------------------------------------------------

    @staticmethod
    def from_spec(spec: dict, d: int) -> "Interface":
        """Build from {"axis": 1-based int, "zeta": {"kind": ..., "coeffs": [...]}}."""
        axis1 = spec["axis"]
        if not (1 <= axis1 <= d):
            raise ValueError(f"interface axis {axis1} outside 1..{d}")
        axis = axis1 - 1
        z = spec["zeta"]
        kind = z["kind"]
        coeffs = z.get("coeffs", [])
        if kind == "zero":
            if any(coeffs):
                raise ValueError(f"zero interface with nonzero coefficients {coeffs}")
            return Interface.zero(axis, d)
        if kind == "affine":
            return Interface.affine(axis, d, coeffs)
        if kind == "poly":
            return Interface.polynomial(axis, d, coeffs)
        raise ValueError(f"unknown zeta kind {kind!r}")

    def to_spec(self) -> dict:
        return {"axis": self.axis + 1, "zeta": dict(self.spec or {"kind": "zero", "coeffs": []})}


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
# transformed fluxes (imports deferred to avoid a hard cycle at class level)


def transformed_normal_flux(model, interface: Interface, side: str):
    """Normal flux in flattened coordinates:

        F_j(x, lam) = f_j(x, lam) - sum_k zeta_grad_k(x_hat) * f_k(x, lam)

    over the tangential axes k: the normal component's terms followed by
    each tangential component's terms with their factors scaled by
    -zeta_grad_k.  Coefficients are read directly in the flattened
    coordinates, matching the local analysis they serve.
    """
    from .flux import FluxComponent

    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    comps = model.left if side == "left" else model.right
    j = interface.axis
    normal = comps[j]
    tangential = [comps[k] for k in interface.tangential_axes]
    if not tangential:
        return normal

    def terms(x):
        g = interface.zeta_gradient(interface.tangential(x))
        out = list(normal.terms(x))
        for m, comp in enumerate(tangential):
            out += [(c, -g[..., m] if f is None else -g[..., m] * f) for c, f in comp.terms(x)]
        return tuple(out)

    return FluxComponent(j, terms)


def flattened_box(box: Box, interface: Interface, n: int = 512) -> Box:
    """A box covering the image of `box` under the flattening map."""
    j = interface.axis
    if box.d == 1:
        z = float(interface.zeta(np.zeros((1, 0)))[0])
        lows, highs = list(box.lows), list(box.highs)
        lows[j] -= z
        highs[j] -= z
        return Box(tuple(lows), tuple(highs))
    pts = box.sample(n)
    corners = np.array(np.meshgrid(*[(lo, hi) for lo, hi in zip(box.lows, box.highs)])).T.reshape(-1, box.d)
    pts = np.concatenate([pts, corners])
    z = interface.zeta(np.delete(pts, j, axis=-1))
    lows, highs = list(box.lows), list(box.highs)
    lows[j] = float(lows[j] - z.max())
    highs[j] = float(highs[j] - z.min())
    return Box(tuple(lows), tuple(highs))


def flatten_model(model):
    """PiecewiseFlux in flattened coordinates: the interface becomes flat, the
    normal component is replaced by the transformed normal flux per side."""
    from .flux import PiecewiseFlux

    itf = model.interface
    if itf is None:
        return model
    j = itf.axis
    left = list(model.left)
    right = list(model.right)
    left[j] = transformed_normal_flux(model, itf, "left")
    right[j] = transformed_normal_flux(model, itf, "right")
    return PiecewiseFlux(
        d=model.d,
        left=tuple(left),
        right=tuple(right),
        interface=Interface.zero(j, model.d),
        a=model.a,
        b=model.b,
        domain=flattened_box(model.domain, itf),
        name=(model.name + "-flattened") if model.name else None,
    )


def radial_extend_model(model, center, radius: float):
    """Radially extend every side coefficient field about `center`: each
    component's terms are evaluated at the radial projection onto the ball,
    so the state polynomials are unchanged and every spatial factor keeps
    its sup bound."""
    from .flux import FluxComponent, PiecewiseFlux

    def extend(comp):
        return FluxComponent(comp.axis, radial_extend(comp.terms, center, radius))

    return PiecewiseFlux(
        d=model.d,
        left=tuple(map(extend, model.left)),
        right=tuple(map(extend, model.right)),
        interface=model.interface,
        a=model.a,
        b=model.b,
        domain=model.domain,
        name=(model.name + "-extended") if model.name else None,
    )


# ---------------------------------------------------------------------------
# speed bounds and cones


SPEED_BOUND_POINTS = 33  # sampled positions in the ball of the speed bounds
SPEED_BOUND_STATES = 2001  # default sampled states of the speed bounds


@dataclass(frozen=True)
class SpeedBound:
    value: float
    radius: float
    state_bound: float
    lambda_range: tuple[float, float]
    n_lambda: int
    n_x: int


def _stacked_derivative_max(model, radius, state_bound, n_lambda, which) -> SpeedBound:
    lo = max(model.a, -state_bound)
    hi = min(model.b, state_bound)
    if not (lo < hi):
        raise ValueError(f"empty lambda sample: [a,b]=[{model.a},{model.b}] against |lam|<={state_bound}")
    lam = np.linspace(lo, hi, n_lambda)
    xs = ball_sample(np.zeros(model.d), radius, SPEED_BOUND_POINTS)

    # identical side components are one coefficient field and enter once:
    # equal terms at every sampled point
    unique = {}
    for comp in tuple(model.left) + tuple(model.right):
        key = (comp.axis, tuple((c, None if f is None else np.asarray(f, dtype=float).tobytes())
                                for c, f in comp.terms(xs)))
        unique.setdefault(key, comp)

    total = np.zeros((xs.shape[0], lam.shape[0]))
    X = xs[:, None, :]
    L = lam[None, :]
    for comp in unique.values():
        if which == "lambda":
            g = comp.lambda_derivative(X, L)
        else:
            g = comp.mixed_derivative(X, L, comp.axis)
        total += np.broadcast_to(np.asarray(g, dtype=float), total.shape) ** 2
    return SpeedBound(
        value=float(np.sqrt(total.max())),
        radius=float(radius),
        state_bound=float(state_bound),
        lambda_range=(float(lo), float(hi)),
        n_lambda=n_lambda,
        n_x=xs.shape[0],
    )


def speed_bound(model, radius: float, state_bound: float, n_lambda: int = SPEED_BOUND_STATES) -> SpeedBound:
    """Finite speed of propagation: max over sampled x in B(0, radius) and
    admissible lambda of the stacked left/right lambda-derivative norm."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    return _stacked_derivative_max(model, radius, state_bound, n_lambda, "lambda")


def mixed_derivative_bound(model, radius: float, state_bound: float) -> SpeedBound:
    """Growth constant: same stacked max over the mixed derivatives
    d^2 f_j / (dx_j dlam), used by the cone growth estimate."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    return _stacked_derivative_max(model, radius, state_bound, SPEED_BOUND_STATES, "mixed")


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

    @property
    def height(self) -> float:
        return self.radius / self.speed

    def section_radius(self, t: float) -> float:
        return self.radius - self.speed * t

    def contains(self, t, x) -> np.ndarray:
        """Strict membership |x - c| < R - N t with t < R / N."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ValueError("cone membership requires t >= 0")
        pts = as_points(x, len(self.center))
        dist = np.linalg.norm(pts - np.asarray(self.center), axis=-1)
        return (dist < self.radius - self.speed * t) & (t < self.height)
