"""Interface geometry: flattening maps, charts, radial extension, cones.

Coordinates are cell-centered numpy points of shape (..., d).  An interface is
the graph x_j = zeta(x_hat) over the remaining coordinates; flattening
subtracts zeta so the interface becomes the hyperplane {x_j = 0}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.stats import qmc


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
        # Unscrambled Halton: reproducible without any seed plumbing.
        h = qmc.Halton(d=self.d, scramble=False)
        u = h.random(n)
        return np.asarray(self.lows) + u * self.widths


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
    h = qmc.Halton(d=d, scramble=False)
    # rejection from the bounding cube; Halton fills space evenly so the
    # acceptance rate is the ball/cube volume ratio
    need = max(n - len(pts), 0)
    while need > 0:
        cand = (2.0 * h.random(max(2 * need, 8)) - 1.0) * radius
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
        dc = np.polynomial.polynomial.polyder(c) if c.size > 1 else np.zeros(1)

        def zeta(xh: np.ndarray) -> np.ndarray:
            if xh.shape[-1] == 0:
                return np.full(xh.shape[:-1], c[0] if c.size else 0.0)
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
            return Interface.zero(axis, d)
        if kind == "affine":
            return Interface.affine(axis, d, coeffs)
        if kind == "poly":
            return Interface.polynomial(axis, d, coeffs)
        raise ValueError(f"unknown zeta kind {kind!r}")

    def to_spec(self) -> dict:
        return {"axis": self.axis + 1, "zeta": dict(self.spec or {"kind": "zero", "coeffs": []})}


# ---------------------------------------------------------------------------
# charts and exclusion sets


@dataclass(frozen=True)
class Chart:
    """Ball B(center, radius) in original coordinates whose flattened image
    must contain B(flatten(center), flattened_radius)."""

    center: tuple[float, ...]
    radius: float
    interface: Interface
    flattened_radius: float

    def __post_init__(self):
        if self.radius <= 0 or self.flattened_radius <= 0:
            raise ValueError("chart radii must be positive")

    @property
    def flattened_center(self) -> np.ndarray:
        return self.interface.flatten(np.asarray(self.center, dtype=float))

    def validate(self, n: int = 256) -> dict:
        """Sampled check that unflatten(B(x_tilde, R)) lies inside B(center, r)."""
        ctil = self.flattened_center
        pts = ball_sample(ctil, self.flattened_radius, n)
        back = self.interface.unflatten(pts)
        dist = np.linalg.norm(back - np.asarray(self.center), axis=-1)
        worst = float(dist.max())
        return {"ok": bool(worst < self.radius), "worst_distance": worst, "radius": self.radius}


@dataclass(frozen=True)
class ExclusionSets:
    """Finite unions of balls around the structure-failure sets, one union per
    interface axis, with a shared neighborhood width epsilon."""

    balls: dict
    epsilon: float

    def validate(self) -> dict:
        """Pairwise disjointness of the epsilon-fattened unions across axes."""
        worst = math.inf
        worst_pair = None
        axes = sorted(self.balls)
        for i, ja in enumerate(axes):
            for jb in axes[i + 1 :]:
                for ca, ra in self.balls[ja]:
                    for cb, rb in self.balls[jb]:
                        gap = float(np.linalg.norm(np.asarray(ca) - np.asarray(cb))) - (
                            ra + rb + 2.0 * self.epsilon
                        )
                        if gap < worst:
                            worst = gap
                            worst_pair = (ja, jb, tuple(ca), tuple(cb))
        ok = worst_pair is None or worst > 0.0
        return {"ok": bool(ok), "worst_gap": None if worst_pair is None else worst, "pair": worst_pair}


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

    over the tangential axes k.  Coefficients are read directly in the
    flattened coordinates, matching the local analysis they serve.
    """
    from .flux import FluxComponent

    comps = _side_components(model, side)
    j = interface.axis
    normal = comps[j]
    tang = [comps[k] for k in interface.tangential_axes]
    if interface.d == 1 or not tang:
        return normal

    def value(x, lam):
        g = interface.zeta_gradient(interface.tangential(x))
        out = normal.value(x, lam)
        for m, comp in enumerate(tang):
            out = out - g[..., m] * comp.value(x, lam)
        return out

    def lam_deriv(x, lam):
        g = interface.zeta_gradient(interface.tangential(x))
        out = normal.lambda_derivative(x, lam)
        for m, comp in enumerate(tang):
            out = out - g[..., m] * comp.lambda_derivative(x, lam)
        return out

    def mixed(x, lam, axis):
        # exact for affine zeta; curvature of zeta is not differentiated here
        g = interface.zeta_gradient(interface.tangential(x))
        out = normal.mixed_derivative(x, lam, axis)
        for m, comp in enumerate(tang):
            out = out - g[..., m] * comp.mixed_derivative(x, lam, axis)
        return out

    return FluxComponent(
        axis=j,
        value=value,
        lambda_derivative=lam_deriv,
        x_derivative_of_lambda_derivative=mixed,
    )


def _side_components(model, side: str):
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    comps = model.left if side == "left" else model.right
    return comps


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
    for k in itf.tangential_axes:
        left[k] = model.left[k]
        right[k] = model.right[k]
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
    """Radially extend every side coefficient field about `center`.

    Derivative fields are extended by the same composition, which preserves
    the sup bounds the estimates use."""
    from .flux import FluxComponent, PiecewiseFlux

    def ext_comp(comp):
        mixed = comp.x_derivative_of_lambda_derivative
        return FluxComponent(
            axis=comp.axis,
            value=radial_extend(comp.value, center, radius),
            lambda_derivative=radial_extend(comp.lambda_derivative, center, radius),
            x_derivative_of_lambda_derivative=None if mixed is None else radial_extend(mixed, center, radius),
        )

    cache = {}

    def ext_cached(comp):
        key = id(comp)
        if key not in cache:
            cache[key] = ext_comp(comp)
        return cache[key]

    return PiecewiseFlux(
        d=model.d,
        left=tuple(ext_cached(c) for c in model.left),
        right=tuple(ext_cached(c) for c in model.right),
        interface=model.interface,
        a=model.a,
        b=model.b,
        domain=model.domain,
        name=(model.name + "-extended") if model.name else None,
    )


# ---------------------------------------------------------------------------
# speed bounds and cones


@dataclass(frozen=True)
class SpeedBound:
    value: float
    radius: float
    state_bound: float
    lambda_range: tuple[float, float]
    n_lambda: int
    n_x: int


def _stacked_derivative_max(model, radius, state_bound, n_lambda, n_x, which) -> SpeedBound:
    lo = max(model.a, -state_bound)
    hi = min(model.b, state_bound)
    if not (lo < hi):
        raise ValueError(f"empty lambda sample: [a,b]=[{model.a},{model.b}] against |lam|<={state_bound}")
    lam = np.linspace(lo, hi, n_lambda)
    xs = ball_sample(np.zeros(model.d), radius, n_x)

    # identical side components are one coefficient field and enter once
    unique = []
    seen = set()
    for comp in tuple(model.left) + tuple(model.right):
        key = (comp.axis, comp.poly) if comp.poly is not None else id(comp)
        if key not in seen:
            seen.add(key)
            unique.append(comp)

    total = np.zeros((xs.shape[0], lam.shape[0]))
    X = xs[:, None, :]
    L = lam[None, :]
    for comp in unique:
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


def speed_bound(model, radius: float, state_bound: float, n_lambda: int = 2001, n_x: int = 33) -> SpeedBound:
    """Finite speed of propagation: max over sampled x in B(0, radius) and
    admissible lambda of the stacked left/right lambda-derivative norm."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    return _stacked_derivative_max(model, radius, state_bound, n_lambda, n_x, "lambda")


def mixed_derivative_bound(model, radius: float, state_bound: float, n_lambda: int = 2001, n_x: int = 33) -> SpeedBound:
    """Growth constant: same stacked max over the mixed derivatives
    d^2 f_j / (dx_j dlam), used by the cone growth estimate."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    return _stacked_derivative_max(model, radius, state_bound, n_lambda, n_x, "mixed")


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


def cone_pair_intersection_height(a: Cone, b: Cone) -> float:
    """Largest time at which the two cone sections still intersect."""
    dist = float(np.linalg.norm(np.asarray(a.center) - np.asarray(b.center)))
    t = (a.radius + b.radius - dist) / (a.speed + b.speed)
    return float(min(max(t, 0.0), a.height, b.height))


def cone_cylinder_intersection_height(cone: Cone, center, radius: float, margin: float = 0.0) -> float:
    """Largest time at which the cone section meets B(center, radius + margin)."""
    dist = float(np.linalg.norm(np.asarray(cone.center) - np.asarray(center)))
    t = (cone.radius + radius + margin - dist) / cone.speed
    return float(min(max(t, 0.0), cone.height))


def cone_cutoff_chi(cone_i: Cone, cone_j: Cone, eps: float, t, x, raw: bool = False):
    """Smoothed cutoff for a pair of cones.

    raw=True evaluates the bare product formula
        1 - omega(z_i) * omega(z_j),   z = (|x - c| + N t - R + eps) / eps,
    which is 1 far outside both cones.  The default multiplies by the smoothed
    indicator of each cone so the cutoff is supported in the cone
    intersection: chi > 0 implies strict membership in both cones.
    """
    from .flux import smoothstep

    if eps <= 0:
        raise ValueError("eps must be positive")
    t = np.asarray(t, dtype=float)
    pts = as_points(x, len(cone_i.center))

    def z(cone):
        dist = np.linalg.norm(pts - np.asarray(cone.center), axis=-1)
        return (dist + cone.speed * t - cone.radius + eps) / eps

    wi = smoothstep(z(cone_i))
    wj = smoothstep(z(cone_j))
    chi = 1.0 - wi * wj
    if raw:
        return chi
    return chi * (1.0 - wi) * (1.0 - wj)
