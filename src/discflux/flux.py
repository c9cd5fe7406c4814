"""Flux models: piecewise-smooth fluxes with a Heaviside jump across an
interface, the smoothing weights that regularize the jump, mollification of
rough fluxes, and the structural checkers (zero boundary flux,
non-degeneracy).

Evaluation contract: spatial points have shape (..., d), states broadcast
against the leading shape, results have the broadcast leading shape.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .geometry import Box, as_points

if TYPE_CHECKING:
    from .geometry import Interface


def smoothstep(z):
    """Monotone C1 profile: 0 for z <= -1, 1 for z >= 1, cubic 3 s^2 - 2 s^3
    with s = (z + 1) / 2 in between."""
    s = np.clip((np.asarray(z, dtype=float) + 1.0) * 0.5, 0.0, 1.0)
    out = s * s * (3.0 - 2.0 * s)
    if np.isscalar(z) or getattr(z, "ndim", 1) == 0:
        return float(out)
    return out


def smoothing_weights(offset, eps: float):
    """(left, right) weights smoothstep(-offset/eps), smoothstep(offset/eps)
    that smear the interface Heaviside over width eps."""
    if eps <= 0:
        raise ValueError("smoothing width eps must be positive")
    z = np.asarray(offset, dtype=float) / eps
    return smoothstep(-z), smoothstep(z)


def horner(u, coeffs):
    """sum_j coeffs[j] u^j in numpy.polynomial.polynomial.polyval's operation
    order, so finite states give its results bit for bit (its first term,
    coeffs[-1] + u * 0, is coeffs[-1] for them)."""
    out = coeffs[-1] + u * 0 if len(coeffs) == 1 else coeffs[-2] + coeffs[-1] * u
    for c in coeffs[-3::-1]:
        out = c + out * u
    return out


@lru_cache(maxsize=None)
def derivative_coeffs(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    """Ascending coefficients of the state derivative of sum_j coeffs[j] lam^j."""
    return tuple(j * c for j, c in enumerate(coeffs))[1:] or (0.0,)


def term_sum(terms, lam, derivative: bool = False):
    """sum_i factor_i * P_i(lam) (or P_i'(lam)) over terms ((coeffs, factor),
    ...); each term is factor * horner(lam, coeffs), a None factor is 1."""
    lam = np.asarray(lam, dtype=float)
    total = None
    for coeffs, factor in terms:
        v = horner(lam, derivative_coeffs(coeffs) if derivative else coeffs)
        if factor is not None:
            v = factor * v
        total = v if total is None else total + v
    return total


@dataclass(frozen=True)
class FluxComponent:
    """One directional component f_k(x, lam) of a flux, described as a sum of
    state polynomials with spatial factors: terms(x) returns ((coeffs,
    factor), ...) with f(x, lam) = sum_i factor_i * P_i(lam), P_i the
    ascending coefficient tuple and factor_i an array over the points x or
    None (1).  The solver, the speed bounds and the flattening, extension and
    mollification transformations all work on the terms.  mixed, when given,
    is the analytic d^2 f / (dx_axis dlam) as mixed(x, lam, axis).
    """

    axis: int
    terms: Callable
    mixed: Callable | None = None

    def value(self, x, lam):
        return term_sum(self.terms(x), lam)

    def lambda_derivative(self, x, lam):
        return term_sum(self.terms(x), lam, derivative=True)

    def mixed_derivative(self, x, lam, axis: int):
        """d^2 f / (dx_axis dlam); central difference when no analytic form
        was supplied."""
        if self.mixed is not None:
            return self.mixed(x, lam, axis)
        h = 1e-5
        xp = np.array(np.asarray(x, dtype=float), copy=True)
        xm = np.array(xp, copy=True)
        xp[..., axis] += h
        xm[..., axis] -= h
        return (self.lambda_derivative(xp, lam) - self.lambda_derivative(xm, lam)) / (2.0 * h)


def poly_component(axis: int, coeffs: Sequence[float], modulation: Sequence[float] | None = None) -> FluxComponent:
    """Polynomial-in-state component, optionally scaled by an affine spatial
    modulation m(x) = mod[0] + sum mod[1 + k] * x_k: one term (coeffs, m)."""
    coeffs = tuple(map(float, coeffs))
    mod = None if modulation is None else np.asarray(modulation, dtype=float)

    def terms(x):
        return ((coeffs, None if mod is None else mod[0] + np.asarray(x, dtype=float) @ mod[1:]),)

    def mixed(x, lam, k):
        p = horner(np.asarray(lam, dtype=float), derivative_coeffs(coeffs))
        if mod is None:
            return np.zeros(np.broadcast(np.asarray(x)[..., 0], p).shape)
        return mod[1 + k] * np.ones(np.asarray(x)[..., 0].shape) * p

    return FluxComponent(axis, terms, mixed)


# ---------------------------------------------------------------------------
# piecewise flux


@dataclass(frozen=True)
class PiecewiseFlux:
    """Flux with left/right component families separated by an interface.

    interface=None means no jump: the left family is the flux everywhere and
    the smoothed evaluation coincides with the sharp one.
    """

    d: int
    left: tuple[FluxComponent, ...]
    right: tuple[FluxComponent, ...]
    interface: "Interface | None"
    a: float
    b: float
    domain: Box
    name: str | None = None
    spec: dict | None = None

    def __post_init__(self):
        if len(self.left) != self.d or len(self.right) != self.d:
            raise ValueError(f"need {self.d} components per side")
        if not (self.a < self.b):
            raise ValueError("state interval [a, b] is degenerate")
        if self.domain.d != self.d:
            raise ValueError("domain dimension mismatch")

    # -- state domain checks -------------------------------------------------

    def _check_state(self, lam):
        lam = np.asarray(lam, dtype=float)
        slack = 1e-6 * (self.b - self.a)
        if np.any(lam < self.a - slack) or np.any(lam > self.b + slack):
            bad = float(lam.min()) if np.any(lam < self.a - slack) else float(lam.max())
            raise ValueError(f"state {bad} outside [{self.a}, {self.b}]")
        return lam

    # -- evaluation ------------------------------------------------------------

    def evaluate_component(self, k: int, x, lam):
        """Sharp evaluation of component k: left where the interface offset is
        negative, right where positive, the mean of the sides exactly on the
        interface."""
        lam = self._check_state(lam)
        pts = as_points(x, self.d)
        if self.interface is None:
            return self.left[k].value(pts, lam)
        off = self.interface.offset(pts)
        fl = self.left[k].value(pts, lam)
        fr = self.right[k].value(pts, lam)
        out = np.where(off < 0, fl, fr)
        on = off == 0
        if np.any(on):
            out = np.where(on, 0.5 * (fl + fr), out)
        return out

    def evaluate(self, x, lam):
        """Sharp flux vector, shape (..., d)."""
        return np.stack([self.evaluate_component(k, x, lam) for k in range(self.d)], axis=-1)

    def evaluate_component_smoothed(self, k: int, x, lam, eps: float):
        """Smoothed-Heaviside evaluation
        left * smoothstep(-offset/eps) + right * smoothstep(offset/eps); coincides with
        the sharp flux wherever |offset| >= eps."""
        lam = self._check_state(lam)
        pts = as_points(x, self.d)
        if self.interface is None:
            return self.left[k].value(pts, lam)
        wl, wr = smoothing_weights(self.interface.offset(pts), eps)
        return wl * self.left[k].value(pts, lam) + wr * self.right[k].value(pts, lam)

    def evaluate_smoothed(self, x, lam, eps: float):
        return np.stack([self.evaluate_component_smoothed(k, x, lam, eps) for k in range(self.d)], axis=-1)

    def component_lambda_derivative_smoothed(self, k: int, x, lam, eps: float):
        lam = self._check_state(lam)
        pts = as_points(x, self.d)
        if self.interface is None:
            return self.left[k].lambda_derivative(pts, lam)
        wl, wr = smoothing_weights(self.interface.offset(pts), eps)
        return wl * self.left[k].lambda_derivative(pts, lam) + wr * self.right[k].lambda_derivative(pts, lam)

    def side_components(self, x) -> np.ndarray:
        """Side selector: -1 left of the interface, +1 right, 0 on it."""
        pts = as_points(x, self.d)
        if self.interface is None:
            return np.full(pts.shape[:-1], -1.0)
        return np.sign(self.interface.offset(pts))

    def smooth_divergence_at_state(self, x, lam, h: float = 1e-6):
        """Per-side smooth part of div_x f(x, lam) at frozen state: the sum of
        central differences of the side component k along axis k.  The
        interface jump contribution is handled separately by the residuals."""
        lam = self._check_state(lam)
        pts = as_points(x, self.d)
        side = self.side_components(pts)
        out = np.zeros(np.broadcast(pts[..., 0], np.asarray(lam, dtype=float)).shape)
        for comps, mask in ((self.left, side <= 0), (self.right, side > 0)):
            if not np.any(mask):
                continue
            acc = np.zeros_like(out)
            for k in range(self.d):
                xp = np.array(pts, copy=True)
                xm = np.array(pts, copy=True)
                xp[..., k] += h
                xm[..., k] -= h
                acc = acc + (comps[k].value(xp, lam) - comps[k].value(xm, lam)) / (2.0 * h)
            out = np.where(mask, acc, out)
        return out


# ---------------------------------------------------------------------------
# rough fluxes and mollification


@dataclass(frozen=True)
class GeneralBVFlux:
    """Rough flux f in BV(R^d; C^1): d terms callables like FluxComponent's,
    whose spatial factors c_i(x) may jump; mollify_flux smooths them at
    radius eps."""

    d: int
    components: tuple[Callable, ...]
    a: float
    b: float
    domain: Box

    def __post_init__(self):
        if len(self.components) != self.d:
            raise ValueError(f"need {self.d} components")


def _mollifier_nodes(d: int, radius: float, n: int = 21):
    """Tensor Gauss-Legendre nodes/weights against the C1 bump
    (1 - |s|^2)^2 restricted to the unit ball, scaled to `radius` and
    normalized discretely so constants are reproduced exactly."""
    nodes1, w1 = np.polynomial.legendre.leggauss(n)
    grids = np.meshgrid(*([nodes1] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    w = np.ones(pts.shape[0])
    for k in range(d):
        w *= np.meshgrid(*([w1] * d), indexing="ij")[k].ravel()
    r2 = np.sum(pts**2, axis=-1)
    kern = np.where(r2 <= 1.0, (1.0 - r2) ** 2, 0.0)
    w = w * kern
    keep = w > 0
    pts, w = pts[keep], w[keep]
    w = w / w.sum()
    return pts * radius, w


def mollify_flux(model: GeneralBVFlux, eps: float, n_nodes: int = 21) -> PiecewiseFlux:
    """Spatially mollify every component of a rough flux at radius eps: each
    term keeps its state polynomial and its factor becomes (c_i * rho)(x) on
    the quadrature nodes (a None factor stays None).  Returns a jump-free
    PiecewiseFlux, solved like any other."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    offsets, weights = _mollifier_nodes(model.d, eps, n_nodes)

    def make(k: int) -> FluxComponent:
        rough = model.components[k]

        def terms(x):
            shifted = as_points(x, model.d)[..., None, :] - offsets
            return tuple((c, None if f is None else f @ weights) for c, f in rough(shifted))

        return FluxComponent(k, terms)

    comps = tuple(make(k) for k in range(model.d))
    return PiecewiseFlux(
        d=model.d,
        left=comps,
        right=comps,
        interface=None,
        a=model.a,
        b=model.b,
        domain=model.domain,
        name="mollified",
    )


# ---------------------------------------------------------------------------
# structural checkers


@dataclass(frozen=True)
class BoundaryReport:
    passed: bool
    max_abs: float
    tol: float
    witness_x: tuple | None
    witness_state: float | None


def check_boundary_zero(model: PiecewiseFlux, n_samples: int = 256, tol: float = 1e-12) -> BoundaryReport:
    """Sampled check that every component of every side vanishes at both
    endpoint states a and b over the domain box."""
    xs = model.domain.sample(n_samples)
    worst = 0.0
    witness = (None, None)
    for comps in (model.left, model.right):
        for comp in comps:
            for state in (model.a, model.b):
                vals = np.abs(np.asarray(comp.value(xs, state), dtype=float))
                i = int(vals.argmax())
                if vals.flat[i] > worst:
                    worst = float(vals.flat[i])
                    witness = (tuple(xs[i]), float(state))
    passed = worst <= tol
    return BoundaryReport(
        passed=bool(passed),
        max_abs=worst,
        tol=tol,
        witness_x=None if passed else witness[0],
        witness_state=None if passed else witness[1],
    )


@dataclass(frozen=True)
class NondegeneracyReport:
    passed: bool
    threshold: float
    worst_max: float
    witness: dict | None


def _unit_directions(d: int, n: int) -> np.ndarray:
    if d == 1:
        return np.array([[1.0]])
    theta = np.linspace(0.0, np.pi, n, endpoint=False)
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def check_nondegeneracy(
    model: PiecewiseFlux,
    directions: int = 64,
    subintervals: int = 8,
    threshold: float = 1e-8,
    n_x: int = 8,
    n_lambda: int = 33,
) -> NondegeneracyReport:
    """For sampled positions and unit directions, the map
    lam -> xi . d_lam f(x, lam) must not vanish on any state subinterval:
    each subinterval's sampled max of |xi . d_lam f| must clear the
    threshold.  Isolated roots inside a subinterval are harmless."""
    xs = model.domain.sample(n_x)
    dirs = _unit_directions(model.d, directions)
    edges = np.linspace(model.a, model.b, subintervals + 1)
    side = model.side_components(xs)
    worst = np.inf
    witness = None
    for i, x in enumerate(xs):
        comps = model.left if side[i] <= 0 else model.right
        for s in range(subintervals):
            lam = np.linspace(edges[s], edges[s + 1], n_lambda)
            dflam = np.stack([comps[k].lambda_derivative(x[None], lam) for k in range(model.d)], axis=-1)
            proj = np.abs(dflam @ dirs.T)  # (n_lambda, n_dirs)
            per_dir_max = proj.max(axis=0)
            j = int(per_dir_max.argmin())
            if per_dir_max[j] < worst:
                worst = float(per_dir_max[j])
                witness = {
                    "x": tuple(x),
                    "direction": tuple(dirs[j]),
                    "subinterval": (float(edges[s]), float(edges[s + 1])),
                }
    passed = worst >= threshold
    return NondegeneracyReport(
        passed=bool(passed),
        threshold=threshold,
        worst_max=worst,
        witness=None if passed else witness,
    )
