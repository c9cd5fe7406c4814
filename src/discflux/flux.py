"""Flux models: piecewise-smooth fluxes with a Heaviside jump across an
interface, the smoothing profile that regularizes the jump, mollification of
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


@dataclass(frozen=True)
class SmoothingProfile:
    """Profile omega used to smear the interface Heaviside over width eps."""

    omega: Callable = smoothstep

    def weights(self, offset, eps: float):
        """(left, right) weights omega(-offset/eps), omega(offset/eps)."""
        if eps <= 0:
            raise ValueError("smoothing width eps must be positive")
        z = np.asarray(offset, dtype=float) / eps
        return self.omega(-z), self.omega(z)


DEFAULT_PROFILE = SmoothingProfile()


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
    """One directional component f_k(x, lam) of a flux, with its state
    derivative and (optionally) the mixed x-state derivative.

    terms, when set, is the component's one description as a sum of state
    polynomials with spatial factors: terms(x) returns ((coeffs, factor),
    ...) with f(x, lam) = sum_i factor_i * P_i(lam), P_i the ascending
    coefficient tuple and factor_i an array over the points x or None (1).
    The solver, the speed bounds and the flattening and radial-extension
    transformations work on it; components without terms (mollified or
    hand-made callables) can be evaluated but not solved.
    """

    axis: int
    value: Callable
    lambda_derivative: Callable
    x_derivative_of_lambda_derivative: Callable | None = None
    terms: Callable | None = None

    def mixed_derivative(self, x, lam, axis: int):
        """d^2 f / (dx_axis dlam); central difference fallback when no
        analytic form was supplied."""
        if self.x_derivative_of_lambda_derivative is not None:
            return self.x_derivative_of_lambda_derivative(x, lam, axis)
        h = 1e-5
        xp = np.array(np.asarray(x, dtype=float), copy=True)
        xm = np.array(xp, copy=True)
        xp[..., axis] += h
        xm[..., axis] -= h
        return (self.lambda_derivative(xp, lam) - self.lambda_derivative(xm, lam)) / (2.0 * h)


def term_component(axis: int, terms: Callable, mixed: Callable | None = None) -> FluxComponent:
    """Component described by terms(x) -> ((coeffs, factor), ...); its value
    and state derivative are term sums."""
    return FluxComponent(axis, lambda x, lam: term_sum(terms(x), lam),
                         lambda x, lam: term_sum(terms(x), lam, derivative=True), mixed, terms)


def require_terms(comp: FluxComponent, side: str) -> Callable:
    """The terms of a component that is to be solved or transformed."""
    if comp.terms is None:
        raise ValueError(f"the {side} flux component of axis {comp.axis} has no polynomial terms: "
                         "mollified or callable-only fluxes cannot be solved")
    return comp.terms


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

    return term_component(axis, terms, mixed)


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

    def evaluate_component_smoothed(self, k: int, x, lam, eps: float, profile: SmoothingProfile = DEFAULT_PROFILE):
        """Smoothed-Heaviside evaluation
        left * omega(-offset/eps) + right * omega(offset/eps); coincides with
        the sharp flux wherever |offset| >= eps."""
        lam = self._check_state(lam)
        pts = as_points(x, self.d)
        if self.interface is None:
            return self.left[k].value(pts, lam)
        wl, wr = profile.weights(self.interface.offset(pts), eps)
        return wl * self.left[k].value(pts, lam) + wr * self.right[k].value(pts, lam)

    def evaluate_smoothed(self, x, lam, eps: float, profile: SmoothingProfile = DEFAULT_PROFILE):
        return np.stack(
            [self.evaluate_component_smoothed(k, x, lam, eps, profile) for k in range(self.d)], axis=-1
        )

    def component_lambda_derivative_smoothed(
        self, k: int, x, lam, eps: float, profile: SmoothingProfile = DEFAULT_PROFILE
    ):
        lam = self._check_state(lam)
        pts = as_points(x, self.d)
        if self.interface is None:
            return self.left[k].lambda_derivative(pts, lam)
        wl, wr = profile.weights(self.interface.offset(pts), eps)
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


def _identity_radius(eps: float) -> float:
    return eps


@dataclass(frozen=True)
class GeneralBVFlux:
    """Flux given by d raw component callables (x, lam) -> value, possibly
    discontinuous in x, smooth in lam, together with the rule tying the
    mollification radius to the interface-smoothing width."""

    d: int
    components: tuple[Callable, ...]
    a: float
    b: float
    domain: Box
    mollification_radius_policy: Callable[[float], float] = _identity_radius

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
    """Spatially mollify every component of a rough flux at the radius given
    by the model's policy.  Returns a jump-free PiecewiseFlux so the smooth
    result plugs into everything downstream; state derivatives come from
    central differences of the mollified values."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    radius = model.mollification_radius_policy(eps)
    if radius <= 0:
        raise ValueError("mollification radius must be positive")
    offsets, weights = _mollifier_nodes(model.d, radius, n_nodes)
    hl = 1e-6 * (model.b - model.a)

    def make(k: int) -> FluxComponent:
        raw = model.components[k]

        def value(x, lam):
            pts = as_points(x, model.d)
            lam = np.asarray(lam, dtype=float)
            shifted = pts[..., None, :] - offsets
            vals = raw(shifted, lam[..., None] if lam.ndim else lam)
            return np.asarray(vals) @ weights

        def lam_deriv(x, lam):
            lam = np.asarray(lam, dtype=float)
            return (value(x, lam + hl) - value(x, lam - hl)) / (2.0 * hl)

        return FluxComponent(axis=k, value=value, lambda_derivative=lam_deriv)

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


def check_boundary_zero(model, n_samples: int = 256, tol: float = 1e-12) -> BoundaryReport:
    """Sampled check that every component of every side vanishes at both
    endpoint states a and b over the domain box."""
    xs = model.domain.sample(n_samples)
    sides = [model.left, model.right] if isinstance(model, PiecewiseFlux) else [model.components]
    worst = 0.0
    witness = (None, None)
    for comps in sides:
        for comp in comps:
            fn = comp.value if isinstance(comp, FluxComponent) else comp
            for state in (model.a, model.b):
                vals = np.abs(np.asarray(fn(xs, state), dtype=float))
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
