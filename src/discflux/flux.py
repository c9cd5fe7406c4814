"""Flux models: piecewise-smooth fluxes with a Heaviside jump across an
interface, the smoothing weights that regularize the jump, and the exact
check of the paper's two hypotheses (zero boundary flux, non-degeneracy).
This is the package's bottom layer: it imports no other module of it at run
time.

Evaluation contract: PiecewiseFlux.at(points, eps) evaluates the spatial half
once at points of shape (..., d); its value and divergence evaluations take
states broadcast against the leading shape and return the broadcast leading
shape (values keep the states' own shape where no term has a spatial
factor).  The value is smoothed over width eps across the interface, and
sharp, its eps -> 0 limit, without eps.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .geometry import Box, Interface

DIVERGENCE_STEP = 1e-6  # central-difference step of FluxAt.divergence
HYPOTHESIS_TOL = 1e-12  # largest |f| at a or b, and largest slope minor of a degenerate side


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


def smoothstep(z):
    """Monotone C1 profile: 0 for z <= -1, 1 for z >= 1, cubic 3 s^2 - 2 s^3
    with s = (z + 1) / 2 in between."""
    s = np.clip((np.asarray(z, dtype=float) + 1.0) * 0.5, 0.0, 1.0)
    return s * s * (3.0 - 2.0 * s)


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


def sign_changes(c: np.ndarray, a: float, b: float) -> np.ndarray:
    """States in [a, b] where each row of polynomials c (ascending) changes
    sign, NaN padded.  Between the sign changes of its derivative a row is
    monotone, so each such piece holds at most one; it is bisected to full
    precision."""
    n, k = c.shape
    if k < 2:
        return np.empty((n, 0))
    inner = sign_changes(c[:, 1:] * np.arange(1, k), a, b)
    knots = np.nan_to_num(np.sort(np.hstack([np.full((n, 1), a), inner, np.full((n, 1), b)])), nan=b)
    lo, hi = knots[:, :-1], knots[:, 1:]
    rows = [c[:, j, None] for j in range(k)]
    found = horner(lo, rows) * horner(hi, rows) <= 0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        right = horner(mid, rows) * horner(lo, rows) > 0
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    return np.where(found, lo, np.nan)


@lru_cache(maxsize=None)
def derivative_coeffs(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    """Ascending coefficients of the state derivative of sum_j coeffs[j] lam^j."""
    return tuple(j * c for j, c in enumerate(coeffs))[1:] or (0.0,)


def rows_sum(rows, at):
    """sum over rows (coeffs, factors) of at(coeffs) times each factor in
    turn: f_2 * (f_1 * at(coeffs)), added in row order."""
    total = None
    for coeffs, factors in rows:
        v = at(coeffs)
        for f in factors:
            v = f * v
        total = v if total is None else total + v
    return total


def term_sum(terms, lam):
    """sum_i factor_i * P_i(lam) over terms ((coeffs, factor), ...); a None
    factor is 1."""
    lam = np.asarray(lam, dtype=float)
    return rows_sum([(c, () if f is None else (f,)) for c, f in terms], lambda c: horner(lam, c))


def poly_component(coeffs: Sequence[float], modulation: Sequence[float] | None = None) -> Callable:
    """Polynomial-in-state component, optionally scaled by an affine spatial
    modulation m(x) = mod[0] + sum mod[1 + k] * x_k: one term (coeffs, m)."""
    coeffs = tuple(map(float, coeffs))
    mod = None if modulation is None else np.asarray(modulation, dtype=float)

    def terms(x):
        return ((coeffs, None if mod is None else mod[0] + np.asarray(x, dtype=float) @ mod[1:]),)

    return terms


# ---------------------------------------------------------------------------
# piecewise flux


@dataclass(frozen=True)
class PiecewiseFlux:
    """Flux with left/right component families separated by an interface.

    Entry k of a family is its directional component f_k(x, lam), a sum of
    state polynomials with spatial factors given by its terms function:
    terms(x) returns ((coeffs, factor), ...) with f_k(x, lam) = sum_i
    factor_i * P_i(lam), P_i the ascending coefficient tuple and factor_i an
    array over the points x or None (1).  The solver, the speed bounds and
    the flattening and extension transformations all work on the terms.

    interface=None means no jump: the left family is the flux everywhere and
    eps changes no evaluation.
    """

    d: int
    left: tuple[Callable, ...]
    right: tuple[Callable, ...]
    interface: "Interface | None"
    a: float
    b: float
    domain: Box
    name: str | None = None

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

    def at(self, points, eps: float | None = None) -> "FluxAt":
        """The flux at fixed points, ready for evaluation at any states; eps,
        when given, is the width of the smoothed interface, and without it the
        interface is sharp: the sides weigh 1 and 0 off it, 1/2 each on it."""
        return FluxAt(self, points, eps)


class FluxAt:
    """A PiecewiseFlux with its spatial half evaluated once at fixed points:
    the interface offset, the side weights (smoothstep weights of width eps
    when eps is given, Heaviside weights without), and each side's component
    terms on first use (also at the shifts the divergence needs).  Every
    evaluation takes states broadcast against the points' leading shape."""

    def __init__(self, model: PiecewiseFlux, points, eps: float | None):
        self.model = model
        self.points = as_points(points, model.d)
        self.offset = None if model.interface is None else model.interface.offset(self.points)
        if self.offset is None:
            self.weights = None
        elif eps is None:
            self.weights = np.heaviside(-self.offset, 0.5), np.heaviside(self.offset, 0.5)
        else:
            self.weights = smoothing_weights(self.offset, eps)
        self._terms = {}

    def terms(self, side: int, k: int, shift: float = 0.0):
        """Terms of component k of side 0 (left) or 1 (right) at the points
        moved by shift along axis k."""
        key = (side, k, shift)
        if key not in self._terms:
            pts = self.points
            if shift:
                pts = pts.copy()
                pts[..., k] += shift
            self._terms[key] = (self.model.left, self.model.right)[side][k](pts)
        return self._terms[key]

    def rows(self, k: int):
        """Component k of the flux sum over sides of w * (factor * P) as rows
        (coeffs, factors), one per term of each side, its factors applied in
        this order: term factor, weight.  Array factors span the points, so
        that a block of them can be cut."""
        sides = ((0, None),) if self.weights is None else ((0, self.weights[0]), (1, self.weights[1]))
        shape = self.points.shape[:-1]
        return [
            (coeffs, [float(f) if np.ndim(f) == 0 else np.broadcast_to(f, shape)
                      for f in (factor, w) if f is not None])
            for side, w in sides
            for coeffs, factor in self.terms(side, k)
        ]

    def value(self, lam):
        """Flux vector (..., d), summed in the order of rows; the smoothed
        flux equals the sharp one wherever |offset| >= eps."""
        lam = self.model._check_state(lam)
        return np.stack([rows_sum(self.rows(k), lambda c: horner(lam, c))
                         for k in range(self.model.d)], axis=-1)

    def divergence(self, lam):
        """Per-side smooth part of div_x f at the states: the sum over k of
        central differences of component k along axis k, the left side where
        the offset is <= 0 and the right where it is > 0.  The interface jump
        contribution is handled separately by the residuals."""
        lam = self.model._check_state(lam)
        h = DIVERGENCE_STEP
        out = np.zeros(np.broadcast(self.points[..., 0], lam).shape)
        masks = ((0, True),) if self.offset is None else ((0, self.offset <= 0), (1, self.offset > 0))
        for side, mask in masks:
            acc = np.zeros_like(out)
            for k in range(self.model.d):
                acc = acc + (term_sum(self.terms(side, k, h), lam) - term_sum(self.terms(side, k, -h), lam)) / (2.0 * h)
            out = np.where(mask, acc, out)
        return out


# ---------------------------------------------------------------------------
# the paper's hypotheses


def check_hypotheses(model: PiecewiseFlux) -> dict:
    """Check both hypotheses of the paper on each side flux and return their
    margins {"boundary_max", "minor_max"}, or raise ValueError naming a
    witness.  Both are read from one table per side, C[p, k, j], the
    coefficient of lam^j in f_k(x_p, .) at the 3^d lattice {lo, centre,
    hi}^d of the domain box:

    - zero flux at a and b: boundary_max, the largest |f_k(x_p, s)| at
      s = a and b, must not exceed HYPOTHESIS_TOL;
    - non-degeneracy, no xi . f(x, .) constant in lam: the slope table
      C[p, :, 1:] has full rank d, so minor_max, over sides the least of the
      largest |d x d minor| on the lattice, must exceed HYPOTHESIS_TOL.

    Precondition, as for speed_bound: every factor is affine in x, as in
    every preset and flux spec.  Then |f(., s)| peaks at the box corners, and
    a minor has degree <= d <= 2 along each axis, so one that vanishes on the
    lattice vanishes everywhere; one that does not is zero on a null set
    only."""
    d = model.d
    xs = np.stack(np.meshgrid(*zip(model.domain.lows, model.domain.center, model.domain.highs),
                              indexing="ij"), axis=-1).reshape(-1, d)
    terms = [[comp(xs) for comp in comps] for comps in (model.left, model.right)]
    n = max(d + 1, *(len(c) for side in terms for comp in side for c, _ in comp))
    table = np.zeros((2, len(xs), d, n))
    states = (model.a, model.b)
    # quiet: coefficients that overflow give inf and NaN here, which the first check refuses
    with np.errstate(over="ignore", invalid="ignore"):
        for s, side in enumerate(terms):
            for k, comp in enumerate(side):
                for coeffs, factor in comp:
                    table[s, :, k, :len(coeffs)] += np.multiply.outer(np.broadcast_to(
                        1.0 if factor is None else factor, len(xs)), coeffs)
        # ordered (side, k, state, p), so that argmax picks the first of equal maxima in that order
        ends = np.abs(horner(np.reshape(states, (2, 1, 1, 1)), np.moveaxis(table, -1, 0))).transpose(1, 3, 0, 2)
    s, k, t, p = np.unravel_index(ends.argmax(), ends.shape)
    if not ends[s, k, t, p] <= HYPOTHESIS_TOL:  # NaN, where the coefficients overflow, is refused too
        raise ValueError(f"the flux must vanish at a = {model.a} and b = {model.b}, but |f| = "
                         f"{ends[s, k, t, p]:.6g} at state {states[t]} and x = ({_point(xs[p])})")

    cols = list(combinations(range(n - 1), d))
    minors = np.abs(np.linalg.det(np.moveaxis(table[..., 1:][..., cols], 2, 3))).max(axis=-1)
    s = int(minors.max(axis=1).argmin())
    if not minors[s].max() > HYPOTHESIS_TOL:
        p = int(minors[s].argmax())
        xi = np.linalg.svd(table[s, p, :, 1:])[0][:, -1]
        raise ValueError(f"the {('left', 'right')[s]} flux is degenerate: xi . f(x, lam) does not depend on "
                         f"lam for xi = ({_point(xi)}) at x = ({_point(xs[p])}), and no {d} x {d} minor "
                         f"of its slopes exceeds {minors[s].max():.3g} on the box")
    return {"boundary_max": float(ends.max()), "minor_max": float(minors.max(axis=1).min())}


def _point(v) -> str:
    return ", ".join(f"{c:.6g}" for c in v)
