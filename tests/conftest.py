"""Shared fixtures: the handful of viscous runs several test modules reuse.

Session scope keeps the suite fast; every consumer treats trajectories as
read-only.
"""
import numpy as np
import pytest
from hypothesis import strategies as st

import discflux as dx
from discflux.entropy import l1_distance
from discflux.flux import as_points, derivative_coeffs, smoothing_weights, term_sum
from discflux.solver import Trajectory


def component_value(comp, x, lam):
    """f_k(x, lam) of a side component, its terms function, term by term, for the oracles."""
    return term_sum(comp(x), lam)


def lambda_derivative(comp, x, lam):
    """d f_k / d lam of a side component, its terms function, term by term, for the oracles."""
    return term_sum(((derivative_coeffs(c), f) for c, f in comp(x)), lam)


def residual(row) -> float:
    """A residual from its row of ResidualWorkspace.terms or .kato: the sum of the terms from left to right."""
    return sum(row.tolist())


def riemann_field(grid: dx.Grid, left: float, right: float, position: float = 0.0) -> dx.Field:
    x = grid.points()[..., 0]
    return dx.Field(grid, np.where(x < position, left, right).astype(float), 0.0)


def l1_ratios(ta: Trajectory, tb: Trajectory) -> list[float]:
    """The L1 distance of a pair of trajectories at each recorded time over
    their initial distance."""
    d0 = l1_distance(ta.field(0), tb.field(0))
    return [l1_distance(ta.field(i), tb.field(i)) / d0 for i in range(len(ta.times))]


def block_field(grid: dx.Grid, lo: float, hi: float, inside: float, outside: float = 0.0) -> dx.Field:
    x = grid.points()[..., 0]
    vals = np.where((x >= lo) & (x < hi), inside, outside).astype(float)
    return dx.Field(grid, vals, 0.0)


# a 2d flux with a curved interface x1 = 0.1 x2 + 0.3 x2^2 and affine
# modulations on both sides, so flattening gives a normal flux whose terms
# carry spatially varying factors
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


# the paper's flux class, drawn as JSON flux specs


@st.composite
def admissible_specs(draw):
    """A flux spec in d = 1 or 2 on [-1, 1]^d whose every side component is
    m(x) (lam - a)(b - lam) q(lam), q of degree <= 2 and m an affine
    modulation positive on the box (or none), with or without an interface
    (a point in 1d, a quadratic zeta in 2d).  Integer and quarter
    coefficients make a degenerate draw exactly degenerate."""
    d = draw(st.integers(1, 2))
    a = draw(st.integers(-2, 0)) / 2
    b = a + draw(st.integers(1, 4)) / 2
    quarter = st.integers(-3, 3).map(lambda v: v / 4)

    def component():
        q = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any))
        comp = {"poly_lambda": np.polynomial.polynomial.polymul([-a * b, a + b, -1.0], q).tolist()}
        if draw(st.booleans()):
            slopes = [draw(quarter) for _ in range(d)]
            comp.update(x_modulation="affine",
                        x_modulation_coeffs=[sum(map(abs, slopes)) + draw(st.integers(1, 4)) / 4, *slopes])
        return comp

    spec = {"d": d, "a": a, "b": b, "interface": None, "left": [component() for _ in range(d)]}
    if draw(st.booleans()):
        spec["interface"] = {"axis": draw(st.integers(1, d)),
                             "zeta": {"kind": "poly", "coeffs": [draw(quarter) for _ in range(2 * d - 1)]}}
        spec["right"] = [component() for _ in range(d)]
    return spec


# the flux evaluations as per-call formulas on the side components, oracles
# for PiecewiseFlux.at: every call evaluates the terms afresh


def proportion(base, coeffs):
    """s with s * base == coeffs exactly, s taken at the first nonzero entry
    of base, or None: also for an all-zero base or unequal lengths."""
    base, coeffs = np.asarray(base, dtype=float), np.asarray(coeffs, dtype=float)
    nonzero = np.flatnonzero(base)
    if base.shape != coeffs.shape or not nonzero.size:
        return None
    with np.errstate(all="ignore"):
        s = coeffs[nonzero[0]] / base[nonzero[0]]
        return s if np.array_equal(s * base, coeffs) else None


def sharp_flux(model, x, lam):
    """Flux vector (..., d): w_L f_L + w_R f_R with the weights 1 and 0 on
    the side of the interface offset's sign, 1/2 each on the interface,
    added term by term, left side first: ((w_L L_1 + w_L L_2) + w_R R_1) +
    w_R R_2 for two terms a side, where no state polynomial is a multiple
    of another.  A term m P' with P' = s P for the polynomial P of an
    earlier term n P is folded into it: (w n + s (w' m)) P."""
    pts = as_points(x, model.d)
    if model.interface is None:
        return np.stack([component_value(c, pts, lam) for c in model.left], axis=-1)
    off = model.interface.offset(pts)
    weights = (np.where(off < 0, 1.0, np.where(off > 0, 0.0, 0.5)),
               np.where(off > 0, 1.0, np.where(off < 0, 0.0, 0.5)))
    cols = []
    for k in range(model.d):
        groups = []  # (coeffs, [(s, factor, w), ...]) per distinct state polynomial
        for comps, w in zip((model.left, model.right), weights):
            for coeffs, factor in comps[k](pts):
                s = None
                for base, members in groups:
                    s = proportion(base, coeffs)
                    if s is not None:
                        members.append((s, factor, w))
                        break
                if s is None:
                    groups.append((coeffs, [(1.0, factor, w)]))
        terms = []
        for coeffs, members in groups:
            if len(members) == 1:
                _, factor, w = members[0]
                terms.append(w * term_sum(((coeffs, factor),), lam))
            else:
                total = None
                for s, factor, w in members:
                    f = w if factor is None else factor * w
                    total = f if total is None else total + s * f
                terms.append(total * term_sum(((coeffs, None),), lam))
        cols.append(sum(terms[1:], terms[0]))
    return np.stack(cols, axis=-1)


def smoothed_flux(model, x, lam, eps, derivative=False):
    """w_L f_L + w_R f_R (..., d), or its state derivative."""
    pts = as_points(x, model.d)

    def side(comp):
        return lambda_derivative(comp, pts, lam) if derivative else component_value(comp, pts, lam)

    if model.interface is None:
        return np.stack([side(c) for c in model.left], axis=-1)
    wl, wr = smoothing_weights(model.interface.offset(pts), eps)
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
            acc = acc + (component_value(comps[k], xp, lam) - component_value(comps[k], xm, lam)) / (2.0 * h)
        out = np.where(mask, acc, out)
    return out


# states per point and per zoom of the dense (speed, mixed) oracle, which
# checks the speed bound and gives criterion 9 its growth constant
N_STATES = 401


def _box_grid(box, n):
    axes = [np.linspace(lo, hi, n) for lo, hi in zip(box.lows, box.highs)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, box.d)


def _distinct_components(model, xs, lam):
    """(axis, component) of the side components, those of one axis with
    equal lambda derivatives at every (x, lam) of the grid taken once."""
    out, seen = [], []
    for axis, comp in [*enumerate(model.left), *enumerate(model.right)]:
        g = np.asarray(lambda_derivative(comp, xs[:, None, :], lam[None, :]), dtype=float)
        g = np.broadcast_to(g, (xs.shape[0], lam.size))
        if not any(axis == k and np.array_equal(g, h) for k, h in seen):
            seen.append((axis, g))
            out.append((axis, comp))
    return out


def _dense_max(norm, xs, a, b):
    """max of norm(x, lam) (arrays (m, 1, d) and (m, L)) over the points xs
    and lam in [a, b]: N_STATES states per point, then three zooms onto each
    local max in lam."""
    lam = np.linspace(a, b, N_STATES)
    v = norm(xs[:, None, :], np.broadcast_to(lam, (xs.shape[0], N_STATES)))
    best = float(v.max())
    left = np.concatenate([np.ones((v.shape[0], 1), bool), v[:, 1:] > v[:, :-1]], axis=1)
    right = np.concatenate([v[:, :-1] >= v[:, 1:], np.ones((v.shape[0], 1), bool)], axis=1)
    rows, cols = np.nonzero(left & right)
    lo, hi = lam[np.maximum(cols - 1, 0)], lam[np.minimum(cols + 1, N_STATES - 1)]
    for _ in range(3):
        z = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, N_STATES)
        w = norm(xs[rows][:, None, :], z)
        j = w.argmax(axis=1)
        best = max(best, float(w.max()))
        pick = np.arange(len(rows))
        lo, hi = z[pick, np.maximum(j - 1, 0)], z[pick, np.minimum(j + 1, N_STATES - 1)]
    return best


def dense_bounds(model, box, n_x):
    """Dense (speed, mixed) maxima of the stacked norms over the box and
    [a, b]; the mixed derivative is a difference quotient, exact for the
    affine factors of a flux spec."""
    xs = _box_grid(box, n_x)
    comps = _distinct_components(model, xs, np.linspace(model.a, model.b, N_STATES))
    h = 0.25

    def speed(x, lam):
        return np.sqrt(sum(np.broadcast_to(lambda_derivative(c, x, lam), lam.shape) ** 2 for _, c in comps))

    def mixed(x, lam):
        total = 0.0
        for axis, c in comps:
            e = h * np.eye(model.d)[axis]
            total = total + ((lambda_derivative(c, x + e, lam) - lambda_derivative(c, x - e, lam)) / (2 * h)) ** 2
        return np.sqrt(np.broadcast_to(total, lam.shape))

    return _dense_max(speed, xs, model.a, model.b), _dense_max(mixed, xs, model.a, model.b)


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
