"""Admissibility verification: interface traces, Kruzhkov-type entropy
residuals (with the interface jump term; a flattened model gives them in
transformed coordinates), the Kato inequality for solution pairs, L1
distances and cone-of-dependence checks.

All residuals are evaluated as space-time quadratures over recorded
trajectories: midpoint rule in space (cell centers), trapezoid in time.  A
residual is acceptable when it is bounded below by -tol with tol scaled by
the C1 size of the test function, so that shrinking bumps cannot pass by
smallness alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .flux import PiecewiseFlux, term_sum
from .geometry import Cone, flatten_model, halton
from .solver import Field, Trajectory

BUMP_SLOPE_MAX = 8.0 / (3.0 * math.sqrt(3.0))  # max |d/ds (1-s^2)^2|
# the columns of ResidualWorkspace.terms and .kato, whose sum is the residual
ENTROPY_TERMS = ("time", "convection", "divergence", "interface", "initial")
KATO_TERMS = ("time", "convection", "initial")


def _bump(s: np.ndarray) -> np.ndarray:
    s = np.clip(s, -1.0, 1.0)
    w = 1.0 - s * s
    return w * w


def _bump_derivative(s: np.ndarray) -> np.ndarray:
    s = np.clip(s, -1.0, 1.0)
    return -4.0 * s * (1.0 - s * s)


@dataclass(frozen=True)
class TestFunction:
    """Nonnegative tensor-product quartic bump

        phi(t, x) = B((t-t0)/r_t) * prod_k B((x_k-c_k)/r_k),  B(s) = (1-s^2)^2,

    compactly supported and C1; the exact C1 norm is available in closed form.
    """

    time_center: float
    time_radius: float
    space_center: tuple[float, ...]
    space_radius: tuple[float, ...]
    label: str = "phi"

    def __post_init__(self):
        if self.time_radius <= 0 or any(r <= 0 for r in self.space_radius):
            raise ValueError("bump radii must be positive")
        if len(self.space_center) != len(self.space_radius):
            raise ValueError("space center and radius dimension mismatch")

    @property
    def d(self) -> int:
        return len(self.space_center)

    def _space_factors(self, x: np.ndarray) -> list[np.ndarray]:
        return [
            _bump((x[..., k] - self.space_center[k]) / self.space_radius[k])
            for k in range(self.d)
        ]

    def value(self, t, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = _bump((np.asarray(t, dtype=float) - self.time_center) / self.time_radius)
        for f in self._space_factors(x):
            out = out * f
        return out

    def time_derivative(self, t, x) -> np.ndarray:
        s = (np.asarray(t, dtype=float) - self.time_center) / self.time_radius
        out = _bump_derivative(s) / self.time_radius
        for f in self._space_factors(np.asarray(x, dtype=float)):
            out = out * f
        return out

    def gradient(self, t, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        bt = _bump((np.asarray(t, dtype=float) - self.time_center) / self.time_radius)
        factors = self._space_factors(x)
        cols = []
        for k in range(self.d):
            s = (x[..., k] - self.space_center[k]) / self.space_radius[k]
            col = bt * _bump_derivative(s) / self.space_radius[k]
            for m, f in enumerate(factors):
                if m != k:
                    col = col * f
            cols.append(col)
        return np.stack(cols, axis=-1)

    def support(self, grid, times) -> tuple[slice, ...]:
        """Index slices of the recorded `times` and of each axis's cell
        centers of `grid` where |s| < 1, s as the bump computes it; off that
        box the bump and both its derivatives are exactly zero."""
        def inside(coords, center, radius):
            hit = np.flatnonzero(np.abs((np.asarray(coords, dtype=float) - center) / radius) < 1.0)
            return slice(int(hit[0]), int(hit[-1]) + 1) if hit.size else slice(0, 0)

        return (inside(times, self.time_center, self.time_radius),
                *(inside(grid.centers(k), c, r)
                  for k, (c, r) in enumerate(zip(self.space_center, self.space_radius))))

    @property
    def c1_norm(self) -> float:
        """sup|phi| + sum of sup|partial phi| (attained, not estimated)."""
        return float(1.0 + BUMP_SLOPE_MAX * (1.0 / self.time_radius + sum(1.0 / r for r in self.space_radius)))

    def validate(self, box, final_time: float):
        """Support must sit inside the spatial box and end by final_time."""
        problems = []
        if self.time_center + self.time_radius > final_time + 1e-12:
            problems.append(f"time support ends at {self.time_center + self.time_radius} > T={final_time}")
        for k, (lo, hi) in enumerate(zip(box.lows, box.highs)):
            if self.space_center[k] - self.space_radius[k] < lo - 1e-12 or self.space_center[k] + self.space_radius[k] > hi + 1e-12:
                problems.append(f"axis {k} support outside [{lo}, {hi}]")
        if problems:
            raise ValueError(f"test function {self.label}: " + "; ".join(problems))


def lambda_battery(a: float, b: float) -> np.ndarray:
    """Endpoint states plus the nine interior tenths of [a, b]."""
    return np.concatenate([[a], a + (b - a) * np.arange(1, 10) / 10.0, [b]])


def bump_battery(box, final_time: float, count: int = 20) -> list[TestFunction]:
    """Deterministic battery: one large bump centered in space-time (its
    support spans [0, T]), the rest scattered on a Halton lattice."""
    d = box.d
    widths = box.widths
    phis = [
        TestFunction(
            time_center=final_time / 2.0,
            time_radius=final_time / 2.0,
            space_center=box.center,
            space_radius=tuple(0.45 * w for w in widths),
            label="phi00",
        )
    ]
    if count > 1:
        rt = 0.3 * final_time
        radii = tuple(0.25 * w for w in widths)
        for i, p in enumerate(halton(count - 1, 1 + d)):
            tc = p[0] * (final_time - rt)
            center = tuple(
                lo + r + p[1 + k] * (w - 2 * r)
                for k, (lo, w, r) in enumerate(zip(box.lows, widths, radii))
            )
            phis.append(
                TestFunction(
                    time_center=float(tc),
                    time_radius=rt,
                    space_center=center,
                    space_radius=radii,
                    label=f"phi{i + 1:02d}",
                )
            )
    return phis


# ---------------------------------------------------------------------------
# interface traces


@dataclass(frozen=True)
class TraceField:
    """One-sided interface limits per recorded time, extrapolated linearly
    from the 2nd and 3rd cells on each side of the interface, in [a, b]."""

    times: tuple[float, ...]
    tangential_points: np.ndarray  # (m, d-1)
    surface_points: np.ndarray  # (m, d)
    left: np.ndarray  # (n_times, m)
    right: np.ndarray
    tangential_weight: float

    @property
    def averaged(self) -> np.ndarray:
        return 0.5 * (self.left + self.right)


def interface_trace(trajectory: Trajectory, model: PiecewiseFlux) -> TraceField:
    """Extract p_u along the interface of `model`, clamped to [a, b].

    Requires the layer to be resolved: at least 4 cells (in total) within
    normal distance 4*eps of the interface on every tangential row, eps the
    run's epsilon from the trajectory manifest.
    """
    grid = trajectory.grid
    interface = model.interface
    j = interface.axis
    eps = trajectory.manifest.get("epsilon")
    if eps is None:
        raise ValueError("interface_trace needs the run's epsilon (not found in the trajectory manifest)")

    centers_j = grid.centers(j)
    nj = grid.counts[j]
    tang_axes = [k for k in range(grid.d) if k != j]
    if tang_axes:
        mesh = np.meshgrid(*[grid.centers(k) for k in tang_axes], indexing="ij")
        tang_pts = np.stack(mesh, axis=-1).reshape(-1, len(tang_axes))
    else:
        tang_pts = np.zeros((1, 0))
    zeta_rows = np.asarray(interface.zeta(tang_pts), dtype=float).reshape(-1)
    m = tang_pts.shape[0]

    offsets = centers_j[None, :] - zeta_rows[:, None]  # (m, nj)
    resolved = (np.abs(offsets) <= 4.0 * eps).sum(axis=1)
    if resolved.min() < 4:
        raise ValueError(
            f"interface not resolved: only {int(resolved.min())} cells within 4*eps={4 * eps:.3g} "
            f"of the interface (need 4); refine the grid or enlarge eps"
        )
    split = np.searchsorted(centers_j, zeta_rows)  # first cell on the right side
    if split.min() < 3 or split.max() > nj - 3:
        raise ValueError("interface too close to the domain boundary for trace extraction")

    # states with the normal axis last: (n_times, m, nj)
    vn = np.moveaxis(trajectory.states, 1 + j, -1).reshape(len(trajectory.times), m, nj)
    rows = np.arange(m)

    def extrapolate(i_near, i_far):
        o1 = offsets[rows, i_near][None, :]
        o2 = offsets[rows, i_far][None, :]
        v1 = vn[:, rows, i_near]
        v2 = vn[:, rows, i_far]
        return v1 - o1 * (v2 - v1) / (o2 - o1)

    left = np.clip(extrapolate(split - 2, split - 3), model.a, model.b)
    right = np.clip(extrapolate(split + 1, split + 2), model.a, model.b)

    surface = np.insert(tang_pts, j, zeta_rows, axis=-1)
    weight = float(np.prod([grid.dx[k] for k in tang_axes])) if tang_axes else 1.0
    return TraceField(
        times=trajectory.times,
        tangential_points=tang_pts,
        surface_points=surface,
        left=left,
        right=right,
        tangential_weight=weight,
    )


# ---------------------------------------------------------------------------
# residual quadratures


def _time_weights(times: np.ndarray) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    w = np.empty_like(t)
    w[0] = 0.5 * (t[1] - t[0])
    w[-1] = 0.5 * (t[-1] - t[-2])
    w[1:-1] = 0.5 * (t[2:] - t[:-2])
    return w


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) over two (times, points) tables in numpy's own loop.  BLAS
    ddot threads: on two cores it ran up to 80x slower, and its summation
    order depends on the thread count."""
    return np.einsum("ij,ij->", a, b)


def _column_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum over times of a * b, per cell of two (times, cells) tables, in
    numpy's own loop like _dot."""
    return np.einsum("ij,ij->j", a, b)


def _phi_tables(phi, t: np.ndarray, w: np.ndarray, points: np.ndarray) -> list[np.ndarray]:
    """One grad phi component per axis and phi_t at the times t (a column)
    and the cells `points`, each from one broadcast call and multiplied by
    the trapezoid weights w (a column)."""
    grad = phi.gradient(t, points)
    tables = [grad[..., k] * w for k in range(points.shape[-1])]
    del grad  # the unweighted tables never outlive their weighting
    tables.append(phi.time_derivative(t, points) * w)
    return tables


def _box(table: np.ndarray, counts: tuple[int, ...], box: tuple[slice, ...]) -> np.ndarray:
    """The block `box` (one slice over the first axis, then one per grid
    axis) of a (rows, cells, ...) table whose cells run over a grid of
    `counts` in C order: a view of shape (rows, *block counts, ...)."""
    return table.reshape(table.shape[:1] + counts + table.shape[2:])[box]


class ResidualWorkspace:
    """Per-trajectory tables shared across a (lambda, phi) battery and the
    Kato residuals against other trajectories.

    Holds the state stack, the flux at the cell centers (one FluxAt, smoothed
    at the run's epsilon, for the solution, every lambda and every other
    trajectory), and on first use the sharp flux at the solution, the
    interface traces, and per lambda the flux, the smooth divergence and the
    interface jump at that state, so that a battery evaluates each of them
    once.  A residual reads these tables on its test function's support box.
    """

    def __init__(self, trajectory: Trajectory, model: PiecewiseFlux):
        if trajectory.grid.d != model.d:
            raise ValueError("trajectory and model dimension mismatch")
        if abs(trajectory.times[0]) > 1e-14:
            raise ValueError("residuals need the initial state: trajectory must start at t = 0")
        self.trajectory = trajectory
        self.model = model
        grid = trajectory.grid
        self.counts = tuple(grid.counts)
        self.times = np.asarray(trajectory.times)
        self.tw = _time_weights(self.times)
        self.points = grid.points().reshape(-1, grid.d)
        self.cell_volume = grid.cell_volume
        self.states = trajectory.states.reshape(len(self.times), -1)
        self.flux = model.at(self.points, trajectory.manifest.get("epsilon"))
        self._lam_cache: dict[float, tuple] = {}

    @cached_property
    def flux_u(self) -> np.ndarray:
        return self.flux.value(self.states)

    @cached_property
    def traces(self) -> TraceField | None:
        return None if self.model.interface is None else interface_trace(self.trajectory, self.model)

    @cached_property
    def _jump(self):
        return flatten_model(self.model).at(self.traces.surface_points)

    def _lam_tables(self, lam: float):
        """(flux (n_cells, d), smooth divergence (n_cells,), interface jump
        or None) at the frozen state lam."""
        key = float(lam)
        if key not in self._lam_cache:
            if not (self.model.a <= key <= self.model.b):
                raise ValueError(f"lambda = {lam} outside [{self.model.a}, {self.model.b}]")
            state = np.full(self.points.shape[0], key)
            jump = self._interface_jump(key) if self.traces is not None else None
            self._lam_cache[key] = (self.flux.value(state), self.flux.divergence(state), jump)
        return self._lam_cache[key]

    def _interface_jump(self, lam: float) -> np.ndarray:
        """(F_R - F_L)(x, lam) on the interface, in transformed normal form."""
        j = self.model.interface.axis
        lam_arr = np.full(self._jump.points.shape[0], float(lam))
        return term_sum(self._jump.terms(1, j), lam_arr) - term_sum(self._jump.terms(0, j), lam_arr)

    def _phi_box(self, phi):
        """phi's support box and, on it, its trapezoid-weighted tables
        grad phi per axis, phi_t and phi."""
        box = phi.support(self.trajectory.grid, self.times)
        t, w = self.times[box[0], None], self.tw[box[0], None]
        points = _box(self.points[None], self.counts, (slice(None),) + box[1:]).reshape(-1, len(self.counts))
        tables = _phi_tables(phi, t, w, points)
        tables.append(phi.value(t, points) * w)
        return box, tables

    def _initial(self, phi) -> np.ndarray:
        """phi at t = 0 on every cell, a (1, cells) row."""
        return phi.value(self.times[:1, None], self.points)

    def _surface(self, phi) -> np.ndarray:
        """phi on the interface at every recorded time, trapezoid-weighted."""
        return phi.value(self.times[:, None], self.traces.surface_points) * self.tw[:, None]

    def terms(self, lambdas: Sequence[float], phi) -> np.ndarray:
        """The terms of E(lam, phi), one row per lam of `lambdas` in the
        columns of ENTROPY_TERMS; E is their sum and admissibility asks
        E >= -tol.

        E = |Q| sum_t tw [ |u - lam| phi_t + sgn(u - lam) (F(u) - F(lam)) . grad phi
                           - sgn(u - lam) div F(lam) phi ]
            - tangential weight * interface term + |Q| |u_0 - lam| . phi(0),

        the time, convection, divergence, interface (0 without an interface)
        and initial terms.  The space-time sums run over phi's support box,
        where the tables hold the values, in the same order, of the block of
        times x cells on which phi is nonzero; the t = 0 row and the
        interface term run over their full tables, since an einsum over a
        sub-block of them sums in another order.  The tables of lam enter
        through column sums S_w = sum_t sgn(u - lam) w per cell of each
        weighted table w: convection is sgn . (F(u) . grad phi) minus the
        sum over axes k of S_(d_k phi) . F_k(lam), divergence is
        -S_phi . div F(lam).  Every operand of a sum is C-contiguous, so a
        sum reads the same bits whichever block it runs over."""
        lam_tables = [self._lam_tables(lam) for lam in lambdas]
        box, (*wg, wdt, wv) = self._phi_box(phi)
        shape, cells = wdt.shape, (slice(None),) + box[1:]
        states = _box(self.states, self.counts, box)
        flux_u = _box(self.flux_u, self.counts, box)
        conv_u = sum(flux_u[..., k].reshape(shape) * g for k, g in enumerate(wg))
        phi0 = self._initial(phi)
        tr = self.traces
        if tr is not None:
            surf = self._surface(phi)

        vol = self.cell_volume
        out = np.zeros((len(lam_tables), len(ENTROPY_TERMS)))
        for row, lam, (flux_lam, div_lam, jump) in zip(out, lambdas, lam_tables):
            diff = (states - lam).reshape(shape)
            sgn = np.sign(diff)
            flux_lam = _box(flux_lam[None], self.counts, cells).reshape(shape[1], -1)
            div_lam = _box(div_lam[None], self.counts, cells).reshape(shape[1])
            convection = _dot(sgn, conv_u) - _dot(np.stack([_column_sum(sgn, g) for g in wg], axis=-1), flux_lam)
            row[0] = vol * _dot(np.abs(diff, out=diff), wdt)
            row[1] = vol * convection
            row[2] = -vol * np.einsum("j,j->", _column_sum(sgn, wv), div_lam)
            if tr is not None:
                row[3] = -tr.tangential_weight * _dot(np.sign(tr.averaged - lam), jump * surf)
            row[4] = vol * _dot(np.abs(self.states[:1] - lam), phi0)
        return out

    def kato(self, other: Trajectory, phis) -> np.ndarray:
        """The terms of K(phi) of this trajectory u against `other` v, one
        row per phi of `phis` in the columns of KATO_TERMS; K is their sum
        and the Kato inequality asks K >= -tol.

        K = |Q| sum_t tw [ |u - v| phi_t + sgn(u - v) (F_eps(u) - F_eps(v)) . grad phi ]
            + |Q| |u_0 - v_0| . phi(0).

        No divergence term: sgn(u - v) (F(x, u) - F(x, v)) is the whole Kato
        flux (Kruzhkov 1970).  The phi-independent tables are built once for
        all phis and every sum runs over the full tables."""
        if other.grid != self.trajectory.grid:
            raise ValueError("kato residual needs a shared grid")
        if len(other.times) != len(self.times) or not np.allclose(other.times, self.times):
            raise ValueError("kato residual needs matching output times")
        v = other.states.reshape(len(self.times), -1)
        dist = np.abs(self.states - v)
        sgn = np.sign(self.states - v)
        flux_diff = self.flux.smoothed(self.states) - self.flux.smoothed(v)
        conv = [sgn * flux_diff[..., k] for k in range(self.model.d)]
        del flux_diff, sgn

        out = np.empty((len(phis), len(KATO_TERMS)))
        for row, phi in zip(out, phis):
            *wg, wdt = _phi_tables(phi, self.times[:, None], self.tw[:, None], self.points)
            row[:] = _dot(dist, wdt), sum(_dot(c, g) for c, g in zip(conv, wg)), _dot(dist[:1], self._initial(phi))
        return out * self.cell_volume


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class EntropyEntry:
    lam: float | None
    phi_id: str
    residual: float
    tol: float
    passed: bool
    terms: dict[str, float] | None  # the residual's terms, on failing entries only


@dataclass(frozen=True)
class EntropyReport:
    entries: tuple[EntropyEntry, ...]
    min_residual: float
    worst: tuple[float | None, str]
    passed: bool
    trace: TraceField | None  # the interface traces the residuals read; None without an interface and for Kato

    def to_json(self) -> dict:
        return {
            "entries": [
                {"lambda": e.lam, "phi_id": e.phi_id, "residual": e.residual, "tol": e.tol, "pass": e.passed,
                 **({} if e.terms is None else {"terms": e.terms})}
                for e in self.entries
            ],
            "summary": {
                "min_residual": self.min_residual,
                "worst_lambda": self.worst[0],
                "worst_phi": self.worst[1],
                "pass": self.passed,
                "count": len(self.entries),
            },
        }


def _battery(trajectory: Trajectory, phis, tol_factor: float, names: tuple[str, ...], rows, trace) -> EntropyReport:
    """The report, carrying `trace`, of `rows(phis)`, which yields per test
    function its (lambda, terms) rows, the terms a list in the order of
    `names`, on the default bump battery when phis is None.  A row's residual
    is the sum of its terms from left to right; a failing row carries them.

    tol per row = tol_factor * ||phi||_C1 * |domain| (Design note: scaling
    with the test function bars tiny bumps from passing trivially)."""
    box = trajectory.grid.box
    if phis is None:
        phis = bump_battery(box, trajectory.times[-1])
    for phi in phis:
        phi.validate(box, trajectory.times[-1])
    entries = []
    for phi, found in zip(phis, rows(phis)):
        tol = float(tol_factor * phi.c1_norm * box.volume)
        for lam, terms in found:
            r = sum(terms)
            passed = bool(r >= -tol)
            entries.append(EntropyEntry(lam, phi.label, r, tol, passed, None if passed else dict(zip(names, terms))))
    worst_row = min(entries, key=lambda e: e.residual)
    return EntropyReport(
        entries=tuple(entries),
        min_residual=worst_row.residual,
        worst=(worst_row.lam, worst_row.phi_id),
        passed=all(e.passed for e in entries),
        trace=trace)


def entropy_battery(trajectory: Trajectory, model: PiecewiseFlux,
                    phis: Sequence[TestFunction] | None = None,
                    tol_factor: float = 1e-3) -> EntropyReport:
    """The admissibility residual of every state of lambda_battery(a, b)
    against every test function.  Pass flatten_model(model) for the
    residuals in flattened coordinates."""
    ws = ResidualWorkspace(trajectory, model)
    lambdas = lambda_battery(model.a, model.b).tolist()
    return _battery(trajectory, phis, tol_factor, ENTROPY_TERMS,
                    lambda phis: (zip(lambdas, ws.terms(lambdas, phi).tolist()) for phi in phis), ws.traces)


def kato_battery(u1: Trajectory, u2: Trajectory, model: PiecewiseFlux,
                 phis: Sequence[TestFunction] | None = None,
                 tol_factor: float = 1e-3) -> EntropyReport:
    """The Kato residual of the pair (u1, u2) against every test function."""
    ws = ResidualWorkspace(u1, model)
    return _battery(u1, phis, tol_factor, KATO_TERMS,
                    lambda phis: ([(None, row)] for row in ws.kato(u2, phis).tolist()), None)


# ---------------------------------------------------------------------------
# distances and cones


def l1_distance(u1: Field, u2: Field, cells: np.ndarray | None = None) -> float:
    """L1 distance over the grid, or over the cells a boolean mask of the
    grid's shape selects (a cone section, say: Cone.cells)."""
    if u1.grid != u2.grid:
        raise ValueError("l1_distance needs a shared grid")
    diff = np.abs(u1.values - u2.values)
    if cells is not None:
        diff = diff[cells]
    return float(diff.sum() * u1.grid.cell_volume)


@dataclass(frozen=True)
class ConeLocalityReport:
    kappa: float
    tol: float
    passed: bool
    per_time: tuple[dict, ...]


def cone_locality_check(ta: Trajectory, tb: Trajectory, cone: Cone, tol: float) -> ConeLocalityReport:
    """L1 difference on the cone section at each recorded time; kappa is
    the worst.

    The strict cone property holds only in the vanishing-viscosity limit, so
    the check passes on a parabolic-leak tolerance rather than exactly.
    """
    if ta.grid != tb.grid or len(ta.times) != len(tb.times):
        raise ValueError("cone check needs comparable trajectories")
    rows = []
    kappa = 0.0
    for i, t in enumerate(ta.times):
        radius = cone.section_radius(t)
        if radius <= 0:
            break
        l1 = l1_distance(ta.field(i), tb.field(i), cone.cells(ta.grid, t))
        kappa = max(kappa, l1)
        rows.append({"time": float(t), "section_radius": float(radius), "l1": l1})
    return ConeLocalityReport(kappa=kappa, tol=tol, passed=kappa <= tol, per_time=tuple(rows))
